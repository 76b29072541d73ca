"""Paired bounded FIFO feature queue with pseudo-feature initialization.

The queue holds paired observations (old-space feature, new-space feature)
as one row each, so row i of the old matrix always corresponds to row i of
the new matrix. Once read, it keeps the normal equations of the
least-squares fit Q_old W = Q_new over the rows held (sliding-window least
squares): a push journals what moved, and the queue catches up when the
equations are read, so a solve never has to rebuild them from the rows.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg.blas import dgemm

from .core import PrototypeTable
from .errors import DegenerateInputError, DimensionError

# defaults sized for long real-image streams
DEFAULT_CAPACITY = 3000
DEFAULT_NOISE_SCALE = 0.02


class QueuePair:
    """Bounded FIFO of paired (old-space, new-space) feature rows, with the
    normal equations of the least-squares fit Q_old W = Q_new.

    The rows live in one preallocated (capacity, 2d) ring, each row the old
    features then the new, so the two sides always move together. `gram`
    (Q_old^T Q_old) and `cross` (Q_old^T Q_new) over the rows held are the
    two column halves of one Fortran-ordered (d, 2d) block Q_old^T
    [Q_old | Q_new], computed from the rows at their first read and kept
    from then on: each push journals the (k, 2d) rows that entered and the
    (j, 2d) rows that left, and a read applies the journal with one rank-k
    gemm (beta = 1) into the block, the entered rows +1, then the left rows
    -1. Once `capacity` rows have entered since the last recompute, both
    halves are recomputed from the rows, which bounds the rounding the
    updates accumulate and empties the journal; `recomputes` counts these
    and the first read. `moved_since` hands a window the rows moved by the
    pushes after a given count of `pushes`. Each read returns the same two
    views; callers must not write to them.
    """

    def __init__(self, dimension: int, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self.dimension = d = int(dimension)
        self.capacity = int(capacity)
        self._rows = np.empty((self.capacity, 2 * d))
        self._start = 0      # slot of the oldest row
        self._length = 0
        self._normal = np.zeros((d, 2 * d), order="F")
        self._gram, self._cross = self._normal[:, :d], self._normal[:, d:]
        self._since_recompute = 0   # rows pushed since gram and cross were recomputed
        self.recomputes = 0
        self.pushes = 0
        self._journal: list[tuple[np.ndarray, np.ndarray]] | None = None   # None until read

    @property
    def gram(self) -> np.ndarray:
        """Q_old^T Q_old over the rows held, a (d, d) Fortran-ordered view."""
        self._catch_up()
        return self._gram

    @property
    def cross(self) -> np.ndarray:
        """Q_old^T Q_new over the rows held, a (d, d) Fortran-ordered view."""
        self._catch_up()
        return self._cross

    def __len__(self) -> int:
        return self._length

    def _ordered(self, first: int, count: int, columns=np.s_[:]) -> np.ndarray:
        """Copy of `count` rows from ring slot `first` on, wrapping around."""
        head = self._rows[first:first + count, columns]
        if len(head) == count:
            return head.copy()
        return np.concatenate([head, self._rows[:count - len(head), columns]])

    def _enqueue(self, rows: np.ndarray) -> np.ndarray:
        """Append rows to the ring; return the rows that left, oldest first.

        A push of more than `capacity` rows evicts every row held before it
        and also returns its own first rows, which never stay.
        """
        k = rows.shape[0]
        if k >= self.capacity:
            evicted = np.concatenate([self._ordered(self._start, self._length),
                                      rows[:k - self.capacity]])
            self._rows[:] = rows[k - self.capacity:]
            self._start, self._length = 0, self.capacity
            return evicted
        n_evicted = max(0, self._length + k - self.capacity)
        evicted = self._ordered(self._start, n_evicted)
        first = (self._start + self._length) % self.capacity
        split = min(k, self.capacity - first)   # rows that fit before the ring end
        self._rows[first:first + split] = rows[:split]
        if split < k:
            self._rows[:k - split] = rows[split:]
        self._start = (self._start + n_evicted) % self.capacity
        self._length += k - n_evicted
        return evicted

    def push(self, old_features: np.ndarray,
             new_features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Push paired rows and return the (old, new) rows that left, oldest
        first; rows of the wrong shape raise DimensionError and non-finite
        rows DegenerateInputError, both leaving the pair as it was."""
        old_features = np.asarray(old_features, dtype=np.float64)
        new_features = np.asarray(new_features, dtype=np.float64)
        # a 0-d or 1-d push is one row, as np.atleast_2d reads it
        if old_features.ndim < 2:
            old_features = old_features.reshape(1, -1)
        if new_features.ndim < 2:
            new_features = new_features.reshape(1, -1)
        d = self.dimension
        if old_features.shape != new_features.shape or old_features.shape[1:] != (d,):
            raise DimensionError(
                f"paired pushes must both be (k, {d}) matrices, got "
                f"{old_features.shape} and {new_features.shape}"
            )
        entering = np.concatenate([old_features, new_features], axis=1)
        if not np.isfinite(entering).all():
            raise DegenerateInputError("queued features contain non-finite components")
        left = self._enqueue(entering)
        self.pushes += 1
        if self._journal is not None:
            self._since_recompute += len(entering)
            if self._since_recompute >= self.capacity:
                self._recompute()
            else:
                self._journal.append((entering, left))
        return left[:, :d], left[:, d:]

    def _recompute(self) -> None:
        q_old, q_new = self.matrices()
        self._gram[...] = q_old.T @ q_old
        self._cross[...] = q_old.T @ q_new
        self._since_recompute = 0
        self._journal = []
        self.recomputes += 1

    def _moved(self, entries) -> tuple[np.ndarray, int]:
        """The rows the journal `entries` moved, those that entered then
        those that left, and the number that entered."""
        entering, left = zip(*entries) if entries else ((self._rows[:0],), ())
        return np.concatenate(entering + left), sum(map(len, entering))

    def _catch_up(self) -> None:
        """Compute the block at the first read, else apply the journal."""
        if self._journal is None:
            self._recompute()
        elif self._journal:
            # entering rows count +1, leaving rows -1; the transposed views are
            # Fortran-ordered, so f2py copies none and writes the block in place
            moved, entered = self._moved(self._journal)
            signed = moved[:, :self.dimension].copy()
            signed[entered:] *= -1.0
            dgemm(1.0, signed.T, moved.T, beta=1.0, c=self._normal, trans_b=1, overwrite_c=1)
            self._journal.clear()

    def moved_since(self, pushes: int) -> tuple[np.ndarray, np.ndarray, int] | None:
        """(old, new, number entered) of the rows moved by the pushes after
        the first `pushes`, those that entered first, as C-ordered copies;
        None when the journal no longer reaches that far back (the queue
        was never read, or since then it recomputed or was read)."""
        journal = self._journal
        if journal is None or pushes < self.pushes - len(journal):
            return None
        moved, entered = self._moved(journal[pushes - (self.pushes - len(journal)):])
        return moved[:, :self.dimension].copy(), moved[:, self.dimension:].copy(), entered

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """The (old, new) rows held, oldest first, as two C-ordered (length, d)
        copies; contiguous halves keep the GD solver's products fast."""
        d, first, count = self.dimension, self._start, self._length
        return self._ordered(first, count, np.s_[:d]), self._ordered(first, count, np.s_[d:])


def init_with_pseudo_features(
    prototypes: PrototypeTable,
    capacity: int = DEFAULT_CAPACITY,
    noise_scale: float = DEFAULT_NOISE_SCALE,
    rng_seed: int = 0,
) -> QueuePair:
    """Fill a fresh QueuePair with noised old-class prototypes.

    Each old-space row is a uniformly chosen old prototype plus isotropic
    Gaussian noise scaled by `noise_scale`, and is paired with itself, so
    the queue's first fit is the identity map. Reproducible from `rng_seed`.
    """
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be non-negative, got {noise_scale}")
    d = prototypes.dimension
    rng = np.random.default_rng(rng_seed)
    proto_matrix = prototypes.matrix()
    choices = rng.integers(0, len(prototypes), size=capacity)
    if noise_scale == 0.0:
        # every row is a drawn prototype, so the Gram's rank is at most the
        # number of distinct prototypes drawn, itself at most
        # min(capacity, classes)
        drawn = len(np.unique(choices))
        if drawn < d:
            warnings.warn(
                f"noise_scale=0 leaves the Gram matrix rank-deficient until real features "
                f"arrive: its rank is at most {drawn}, the number of distinct prototypes "
                f"drawn, below d = {d}",
                RuntimeWarning,
                stacklevel=2,
            )
    rows = proto_matrix[choices] + noise_scale * rng.standard_normal((capacity, d))
    pair = QueuePair(d, capacity)
    pair.push(rows, rows)
    return pair
