"""Paired bounded FIFO feature queues with pseudo-feature initialization.

The two queues hold paired observations (old-space feature, new-space
feature); pushes and evictions are always synchronized so row i of the old
matrix corresponds to row i of the new matrix. The pair keeps the normal
equations of the least-squares fit Q_old W = Q_new current as rows enter
and leave (sliding-window least squares), so a solve never has to rebuild
them from the rows.
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


class FeatureQueue:
    """Bounded FIFO of d-vectors held in a preallocated (capacity, d) ring."""

    def __init__(self, dimension: int, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self.dimension = int(dimension)
        self.capacity = int(capacity)
        self._rows = np.empty((self.capacity, self.dimension))
        self._start = 0      # slot of the oldest row
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def _ordered(self, first: int, count: int) -> np.ndarray:
        """Copy of `count` rows from ring slot `first` on, wrapping around."""
        head = self._rows[first:first + count]
        return np.concatenate([head, self._rows[:count - len(head)]])

    def push_rows(self, rows: np.ndarray) -> np.ndarray:
        """Append rows; return the rows that left the queue, oldest first.

        A push of more than `capacity` rows evicts every row held before it
        and also returns its own first rows, which never stay.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dimension:
            raise DimensionError(
                f"expected (k, {self.dimension}) matrix, got shape {rows.shape}"
            )
        k = rows.shape[0]
        if k >= self.capacity:
            evicted = np.concatenate([self.matrix(), rows[:k - self.capacity]])
            self._rows[:] = rows[k - self.capacity:]
            self._start, self._length = 0, self.capacity
            return evicted
        n_evicted = max(0, self._length + k - self.capacity)
        evicted = self._ordered(self._start, n_evicted)
        first = (self._start + self._length) % self.capacity
        split = min(k, self.capacity - first)   # rows that fit before the ring end
        self._rows[first:first + split] = rows[:split]
        self._rows[:k - split] = rows[split:]
        self._start = (self._start + n_evicted) % self.capacity
        self._length += k - n_evicted
        return evicted

    def matrix(self) -> np.ndarray:
        """Rows ordered oldest first; shape (length, d)."""
        return self._ordered(self._start, self._length)


class QueuePair:
    """Synchronized old/new feature queues of identical capacity and length,
    with their normal equations.

    `gram` is Q_old^T Q_old and `cross` is Q_old^T Q_new over the rows held,
    both Fortran-ordered and updated in place. Each push adds the entering
    rows' products and subtracts the leaving rows' with one rank-k gemm
    (beta = 1) into each; once `capacity` rows have entered since the last
    recompute, both are recomputed from the rows, which bounds the rounding
    the updates accumulate; `recomputes` counts those recomputes. Callers
    must not write to them.
    """

    def __init__(self, dimension: int, capacity: int):
        self.old_queue = FeatureQueue(dimension, capacity)
        self.new_queue = FeatureQueue(dimension, capacity)
        self.gram = np.zeros((dimension, dimension), order="F")
        self.cross = np.zeros((dimension, dimension), order="F")
        self._entered = 0    # rows pushed since gram and cross were recomputed
        self.recomputes = 0

    @property
    def dimension(self) -> int:
        return self.old_queue.dimension

    @property
    def capacity(self) -> int:
        return self.old_queue.capacity

    def __len__(self) -> int:
        return len(self.old_queue)

    def push(self, old_features: np.ndarray,
             new_features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Push paired rows and return the (old, new) rows that left, oldest
        first; non-finite rows raise DegenerateInputError and leave the pair
        as it was."""
        old_features = np.atleast_2d(np.asarray(old_features, dtype=np.float64))
        new_features = np.atleast_2d(np.asarray(new_features, dtype=np.float64))
        if old_features.shape != new_features.shape:
            raise DimensionError(
                f"paired pushes must have equal shapes, got {old_features.shape} "
                f"and {new_features.shape}"
            )
        if not (np.all(np.isfinite(old_features)) and np.all(np.isfinite(new_features))):
            raise DegenerateInputError("queued features contain non-finite components")
        left_old = self.old_queue.push_rows(old_features)
        left_new = self.new_queue.push_rows(new_features)
        self._entered += old_features.shape[0]
        if self._entered >= self.capacity:
            q_old, q_new = self.matrices()
            self.gram[...] = q_old.T @ q_old
            self.cross[...] = q_old.T @ q_new
            self._entered = 0
            self.recomputes += 1
            return left_old, left_new
        # entering rows count with weight +1, leaving rows with -1; the
        # transposed views are Fortran-ordered, so f2py copies none of them
        moved_old = np.concatenate([old_features, left_old])
        moved_new = np.concatenate([new_features, left_new])
        signed = moved_old.copy()
        signed[len(old_features):] *= -1.0
        self.gram = dgemm(1.0, signed.T, moved_old.T, beta=1.0, c=self.gram,
                          trans_b=1, overwrite_c=1)
        self.cross = dgemm(1.0, signed.T, moved_new.T, beta=1.0, c=self.cross,
                           trans_b=1, overwrite_c=1)
        return left_old, left_new

    def matrices(self):
        return self.old_queue.matrix(), self.new_queue.matrix()


def init_with_pseudo_features(
    prototypes: PrototypeTable,
    capacity: int = DEFAULT_CAPACITY,
    noise_scale: float = DEFAULT_NOISE_SCALE,
    rng_seed: int = 0,
) -> QueuePair:
    """Fill a fresh QueuePair with noised old-class prototypes.

    Each old-space row is a uniformly chosen old prototype plus isotropic
    Gaussian noise scaled by `noise_scale`, and is paired with itself, so
    the queues' first fit is the identity map. Reproducible from `rng_seed`.
    """
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be non-negative, got {noise_scale}")
    d = prototypes.dimension
    if noise_scale == 0.0 and capacity > len(prototypes):
        warnings.warn(
            "noise_scale=0 with capacity above the class count leaves the Gram "
            "matrix rank-deficient until real features arrive",
            RuntimeWarning,
            stacklevel=2,
        )
    rng = np.random.default_rng(rng_seed)
    proto_matrix = prototypes.matrix()
    choices = rng.integers(0, len(prototypes), size=capacity)
    rows = proto_matrix[choices] + noise_scale * rng.standard_normal((capacity, d))
    pair = QueuePair(d, capacity)
    pair.push(rows, rows)
    return pair
