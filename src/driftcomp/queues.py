"""Paired bounded FIFO feature queues with pseudo-feature initialization.

The two queues hold paired observations (old-space feature, new-space
feature); pushes and evictions are always synchronized so row i of the old
matrix corresponds to row i of the new matrix.
"""

from __future__ import annotations

import warnings
from collections import deque

import numpy as np

from .core import PrototypeTable
from .errors import DimensionError

# defaults sized for long real-image streams
DEFAULT_CAPACITY = 3000
DEFAULT_NOISE_SCALE = 0.02


class FeatureQueue:
    """Bounded FIFO of d-vectors exposing an (length x d) matrix view."""

    def __init__(self, dimension: int, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self.dimension = int(dimension)
        self.capacity = int(capacity)
        self._buffer: deque = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self._buffer)

    def push_rows(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dimension:
            raise DimensionError(
                f"expected (k, {self.dimension}) matrix, got shape {rows.shape}"
            )
        for row in rows:
            self._buffer.append(row.copy())

    def matrix(self) -> np.ndarray:
        """Rows ordered oldest first; shape (length, d)."""
        if not self._buffer:
            return np.empty((0, self.dimension))
        return np.vstack(list(self._buffer))


class QueuePair:
    """Synchronized old/new feature queues of identical capacity and length."""

    def __init__(self, dimension: int, capacity: int):
        self.old_queue = FeatureQueue(dimension, capacity)
        self.new_queue = FeatureQueue(dimension, capacity)

    @property
    def dimension(self) -> int:
        return self.old_queue.dimension

    @property
    def capacity(self) -> int:
        return self.old_queue.capacity

    def __len__(self) -> int:
        return len(self.old_queue)

    def push(self, old_features: np.ndarray, new_features: np.ndarray) -> None:
        old_features = np.atleast_2d(np.asarray(old_features, dtype=np.float64))
        new_features = np.atleast_2d(np.asarray(new_features, dtype=np.float64))
        if old_features.shape != new_features.shape:
            raise DimensionError(
                f"paired pushes must have equal shapes, got {old_features.shape} "
                f"and {new_features.shape}"
            )
        self.old_queue.push_rows(old_features)
        self.new_queue.push_rows(new_features)

    def matrices(self):
        return self.old_queue.matrix(), self.new_queue.matrix()


def init_with_pseudo_features(
    prototypes: PrototypeTable,
    projector,
    capacity: int = DEFAULT_CAPACITY,
    noise_scale: float = DEFAULT_NOISE_SCALE,
    rng_seed: int = 0,
) -> QueuePair:
    """Fill a fresh QueuePair with noised old-class prototypes.

    Each old-space row is a uniformly chosen old prototype plus isotropic
    Gaussian noise scaled by `noise_scale`; the paired new-space row is the
    projector image of that row. Reproducible from `rng_seed`.
    """
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be non-negative, got {noise_scale}")
    d = prototypes.dimension
    if projector.dimension != d:
        raise DimensionError(
            f"projector dimension {projector.dimension} does not match prototypes ({d})"
        )
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
    old_rows = proto_matrix[choices] + noise_scale * rng.standard_normal((capacity, d))
    new_rows = projector.apply(old_rows)
    pair = QueuePair(d, capacity)
    pair.push(old_rows, new_rows)
    return pair
