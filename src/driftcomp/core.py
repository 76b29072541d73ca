"""Core domain types: prototype tables (class ids and one matrix), class
means, and cosine nearest-class-mean prediction. `FeatureRecord`, one
checked vector with its class and task, remains for `_Source.train_records`.

All arithmetic is float64; values are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Tuple

import numpy as np

from .errors import DegenerateInputError, DimensionError


@dataclass(frozen=True)
class FeatureRecord:
    """One embedding vector with its class id and task of origin."""

    vector: np.ndarray
    class_id: int
    task_id: int

    def __post_init__(self):
        vector = np.array(self.vector, dtype=np.float64)
        if vector.ndim != 1 or vector.size == 0:
            raise DimensionError(f"feature vector must be 1-D and non-empty, got shape {vector.shape}")
        if not np.all(np.isfinite(vector)):
            raise DegenerateInputError("feature vector contains non-finite components")
        vector.flags.writeable = False
        object.__setattr__(self, "vector", vector)
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")
        if self.task_id < 0:
            raise ValueError(f"task_id must be non-negative, got {self.task_id}")

    @property
    def dimension(self) -> int:
        return self.vector.shape[0]


class PrototypeTable:
    """Class prototypes: the class ids in ascending order and a read-only
    (C, d) matrix whose rows follow that order.

    The constructor checks its input once: the ids are distinct
    non-negative integers, the matrix is (len(class_ids), d) with d >= 1,
    and every value is finite. Unsorted ids are sorted together with their
    rows. Instances are immutable; evolution operations return new tables.
    """

    def __init__(self, class_ids, matrix):
        ids = np.asarray(class_ids)
        if ids.size == 0:
            raise ValueError("prototype table must contain at least one class")
        if (ids.ndim != 1 or ids.dtype.kind not in "iu" or ids.min() < 0
                or np.unique(ids).size != ids.size):
            raise ValueError("class ids must be a 1-D array of distinct non-negative integers")
        order = np.argsort(ids)
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(ids) or matrix.shape[1] == 0:
            raise DimensionError(
                f"prototype matrix must be ({len(ids)}, d) with d >= 1, got shape {matrix.shape}"
            )
        if not np.all(np.isfinite(matrix)):
            raise DegenerateInputError("prototype matrix contains non-finite components")
        self._assign(tuple(int(c) for c in ids[order]), matrix[order])

    def _assign(self, class_ids: Tuple[int, ...], matrix: np.ndarray) -> None:
        self._class_ids = class_ids
        self._matrix = matrix
        self._matrix.flags.writeable = False
        self._row = {c: i for i, c in enumerate(class_ids)}

    @classmethod
    def _from_checked_rows(cls, class_ids, matrix: np.ndarray) -> "PrototypeTable":
        """Table over rows already validated; `class_ids` must be ascending."""
        table = cls.__new__(cls)
        table._assign(tuple(class_ids), matrix)
        return table

    @property
    def dimension(self) -> int:
        return self._matrix.shape[1]

    @property
    def class_ids(self) -> Tuple[int, ...]:
        return self._class_ids

    def __len__(self) -> int:
        return len(self._class_ids)

    def __contains__(self, class_id: int) -> bool:
        return class_id in self._row

    def prototype(self, class_id: int) -> np.ndarray:
        return self._matrix[self._row[class_id]]

    def matrix(self) -> np.ndarray:
        """Prototypes stacked as rows, in ascending class-id order (read-only)."""
        return self._matrix

    def merged_with(self, other: "PrototypeTable") -> "PrototypeTable":
        """Union of two tables; overlapping class ids take `other`'s entry."""
        if other.dimension != self.dimension:
            raise DimensionError(
                f"cannot merge tables of dimension {self.dimension} and {other.dimension}"
            )
        kept = [i for i, c in enumerate(self._class_ids) if c not in other]
        class_ids = [self._class_ids[i] for i in kept] + list(other._class_ids)
        order = sorted(range(len(class_ids)), key=class_ids.__getitem__)
        matrix = np.vstack([self._matrix[kept], other._matrix])[order]
        return PrototypeTable._from_checked_rows([class_ids[i] for i in order], matrix)

    def restricted_to(self, class_ids: Iterable[int]) -> "PrototypeTable":
        rows = sorted({self._row[c] for c in class_ids})
        if not rows:
            raise ValueError("prototype table must contain at least one class")
        return PrototypeTable._from_checked_rows(
            [self._class_ids[i] for i in rows], self._matrix[rows])


def class_means(matrices: Mapping[int, np.ndarray]) -> PrototypeTable:
    """Prototype table of per-class arithmetic means.

    `matrices` maps each class id to its (n, d) feature rows. Each mean is
    summed row by row, first to last, as adding the rows one at a time
    does: `cumsum` is sequential by definition, whereas `sum` switches to
    pairwise summation when the rows are the contiguous axis (d = 1).
    """
    if not matrices:
        raise ValueError("prototype table must contain at least one class")
    class_ids = tuple(sorted(int(c) for c in matrices))
    means = []
    for c in class_ids:
        rows = np.asarray(matrices[c], dtype=np.float64)
        if rows.ndim != 2 or rows.size == 0:
            raise DimensionError(
                f"class {c} features must be a non-empty (n, d) matrix, got shape {rows.shape}"
            )
        if means and rows.shape[1] != means[0].shape[0]:
            raise DimensionError(
                f"class {c} features have dimension {rows.shape[1]}, expected {means[0].shape[0]}"
            )
        means.append(np.cumsum(rows, axis=0)[-1] / rows.shape[0])
    matrix = np.vstack(means)
    # a non-finite feature makes its column's sum non-finite
    if not np.all(np.isfinite(matrix)):
        raise DegenerateInputError("class features contain non-finite components")
    return PrototypeTable._from_checked_rows(class_ids, matrix)


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (C, d) matrix, by the arithmetic of
    `np.linalg.norm(matrix, axis=1)`, which reduces every row on its own."""
    return np.sqrt(np.add.reduce(matrix * matrix, axis=1))


def _nearest_class(feature: np.ndarray, class_ids: Tuple[int, ...], matrix: np.ndarray,
                   norms: np.ndarray, zero_norm: bool) -> int:
    """Cosine nearest-class-mean over prototype rows `matrix` (C, d) in
    ascending `class_ids` order, given their `_row_norms` and whether any of
    them is zero.

    The feature norm is `np.linalg.norm`'s on a 1-D array: the square root
    of the dot product of its contiguous copy (a strided dot rounds
    differently). Raises DimensionError on a feature of the wrong shape and
    DegenerateInputError on a zero-norm feature or prototype.
    """
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape != (matrix.shape[1],):
        raise DimensionError(
            f"feature shape {feature.shape} does not match table dimension {matrix.shape[1]}"
        )
    flat = feature.ravel()
    fnorm = math.sqrt(flat.dot(flat))
    if fnorm == 0.0:
        raise DegenerateInputError("cosine similarity undefined for zero-norm feature")
    if zero_norm:
        bad = class_ids[int(np.argmin(norms))]
        raise DegenerateInputError(f"prototype of class {bad} has zero norm")
    sims = matrix @ feature / (norms * fnorm)
    # argmax returns the first maximum, the smallest class id among ties
    return class_ids[sims.argmax()]


def ncm_predict(feature: np.ndarray, prototypes: PrototypeTable) -> int:
    """Class whose prototype has the highest cosine similarity to `feature`.

    Ties break toward the smallest class id, making streams bit-reproducible.
    """
    matrix = prototypes.matrix()
    norms = _row_norms(matrix)
    return _nearest_class(feature, prototypes.class_ids, matrix, norms,
                          bool((norms == 0.0).any()))
