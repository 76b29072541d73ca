"""Core domain types: feature records, prototype tables, task datasets,
prototype computation and cosine nearest-class-mean prediction.

All arithmetic is float64; values are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from .errors import DegenerateInputError, DimensionError


def _as_feature_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"feature vector must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError("feature vector must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DegenerateInputError("feature vector contains non-finite components")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FeatureRecord:
    """One embedding vector with its class id and task of origin."""

    vector: np.ndarray
    class_id: int
    task_id: int

    def __post_init__(self):
        object.__setattr__(self, "vector", _as_feature_vector(self.vector))
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")
        if self.task_id < 0:
            raise ValueError(f"task_id must be non-negative, got {self.task_id}")

    @property
    def dimension(self) -> int:
        return self.vector.shape[0]


class PrototypeTable:
    """Map from class id to (prototype vector, task at which it was last aligned).

    Held as a sorted class-id tuple, a read-only (C, d) matrix whose rows
    follow that order, and the aligned tasks in the same order. Instances
    are immutable; evolution operations return new tables.
    """

    def __init__(self, entries: Mapping[int, Tuple[np.ndarray, int]]):
        if not entries:
            raise ValueError("prototype table must contain at least one class")
        class_ids = sorted(entries)
        rows = [_as_feature_vector(entries[c][0]) for c in class_ids]
        dim = rows[0].shape[0]
        for class_id, row in zip(class_ids, rows):
            if row.shape[0] != dim:
                raise DimensionError(
                    f"prototype for class {class_id} has dimension {row.shape[0]}, expected {dim}"
                )
        self._assign(tuple(int(c) for c in class_ids), np.vstack(rows),
                     tuple(int(entries[c][1]) for c in class_ids))

    def _assign(self, class_ids: Tuple[int, ...], matrix: np.ndarray,
                aligned_tasks: Tuple[int, ...]) -> None:
        self._class_ids = class_ids
        self._matrix = matrix
        self._matrix.flags.writeable = False
        self._aligned_tasks = aligned_tasks
        self._row = {c: i for i, c in enumerate(class_ids)}

    @classmethod
    def _from_checked_rows(cls, class_ids, matrix: np.ndarray, aligned_tasks) -> "PrototypeTable":
        """Table over rows already validated; `class_ids` must be ascending."""
        table = cls.__new__(cls)
        table._assign(tuple(class_ids), matrix, tuple(aligned_tasks))
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

    def aligned_task(self, class_id: int) -> int:
        return self._aligned_tasks[self._row[class_id]]

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
        tasks = [self._aligned_tasks[i] for i in kept] + list(other._aligned_tasks)
        order = sorted(range(len(class_ids)), key=class_ids.__getitem__)
        matrix = np.vstack([self._matrix[kept], other._matrix])[order]
        return PrototypeTable._from_checked_rows(
            [class_ids[i] for i in order], matrix, [tasks[i] for i in order])

    def restricted_to(self, class_ids: Iterable[int]) -> "PrototypeTable":
        rows = sorted({self._row[c] for c in class_ids})
        if not rows:
            raise ValueError("prototype table must contain at least one class")
        return PrototypeTable._from_checked_rows(
            [self._class_ids[i] for i in rows], self._matrix[rows],
            [self._aligned_tasks[i] for i in rows])


@dataclass(frozen=True)
class TaskDataset:
    """Train/test records for one task plus its class set.

    Class sets of distinct tasks in one scenario must be disjoint; that is
    enforced by `check_disjoint_tasks` at scenario assembly.
    """

    records: Tuple[FeatureRecord, ...]
    test_records: Tuple[FeatureRecord, ...]
    class_set: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "test_records", tuple(self.test_records))
        object.__setattr__(self, "class_set", frozenset(self.class_set))
        for rec in self.records + self.test_records:
            if rec.class_id not in self.class_set:
                raise ValueError(
                    f"record class {rec.class_id} not in task class set {sorted(self.class_set)}"
                )


def check_disjoint_tasks(tasks: Sequence[TaskDataset]) -> None:
    """Raise if any two tasks share a class id."""
    seen: Dict[int, int] = {}
    for idx, task in enumerate(tasks):
        for c in task.class_set:
            if c in seen:
                raise ValueError(
                    f"class {c} appears in tasks {seen[c]} and {idx} (class sets must be disjoint)"
                )
            seen[c] = idx


def compute_prototypes(records: Sequence[FeatureRecord]) -> PrototypeTable:
    """Per-class arithmetic mean of the feature vectors.

    The aligned task of each prototype is the task_id of that class's records.
    """
    if not records:
        raise ValueError("cannot compute prototypes from an empty record sequence")
    dim = records[0].dimension
    sums: Dict[int, np.ndarray] = {}
    counts: Dict[int, int] = {}
    tasks: Dict[int, int] = {}
    for rec in records:
        if rec.dimension != dim:
            raise DimensionError(
                f"record dimension {rec.dimension} does not match expected {dim}"
            )
        if rec.class_id in sums:
            sums[rec.class_id] = sums[rec.class_id] + rec.vector
            counts[rec.class_id] += 1
        else:
            sums[rec.class_id] = rec.vector.copy()
            counts[rec.class_id] = 1
            tasks[rec.class_id] = rec.task_id
    entries = {
        c: (sums[c] / counts[c], tasks[c]) for c in sums
    }
    return PrototypeTable(entries)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity with hard errors on zero-norm inputs."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine similarity undefined for zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


def ncm_predict(feature: np.ndarray, prototypes: PrototypeTable) -> int:
    """Class whose prototype has the highest cosine similarity to `feature`.

    Ties break toward the smallest class id, making streams bit-reproducible.
    """
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape != (prototypes.dimension,):
        raise DimensionError(
            f"feature shape {feature.shape} does not match table dimension {prototypes.dimension}"
        )
    fnorm = np.linalg.norm(feature)
    if fnorm == 0.0:
        raise DegenerateInputError("cosine similarity undefined for zero-norm feature")
    proto = prototypes.matrix()
    norms = np.linalg.norm(proto, axis=1)
    if np.any(norms == 0.0):
        bad = prototypes.class_ids[int(np.argmin(norms))]
        raise DegenerateInputError(f"prototype of class {bad} has zero norm")
    sims = proto @ feature / (norms * fnorm)
    # class_ids are ascending and argmax returns the first maximum, so ties
    # resolve to the smallest class id
    return prototypes.class_ids[int(np.argmax(sims))]


def ncm_predict_batch(features: np.ndarray, prototypes: PrototypeTable) -> np.ndarray:
    """Vectorized `ncm_predict` over rows of `features`."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != prototypes.dimension:
        raise DimensionError(
            f"features shape {features.shape} does not match table dimension {prototypes.dimension}"
        )
    fnorms = np.linalg.norm(features, axis=1)
    if np.any(fnorms == 0.0):
        raise DegenerateInputError("cosine similarity undefined for zero-norm feature")
    proto = prototypes.matrix()
    pnorms = np.linalg.norm(proto, axis=1)
    if np.any(pnorms == 0.0):
        bad = prototypes.class_ids[int(np.argmin(pnorms))]
        raise DegenerateInputError(f"prototype of class {bad} has zero norm")
    sims = (features / fnorms[:, None]) @ (proto / pnorms[:, None]).T
    ids = np.asarray(prototypes.class_ids)
    return ids[np.argmax(sims, axis=1)]
