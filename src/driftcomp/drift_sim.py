"""Synthetic scenario generator with ground-truth drift transforms.

Class clusters live in a base feature space; each task boundary applies a
known global transform to every feature (emulating an encoder update), so
drift-compensation quality is exactly measurable against the stored map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.linalg

from .core import PrototypeTable, cosine_similarity
from .errors import DegenerateInputError

DRIFT_KINDS = ("identity", "rotation", "scaled_rotation", "general_affine", "nonlinear")


@dataclass(frozen=True)
class DriftSpec:
    """Declarative description of one task-boundary drift.

    kind:
      identity        exact identity map
      rotation        orthogonal map exp(magnitude * K), K random skew-symmetric
      scaled_rotation rotation times the scalar `scale`
      general_affine  I + magnitude * G with G random, condition number bounded
      nonlinear       general_affine plus magnitude * sin(z) elementwise
    observation_noise: stddev of Gaussian noise added to post-drift features.
    """

    kind: str = "identity"
    magnitude: float = 0.0
    scale: float = 1.0
    observation_noise: float = 0.0
    condition_bound: float = 50.0

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}; expected one of {DRIFT_KINDS}")
        if self.magnitude < 0:
            raise ValueError(f"magnitude must be non-negative, got {self.magnitude}")
        if self.observation_noise < 0:
            raise ValueError(f"observation_noise must be non-negative, got {self.observation_noise}")


class DriftMap:
    """A realized drift transform; linear part stored as a d x d matrix A.

    Features are row vectors, so apply(X) = X @ A.T (+ sine term for the
    nonlinear kind). `projector_target` is A.T, the W such that X @ W matches
    the linear part under the queue/projector row convention.
    """

    def __init__(self, matrix: np.ndarray, sine_strength: float = 0.0, kind: str = "general_affine"):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.sine_strength = float(sine_strength)
        self.kind = kind

    @property
    def is_linear(self) -> bool:
        return self.sine_strength == 0.0

    @property
    def projector_target(self) -> np.ndarray:
        return self.matrix.T.copy()

    def apply(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if self.kind == "identity":
            return features.copy()
        out = features @ self.matrix.T
        if self.sine_strength != 0.0:
            out = out + self.sine_strength * np.sin(features)
        return out


def _random_rotation(d: int, magnitude: float, rng: np.random.Generator) -> np.ndarray:
    b = rng.standard_normal((d, d))
    skew = (b - b.T) / np.sqrt(2.0 * d)
    return scipy.linalg.expm(magnitude * skew)


def _random_affine(d: int, magnitude: float, bound: float, rng: np.random.Generator) -> np.ndarray:
    for _ in range(100):
        a = np.eye(d) + magnitude * rng.standard_normal((d, d)) / np.sqrt(d)
        if np.linalg.cond(a) <= bound:
            return a
    raise RuntimeError(
        f"could not draw a matrix with condition number <= {bound} after 100 tries"
    )


def realize_drift(spec: DriftSpec, dimension: int, rng: np.random.Generator) -> DriftMap:
    """Sample a concrete DriftMap from a DriftSpec."""
    d = dimension
    if spec.kind == "identity":
        return DriftMap(np.eye(d), kind="identity")
    if spec.kind == "rotation":
        return DriftMap(_random_rotation(d, spec.magnitude, rng), kind="rotation")
    if spec.kind == "scaled_rotation":
        rot = _random_rotation(d, spec.magnitude, rng)
        return DriftMap(spec.scale * rot, kind="scaled_rotation")
    if spec.kind == "general_affine":
        return DriftMap(
            _random_affine(d, spec.magnitude, spec.condition_bound, rng), kind="general_affine"
        )
    # nonlinear: well-conditioned linear part plus elementwise sine perturbation
    a = _random_affine(d, spec.magnitude, spec.condition_bound, rng)
    return DriftMap(a, sine_strength=spec.magnitude, kind="nonlinear")


def cold_start_split(total_classes: int, num_tasks: int) -> List[int]:
    if total_classes % num_tasks != 0:
        raise ValueError(
            f"{total_classes} classes do not divide evenly into {num_tasks} tasks"
        )
    return [total_classes // num_tasks] * num_tasks


def warm_start_split(total_classes: int, num_tasks: int) -> List[int]:
    """First task holds half the classes; the rest split the remainder."""
    first = total_classes // 2
    rest = total_classes - first
    if num_tasks < 2 or rest % (num_tasks - 1) != 0:
        raise ValueError(
            f"cannot split {rest} remaining classes over {num_tasks - 1} tasks evenly"
        )
    return [first] + [rest // (num_tasks - 1)] * (num_tasks - 1)


def task_class_ids(counts: Sequence[int]) -> List[Tuple[int, ...]]:
    """Each task's class ids: consecutive ranges, so tasks never share one."""
    ends = np.cumsum(counts, dtype=int).tolist()
    return [tuple(range(end - count, end)) for count, end in zip(counts, ends)]


@dataclass(frozen=True)
class SyntheticScenario:
    """Full declarative description of a synthetic task sequence."""

    num_tasks: int
    classes_per_task: Sequence[int]
    dimension: int
    cluster_separation: float = 4.0
    train_per_class: int = 50
    test_per_class: int = 20
    drift_schedule: Sequence[DriftSpec] = field(default_factory=tuple)
    test_balance: str = "balanced"       # balanced | unbalanced
    unbalanced_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "classes_per_task", tuple(self.classes_per_task))
        object.__setattr__(self, "drift_schedule", tuple(self.drift_schedule))
        if self.num_tasks < 1:
            raise ValueError("num_tasks must be at least 1")
        if len(self.classes_per_task) != self.num_tasks:
            raise ValueError(
                f"classes_per_task has {len(self.classes_per_task)} entries for "
                f"{self.num_tasks} tasks"
            )
        if any(c <= 0 for c in self.classes_per_task):
            raise ValueError("every task needs at least one class")
        if self.drift_schedule and len(self.drift_schedule) != self.num_tasks - 1:
            raise ValueError(
                f"drift_schedule needs {self.num_tasks - 1} boundary entries, "
                f"got {len(self.drift_schedule)}"
            )
        if self.test_balance not in ("balanced", "unbalanced"):
            raise ValueError(f"unknown test_balance {self.test_balance!r}")

    @property
    def total_classes(self) -> int:
        return sum(self.classes_per_task)


class GeneratedScenario:
    """Realized scenario: features of every sample in every task's space.

    Spaces are 1-based; space t is the feature space after learning task t.
    `drift_maps[t]` is the ground-truth map applied at boundary t-1 -> t.
    """

    def __init__(self, spec: SyntheticScenario):
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        d = spec.dimension
        total = spec.total_classes

        self.task_classes = task_class_ids(spec.classes_per_task)

        means = spec.cluster_separation * rng.standard_normal((total, d))
        # base-space samples per class: [class][split] -> (m, d)
        base_train = {c: means[c] + rng.standard_normal((spec.train_per_class, d)) for c in range(total)}
        base_test = {c: means[c] + rng.standard_normal((spec.test_per_class, d)) for c in range(total)}

        schedule = spec.drift_schedule or tuple(DriftSpec() for _ in range(spec.num_tasks - 1))
        self.drift_maps: Dict[int, DriftMap] = {}
        # features_per_space[space][split][class] -> (m, d)
        self._train: List[Dict[int, np.ndarray]] = [base_train]
        self._test: List[Dict[int, np.ndarray]] = [base_test]
        for t in range(2, spec.num_tasks + 1):
            dspec = schedule[t - 2]
            dmap = realize_drift(dspec, d, rng)
            self.drift_maps[t] = dmap
            prev_train, prev_test = self._train[-1], self._test[-1]
            new_train, new_test = {}, {}
            for c in range(total):
                new_train[c] = dmap.apply(prev_train[c])
                new_test[c] = dmap.apply(prev_test[c])
                if dspec.observation_noise > 0:
                    new_train[c] = new_train[c] + dspec.observation_noise * rng.standard_normal(
                        new_train[c].shape
                    )
                    new_test[c] = new_test[c] + dspec.observation_noise * rng.standard_normal(
                        new_test[c].shape
                    )
            self._train.append(new_train)
            self._test.append(new_test)

    @property
    def num_tasks(self) -> int:
        return self.spec.num_tasks

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def classes_of_task(self, t: int) -> Tuple[int, ...]:
        return self.task_classes[t - 1]

    def seen_classes(self, t: int) -> Tuple[int, ...]:
        out: List[int] = []
        for i in range(1, t + 1):
            out.extend(self.task_classes[i - 1])
        return tuple(out)

    def train_matrix(self, space: int, class_id: int) -> np.ndarray:
        return self._train[space - 1][class_id]

    def test_matrix(self, space: int, class_id: int) -> np.ndarray:
        return self._test[space - 1][class_id]

    def drift_map(self, t: int) -> DriftMap:
        """Ground-truth map applied at boundary t-1 -> t (t >= 2)."""
        return self.drift_maps[t]


def generate_scenario(spec: SyntheticScenario) -> GeneratedScenario:
    """Realize a SyntheticScenario; deterministic from its seed."""
    return GeneratedScenario(spec)


def true_drift_similarity(
    estimated_prototypes: PrototypeTable,
    true_drifted_prototypes: PrototypeTable,
    reference_prototypes: PrototypeTable,
) -> Dict[int, float]:
    """Per-class cosine between estimated and true prototype drift vectors.

    Drift vectors are taken relative to the shared pre-drift reference. A
    zero-length true drift (identity boundary) yields similarity 1.0 by
    convention, with a warning.
    """
    if set(estimated_prototypes.class_ids) != set(true_drifted_prototypes.class_ids):
        raise ValueError("estimated and true tables must share the same class ids")
    out: Dict[int, float] = {}
    for c in estimated_prototypes.class_ids:
        ref = reference_prototypes.prototype(c)
        est = estimated_prototypes.prototype(c) - ref
        true = true_drifted_prototypes.prototype(c) - ref
        if np.linalg.norm(true) == 0.0 or np.linalg.norm(est) == 0.0:
            warnings.warn(
                f"class {c} has a zero-length drift vector; similarity set to 1.0",
                RuntimeWarning,
                stacklevel=2,
            )
            out[c] = 1.0
            continue
        try:
            out[c] = cosine_similarity(est, true)
        except DegenerateInputError:
            out[c] = 1.0
    return out
