"""Ground-truth drift transforms for synthetic scenarios, the class splits
of a task sequence, and the drift-similarity score against a known map.

`sources.SyntheticSource` draws the scenarios: class clusters in a base
feature space, each task boundary applying one `DriftMap` to every feature
(emulating an encoder update), so drift-compensation quality is exactly
measurable against the stored map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.linalg

from .core import PrototypeTable

DRIFT_KINDS = ("identity", "rotation", "scaled_rotation", "general_affine", "nonlinear")
# largest condition number of a general_affine (and nonlinear) linear part
CONDITION_BOUND = 50.0


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


def _random_affine(d: int, magnitude: float, rng: np.random.Generator) -> np.ndarray:
    for _ in range(100):
        a = np.eye(d) + magnitude * rng.standard_normal((d, d)) / np.sqrt(d)
        if np.linalg.cond(a) <= CONDITION_BOUND:
            return a
    raise RuntimeError(
        f"could not draw a matrix with condition number <= {CONDITION_BOUND} after 100 tries"
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
        return DriftMap(_random_affine(d, spec.magnitude, rng), kind="general_affine")
    # nonlinear: well-conditioned linear part plus elementwise sine perturbation
    a = _random_affine(d, spec.magnitude, rng)
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


def true_drift_similarity(
    estimated_prototypes: PrototypeTable,
    true_drifted_prototypes: PrototypeTable,
    reference_prototypes: PrototypeTable,
) -> Dict[int, float]:
    """Per-class cosine between estimated and true prototype drift vectors.

    Drift vectors are taken relative to the shared pre-drift reference. A
    zero-length true drift (identity boundary) yields similarity 1.0 by
    convention; a zero-length estimated drift against a non-zero true drift
    (the prototype was never moved) yields 0.0. Both warn, naming the class.
    """
    if set(estimated_prototypes.class_ids) != set(true_drifted_prototypes.class_ids):
        raise ValueError("estimated and true tables must share the same class ids")
    out: Dict[int, float] = {}
    for c in estimated_prototypes.class_ids:
        ref = reference_prototypes.prototype(c)
        est = estimated_prototypes.prototype(c) - ref
        true = true_drifted_prototypes.prototype(c) - ref
        est_norm, true_norm = np.linalg.norm(est), np.linalg.norm(true)
        if true_norm == 0.0:
            warnings.warn(f"class {c} has a zero-length true drift vector; "
                          "similarity set to 1.0", RuntimeWarning, stacklevel=2)
            out[c] = 1.0
        elif est_norm == 0.0:
            warnings.warn(f"class {c} has a zero-length estimated drift vector against "
                          "a non-zero true drift; similarity set to 0.0",
                          RuntimeWarning, stacklevel=2)
            out[c] = 0.0
        else:
            out[c] = float(np.dot(est, true) / (est_norm * true_norm))
    return out
