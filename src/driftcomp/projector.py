"""Linear drift projector: closed-form least-squares solve on the paired
queues, a gradient-descent solver for comparison, and prototype evolution.

Row convention follows the queue matrices: samples are rows, so the
projector maps a row vector v to v @ W and the fit target is
Q_old @ W = Q_new.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import PrototypeTable
from .errors import DegenerateInputError, DimensionError, DivergenceError, SingularGramError
from .queues import QueuePair

DEFAULT_COND_THRESHOLD = 1e12
DEFAULT_MIN_RIDGE = 1e-8


class Projector:
    """A d x d linear map from the old feature space to the new one."""

    def __init__(self, weights: np.ndarray):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise DimensionError(f"projector weights must be square, got {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("projector weights contain non-finite entries")
        self.weights = weights.copy()
        self.weights.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def identity(cls, dimension: int) -> "Projector":
        return cls(np.eye(dimension))

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Map a d-vector or an (n, d) matrix of row features."""
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1] != self.dimension:
            raise DimensionError(
                f"feature dimension {features.shape[-1]} does not match projector "
                f"dimension {self.dimension}"
            )
        return features @ self.weights


@dataclass
class SolveReport:
    """Diagnostics for one projector solve."""

    residual: float          # mean squared row residual ||Q_old W - Q_new||^2 / n
    gram_condition: float    # condition number of Q_old^T Q_old (inf if singular)
    ridge_applied: bool      # whether any nonzero ridge entered the solve
    wall_time: float         # seconds


def mean_squared_residual(pair: QueuePair, projector: Projector) -> float:
    q_old, q_new = pair.matrices()
    if q_old.shape[0] == 0:
        raise ValueError("queues are empty")
    return _residual(q_old, q_new, projector.weights)


def _residual(q_old: np.ndarray, q_new: np.ndarray, weights: np.ndarray) -> float:
    diff = q_old @ weights - q_new
    return float(np.sum(diff * diff) / q_old.shape[0])


def solve_analytic(
    pair: QueuePair,
    ridge: float = 0.0,
    *,
    singular_policy: str = "fallback",
    min_ridge: float = DEFAULT_MIN_RIDGE,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
) -> tuple[Projector, SolveReport]:
    """Closed-form least-squares solve of Q_old W = Q_new.

    W solves the normal equations (Q_old^T Q_old + ridge I) W = Q_old^T Q_new
    via a symmetric factorization; the Gram inverse is never formed. With a
    numerically singular Gram and ridge 0, `singular_policy` picks between a
    hard error ("strict") and an automatic `min_ridge` fallback ("fallback").
    """
    if ridge < 0:
        raise ValueError(f"ridge must be non-negative, got {ridge}")
    if singular_policy not in ("strict", "fallback"):
        raise ValueError(f"unknown singular_policy {singular_policy!r}")
    start = time.perf_counter()
    q_old, q_new = pair.matrices()
    n = q_old.shape[0]
    if n == 0:
        raise ValueError("cannot solve on empty queues")
    d = q_old.shape[1]
    gram = q_old.T @ q_old
    cond = float(np.linalg.cond(gram))
    effective_ridge = ridge
    if ridge == 0.0 and (not np.isfinite(cond) or cond > cond_threshold):
        if singular_policy == "strict":
            raise SingularGramError(
                f"Gram matrix condition number {cond:.3e} exceeds threshold "
                f"{cond_threshold:.1e} and singular_policy is strict"
            )
        effective_ridge = min_ridge
    rhs = q_old.T @ q_new
    lhs = gram + effective_ridge * np.eye(d)
    try:
        weights = scipy.linalg.solve(lhs, rhs, assume_a="sym")
    except np.linalg.LinAlgError:
        if singular_policy == "strict":
            raise SingularGramError("Gram matrix is exactly singular")
        effective_ridge = max(effective_ridge, min_ridge)
        weights = scipy.linalg.solve(gram + effective_ridge * np.eye(d), rhs, assume_a="sym")
    projector = Projector(weights)
    report = SolveReport(
        residual=_residual(q_old, q_new, projector.weights),
        gram_condition=cond,
        ridge_applied=effective_ridge > 0.0,
        wall_time=time.perf_counter() - start,
    )
    return projector, report


class _Descent:
    """Weights moved by plain ("sgd") or adaptive-moment ("adam") descent.

    Every gradient-descent path in the package steps through `step`, each
    with its own gradient; `t` counts the steps taken.
    """

    def __init__(self, weights: np.ndarray, learning_rate: float, optimizer: str):
        self.weights = weights
        self.learning_rate = learning_rate
        self.optimizer = optimizer
        self.t = 0
        self.m = np.zeros_like(weights)
        self.v = np.zeros_like(weights)

    def step(self, grad: np.ndarray) -> None:
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(self.t)
        self.t += 1
        if self.optimizer == "sgd":
            self.weights = self.weights - self.learning_rate * grad
            return
        self.m = 0.9 * self.m + 0.1 * grad
        self.v = 0.999 * self.v + 0.001 * grad * grad
        m_hat = self.m / (1 - 0.9 ** self.t)
        v_hat = self.v / (1 - 0.999 ** self.t)
        self.weights = self.weights - self.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)


def _queue_gradient(q_old: np.ndarray, q_new: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gradient of the mean squared row residual ||Q_old W - Q_new||^2 / n."""
    return (2.0 / q_old.shape[0]) * (q_old.T @ (q_old @ weights - q_new))


def solve_gradient_descent(
    pair: QueuePair,
    init: Projector,
    learning_rate: float = 0.001,
    steps: int = 100,
    *,
    optimizer: str = "sgd",
) -> tuple[Projector, SolveReport]:
    """Full-batch gradient descent on the mean squared row residual.

    Deterministic given its inputs. `optimizer` is "sgd" (plain descent) or
    "adam" (adaptive moments). Raises DivergenceError naming the step index
    if the loss goes non-finite.
    """
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if optimizer not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {optimizer!r}")
    start = time.perf_counter()
    q_old, q_new = pair.matrices()
    n = q_old.shape[0]
    if n == 0:
        raise ValueError("cannot solve on empty queues")
    if init.dimension != q_old.shape[1]:
        raise DimensionError(
            f"init dimension {init.dimension} does not match queue dimension {q_old.shape[1]}"
        )
    descent = _Descent(init.weights.copy(), learning_rate, optimizer)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            descent.step(_queue_gradient(q_old, q_new, descent.weights))
    if not np.all(np.isfinite(descent.weights)):
        raise DivergenceError(steps)
    projector = Projector(descent.weights)
    gram = q_old.T @ q_old
    report = SolveReport(
        residual=_residual(q_old, q_new, projector.weights),
        gram_condition=float(np.linalg.cond(gram)),
        ridge_applied=False,
        wall_time=time.perf_counter() - start,
    )
    return projector, report


def evolve_prototypes(
    prototypes: PrototypeTable,
    projector: Projector,
    old_classes,
) -> PrototypeTable:
    """Replace the prototypes of `old_classes` by their projector image.

    Always maps from the table passed in (never re-projects an already
    evolved prototype); evolved entries get aligned_task incremented. Returns
    a new table, leaving the input untouched.
    """
    old_classes = set(old_classes)
    for c in sorted(old_classes):
        if c not in prototypes:
            raise KeyError(f"class {c} not present in prototype table")
    class_ids = prototypes.class_ids
    matrix = prototypes.matrix().copy()
    tasks = [prototypes.aligned_task(c) for c in class_ids]
    rows = [i for i, c in enumerate(class_ids) if c in old_classes]
    # row by row: one (C, d) @ (d, d) product rounds differently from C
    # vector products, and the stream's outputs are pinned to the latter
    for i in rows:
        matrix[i] = projector.apply(matrix[i])
        tasks[i] += 1
    if not np.all(np.isfinite(matrix[rows])):
        raise DegenerateInputError("evolved prototype contains non-finite components")
    return PrototypeTable._from_checked_rows(class_ids, matrix, tasks)
