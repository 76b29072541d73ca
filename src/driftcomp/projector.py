"""Linear drift projector: the closed-form least-squares solve on the paired
queues' normal equations, the descent step every gradient-descent solver
takes, and prototype evolution.

Row convention follows the queue matrices: samples are rows, so the
projector maps a row vector v to v @ W and the fit target is
Q_old @ W = Q_new.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg.lapack
from scipy.linalg.blas import dgemm

from .core import PrototypeTable
from .errors import DegenerateInputError, DimensionError, DivergenceError, SingularGramError

DEFAULT_COND_THRESHOLD = 1e12
DEFAULT_MIN_RIDGE = 1e-8


def _cholesky(gram: np.ndarray, ridge: float) -> tuple[np.ndarray | None, float]:
    """Upper Cholesky factor of gram + ridge I and that matrix's 1-norm
    condition estimate; (None, inf) when it is not numerically positive
    definite."""
    lhs = np.array(gram, order="F")
    lhs.flat[::lhs.shape[0] + 1] += ridge   # the diagonal, through a strided view
    anorm = float(np.abs(lhs).sum(axis=0).max())
    factor, info = scipy.linalg.lapack.dpotrf(lhs, overwrite_a=True)
    if info != 0:
        return None, np.inf
    rcond, _ = scipy.linalg.lapack.dpocon(factor, anorm)
    return factor, (1.0 / rcond if rcond > 0.0 else np.inf)


def solve_normal_equations(
    gram: np.ndarray,
    cross: np.ndarray,
    ridge: float = 0.0,
    *,
    previous: tuple[np.ndarray, float] | None = None,
    moved: tuple[np.ndarray, np.ndarray, int] | None = None,
    singular_policy: str = "fallback",
    min_ridge: float = DEFAULT_MIN_RIDGE,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
) -> tuple[np.ndarray, float, float]:
    """Solve (gram + ridge I) W = cross through a Cholesky factorization,
    reusing the previous solution when only a few rows moved since it.

    Returns (W, condition estimate, ridge used). With ridge 0, a Gram whose
    factorization fails or whose condition estimate exceeds
    `cond_threshold` is numerically singular: "strict" raises
    SingularGramError, "fallback" solves with `min_ridge` instead. A
    ridged matrix that still fails to factor (the Gram's rounding outweighs
    the ridge) raises under "strict"; under "fallback" its ridge is
    multiplied by ten until it factors, and a zero ridge raises.

    `previous` is (W_prev, ridge used) from the last solve and `moved` is
    (U, Z, k): the old- and new-space rows that moved through the queues
    since (None when none did), the k that entered first, with sign s = +1,
    then those that left, with s = -1. So gram and cross are the previous
    ones plus U^T diag(s) U and U^T diag(s) Z, and, in exact arithmetic,

        W = W_prev + (gram + ridge I)^-1 U^T diag(s) (Z - U W_prev),

    which takes m right-hand sides instead of d. The factorization, its
    condition estimate and the singular policy are the same on both routes.
    The direct solve is taken without a previous solution, when the ridge
    used changes, or when m >= d. The returned W is C-ordered, and is
    W_prev itself when no row moved; W_prev is never written.
    """
    if ridge < 0:
        raise ValueError(f"ridge must be non-negative, got {ridge}")
    if singular_policy not in ("strict", "fallback"):
        raise ValueError(f"unknown singular_policy {singular_policy!r}")
    factor, cond = _cholesky(gram, ridge)
    effective_ridge = ridge
    if factor is None or (ridge == 0.0 and cond > cond_threshold):
        if singular_policy == "strict":
            raise SingularGramError(
                f"Gram matrix condition estimate {cond:.3e} exceeds threshold "
                f"{cond_threshold:.1e} and singular_policy is strict"
            )
        effective_ridge = max(ridge, min_ridge)
        factor, _ = _cholesky(gram, effective_ridge)
        while factor is None and 0.0 < effective_ridge < np.inf:
            effective_ridge *= 10.0
            factor, _ = _cholesky(gram, effective_ridge)
        if factor is None:
            raise SingularGramError(
                f"Gram matrix does not factor with ridge {effective_ridge:.1e}"
            )
    m = 0 if moved is None else len(moved[0])
    if previous is None or previous[1] != effective_ridge or m >= len(gram):
        weights, _ = scipy.linalg.lapack.dpotrs(factor, cross)
        return np.ascontiguousarray(weights), cond, effective_ridge
    if m == 0:
        return previous[0], cond, effective_ridge
    weights, (rows_old, rows_new, entered) = previous[0], moved
    correction = rows_new - rows_old @ weights
    correction[entered:] *= -1.0
    solved, _ = scipy.linalg.lapack.dpotrs(factor, rows_old.T)
    # W_prev + solved @ correction as one beta=1 gemm on the transposes, into
    # the copy of W_prev^T that f2py makes without overwrite_c
    updated = dgemm(1.0, correction.T, solved.T, beta=1.0, c=weights.T).T
    return updated, cond, effective_ridge


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


def _map_rows(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row v of the (k, d) `rows` mapped to v @ weights; raises
    DegenerateInputError if any image is non-finite.

    The rows go through one stacked (k, 1, d) @ (d, d) product, which numpy
    runs as k vector-matrix products (gemv), the same kernel as `v @ W` on
    one row, so every image is bit-identical to mapping its row alone. A
    plain (k, d) @ (d, d) product is a matrix-matrix product (gemm) that
    rounds differently, and the stream's predictions are pinned to the
    per-row arithmetic. `weights` is read in C order, as the solve returns
    it: a Fortran-order array selects a transposed kernel that also rounds
    differently.
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    images = (rows[:, None, :] @ weights)[:, 0, :]
    if not np.all(np.isfinite(images)):
        raise DegenerateInputError("evolved prototype contains non-finite components")
    return images


def evolve_prototypes(
    prototypes: PrototypeTable,
    weights: np.ndarray,
    old_classes,
) -> PrototypeTable:
    """Replace the prototypes of `old_classes` by their image under the
    d x d projector `weights`.

    Always maps from the table passed in (never re-projects an already
    evolved prototype); evolved entries get aligned_task incremented. Returns
    a new table, leaving the input untouched.
    """
    old_classes = set(old_classes)
    for c in sorted(old_classes):
        if c not in prototypes:
            raise KeyError(f"class {c} not present in prototype table")
    d = prototypes.dimension
    if np.shape(weights) != (d, d):
        raise DimensionError(
            f"prototype dimension {d} does not match projector weights of shape "
            f"{np.shape(weights)}"
        )
    class_ids = prototypes.class_ids
    rows = [i for i, c in enumerate(class_ids) if c in old_classes]
    matrix = prototypes.matrix().copy()
    matrix[rows] = _map_rows(matrix[rows], weights)
    tasks = [prototypes.aligned_task(c) + (c in old_classes) for c in class_ids]
    return PrototypeTable._from_checked_rows(class_ids, matrix, tasks)
