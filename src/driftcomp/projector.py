"""Linear drift projector: the closed-form least-squares solve on the paired
queues' normal equations, the descent step every gradient-descent solver
takes, and prototype evolution.

Row convention follows the queue matrices: samples are rows, so the
projector maps a row vector v to v @ W and the fit target is
Q_old @ W = Q_new.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack
from scipy.linalg.blas import dgemm

from .core import PrototypeTable
from .errors import DegenerateInputError, DimensionError, DivergenceError, SingularGramError
from .queues import HELD_MIN_DIMENSION, QueuePair

COND_THRESHOLD = 1e12   # see solve_normal_equations
DEFAULT_MIN_RIDGE = 1e-8


def _cholesky(gram: np.ndarray, ridge: float) -> tuple[np.ndarray | None, float]:
    """Upper Cholesky factor of gram + ridge I and that matrix's 1-norm
    condition estimate; (None, inf) when it is not numerically positive
    definite."""
    lhs = np.array(gram, order="F")
    if ridge != 0.0:   # x + 0.0 == x for every entry
        lhs.flat[::lhs.shape[0] + 1] += ridge   # the diagonal, through a strided view
    anorm = scipy.linalg.lapack.dlange("1", lhs)   # read before dpotrf overwrites lhs
    factor, info = scipy.linalg.lapack.dpotrf(lhs, overwrite_a=True)
    if info != 0:
        return None, np.inf
    rcond, _ = scipy.linalg.lapack.dpocon(factor, anorm)
    return factor, (1.0 / rcond if rcond > 0.0 else np.inf)


def _factor(gram, ridge, singular_policy, min_ridge):
    """Upper Cholesky factor of gram + ridge I under the singular policy:
    (factor, condition estimate, ridge used); see solve_normal_equations."""
    factor, cond = _cholesky(gram, ridge)
    effective_ridge = ridge
    if factor is None or (ridge == 0.0 and cond > COND_THRESHOLD):
        if singular_policy == "strict":
            raise SingularGramError(
                f"Gram matrix condition estimate {cond:.3e} exceeds threshold "
                f"{COND_THRESHOLD:.1e} and singular_policy is strict"
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
    return factor, cond, effective_ridge


def _updated(weights: np.ndarray, moved, solved: np.ndarray) -> np.ndarray:
    """W_prev + solved @ diag(s) (Z - U W_prev) for moved = (U, Z, k) and
    solved = (gram + ridge I)^-1 U^T, as a new C-ordered array."""
    rows_old, rows_new, entered = moved
    correction = rows_new - rows_old @ weights
    correction[entered:] *= -1.0
    # one beta=1 gemm on the transposes, into the copy of W_prev^T that f2py
    # makes without overwrite_c
    return dgemm(1.0, correction.T, solved.T, beta=1.0, c=weights.T).T


def _check_policy(ridge: float, singular_policy: str) -> None:
    if ridge < 0:
        raise ValueError(f"ridge must be non-negative, got {ridge}")
    if singular_policy not in ("strict", "fallback"):
        raise ValueError(f"unknown singular_policy {singular_policy!r}")


def solve_normal_equations(
    gram: np.ndarray,
    cross: np.ndarray,
    ridge: float = 0.0,
    *,
    singular_policy: str = "fallback",
    min_ridge: float = DEFAULT_MIN_RIDGE,
) -> tuple[np.ndarray, float, float]:
    """Solve (gram + ridge I) W = cross through a fresh Cholesky
    factorization.

    Returns (W, condition estimate, ridge used), W C-ordered. With ridge 0,
    a Gram whose factorization fails or whose condition estimate exceeds
    COND_THRESHOLD is numerically singular: "strict" raises
    SingularGramError, "fallback" solves with `min_ridge` instead. A
    ridged matrix that still fails to factor (the Gram's rounding outweighs
    the ridge) raises under "strict"; under "fallback" its ridge is
    multiplied by ten until it factors, and a zero ridge raises.

    A stream of solves over one sliding window goes through `WindowSolver`,
    which updates its last solution by the rows that moved since. Each of
    its refactors is this function's factorization and singular policy,
    taken at the first solve, after a queue recompute, once more than
    held_rows_cap(d) rows have moved since the last refactor (at every
    solve below HELD_MIN_DIMENSION), while a ridge fallback is active, and
    when its guard trips: a bound on the Gram's condition number, from the
    held factor's estimate and the small Woodbury matrix's, above
    COND_THRESHOLD / d.
    """
    _check_policy(ridge, singular_policy)
    factor, cond, effective_ridge = _factor(gram, ridge, singular_policy, min_ridge)
    weights, _ = scipy.linalg.lapack.dpotrs(factor, cross)
    return np.ascontiguousarray(weights), cond, effective_ridge


# The held factor absorbs up to held_rows_cap(d) moved rows between two
# refactors. Below HELD_MIN_DIMENSION refactoring costs less than the
# update's own calls, and every solve refactors (measured in CHANGES.md).
def held_rows_cap(dimension: int) -> int:
    return 0 if dimension < HELD_MIN_DIMENSION else dimension // 4


@dataclass
class SolveCounts:
    """What a WindowSolver's solves did: solves, refactors (factorizations of
    the Gram), ridge fallbacks (solves whose ridge differs from the one
    requested) and the largest condition estimate seen."""

    solves: int = 0
    refactors: int = 0
    ridge_fallbacks: int = 0
    max_condition: float = 0.0


class WindowSolver:
    """The analytic solves over one sliding window: the QueuePair `queue`,
    whose normal equations it solves.

    Rows enter the window through `push`. The solver keeps the last
    solution W_prev with its ridge and the (old, new) rows U, Z that moved
    through the window since: those that entered first, with sign s = +1,
    then those that left, with s = -1. So gram and cross are the previous
    ones plus U^T diag(s) U and U^T diag(s) Z, and, in exact arithmetic,

        W = W_prev + (gram + ridge I)^-1 U^T diag(s) (Z - U W_prev),

    which takes m right-hand sides instead of d, accumulated by one gemm
    into a new copy of W_prev, which is never written. The solve is direct,
    as in solve_normal_equations, without a previous solution (the first
    solve, and the first after a push that recomputed the queue's normal
    equations), when the ridge used differs from the one requested or from
    W_prev's, or when m >= d, and returns W_prev itself when no row moved.
    It also keeps the upper Cholesky factor F0 of G0 + ridge I from its
    last refactor, with the k rows V (signs S) that moved since, so that
    gram + ridge I = G0 + ridge I + V^T S V. By Sherman-Morrison-Woodbury
    (Golub & Van Loan, Matrix Computations, 2.1.4; Hager, SIAM Review 31,
    1989), with U appended to V,

        X = (gram + ridge I)^-1 U^T = Y_U - Y K^-1 (V Y_U),
        Y = G0^-1 V^T,  Y_U = G0^-1 U^T,  K = S + V Y  (k x k),

    one m-column dpotrs on F0 and O(d k m) work in place of a refactor.
    V, Y and K grow by m rows and columns per solve in buffers sized for
    held_rows_cap(d) rows.

    A solve refactors, through solve_normal_equations' factorization and
    singular policy, when no factor is held (without a previous solution),
    when k + m would exceed the cap (always, below HELD_MIN_DIMENSION),
    while a ridge fallback is active, and when the guard trips. Guard:
    G = L (I + B S B^T) L^T with B = L^-1 V^T, and the eigenvalues of the
    middle factor other than 1 are those of S K, so cond_2(G) <= cond(G0)
    max(1, |K|) max(1, |K^-1|); when that bound, from F0's dpocon estimate
    and dgecon on K's LU in the 1-norm, exceeds COND_THRESHOLD / d, the
    solve refactors. A held solve reports the bound as its condition
    estimate.
    """

    def __init__(self, queue: QueuePair, ridge: float = 0.0, *,
                 singular_policy: str = "fallback", min_ridge: float = DEFAULT_MIN_RIDGE):
        _check_policy(ridge, singular_policy)
        self.queue = queue
        self.ridge = ridge
        self.policy = (singular_policy, min_ridge)
        d = queue.dimension
        self.guard_limit = COND_THRESHOLD / d
        self.cap = cap = held_rows_cap(d)
        self.counts = SolveCounts()
        self._previous: tuple[np.ndarray, float] | None = None
        self._entered: list[tuple[np.ndarray, np.ndarray]] = []
        self._entered_rows = 0
        self._left: list[tuple[np.ndarray, np.ndarray]] = []
        self._factor: np.ndarray | None = None   # F0, while it is held
        self._factor_cond = self._cond = np.inf
        self._held = 0                            # k
        self._rows = np.empty((cap, d))           # V
        self._solved = np.empty((d, cap), order="F")   # Y
        self._schur = np.empty((cap, cap), order="F")  # K
        self._schur_diagonal = self._schur.reshape(-1, order="F")[::cap + 1]   # a view

    def push(self, old_features: np.ndarray,
             new_features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Push paired rows into the queue, as QueuePair.push does, and
        return the (old, new) rows that left, oldest first."""
        # one copy, which the queue reads and the next solve keeps, so a
        # caller may reuse its buffers
        entering = (np.array(old_features, dtype=np.float64, ndmin=2),
                    np.array(new_features, dtype=np.float64, ndmin=2))
        queue = self.queue
        recomputes = queue.recomputes
        left = queue.push(*entering)
        if queue.recomputes != recomputes:
            # gram and cross were recomputed from the rows: the next solve is direct
            self._previous = self._factor = None
            self._entered.clear()
            self._left.clear()
            self._entered_rows = 0
        elif self._previous is not None:
            self._entered.append(entering)
            self._left.append(left)
            self._entered_rows += len(entering[0])
        return left

    def solve(self) -> tuple[np.ndarray, float, float]:
        """(W, condition estimate, ridge used) for the queue's current
        normal equations, as solve_normal_equations returns them; W is
        never written afterwards. A solve that raises keeps the moved rows,
        so the next one still updates by all of them."""
        counts = self.counts
        counts.solves += 1
        if self._previous is None or self._entered:
            weights, cond, ridge = self._moved_solve()
            self._previous, self._cond = (weights, ridge), cond
            self._entered.clear()
            self._left.clear()
            self._entered_rows = 0
        else:
            (weights, ridge), cond = self._previous, self._cond
        counts.ridge_fallbacks += ridge != self.ridge
        counts.max_condition = max(counts.max_condition, cond)
        return weights, cond, ridge

    def _moved_solve(self) -> tuple[np.ndarray, float, float]:
        """solve() when rows moved or no solution is held."""
        moved, m = None, 0
        if self._previous is not None:
            old, new = zip(*self._entered, *self._left)
            moved = np.concatenate(old), np.concatenate(new), self._entered_rows
            m = len(moved[0])
        if self._factor is not None and self._held + m <= self.cap:
            held = self._held_solve(moved)
            if held is not None:
                return (*held, self.ridge)
        queue = self.queue
        factor, cond, ridge = _factor(queue.gram, self.ridge, *self.policy)
        self.counts.refactors += 1
        self._factor = factor if ridge == self.ridge and self.cap else None
        self._factor_cond, self._held = cond, 0
        if (moved is None or ridge != self.ridge or self._previous[1] != ridge
                or m >= queue.dimension):
            weights, _ = scipy.linalg.lapack.dpotrs(factor, queue.cross)
            return np.ascontiguousarray(weights), cond, ridge
        solved, _ = scipy.linalg.lapack.dpotrs(factor, moved[0].T)
        return _updated(self._previous[0], moved, solved), cond, ridge

    def _held_solve(self, moved) -> tuple[np.ndarray, float] | None:
        """(W, condition bound) from the held factor, or None when the
        guard trips."""
        rows_old, _, entered = moved
        m, k = len(rows_old), self._held + len(rows_old)
        new = slice(k - m, k)
        y_new, _ = scipy.linalg.lapack.dpotrs(self._factor, rows_old.T)
        self._rows[new] = rows_old
        self._solved[:, new] = y_new
        vy = self._rows[:k] @ y_new               # V Y_U, (k, m)
        schur = self._schur
        schur[:k, new] = vy
        schur[new, :k - m] = vy[:k - m].T
        diagonal = self._schur_diagonal   # S: +1 for each row that entered, -1 for each that left
        diagonal[k - m:k - m + entered] += 1.0
        diagonal[k - m + entered:k] -= 1.0
        lu, pivots, info = scipy.linalg.lapack.dgetrf(schur[:k, :k])
        anorm = scipy.linalg.lapack.dlange("1", schur[:k, :k])
        rcond = scipy.linalg.lapack.dgecon(lu, anorm)[0] if info == 0 else 0.0
        if rcond <= 0.0:
            return None
        bound = self._factor_cond * max(1.0, anorm) * max(1.0, 1.0 / (rcond * anorm))
        if not bound <= self.guard_limit:
            return None
        t, _ = scipy.linalg.lapack.dgetrs(lu, pivots, vy)
        solved = y_new - self._solved[:, :k] @ t
        self._held = k
        return _updated(self._previous[0], moved, solved), bound


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
        if not np.isfinite(grad).all():
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

    From HELD_MIN_DIMENSION on, the rows go through one (k, d) @ (d, d)
    matrix product (gemm). Below it, they go through one stacked
    (k, 1, d) @ (d, d) product, which numpy runs as k vector-matrix products
    (gemv), the same kernel as `v @ W` on one row, so every image is
    bit-identical to mapping its row alone: gemm rounds differently, and
    the descent of "gd_with_queue" turns a last-bit difference into a
    different prediction of the next task (CHANGES.md). Each gemm image is
    within the forward-error bound 2 d eps (|v| @ |W|) of the per-row one
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.5). `weights`
    is read in C order, as the solve returns it: a Fortran-order array
    selects a transposed kernel that also rounds differently.

    It maps the tables a task hands on (`engine._TaskLayout.table`) and
    `evolve_prototypes`; the per-sample images map by gemm at every d.
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if rows.shape[1] >= HELD_MIN_DIMENSION:
        images = rows @ weights
    else:
        images = (rows[:, None, :] @ weights)[:, 0, :]
    if not np.isfinite(images).all():
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
    evolved prototype). Returns a new table, leaving the input untouched.
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
    return PrototypeTable._from_checked_rows(class_ids, matrix)
