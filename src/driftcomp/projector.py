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
from .queues import QueuePair

COND_THRESHOLD = 1e12   # see solve_normal_equations
DEFAULT_MIN_RIDGE = 1e-8

# From this dimension on, the analytic window holds a factor between
# refactors (held_rows_cap); below it every solve refactors.
HELD_MIN_DIMENSION = 64


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


def _apply_update(weights: np.ndarray, correction: np.ndarray, solved: np.ndarray) -> np.ndarray:
    """weights + solved @ correction, written over the C-ordered float64
    `weights` by one beta=1 gemm on the transposes."""
    return dgemm(1.0, correction.T, solved.T, beta=1.0, c=weights.T, overwrite_c=1).T


def _updated(weights: np.ndarray, moved, solved: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(W, update): W = W_prev + solved @ correction, written over W_prev
    (see _apply_update), and update = (correction, solved), with correction
    = diag(s) (Z - U W_prev), for moved = (U, Z, k) and solved = (gram +
    ridge I)^-1 U^T."""
    rows_old, rows_new, entered = moved
    correction = rows_new - rows_old @ weights
    correction[entered:] *= -1.0
    return _apply_update(weights, correction, solved), (correction, solved)


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
    taken at each direct solve, once more than held_rows_cap(d) rows have
    moved since the last refactor (at every solve below HELD_MIN_DIMENSION),
    while a ridge fallback is active, and when its guard trips: a bound on
    the Gram's condition number, from the held factor's estimate and the
    small Woodbury matrix's, above COND_THRESHOLD / d.
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

    Rows enter the window through `queue.push`. The solver keeps the last
    solution W_prev, its ridge and the queue's `pushes` then, and takes the
    (old, new) rows U, Z moved since from `queue.moved_since`: those that
    entered, sign s = +1, then those that left, s = -1. So gram and cross
    are the previous ones plus U^T diag(s) U and U^T diag(s) Z, and, in
    exact arithmetic,

        W = W_prev + (gram + ridge I)^-1 U^T diag(s) (Z - U W_prev),

    which takes m right-hand sides instead of d, accumulated by one beta = 1
    gemm over the solver's own W_prev, in place, at every d. The solve is
    direct, as in solve_normal_equations, when moved_since returns None (at
    the first solve, and after the queue recomputed or was read since the
    last solve, one that raised included), when the ridge used differs from
    the one requested or from W_prev's, or when m >= d, and returns W_prev
    itself when nothing was pushed. A direct W is a new array that is never
    written: the solver updates a copy of it. After each solve, `update`
    says how its W was reached, for a SnapshotLog: None for a direct W; ()
    when nothing was pushed; and for an update, the pair (correction,
    solved) of the m x d diag(s) (Z - U W_prev) and the d x m (gram + ridge
    I)^-1 U^T, which the log replays by the same gemm.
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
    singular policy, when it is direct, when k + m would exceed the cap
    (always, below HELD_MIN_DIMENSION), while a ridge fallback is active,
    and when the guard trips. Guard: G = L (I + B S B^T) L^T with
    B = L^-1 V^T, and the eigenvalues of the middle factor other than 1 are
    those of S K, so cond_2(G) <= cond(G0) max(1, |K|) max(1, |K^-1|); when
    that bound, from F0's dpocon estimate and dgecon on K's LU in the
    1-norm, exceeds COND_THRESHOLD / d, the solve refactors. A held solve
    reports the bound as its condition estimate.
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
        self.update: tuple | None = None   # how the last solve reached its W; see solve()
        self._previous: tuple[np.ndarray, float] | None = None
        # the queue keeps its normal equations from their first read, which
        # must come before real rows enter: read at the first solve, they
        # would be summed from all rows at once and round differently
        queue.gram
        self._solved_at = -1   # queue.pushes at the last solve, none yet
        self._factor: np.ndarray | None = None   # F0, while it is held
        self._factor_cond = self._cond = np.inf
        self._held = 0                            # k
        self._rows = np.empty((cap, d))           # V
        self._solved = np.empty((d, cap), order="F")   # Y
        self._schur = np.empty((cap, cap), order="F")  # K
        self._schur_diagonal = self._schur.reshape(-1, order="F")[::cap + 1]   # a view

    def solve(self) -> tuple[np.ndarray, float, float]:
        """(W, condition estimate, ridge used) for the queue's current
        normal equations, as solve_normal_equations returns them. W is
        never written afterwards when `update` is None. Otherwise W is the
        solver's own W_prev, updated by the pair `update` holds or, for (),
        as it was, which its next update overwrites."""
        counts = self.counts
        counts.solves += 1
        if self.queue.pushes != self._solved_at:
            weights, cond, ridge, self.update = self._moved_solve()
            held = weights.copy() if self.update is None else weights
            self._previous, self._cond = (held, ridge), cond
            self._solved_at = self.queue.pushes
        else:
            (weights, ridge), cond = self._previous, self._cond
            self.update = ()
        counts.ridge_fallbacks += ridge != self.ridge
        counts.max_condition = max(counts.max_condition, cond)
        return weights, cond, ridge

    def _moved_solve(self) -> tuple[np.ndarray, float, float, tuple | None]:
        """solve(), with `update`, when a push came since the last solve or
        no solution is held."""
        moved = self.queue.moved_since(self._solved_at)   # None: solve directly
        m = 0 if moved is None else len(moved[0])
        if moved is not None and self._factor is not None and self._held + m <= self.cap:
            held = self._held_solve(moved)
            if held is not None:
                weights, update, bound = held
                return weights, bound, self.ridge, update
        queue = self.queue
        factor, cond, ridge = _factor(queue.gram, self.ridge, *self.policy)
        self.counts.refactors += 1
        self._factor = factor if ridge == self.ridge and self.cap else None
        self._factor_cond, self._held = cond, 0
        if (moved is None or ridge != self.ridge or self._previous[1] != ridge
                or m >= queue.dimension):
            weights, _ = scipy.linalg.lapack.dpotrs(factor, queue.cross)
            return np.ascontiguousarray(weights), cond, ridge, None
        solved, _ = scipy.linalg.lapack.dpotrs(factor, moved[0].T)
        weights, update = _updated(self._previous[0], moved, solved)
        return weights, cond, ridge, update

    def _held_solve(self, moved) -> tuple[np.ndarray, tuple, float] | None:
        """(W, update, condition bound) from the held factor, or None when
        the guard trips."""
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
        return (*_updated(self._previous[0], moved, solved), bound)


class SnapshotLog:
    """The projector W of each solve of a task, in solve order: a sequence
    built by `append`, whose length, indexing (negative too), iteration and
    item assignment behave as on a list of the arrays.

    An entry is a full W, kept as given; a rank-m update (correction,
    solved) that moved the previous entry's W in place (a WindowSolver's
    `update`), 2 m d floats in place of d^2; or (), for a solve that moved
    no row. Reading an update entry replays the updates since the nearest
    full entry into a buffer of the log's own, by the gemm the solver ran,
    so every W read back has the bits the stream evolved with. The buffer
    holds the last entry it reached, so reads in order replay one update
    each, and a read behind it starts again from the nearest full entry.
    Indexing and iteration return a new array for an update entry and the
    stored array for a full one; `view` returns the buffer itself. Assigning
    entry i stores the W given as a full entry, after storing the next
    entry's W in full if that entry is an update, so every other entry keeps
    its value. Entries are changed by assignment: a stored array written in
    place reaches only the replays that start before it.
    """

    def __init__(self):
        self._entries: list = []
        self._cursor: tuple[int, np.ndarray] | None = None   # the buffer and its entry

    def append(self, weights, update: tuple | None = None) -> None:
        """Log the W a solve returned, with the `update` it reported: None
        keeps W itself, which must never be written afterwards; () or a
        (correction, solved) pair keeps the update."""
        if update is not None and not self._entries:
            raise ValueError("the first snapshot of a log must be a full W")
        self._entries.append(weights if update is None else update)

    def __len__(self) -> int:
        return len(self._entries)

    def view(self, i: int):
        """W at entry i without a copy: a stored full entry, or the log's
        buffer, which the next read of another entry may overwrite."""
        entries = self._entries
        if not isinstance(entries[i], tuple):
            return entries[i]
        i = range(len(entries))[i]
        while isinstance(entries[i], tuple) and not entries[i]:   # no row moved
            i -= 1
        reached = -1 if self._cursor is None else self._cursor[0]
        start = i
        while isinstance(entries[start], tuple) and start != reached:
            start -= 1
        if not isinstance(entries[start], tuple):
            if start == i:
                return entries[i]
            weights = np.array(entries[start], dtype=np.float64, order="C")
        else:
            weights = self._cursor[1]
        for entry in entries[start + 1:i + 1]:
            if entry:
                weights = _apply_update(weights, *entry)
        self._cursor = (i, weights)
        return weights

    def __getitem__(self, i: int):
        weights = self.view(i)
        return weights.copy() if self._cursor and weights is self._cursor[1] else weights

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __setitem__(self, i: int, weights) -> None:
        entries = self._entries
        i = range(len(entries))[i]
        if i + 1 < len(entries) and isinstance(entries[i + 1], tuple):
            entries[i + 1] = self[i + 1]
        entries[i] = weights
        self._cursor = None


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


def evolve_prototypes(
    prototypes: PrototypeTable,
    weights: np.ndarray,
    old_classes,
) -> PrototypeTable:
    """Replace the prototypes of `old_classes` by their image under the
    d x d projector `weights`; raises DegenerateInputError if any image is
    non-finite.

    Always maps from the table passed in (never re-projects an already
    evolved prototype). Returns a new table, leaving the input untouched.
    The engine builds the table each task hands on with it.

    The rows go through one stacked (k, 1, d) @ (d, d) product, which numpy
    runs as k vector-matrix products (gemv), the same kernel as `v @ W` on
    one row, so every image is bit-identical to mapping its row alone: one
    (k, d) @ (d, d) gemm rounds differently, and the descent of
    "gd_with_queue" turns a last-bit difference into a different prediction
    of the next task (CHANGES.md). `weights` is read in C order, as the
    solve returns it: a Fortran-order array selects a transposed kernel
    that also rounds differently.
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
    images = (matrix[rows][:, None] @ np.ascontiguousarray(weights, dtype=np.float64))[:, 0]
    if not np.isfinite(images).all():
        raise DegenerateInputError("evolved prototype contains non-finite components")
    matrix[rows] = images
    return PrototypeTable._from_checked_rows(class_ids, matrix)
