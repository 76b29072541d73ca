import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcomp.core import PrototypeTable, class_means
from driftcomp.errors import (
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    SingularGramError,
)
from driftcomp.engine import _offline_gd
from driftcomp import projector
from driftcomp.projector import (
    HELD_MIN_DIMENSION,
    SnapshotLog,
    WindowSolver,
    _cholesky,
    evolve_prototypes,
    held_rows_cap,
    solve_normal_equations,
)
from driftcomp.queues import QueuePair


def pair_from(q_old, q_new):
    pair = QueuePair(q_old.shape[1], q_old.shape[0])
    pair.push(q_old, q_new)
    return pair


def solve(pair, ridge=0.0, **kwargs):
    return solve_normal_equations(pair.gram, pair.cross, ridge, **kwargs)


def residual(pair, weights):
    """Mean squared row residual ||Q_old W - Q_new||^2 / n over the queued rows."""
    q_old, q_new = pair.matrices()
    return float(np.sum((q_old @ weights - q_new) ** 2) / len(q_old))


def svd_lstsq(q_old, q_new):
    """Test-only oracle: minimum-norm least squares via SVD."""
    u, s, vt = np.linalg.svd(q_old, full_matrices=False)
    s_inv = np.where(s > s[0] * 1e-12, 1.0 / s, 0.0)
    return vt.T @ (s_inv[:, None] * (u.T @ q_new))


class TestSolveAnalytic:
    """The direct closed-form solve, without a previous solution."""

    def test_identity_fit(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((50, 6))
        pair = pair_from(q, q)
        weights, _, _ = solve(pair)
        np.testing.assert_allclose(weights, np.eye(6), atol=1e-10)
        assert residual(pair, weights) < 1e-18

    def test_scalar_drift(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((40, 5))
        weights, _, _ = solve(pair_from(q, 2.0 * q))
        np.testing.assert_allclose(weights, 2.0 * np.eye(5), atol=1e-10)

    def test_recovers_true_map_vs_svd_oracle(self):
        rng = np.random.default_rng(2)
        q_old = rng.standard_normal((200, 8))
        w_true = rng.standard_normal((8, 8))
        q_new = q_old @ w_true
        pair = pair_from(q_old, q_new)
        weights, _, _ = solve(pair)
        rel = np.linalg.norm(weights - w_true) / np.linalg.norm(w_true)
        assert rel < 1e-8
        oracle = svd_lstsq(q_old, q_new)
        np.testing.assert_allclose(weights, oracle, atol=1e-8)
        assert residual(pair, weights) < 1e-16

    def test_normal_equation_identity(self):
        rng = np.random.default_rng(3)
        for ridge in (0.0, 0.5):
            q_old = rng.standard_normal((60, 7))
            q_new = rng.standard_normal((60, 7))
            weights, _, _ = solve(pair_from(q_old, q_new), ridge)
            gram = q_old.T @ q_old + ridge * np.eye(7)
            lhs = gram @ weights
            rhs = q_old.T @ q_new
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-8

    def test_optimality_against_perturbations(self):
        rng = np.random.default_rng(4)
        q_old = rng.standard_normal((80, 6))
        q_new = q_old @ rng.standard_normal((6, 6)) + 0.1 * rng.standard_normal((80, 6))
        pair = pair_from(q_old, q_new)
        weights, _, _ = solve(pair)
        best = residual(pair, weights)
        for _ in range(100):
            delta = 1e-3 * rng.standard_normal((6, 6))
            assert best <= residual(pair, weights + delta) + 1e-12

    def test_orthogonal_equivariance(self):
        rng = np.random.default_rng(5)
        d = 6
        q_old = rng.standard_normal((70, d))
        q_new = q_old @ rng.standard_normal((d, d)) + 0.05 * rng.standard_normal((70, d))
        r, _ = np.linalg.qr(rng.standard_normal((d, d)))
        w, _, _ = solve(pair_from(q_old, q_new))
        w_rot, _, _ = solve(pair_from(q_old @ r, q_new @ r))
        np.testing.assert_allclose(w_rot, r.T @ w @ r, atol=1e-8)

    def test_singular_strict_raises(self):
        q_old = np.zeros((10, 4))
        q_old[:, 0] = np.arange(10)  # rank 1
        q_new = q_old.copy()
        with pytest.raises(SingularGramError):
            solve(pair_from(q_old, q_new), singular_policy="strict")

    def test_ill_conditioned_gram_that_factors(self):
        # Gram condition near 1e14: the Cholesky factorization succeeds, and
        # the condition estimate still marks the Gram as singular
        rng = np.random.default_rng(13)
        u, _ = np.linalg.qr(rng.standard_normal((40, 5)))
        q_old = u * np.array([1.0, 1.0, 1.0, 1.0, 1e-7])
        with pytest.raises(SingularGramError):
            solve(pair_from(q_old, q_old.copy()), singular_policy="strict")
        _, cond, ridge = solve(pair_from(q_old, q_old.copy()))
        assert ridge > 0.0 and 1e12 < cond < np.inf

    def test_fallback_ridge_grows_until_the_gram_factors(self):
        # rank 2 in d=4 at a Gram norm near 1e14: rounding gives the null
        # space eigenvalues far above min_ridge, so G + min_ridge I does not
        # factor
        rng = np.random.default_rng(14)
        q_old = (1e6 * rng.standard_normal((10, 2))) @ rng.standard_normal((2, 4))
        pair = pair_from(q_old, q_old.copy())
        weights, cond, ridge = solve(pair)
        assert ridge > 0.0 and cond == np.inf
        assert residual(pair, weights) <= 1e-12 * np.mean(np.sum(q_old ** 2, axis=1))
        with pytest.raises(SingularGramError):
            solve(pair, min_ridge=0.0)

    def test_singular_fallback_applies_ridge(self):
        q_old = np.zeros((10, 4))
        q_old[:, 0] = np.arange(10)
        weights, _, ridge = solve(pair_from(q_old, q_old.copy()))
        assert ridge > 0.0
        assert np.all(np.isfinite(weights))


def descend(pair, learning_rate, steps, optimizer="sgd"):
    """The offline oracle's full-batch descent from the identity, run for
    exactly `steps` steps."""
    return _offline_gd(*pair.matrices(), learning_rate, optimizer, steps, 0.0)


class TestSolveGradientDescent:
    """Full-batch descent on the mean squared row residual, as the offline
    oracle runs it, against the closed-form solve."""

    def test_zero_steps_returns_init(self):
        rng = np.random.default_rng(6)
        pair = pair_from(rng.standard_normal((30, 4)), rng.standard_normal((30, 4)))
        np.testing.assert_array_equal(descend(pair, 0.01, 0), np.eye(4))

    def test_monotone_decrease_on_consistent_data(self):
        rng = np.random.default_rng(7)
        q_old = rng.standard_normal((100, 5))
        q_new = q_old @ rng.standard_normal((5, 5))
        pair = pair_from(q_old, q_new)
        residuals = [residual(pair, descend(pair, 1e-3, steps)) for steps in range(0, 60, 10)]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        analytic_residual = residual(pair, solve(pair)[0])
        assert residuals[-1] >= analytic_residual - 1e-10

    def test_never_beats_analytic(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            q_old = rng.standard_normal((50, 4))
            q_new = rng.standard_normal((50, 4))
            pair = pair_from(q_old, q_new)
            gd = descend(pair, 1e-3, 200, "adam" if trial % 2 else "sgd")
            assert residual(pair, gd) >= residual(pair, solve(pair)[0]) - 1e-10

    def test_under_optimized_gap(self):
        rng = np.random.default_rng(9)
        q_old = rng.standard_normal((120, 6))
        q_new = q_old @ (np.eye(6) + 0.5 * rng.standard_normal((6, 6)))
        pair = pair_from(q_old, q_new)
        gd = descend(pair, 1e-3, 5)
        assert residual(pair, gd) > residual(pair, solve(pair)[0]) + 1e-6

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_error_names_step(self):
        rng = np.random.default_rng(10)
        q_old = 100.0 * rng.standard_normal((50, 4))
        q_new = rng.standard_normal((50, 4))
        pair = pair_from(q_old, q_new)
        with pytest.raises(DivergenceError) as err:
            descend(pair, 10.0, 500)
        assert 0 < err.value.step < 500

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        pair = pair_from(rng.standard_normal((40, 4)), rng.standard_normal((40, 4)))
        a = descend(pair, 1e-3, 50, "adam")
        b = descend(pair, 1e-3, 50, "adam")
        np.testing.assert_array_equal(a, b)


class TestEvolvePrototypes:
    def table(self):
        return PrototypeTable([0, 1, 7], [[1.0, -1.0], [0.5, 2.0], [3.0, 0.0]])

    def test_identity_preserves_vectors(self):
        table = self.table()
        out = evolve_prototypes(table, np.eye(2), [0, 1])
        for c in (0, 1):
            np.testing.assert_array_equal(out.prototype(c), table.prototype(c))

    def test_scalar_map(self):
        table = PrototypeTable([0], [[1.0, -1.0]])
        out = evolve_prototypes(table, 2.0 * np.eye(2), [0])
        np.testing.assert_array_equal(out.prototype(0), [2.0, -2.0])

    def test_missing_class_named(self):
        with pytest.raises(KeyError, match="99"):
            evolve_prototypes(self.table(), np.eye(2), [0, 99])

    def test_input_not_mutated_and_shape_preserved(self):
        table = self.table()
        before = {c: table.prototype(c).copy() for c in table.class_ids}
        out = evolve_prototypes(table, np.full((2, 2), 0.3), [0, 1, 7])
        assert out.class_ids == table.class_ids
        assert out.dimension == table.dimension
        for c in table.class_ids:
            np.testing.assert_array_equal(table.prototype(c), before[c])

    def test_matches_recomputed_prototypes_under_true_drift(self):
        # evolve with the analytically recovered projector vs recomputing the
        # class means from drifted features
        rng = np.random.default_rng(12)
        d, n = 8, 120
        w_true = np.eye(d) + 0.4 * rng.standard_normal((d, d))
        feats = rng.standard_normal((n, d)) + 3.0
        labels = rng.integers(0, 4, size=n)
        drifted = feats @ w_true
        pair = QueuePair(d, n)
        pair.push(feats, drifted)
        weights, _, _ = solve(pair)
        table = class_means({c: feats[labels == c] for c in np.unique(labels)})
        evolved = evolve_prototypes(table, weights, table.class_ids)
        recomputed = class_means({c: drifted[labels == c] for c in np.unique(labels)})
        for c in table.class_ids:
            a, b = evolved.prototype(c), recomputed.prototype(c)
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos > 0.999

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_image_raises(self):
        # a finite projector whose product with large prototypes overflows
        table = PrototypeTable([0, 3], [np.full(4, 5e9), np.full(4, -5e9)])
        with pytest.raises(DegenerateInputError, match="evolved prototype"):
            evolve_prototypes(table, 1e300 * np.eye(4), [3])

    def test_dimension_mismatch_named(self):
        with pytest.raises(DimensionError):
            evolve_prototypes(self.table(), np.eye(3), [0])

    def test_empty_old_class_set_leaves_table(self):
        table = self.table()
        out = evolve_prototypes(table, np.full((2, 2), 0.3), [])
        assert out.class_ids == table.class_ids
        np.testing.assert_array_equal(out.matrix(), table.matrix())


class TestCholeskyNorm:
    """_cholesky takes the 1-norm it hands dpocon from one dlange; the former
    numpy column sum is the reference. Both sum d non-negative terms, in
    different orders, so they agree to d eps of the norm, and the condition
    estimate, linear in the norm, to that and the rounding of its division."""

    @pytest.mark.parametrize("d", [4, 32, 128])
    @pytest.mark.parametrize("ridge", [0.0, 1e-3])
    def test_condition_estimate_against_numpy_norm(self, d, ridge):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(d)
        q = rng.standard_normal((3 * d, d)) * 10.0 ** rng.uniform(-3, 3, d)
        gram = q.T @ q
        lhs = gram + ridge * np.eye(d)
        anorm = float(np.abs(lhs).sum(axis=0).max())
        assert abs(scipy.linalg.lapack.dlange("1", lhs) - anorm) <= d * eps * anorm
        factor, cond = _cholesky(gram, ridge)
        rcond, _ = scipy.linalg.lapack.dpocon(factor, anorm)
        assert abs(cond - 1.0 / rcond) <= (d + 4) * eps / rcond


class TestStackedEvolve:
    """evolve_prototypes maps all old rows in one stacked product, and at
    every d each image must equal the one-row product `v @ W` bit for bit."""

    @staticmethod
    def evolved(d, n_classes, log_scale, old_fraction, seed):
        """(evolve_prototypes' matrix, the per-row products)."""
        rng = np.random.default_rng(seed)
        matrix = 10.0 ** log_scale * rng.standard_normal((n_classes, d))
        class_ids = rng.choice(10 * n_classes, size=n_classes, replace=False)
        table = PrototypeTable(class_ids, matrix)
        old = {c for c in table.class_ids if rng.random() < old_fraction}
        weights = np.eye(d) + rng.standard_normal((d, d)) / np.sqrt(d)

        out = evolve_prototypes(table, weights, old)

        assert out.class_ids == table.class_ids
        expected = table.matrix().copy()
        for i, c in enumerate(table.class_ids):
            if c in old:
                expected[i] = expected[i] @ weights
        return out.matrix(), expected

    @pytest.mark.parametrize("d", [1, 8, 32, 128, 512])
    @settings(max_examples=25, deadline=None)
    @given(n_classes=st.integers(1, 100), log_scale=st.floats(-3.0, 3.0),
           old_fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 31 - 1))
    def test_matches_per_row_products(self, d, n_classes, log_scale, old_fraction, seed):
        got, expected = self.evolved(d, n_classes, log_scale, old_fraction, seed)
        assert np.array_equal(got, expected)


class TestRankKUpdateOutput:
    """At every d, the rank-k solution update accumulates over the solver's
    own copy of the previous solution, in place; the direct W it copied is
    the previous sample's snapshot and must not move."""

    # 2(k + 1) rows move, fewer than d, so the update is taken
    @pytest.mark.parametrize("d, k", [(4, 0), (8, 1), (32, 2), (HELD_MIN_DIMENSION, 1),
                                      (128, 3)])
    def test_previous_overwritten_in_place(self, monkeypatch, d, k):
        # every solve refactors, so the update is the factor's own
        monkeypatch.setattr(projector, "held_rows_cap", lambda d: 0)
        rng = np.random.default_rng(d)
        capacity = 3 * d + 10
        pair = QueuePair(d, capacity)
        old = rng.standard_normal((capacity, d))
        pair.push(old, old @ rng.standard_normal((d, d)))
        window = WindowSolver(pair)
        # the direct W is never written: the solver keeps a C-ordered copy
        weights, _, _ = window.solve()
        previous = window._previous[0]
        assert window.update is None and previous.flags.c_contiguous
        assert not np.shares_memory(previous, weights)
        kept = weights.copy()
        entering_old, entering_new = rng.standard_normal((2, k + 1, d))
        left_old, left_new = window.queue.push(entering_old, entering_new)
        rows_old = np.vstack([entering_old, left_old])
        rows_new = np.vstack([entering_new, left_new])

        updated, _, _ = window.solve()

        np.testing.assert_array_equal(weights, kept)
        assert updated.ctypes.data == previous.ctypes.data and updated.flags.c_contiguous
        # the former expression, W_prev + solved @ correction, bit for bit
        factor, _ = _cholesky(pair.gram, 0.0)
        correction = rows_new - rows_old @ kept
        correction[k + 1:] *= -1.0
        solved, _ = scipy.linalg.lapack.dpotrs(factor, rows_old.T)
        np.testing.assert_array_equal(updated, kept + solved @ correction)
        # the update the solve reports replays the same bits from W_prev
        np.testing.assert_array_equal(window.update[0], correction)
        np.testing.assert_array_equal(window.update[1], solved)
        replayed = projector._apply_update(kept, *window.update)
        assert replayed.tobytes() == updated.tobytes()


def window_stream(window, rows, prefill_rank, seed):
    """Yield (queue, recomputed, rows moved) after each single-row push of
    `rows` (n, d) old-space rows, mapped by a fixed W, through `window`,
    whose empty queue is first filled with rows of rank `prefill_rank`; the
    caller then solves."""
    pair = window.queue
    d, capacity = pair.dimension, pair.capacity
    rng = np.random.default_rng(seed)
    w_true = np.eye(d) + 0.3 * rng.standard_normal((d, d)) / np.sqrt(d)
    prefill = rng.standard_normal((capacity, prefill_rank)) @ rng.standard_normal(
        (prefill_rank, d))
    window.queue.push(prefill, prefill @ w_true)
    for row in rows:
        old = row[None, :]
        new = old @ w_true + 0.1 * rng.standard_normal((1, d))
        recomputes = pair.recomputes
        left = window.queue.push(old, new)
        yield pair, pair.recomputes != recomputes, 1 + len(left[0])


class TestHeldFactor:
    """WindowSolver at d >= HELD_MIN_DIMENSION solves from the factor of its
    last refactor by Sherman-Morrison-Woodbury; below it, every solve
    refactors."""

    D = 128

    def test_cap_is_zero_below_the_crossover(self):
        assert held_rows_cap(HELD_MIN_DIMENSION - 1) == 0
        assert held_rows_cap(32) == 0
        assert 0 < held_rows_cap(self.D) < self.D

    def test_long_stream_matches_direct_and_every_trigger_fires(self):
        # a rank-10 pre-fill keeps the ridge fallback on until real rows
        # fill the Gram out; 2,000 single-row pushes through 600 rows
        # recompute the normal equations three times
        d, capacity, n = self.D, 600, 2000
        rng = np.random.default_rng(21)
        window = WindowSolver(QueuePair(d, capacity))
        fired = {"cap": 0, "recompute": 0, "ridge": 0}
        ridge_used = 0.0
        held = 0
        for pair, recomputed, m in window_stream(window, 2.0 * rng.standard_normal((n, d)),
                                                 prefill_rank=10, seed=22):
            over_cap = window._held + m > window.cap
            refactors = window.counts.refactors
            fallback_active = ridge_used != 0.0
            weights, _, ridge_used = window.solve()
            refactored = window.counts.refactors > refactors
            for trigger, hit in (("cap", over_cap), ("recompute", recomputed),
                                 ("ridge", fallback_active)):
                if hit:
                    assert refactored, trigger
                    fired[trigger] += 1
            held += not refactored
            direct, _, direct_ridge = solve_normal_equations(pair.gram, pair.cross)
            assert ridge_used == direct_ridge
            if ridge_used == 0.0:
                gap = np.linalg.norm(weights - direct) / np.linalg.norm(direct)
                assert gap <= 1e-10
        assert all(fired.values()), fired
        assert fired["recompute"] >= 2
        counts = window.counts
        assert counts.solves == n and counts.refactors + held == n
        assert counts.refactors < n / 4
        assert counts.ridge_fallbacks > 100

    def test_guard_trip_is_a_refactor(self, monkeypatch):
        # a threshold between cond(G) and d cond(G): no solve falls back, and
        # the guard sends every solve to the per-solve path's arithmetic
        d, capacity, n = self.D, 1000, 100
        rows = np.random.default_rng(25).standard_normal((n, d))
        monkeypatch.setattr(projector, "COND_THRESHOLD", 1e6)
        weights = {}
        for name in ("held", "per_solve"):
            if name == "per_solve":
                monkeypatch.setattr(projector, "held_rows_cap", lambda d: 0)
            window = WindowSolver(QueuePair(d, capacity))
            # from d = 64 an updated W is the window's own, which the next
            # update overwrites: keep a copy of each
            weights[name] = [window.solve()[0].copy() for _ in
                             window_stream(window, rows, prefill_rank=d, seed=26)]
            assert window.counts.refactors == n and window.counts.ridge_fallbacks == 0
            assert 1e6 / d < window.counts.max_condition < 1e6
        for got, want in zip(weights["held"], weights["per_solve"]):
            np.testing.assert_array_equal(got, want)

    def test_solve_after_a_failed_one_is_direct(self, monkeypatch):
        # the third solve raises after reading gram, which empties the
        # queue's journal; the fourth is direct and matches the direct solve
        d, capacity = 16, 60
        rows = np.random.default_rng(27).standard_normal((6, d))
        window = WindowSolver(QueuePair(d, capacity))
        factor = projector._factor

        def fail_once(*args):
            monkeypatch.setattr(projector, "_factor", factor)
            raise SingularGramError("injected")
        stream = window_stream(window, rows, prefill_rank=d, seed=28)
        for i, (pair, _, _) in enumerate(stream):
            if i == 2:
                monkeypatch.setattr(projector, "_factor", fail_once)
                with pytest.raises(SingularGramError, match="injected"):
                    window.solve()
                continue
            weights = window.solve()[0]
            assert (window.update is None) == (i in (0, 3))
            direct = solve_normal_equations(pair.gram, pair.cross)[0]
            assert np.linalg.norm(weights - direct) / np.linalg.norm(direct) <= 1e-10
        assert window.counts.refactors == 5

    @pytest.mark.parametrize("d", [16, D])
    def test_read_between_solves_makes_the_next_direct(self, d):
        # a read of gram catches the queue up and empties its journal, so
        # the window no longer knows what moved since its last solve
        rows = np.random.default_rng(29).standard_normal((6, d))
        window = WindowSolver(QueuePair(d, 4 * d))
        for i, (pair, _, _) in enumerate(window_stream(window, rows, prefill_rank=d, seed=30)):
            if i == 3:
                pair.gram
            weights = window.solve()[0]
            assert (window.update is None) == (i in (0, 3))
            if i == 3:
                np.testing.assert_array_equal(
                    weights, solve_normal_equations(pair.gram, pair.cross)[0])

    def window(self, monkeypatch, policy, per_solve=False):
        """A window over an empty 300-row queue; the per-solve path
        refactors at every solve."""
        if per_solve:
            monkeypatch.setattr(projector, "held_rows_cap", lambda d: 0)
        window = WindowSolver(QueuePair(self.D, 300), singular_policy=policy)
        monkeypatch.undo()
        return window

    def ridges(self, window, start_full_rank):
        """The ridge of every solve over a stream whose window goes
        rank-deficient (rows from a 20-dimensional subspace) and back; a
        SingularGramError ends the list with its solve index."""
        d, n = self.D, 900
        rng = np.random.default_rng(23)
        rows = rng.standard_normal((n, 20)) @ rng.standard_normal((20, d))
        rows[n // 2:] = rng.standard_normal((n - n // 2, d))
        out = []
        stream = window_stream(window, rows, prefill_rank=d if start_full_rank else 10, seed=24)
        for i, _ in enumerate(stream):
            try:
                out.append(window.solve()[2])
            except SingularGramError:
                out.append(("raised", i))
                break
        return out

    @pytest.mark.parametrize("start_full_rank", [True, False])
    def test_fallback_at_the_same_solves_as_the_per_solve_path(self, monkeypatch,
                                                               start_full_rank):
        per_solve = self.window(monkeypatch, "fallback", per_solve=True)
        held = self.window(monkeypatch, "fallback")
        want = self.ridges(per_solve, start_full_rank)
        got = self.ridges(held, start_full_rank)
        assert got == want
        assert sum(r != 0.0 for r in got) > 50
        assert per_solve.counts.refactors == per_solve.counts.solves
        assert held.counts.refactors < held.counts.solves

    @pytest.mark.parametrize("start_full_rank", [True, False])
    def test_strict_raises_at_the_same_solve(self, monkeypatch, start_full_rank):
        want = self.ridges(self.window(monkeypatch, "strict", per_solve=True), start_full_rank)
        got = self.ridges(self.window(monkeypatch, "strict"), start_full_rank)
        assert got == want
        assert got[-1][0] == "raised" and (got[-1][1] > 100) == start_full_rank


def assert_replays(log, copies, rng):
    """Every entry of `log` has the bits of its copy, read by index (in
    order, then a random sample out of order), by iteration into a list and
    by the audit's in-order views."""
    assert len(log) == len(copies)
    for i, want in enumerate(copies):
        assert log[i].tobytes() == want.tobytes()
    for i in rng.choice(len(log), size=min(len(log), 100), replace=False):
        assert log[i].tobytes() == copies[i].tobytes()
    if copies:
        assert log[-1].tobytes() == copies[-1].tobytes()
    # a list of every entry: each read is an array of its own
    for got, want in zip(list(log), copies, strict=True):
        assert got.tobytes() == want.tobytes()
    for i, want in enumerate(copies):
        assert log.view(i).tobytes() == want.tobytes()


class TestSnapshotLog:
    """A SnapshotLog of a window's solves reads back, entry by entry, the
    bits of a copy of each solve's W taken when it was returned."""

    def logged_stream(self, monkeypatch, d):
        """A window stream logged solve by solve, with a copy of each W and
        how often each trigger fired. A rank-10 pre-fill keeps the ridge
        fallback on until real rows fill the Gram out; 1,000 pushes through
        300 rows recompute the normal equations three times; a lowered
        COND_THRESHOLD trips the guard a few times at d = 128; every
        seventh push is solved twice, the second time with no row moved."""
        monkeypatch.setattr(projector, "COND_THRESHOLD", 1e9)
        window = WindowSolver(QueuePair(d, 300))
        held_solve = window._held_solve
        fired = {"recompute": 0, "cap": 0, "guard": 0, "ridge": 0, "unmoved": 0}

        def counting(moved):
            held = held_solve(moved)
            fired["guard"] += held is None
            return held
        window._held_solve = counting
        log, copies = SnapshotLog(), []
        rows = 2.0 * np.random.default_rng(40).standard_normal((1000, d))
        for j, (_, recomputed, m) in enumerate(window_stream(window, rows, prefill_rank=10,
                                                             seed=41)):
            fired["recompute"] += recomputed
            fired["cap"] += window._factor is not None and window._held + m > window.cap
            for repeat in range(1 + (j % 7 == 0)):
                weights, _, ridge = window.solve()
                log.append(weights, window.update)
                copies.append(weights.copy())
                fired["ridge"] += ridge != 0.0
                fired["unmoved"] += repeat
        return log, copies, fired

    @staticmethod
    def kinds(log):
        """Each entry's kind: a full W, an update or unmoved."""
        return ["full" if not isinstance(entry, tuple) else "update" if entry else "unmoved"
                for entry in log._entries]

    @pytest.mark.parametrize("d", [32, 128])
    def test_long_stream_replays_bit_for_bit(self, monkeypatch, d):
        log, copies, fired = self.logged_stream(monkeypatch, d)
        assert fired["recompute"] == 3 and fired["ridge"] > 10 and fired["unmoved"] > 100
        kinds = self.kinds(log)
        assert kinds.count("unmoved") == fired["unmoved"]
        if d < HELD_MIN_DIMENSION:
            # no factor is held: every solve refactors
            assert fired["cap"] == fired["guard"] == 0
        else:
            assert fired["cap"] > 10 and fired["guard"] > 0
        assert kinds.count("update") > len(log) // 2
        for entry, kind in zip(log._entries, kinds):
            if kind == "update":   # m = 2 rows moved: 2 m d floats
                assert sum(part.size for part in entry) == 4 * d
        assert_replays(log, copies, np.random.default_rng(d))

    def test_assignment_keeps_every_other_entry(self, monkeypatch):
        log, copies, _ = self.logged_stream(monkeypatch, 128)
        pairs = list(zip(self.kinds(log), self.kinds(log)[1:]))
        rng = np.random.default_rng(42)
        for i in (pairs.index(("update", "update")), pairs.index(("full", "update")),
                  pairs.index(("update", "unmoved")), 0, len(log) - 1, -3):
            log[len(log) // 2]   # leave the buffer somewhere else
            weights = rng.standard_normal((128, 128))
            log[i] = weights
            assert log[i] is weights
            copies[i] = weights
            assert_replays(log, copies, rng)

    def test_first_entry_is_a_full_w(self):
        with pytest.raises(ValueError, match="full W"):
            SnapshotLog().append(np.eye(3), ())


class TestFallbackSolves:
    """While the ridge fallback is active, each solve is the direct solve of
    the ridged normal equations, never an update of the last solution."""

    @pytest.mark.parametrize("d", [8, 32, 128])
    def test_every_fallback_solve_is_direct(self, d):
        # a pre-fill of rank d/4 keeps the fallback on until about 3d/4 real
        # rows have entered; each of those solves moves two rows
        window = WindowSolver(QueuePair(d, 600))
        rows = 2.0 * np.random.default_rng(d).standard_normal((d, d))
        fallbacks = 0
        for pair, _, _ in window_stream(window, rows, prefill_rank=d // 4, seed=d + 1):
            weights, _, ridge = window.solve()
            if ridge != 0.0:
                fallbacks += 1
                direct = solve_normal_equations(pair.gram, pair.cross, ridge)[0]
                np.testing.assert_array_equal(weights, direct)
        assert fallbacks >= d // 2
        assert window.counts.ridge_fallbacks == fallbacks


class TestWindowPush:
    def test_one_dimensional_and_rejected_pushes(self):
        # a 1-d push is one row, as for QueuePair.push; a rejected push
        # leaves the window as it was, so every update matches the direct solve
        d = 6
        rng = np.random.default_rng(30)
        prefill = rng.standard_normal((40, d))
        window = WindowSolver(pair_from(prefill, prefill))
        window.solve()
        for _ in range(5):
            row = rng.standard_normal(d)
            left_old, _ = window.queue.push(row, 2.0 * row)
            assert left_old.shape == (1, d)
            with pytest.raises(DimensionError):
                window.queue.push(row[:-1], row[:-1])
            weights = window.solve()[0]
            direct = solve(window.queue)[0]
            assert np.linalg.norm(weights - direct) <= 1e-10 * np.linalg.norm(direct)
        assert window.counts.refactors == 6

    def test_staged_rows_and_several_pushes_per_solve(self):
        # the stream hands its staged rows over as tuples of 1-d rows, which
        # push the same bits as their stacked matrix; the rows entered by
        # several pushes keep their sign in the next solve's update (m < d)
        d = 16
        rng = np.random.default_rng(31)
        prefill = rng.standard_normal((40, d))
        stacked = WindowSolver(pair_from(prefill, prefill))
        staged = WindowSolver(pair_from(prefill, prefill))
        stacked.solve()
        staged.solve()
        for pushes in (1, 2, 3, 1):
            for _ in range(pushes):
                rows = (rng.standard_normal(d), rng.standard_normal(d))
                images = (2.0 * rows[0], 3.0 * rows[1])
                left = stacked.queue.push(np.array(rows), np.array(images))
                for got, want in zip(staged.queue.push(rows, images), left):
                    np.testing.assert_array_equal(got, want)
            weights = staged.solve()[0]
            np.testing.assert_array_equal(weights, stacked.solve()[0])
            direct = solve(staged.queue)[0]
            assert np.linalg.norm(weights - direct) <= 1e-10 * np.linalg.norm(direct)
