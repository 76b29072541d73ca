import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcomp.core import PrototypeTable, compute_prototypes, FeatureRecord
from driftcomp.errors import (
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    SingularGramError,
)
from driftcomp.engine import _offline_gd
from driftcomp.projector import _cholesky, evolve_prototypes, solve_normal_equations
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
        return PrototypeTable({0: ([1.0, -1.0], 1), 1: ([0.5, 2.0], 1), 7: ([3.0, 0.0], 2)})

    def test_identity_preserves_vectors(self):
        table = self.table()
        out = evolve_prototypes(table, np.eye(2), [0, 1])
        for c in (0, 1):
            np.testing.assert_array_equal(out.prototype(c), table.prototype(c))
            assert out.aligned_task(c) == table.aligned_task(c) + 1
        assert out.aligned_task(7) == 2

    def test_scalar_map(self):
        table = PrototypeTable({0: ([1.0, -1.0], 1)})
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
        table = compute_prototypes([FeatureRecord(v, int(c), 1) for v, c in zip(feats, labels)])
        evolved = evolve_prototypes(table, weights, table.class_ids)
        recomputed = compute_prototypes(
            [FeatureRecord(v, int(c), 2) for v, c in zip(drifted, labels)]
        )
        for c in table.class_ids:
            a, b = evolved.prototype(c), recomputed.prototype(c)
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos > 0.999

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_image_raises(self):
        # a finite projector whose product with large prototypes overflows
        table = PrototypeTable({0: (np.full(4, 5e9), 1), 3: (np.full(4, -5e9), 1)})
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
        assert [out.aligned_task(c) for c in out.class_ids] == \
               [table.aligned_task(c) for c in table.class_ids]


class TestStackedEvolve:
    """evolve_prototypes maps all old rows in one stacked product; every
    image must equal the one-row product `v @ W` bit for bit."""

    @pytest.mark.parametrize("d", [1, 8, 32, 128, 512])
    @settings(max_examples=25, deadline=None)
    @given(n_classes=st.integers(1, 100), log_scale=st.floats(-3.0, 3.0),
           old_fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 31 - 1))
    def test_matches_per_row_products(self, d, n_classes, log_scale, old_fraction, seed):
        rng = np.random.default_rng(seed)
        matrix = 10.0 ** log_scale * rng.standard_normal((n_classes, d))
        class_ids = rng.choice(10 * n_classes, size=n_classes, replace=False)
        tasks = rng.integers(1, 5, size=n_classes)
        table = PrototypeTable({int(c): (row, int(t))
                                for c, row, t in zip(class_ids, matrix, tasks)})
        old = {c for c in table.class_ids if rng.random() < old_fraction}
        weights = np.eye(d) + rng.standard_normal((d, d)) / np.sqrt(d)

        out = evolve_prototypes(table, weights, old)

        expected = table.matrix().copy()
        for i, c in enumerate(table.class_ids):
            if c in old:
                expected[i] = expected[i] @ weights
        assert out.class_ids == table.class_ids
        assert np.array_equal(out.matrix(), expected)
        assert [out.aligned_task(c) for c in out.class_ids] == \
               [table.aligned_task(c) + (c in old) for c in table.class_ids]


class TestRankKUpdateOutput:
    """The rank-k solution update accumulates into a copy of the previous
    solution, which is the previous sample's snapshot and must not move."""

    # 2(k + 1) rows move, fewer than d, so the update is taken
    @pytest.mark.parametrize("d, k", [(4, 0), (8, 1), (32, 2), (128, 3)])
    def test_previous_untouched_and_result_new(self, d, k):
        rng = np.random.default_rng(d)
        capacity = 3 * d + 10
        pair = QueuePair(d, capacity)
        old = rng.standard_normal((capacity, d))
        pair.push(old, old @ rng.standard_normal((d, d)))
        # a C-ordered W_prev, as the direct route hands the stream
        weights, _, ridge = solve_normal_equations(pair.gram, pair.cross)
        assert weights.flags.c_contiguous
        kept = weights.copy()
        entering_old, entering_new = rng.standard_normal((2, k + 1, d))
        left_old, left_new = pair.push(entering_old, entering_new)
        rows_old = np.vstack([entering_old, left_old])
        rows_new = np.vstack([entering_new, left_new])
        moved = (rows_old, rows_new, k + 1)

        updated, _, _ = solve_normal_equations(pair.gram, pair.cross, 0.0,
                                               previous=(weights, ridge), moved=moved)

        np.testing.assert_array_equal(weights, kept)
        assert not np.shares_memory(updated, weights)
        assert updated.flags.c_contiguous
        # the former expression, W_prev + solved @ correction, bit for bit
        factor, _ = _cholesky(pair.gram, 0.0)
        correction = rows_new - rows_old @ weights
        correction[k + 1:] *= -1.0
        solved, _ = scipy.linalg.lapack.dpotrs(factor, rows_old.T)
        np.testing.assert_array_equal(updated, weights + solved @ correction)
