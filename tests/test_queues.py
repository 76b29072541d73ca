import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcomp.config import RunConfig
from driftcomp.core import PrototypeTable
from driftcomp.engine import _StreamFit
from driftcomp.errors import DegenerateInputError, DimensionError
from driftcomp.projector import solve_normal_equations
from driftcomp.queues import FeatureQueue, QueuePair, init_with_pseudo_features


def make_pair(d=4, capacity=3):
    return QueuePair(d, capacity)


class TestFeatureQueue:
    def test_fifo_step(self):
        q = FeatureQueue(2, 3)
        q.push_rows(np.array([[1, 1], [2, 2], [3, 3]], dtype=float))
        q.push_rows(np.array([[4, 4]], dtype=float))
        np.testing.assert_array_equal(q.matrix(), [[2, 2], [3, 3], [4, 4]])

    def test_full_replacement(self):
        q = FeatureQueue(2, 3)
        q.push_rows(np.arange(6, dtype=float).reshape(3, 2))
        fresh = np.arange(10, 16, dtype=float).reshape(3, 2)
        q.push_rows(fresh)
        np.testing.assert_array_equal(q.matrix(), fresh)

    def test_evicted_then_held_rows_replay_history(self):
        # oracle: the rows a queue gave back, then the rows it holds, are
        # every row pushed, in order
        rng = np.random.default_rng(3)
        q = FeatureQueue(2, 5)
        history, left = [], []
        for k in rng.integers(1, 9, size=60):
            rows = rng.standard_normal((k, 2))
            left.extend(q.push_rows(rows))
            history.extend(rows)
            np.testing.assert_array_equal(np.vstack(left + list(q.matrix())), np.vstack(history))

    def test_empty_matrix_shape(self):
        q = FeatureQueue(5, 2)
        assert q.matrix().shape == (0, 5)

    def test_dimension_rejected(self):
        q = FeatureQueue(3, 2)
        with pytest.raises(DimensionError):
            q.push_rows(np.zeros((1, 4)))


class TestPushPair:
    def test_lengths_stay_paired(self):
        pair = make_pair()
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            pair.push(rng.standard_normal((k, 4)), rng.standard_normal((k, 4)))
            assert len(pair.old_queue) == len(pair.new_queue) <= pair.capacity

    def test_mismatched_k_rejected(self):
        pair = make_pair()
        with pytest.raises(DimensionError):
            pair.push(np.zeros((2, 4)), np.zeros((3, 4)))

    def test_unbounded_oracle_equivalence(self):
        # oracle: unbounded append + tail slice
        rng = np.random.default_rng(42)
        capacity = 17
        pair = QueuePair(3, capacity)
        history_old, history_new = [], []
        for _ in range(500):
            k = int(rng.integers(1, 9))
            old = rng.standard_normal((k, 3))
            new = rng.standard_normal((k, 3))
            pair.push(old, new)
            history_old.extend(old)
            history_new.extend(new)
        np.testing.assert_array_equal(pair.old_queue.matrix(), np.vstack(history_old[-capacity:]))
        np.testing.assert_array_equal(pair.new_queue.matrix(), np.vstack(history_new[-capacity:]))


class TestPseudoFeatureInit:
    def proto_table(self, rng, classes=10, d=8):
        return PrototypeTable({c: (rng.standard_normal(d), 1) for c in range(classes)})

    def test_zero_noise_single_class(self):
        table = PrototypeTable({0: ([1.0, -2.0, 3.0], 1)})
        with pytest.warns(RuntimeWarning):
            pair = init_with_pseudo_features(table, capacity=5, noise_scale=0.0, rng_seed=0)
        q_old = pair.old_queue.matrix()
        assert q_old.shape == (5, 3)
        np.testing.assert_array_equal(q_old, np.tile([1.0, -2.0, 3.0], (5, 1)))

    def test_identity_projector_pairs_bitwise(self):
        rng = np.random.default_rng(1)
        table = self.proto_table(rng)
        pair = init_with_pseudo_features(table, capacity=100, noise_scale=0.1, rng_seed=3)
        np.testing.assert_array_equal(pair.old_queue.matrix(), pair.new_queue.matrix())

    def test_capacity_rows_generated(self):
        rng = np.random.default_rng(2)
        table = self.proto_table(rng)
        pair = init_with_pseudo_features(table, capacity=37, noise_scale=0.02, rng_seed=0)
        assert len(pair) == 37

    def test_seed_reproducible_bitwise(self):
        rng = np.random.default_rng(4)
        table = self.proto_table(rng)
        a = init_with_pseudo_features(table, 50, 0.02, rng_seed=9)
        b = init_with_pseudo_features(table, 50, 0.02, rng_seed=9)
        np.testing.assert_array_equal(a.old_queue.matrix(), b.old_queue.matrix())
        np.testing.assert_array_equal(a.new_queue.matrix(), b.new_queue.matrix())

    def test_gram_full_rank_via_svd_oracle(self):
        # svd rank-count oracle on the padded old-feature matrix
        rng = np.random.default_rng(5)
        d = 64
        table = self.proto_table(rng, classes=10, d=d)
        pair = init_with_pseudo_features(table, capacity=3000, noise_scale=0.02, rng_seed=1)
        q_old = pair.old_queue.matrix()
        singular_values = np.linalg.svd(q_old, compute_uv=False)
        rank = int(np.sum(singular_values > singular_values[0] * 1e-10))
        assert rank == d
        gram = q_old.T @ q_old
        assert np.isfinite(np.linalg.cond(gram))


class TestNonFiniteRows:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["old", "new"])
    def test_rejected_and_pair_untouched(self, bad, side):
        rng = np.random.default_rng(12)
        pair = QueuePair(3, 4)
        pair.push(rng.standard_normal((6, 3)), rng.standard_normal((6, 3)))
        pair.push(rng.standard_normal((1, 3)), rng.standard_normal((1, 3)))
        before = (*pair.matrices(), pair.gram.copy(), pair.cross.copy())
        rows = {"old": rng.standard_normal((2, 3)), "new": rng.standard_normal((2, 3))}
        rows[side][1, 2] = bad
        with pytest.raises(DegenerateInputError):
            pair.push(rows["old"], rows["new"])
        after = (*pair.matrices(), pair.gram, pair.cross)
        for got, want in zip(after, before):
            np.testing.assert_array_equal(got, want)


# The running normal equations against a recomputation from the queued rows:
# gram and cross within GRAM_RTOL, and the weights solved from them within
# WEIGHTS_RTOL of the weights solved from the recomputed ones (all relative
# Frobenius distances).
GRAM_RTOL = 1e-12
WEIGHTS_RTOL = 1e-9


def assert_matches_rows(pair, check_weights=True):
    q_old, q_new = pair.matrices()
    gram, cross = q_old.T @ q_old, q_old.T @ q_new
    assert np.linalg.norm(pair.gram - gram) <= GRAM_RTOL * np.linalg.norm(gram)
    assert np.linalg.norm(pair.cross - cross) <= GRAM_RTOL * np.linalg.norm(cross)
    if check_weights:
        running = solve_normal_equations(pair.gram, pair.cross)[0]
        scratch = solve_normal_equations(gram, cross)[0]
        assert np.linalg.norm(running - scratch) <= WEIGHTS_RTOL * np.linalg.norm(scratch)


class TestRunningNormalEquations:
    D, CAPACITY = 512, 3000     # the library default capacity at a real-image size

    def default_size_stream(self, seed):
        """Pseudo-feature pair at the default size, and a source of drifted
        real pairs."""
        rng = np.random.default_rng(seed)
        d = self.D
        table = PrototypeTable({c: (rng.standard_normal(d), 1) for c in range(10)})
        pair = init_with_pseudo_features(table, capacity=self.CAPACITY,
                                         noise_scale=0.02, rng_seed=seed)
        w_true = np.eye(d) + 0.3 * rng.standard_normal((d, d)) / np.sqrt(d)

        def rows(k):
            old = 2.0 * rng.standard_normal((k, d))
            return old, old @ w_true + 0.1 * rng.standard_normal((k, d))
        return pair, rows

    def test_default_size_single_rows(self):
        # checked just before and after a recompute, where the updates have
        # accumulated the most and the least rounding
        pair, rows = self.default_size_stream(0)
        checkpoints = {1, 1500, 2999, 3000, 3500}
        for i in range(1, max(checkpoints) + 1):
            pair.push(*rows(1))
            if i in checkpoints:
                assert_matches_rows(pair)

    def test_default_size_strided_and_oversized_pushes(self):
        pair, rows = self.default_size_stream(1)
        rng = np.random.default_rng(2)
        for i in range(1, 2401):
            k = self.CAPACITY + 7 if i == 1200 else int(rng.choice([2, 3, 5]))
            pair.push(*rows(k))
            if i % 400 == 0 or i == 1200:
                assert_matches_rows(pair)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 30),
           st.lists(st.integers(1, 40), min_size=1, max_size=80), st.integers(0, 2 ** 31 - 1))
    def test_small_shapes(self, d, capacity, pushes, seed):
        rng = np.random.default_rng(seed)
        pair = QueuePair(d, capacity)
        w_true = rng.standard_normal((d, d))
        for k in pushes:
            old = rng.standard_normal((k, d))
            pair.push(old, old @ w_true + 0.1 * rng.standard_normal((k, d)))
            # weights only where a random Gram is safely well conditioned
            assert_matches_rows(pair, check_weights=len(pair) >= 3 * d)


def relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestRankKUpdate:
    """The stream's analytic solves, updated from the previous solution by
    the rows that moved, against the direct solve on the same gram/cross."""

    def stream(self, d, capacity, seed, **config):
        rng = np.random.default_rng(seed)
        table = PrototypeTable({c: (rng.standard_normal(d), 1) for c in range(10)})
        cfg = RunConfig(solver="analytic", dimension=d, queue_capacity=capacity, **config)
        fit = _StreamFit(cfg, table, rng_seed=seed)
        w_true = np.eye(d) + 0.3 * rng.standard_normal((d, d)) / np.sqrt(d)

        def pair():
            old = 2.0 * rng.standard_normal(d)
            return old, old @ w_true + 0.1 * rng.standard_normal(d)
        return fit, pair

    def assert_matches_direct(self, fit, weights, recomputed):
        direct = solve_normal_equations(fit.queue.gram, fit.queue.cross)[0]
        assert relative_gap(weights, direct) <= WEIGHTS_RTOL
        if recomputed:
            # a recompute resets the rounding the updates carry: direct solve
            np.testing.assert_array_equal(weights, direct)

    def test_default_size_single_rows_across_recompute(self):
        # the pseudo-feature fill was the first recompute; the next comes
        # once capacity real rows have entered, at i = 2999
        fit, pair = self.stream(512, 3000, seed=0)
        checkpoints = {2800, 2801, 2998, 2999, 3000, 3100}
        for i in range(max(checkpoints) + 1):
            recomputes = fit.queue.recomputes
            fit.push(*pair())
            if i < min(checkpoints):
                continue
            weights = fit.solve(i)
            if i in checkpoints:
                self.assert_matches_direct(fit, weights, fit.queue.recomputes != recomputes)
        assert fit.queue.recomputes == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 24), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
           st.integers(0, 2 ** 31 - 1))
    def test_small_shapes_with_strides(self, d, update_stride, resolve_stride,
                                       capacity_factor, seed):
        capacity = 3 * d * capacity_factor
        fit, pair = self.stream(d, capacity, seed, update_stride=update_stride,
                                resolve_stride=resolve_stride)
        recomputes = fit.queue.recomputes
        for i in range(3 * capacity):
            fit.push(*pair())
            weights = fit.solve(i)
            if weights is not None:
                self.assert_matches_direct(fit, weights, fit.queue.recomputes != recomputes)
                recomputes = fit.queue.recomputes

    def test_ridge_change_forces_direct_solve(self):
        rng = np.random.default_rng(4)
        d = 16
        pair = QueuePair(d, 60)
        w_true = rng.standard_normal((d, d))

        def rows(k):
            old = rng.standard_normal((k, d))
            return old, old @ w_true + 0.1 * rng.standard_normal((k, d))
        pair.push(*rows(60))
        weights, _, ridge = solve_normal_equations(pair.gram, pair.cross, 10.0)
        previous = (weights, ridge)
        old, new = rows(2)
        left_old, left_new = pair.push(old, new)
        moved = (np.vstack([old, left_old]), np.vstack([new, left_new]), len(old))
        weights, _, ridge = solve_normal_equations(pair.gram, pair.cross, 0.0,
                                                   previous=previous, moved=moved)
        assert ridge == 0.0
        direct = solve_normal_equations(pair.gram, pair.cross)[0]
        assert relative_gap(weights, direct) <= WEIGHTS_RTOL
        np.testing.assert_array_equal(weights, direct)
        # the same rows with an unchanged ridge take the update
        updated, _, _ = solve_normal_equations(pair.gram, pair.cross, 10.0,
                                               previous=previous, moved=moved)
        ridged = solve_normal_equations(pair.gram, pair.cross, 10.0)[0]
        assert relative_gap(updated, ridged) <= WEIGHTS_RTOL



class TestRingSlices:
    """The ring's slice reads and writes against a list FIFO, from every
    reachable ring state (any fill level with the oldest row in slot 0, or
    full with the oldest row in any slot) and for push sizes up to past
    capacity, so writes and evictions straddle the ring end."""

    CAPACITY = 5

    @pytest.mark.parametrize("k", [1, 2, CAPACITY - 1, CAPACITY, CAPACITY + 1])
    def test_push_matches_list_fifo(self, k):
        cap, d = self.CAPACITY, 2
        rng = np.random.default_rng(k)
        states = [(length, 0) for length in range(cap + 1)]
        states += [(cap, rotation) for rotation in range(1, cap)]
        for length, rotation in states:
            q = FeatureQueue(d, cap)
            pushed = rng.standard_normal((length + rotation, d))
            for row in pushed:
                q.push_rows(row[None])
            assert q._start == rotation
            fresh = rng.standard_normal((k, d))
            model = np.concatenate([pushed[-cap:], fresh]) if length else fresh
            n_left = max(0, len(model) - cap)
            np.testing.assert_array_equal(q.push_rows(fresh), model[:n_left])
            np.testing.assert_array_equal(q.matrix(), model[n_left:])


def former_push_update(gram, cross, old, new, left_old, left_new):
    """The push update as first written: one (d, 2d) product of the moved
    rows against the signed paired rows, whose halves are added into
    C-ordered gram and cross."""
    moved = np.concatenate([old, left_old])
    signed = np.concatenate([np.hstack([old, new]), -np.hstack([left_old, left_new])])
    update = moved.T @ signed
    gram += update[:, :len(gram)]
    cross += update[:, len(gram):]


class TestInPlaceNormalEquations:
    """Each push updates gram and cross in place with one beta=1 gemm.

    Against the former product-then-add formula the result is equal bit for
    bit: the gemm kernel sums each entry over the moved rows in the same
    order and adds that sum into the matrix once. Two cases round
    differently and are held to rounding instead: at d = 1 numpy ran the
    former (1, m) @ (m, 2) product as gemv, which sums in another order, as
    soon as two rows move each way; and when several hundred rows move in
    one push, gemm adds its sum block by block. Stream pushes move 2 x
    `update_stride` rows.
    """

    def stream(self, d, capacity, sizes, seed):
        """Push rows of the given sizes; yield, after each push, the pair's
        gram and cross and the former formula's."""
        rng = np.random.default_rng(seed)
        pair = QueuePair(d, capacity)
        gram, cross = pair.gram, pair.cross
        want_gram, want_cross = np.zeros((d, d)), np.zeros((d, d))
        w_true = rng.standard_normal((d, d))
        for k in sizes:
            old = rng.standard_normal((k, d))
            new = old @ w_true + 0.1 * rng.standard_normal((k, d))
            recomputes = pair.recomputes
            left_old, left_new = pair.push(old, new)
            if pair.recomputes != recomputes:
                q_old, q_new = pair.matrices()
                want_gram, want_cross = q_old.T @ q_old, q_old.T @ q_new
            else:
                former_push_update(want_gram, want_cross, old, new, left_old, left_new)
            # f2py silently copies a c it cannot write, which would drop the update
            assert pair.gram is gram and pair.cross is cross
            assert gram.flags.f_contiguous and cross.flags.f_contiguous
            np.testing.assert_array_equal(gram, gram.T)
            yield (gram, cross), (want_gram, want_cross)
        assert pair.recomputes >= 3

    @staticmethod
    def mixed_sizes(capacity, largest, seed, n=400):
        """Push sizes 1..largest, with a push past capacity now and then."""
        rng = np.random.default_rng(seed)
        return [capacity + 3 if i % 97 == 50 else int(rng.integers(1, largest + 1))
                for i in range(n)]

    @pytest.mark.parametrize("d", [2, 8, 32, 128])
    def test_mixed_pushes_match_former_formula_bitwise(self, d):
        sizes = self.mixed_sizes(150, 60, seed=d)
        for got, want in self.stream(d, 150, sizes, seed=d):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("d", [1, 2, 8, 32, 128])
    def test_single_row_pushes_match_former_formula_bitwise(self, d):
        sizes = [1] * 200 + [41] + [1] * 100
        for got, want in self.stream(d, 40, sizes, seed=d):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_single_dimension_multi_row_pushes_within_rounding(self):
        sizes = self.mixed_sizes(150, 60, seed=1)
        for got, want in self.stream(1, 150, sizes, seed=1):
            np.testing.assert_allclose(got[0], want[0], rtol=1e-13)
            np.testing.assert_allclose(got[1], want[1], rtol=1e-13)
