import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcomp.config import RunConfig
from driftcomp.core import PrototypeTable
from driftcomp.engine import _StreamFit
from driftcomp.errors import DegenerateInputError, DimensionError
from driftcomp.projector import HELD_MIN_DIMENSION, WindowSolver, solve_normal_equations
from driftcomp.queues import QueuePair, init_with_pseudo_features


def make_pair(d=4, capacity=3):
    return QueuePair(d, capacity)


def paired(old):
    """Old rows with new rows that differ from them, so mixed-up halves show."""
    return old, -10.0 * old - 1.0


def assert_pairs_equal(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


class TestQueueRing:
    def test_fifo_step(self):
        pair = QueuePair(2, 3)
        pair.push(*paired(np.array([[1, 1], [2, 2], [3, 3]], dtype=float)))
        left = pair.push(*paired(np.array([[4, 4]], dtype=float)))
        assert_pairs_equal(left, paired(np.array([[1, 1]], dtype=float)))
        assert_pairs_equal(pair.matrices(), paired(np.array([[2, 2], [3, 3], [4, 4]], dtype=float)))

    def test_full_replacement(self):
        pair = QueuePair(2, 3)
        pair.push(*paired(np.arange(6, dtype=float).reshape(3, 2)))
        fresh = np.arange(10, 16, dtype=float).reshape(3, 2)
        pair.push(*paired(fresh))
        assert_pairs_equal(pair.matrices(), paired(fresh))

    def test_evicted_then_held_rows_replay_history(self):
        # oracle: the rows a queue gave back, then the rows it holds, are
        # every row pushed, in order, on both sides
        rng = np.random.default_rng(3)
        pair = QueuePair(2, 5)
        history, left = [], []
        for k in rng.integers(1, 9, size=60):
            old, new = rng.standard_normal((k, 2)), rng.standard_normal((k, 2))
            left.append(np.hstack(pair.push(old, new)))
            history.append(np.hstack([old, new]))
            held = np.hstack(pair.matrices())
            np.testing.assert_array_equal(np.vstack(left + [held]), np.vstack(history))

    def test_empty_matrix_shape(self):
        pair = QueuePair(5, 2)
        assert [m.shape for m in pair.matrices()] == [(0, 5), (0, 5)]

    def test_dimension_rejected(self):
        pair = QueuePair(3, 2)
        with pytest.raises(DimensionError):
            pair.push(np.zeros((1, 4)), np.zeros((1, 4)))


class TestPushPair:
    def test_lengths_stay_paired(self):
        pair = make_pair()
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            pair.push(rng.standard_normal((k, 4)), rng.standard_normal((k, 4)))
            q_old, q_new = pair.matrices()
            assert len(q_old) == len(q_new) == len(pair) <= pair.capacity

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
        assert_pairs_equal(pair.matrices(),
                           (np.vstack(history_old[-capacity:]), np.vstack(history_new[-capacity:])))


class TestPseudoFeatureInit:
    def proto_table(self, rng, classes=10, d=8):
        return PrototypeTable(range(classes), rng.standard_normal((classes, d)))

    def test_zero_noise_single_class(self):
        table = PrototypeTable([0], [[1.0, -2.0, 3.0]])
        with pytest.warns(RuntimeWarning):
            pair = init_with_pseudo_features(table, capacity=5, noise_scale=0.0, rng_seed=0)
        q_old = pair.matrices()[0]
        assert q_old.shape == (5, 3)
        np.testing.assert_array_equal(q_old, np.tile([1.0, -2.0, 3.0], (5, 1)))

    @pytest.mark.parametrize("classes, capacity, warns", [
        (10, 5, True),      # fewer rows than d
        (10, 150, True),    # fewer prototypes than d
        (40, 32, True),     # d rows, but repeated draws among them
        (100, 150, False),
        (40, 150, False),
    ])
    def test_zero_noise_warns_iff_rank_deficient(self, classes, capacity, warns):
        # generic prototypes: the Gram's rank is the number of distinct ones
        # drawn, capped at d
        d = 32
        table = self.proto_table(np.random.default_rng(classes + capacity), classes, d)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pair = init_with_pseudo_features(table, capacity=capacity, noise_scale=0.0,
                                             rng_seed=0)
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        rank = np.linalg.matrix_rank(pair.gram)
        assert (rank < d) == warns
        if warns:
            assert messages == [
                "noise_scale=0 leaves the Gram matrix rank-deficient until real features "
                f"arrive: its rank is at most {rank}, the number of distinct prototypes "
                f"drawn, below d = {d}"]
        else:
            assert messages == []

    def test_identity_projector_pairs_bitwise(self):
        rng = np.random.default_rng(1)
        table = self.proto_table(rng)
        pair = init_with_pseudo_features(table, capacity=100, noise_scale=0.1, rng_seed=3)
        np.testing.assert_array_equal(*pair.matrices())

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
        assert_pairs_equal(a.matrices(), b.matrices())

    def test_gram_full_rank_via_svd_oracle(self):
        # svd rank-count oracle on the padded old-feature matrix
        rng = np.random.default_rng(5)
        d = 64
        table = self.proto_table(rng, classes=10, d=d)
        pair = init_with_pseudo_features(table, capacity=3000, noise_scale=0.02, rng_seed=1)
        q_old = pair.matrices()[0]
        singular_values = np.linalg.svd(q_old, compute_uv=False)
        rank = int(np.sum(singular_values > singular_values[0] * 1e-10))
        assert rank == d
        gram = q_old.T @ q_old
        assert np.isfinite(np.linalg.cond(gram))


class TestNonFiniteRows:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "width"])
    @pytest.mark.parametrize("side", ["old", "new"])
    def test_rejected_and_pair_untouched(self, bad, side):
        rng = np.random.default_rng(12)
        pair = QueuePair(3, 4)
        pair.push(rng.standard_normal((6, 3)), rng.standard_normal((6, 3)))
        pair.push(rng.standard_normal((1, 3)), rng.standard_normal((1, 3)))
        before = (*pair.matrices(), pair.gram.copy(), pair.cross.copy(), len(pair))
        rows = {"old": rng.standard_normal((2, 3)), "new": rng.standard_normal((2, 3))}
        if bad == "width":
            # both sides one column too wide ("old") or too narrow ("new"),
            # so only the pair's own width check can see it
            width = 4 if side == "old" else 2
            rows = {s: rng.standard_normal((2, width)) for s in rows}
            error = DimensionError
        else:
            rows[side][1, 2] = bad
            error = DegenerateInputError
        with pytest.raises(error):
            pair.push(rows["old"], rows["new"])
        after = (*pair.matrices(), pair.gram, pair.cross, len(pair))
        for got, want in zip(after, before):
            np.testing.assert_array_equal(got, want)


def push_inputs(d):
    """0-d, 1-d, (k, d), empty and wrong-width inputs at dimension d."""
    rng = np.random.default_rng(d)
    return {
        "scalar": 1.5,
        "0-d": np.array(-0.5),
        "1-d": rng.standard_normal(d),
        "1-d long": rng.standard_normal(d + 3),
        "list": list(rng.standard_normal(d)),
        "(1, d)": rng.standard_normal((1, d)),
        "(3, d)": rng.standard_normal((3, d)),
        "(0, d)": np.empty((0, d)),
        "(3, d+1)": rng.standard_normal((3, d + 1)),
        "(d, 1)": rng.standard_normal((d, 1)),
        "(1, 1, d)": rng.standard_normal((1, 1, d)),
        "strided": rng.standard_normal(2 * d)[::2],
    }


class TestPushInputShapes:
    """A 0-d or 1-d push is one row, as np.atleast_2d reads it; a pair is
    accepted iff both sides read as the same (k, d) shape."""

    @pytest.mark.parametrize("d", [1, 4])
    def test_accepts_or_raises_as_atleast_2d_reads(self, d):
        inputs = push_inputs(d)
        rng = np.random.default_rng(100 + d)
        for old_name, old in inputs.items():
            for new_name, new in inputs.items():
                pair = QueuePair(d, 5)
                pair.push(*paired(rng.standard_normal((4, d))))
                before = (*pair.matrices(), pair.gram.copy(), pair.cross.copy())
                want_old, want_new = np.atleast_2d(old), np.atleast_2d(new)
                if want_old.shape == want_new.shape and want_old.shape[1:] == (d,):
                    pair.push(old, new)
                    k = len(want_old)
                    q_old, q_new = pair.matrices()
                    np.testing.assert_array_equal(q_old[len(q_old) - k:], want_old)
                    np.testing.assert_array_equal(q_new[len(q_new) - k:], want_new)
                    continue
                with pytest.raises(DimensionError):
                    pair.push(old, new)
                after = (*pair.matrices(), pair.gram, pair.cross)
                for got, want in zip(after, before):
                    np.testing.assert_array_equal(got, want, err_msg=f"{old_name}, {new_name}")

    def test_outcomes_at_dimension_one(self):
        # at d = 1 a 1-d push of length k is one row of width k, not k rows
        pair = QueuePair(1, 5)
        pair.push(2.0, np.array(3.0))
        pair.push(np.ones(1), [[4.0]])
        with pytest.raises(DimensionError):
            pair.push(np.ones(3), np.ones(3))
        assert_pairs_equal(pair.matrices(), ([[2.0], [1.0]], [[3.0], [4.0]]))


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
        table = PrototypeTable(range(10), rng.standard_normal((10, d)))
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
        table = PrototypeTable(range(10), rng.standard_normal((10, d)))
        cfg = RunConfig(solver="analytic", dimension=d, queue_capacity=capacity, **config)
        fit = _StreamFit(cfg, table, rng_seed=seed)
        w_true = np.eye(d) + 0.3 * rng.standard_normal((d, d)) / np.sqrt(d)

        def pair():
            old = 2.0 * rng.standard_normal(d)
            return old, old @ w_true + 0.1 * rng.standard_normal(d)
        return fit, pair

    def assert_matches_direct(self, fit, weights, recomputed):
        direct = solve_normal_equations(fit.window.queue.gram, fit.window.queue.cross)[0]
        assert relative_gap(weights, direct) <= WEIGHTS_RTOL
        if recomputed:
            # a recompute resets the rounding the updates carry: direct solve
            np.testing.assert_array_equal(weights, direct)

    def test_default_size_single_rows_across_recompute(self):
        # the pseudo-feature fill was the first recompute; the next comes
        # once capacity real rows have entered, at i = 2999
        fit, pair = self.stream(512, 3000, seed=0)
        queue = fit.window.queue
        checkpoints = {2800, 2801, 2998, 2999, 3000, 3100}
        for i in range(max(checkpoints) + 1):
            recomputes = queue.recomputes
            fit.push(*pair())
            if i < min(checkpoints):
                continue
            weights = fit.solve(i)
            if i in checkpoints:
                self.assert_matches_direct(fit, weights, queue.recomputes != recomputes)
        assert queue.recomputes == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 24), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
           st.integers(0, 2 ** 31 - 1))
    def test_small_shapes_with_strides(self, d, update_stride, resolve_stride,
                                       capacity_factor, seed):
        capacity = 3 * d * capacity_factor
        fit, pair = self.stream(d, capacity, seed, update_stride=update_stride,
                                resolve_stride=resolve_stride)
        queue = fit.window.queue
        recomputes = queue.recomputes
        for i in range(3 * capacity):
            fit.push(*pair())
            weights = fit.solve(i)
            if weights is not None:
                self.assert_matches_direct(fit, weights, queue.recomputes != recomputes)
                recomputes = queue.recomputes

    def test_ridge_change_forces_direct_solve(self):
        # a window of rank d - 1 falls back to min_ridge; two full-rank rows
        # end the fallback, and the solve after them is direct although
        # only four rows moved
        rng = np.random.default_rng(4)
        d = 16
        w_true = rng.standard_normal((d, d))
        prefill = rng.standard_normal((60, d - 1)) @ rng.standard_normal((d - 1, d))
        entering = rng.standard_normal((2, d))
        entering_new = entering @ w_true + 0.1 * rng.standard_normal((2, d))
        for requested in (0.0, 10.0):
            pair = QueuePair(d, 60)
            window = WindowSolver(pair, requested, min_ridge=10.0)
            window.push(prefill, prefill @ w_true)
            assert window.solve()[2] == 10.0
            window.push(entering, entering_new)
            weights, _, ridge = window.solve()
            direct, _, direct_ridge = solve_normal_equations(pair.gram, pair.cross, requested)
            assert ridge == direct_ridge == requested
            assert relative_gap(weights, direct) <= WEIGHTS_RTOL
            if requested == 0.0:
                np.testing.assert_array_equal(weights, direct)
        # with ridge 10 requested, the same rows take the update
        assert window.counts.ridge_fallbacks == 0


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
            pair = QueuePair(d, cap)
            # each model row is the old features then the new
            pushed = rng.standard_normal((length + rotation, 2 * d))
            for row in pushed:
                pair.push(row[None, :d], row[None, d:])
            assert pair._start == rotation
            fresh = rng.standard_normal((k, 2 * d))
            model = np.concatenate([pushed[-cap:], fresh]) if length else fresh
            n_left = max(0, len(model) - cap)
            left = pair.push(fresh[:, :d], fresh[:, d:])
            assert_pairs_equal(left, (model[:n_left, :d], model[:n_left, d:]))
            assert_pairs_equal(pair.matrices(), (model[n_left:, :d], model[n_left:, d:]))


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
            # gram and cross stay the halves of the one block the gemm writes;
            # f2py silently copies a c it cannot write, which would drop the
            # update, and the comparison with the former formula shows that
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


class TestLazyNormalEquations:
    """At every d, a push only records the rows that moved, and a read of
    gram or cross applies them all in one gemm."""

    def test_reads_at_random_points_match_rows(self):
        for d in (8, 32, 128):
            self.reads_at_random_points(d)

    @staticmethod
    def reads_at_random_points(d):
        # 2,400 one-row and strided pushes through a 500-row window, read at
        # random points. Every entry of the block is a sum over the rows held
        # at the last recompute and those entered since (A below): each held
        # or entered row counts once, and each row that left once more. So
        # fewer than T = 2 len(A) rounded products are summed, whose
        # magnitudes add up to at most 2 (|A|^T |A|), and any summation
        # order is within T (eps / 2) of that (Higham, Accuracy and
        # Stability of Numerical Algorithms, 3.1 and 4.2)
        capacity = 500
        rng = np.random.default_rng(40)
        pair = QueuePair(d, capacity)
        gram, cross = pair.gram, pair.cross
        w_true = np.eye(d) + 0.3 * rng.standard_normal((d, d)) / np.sqrt(d)
        history = []      # every (old | new) row pushed, in order
        first = 0         # index in history of the oldest row held at the last recompute
        reads = recomputes_with_rows_pending = 0
        for _ in range(2400):
            k = 1 if rng.random() < 0.5 else int(rng.choice([2, 3, 5, 8]))
            old = 2.0 * rng.standard_normal((k, d))
            new = old @ w_true + 0.1 * rng.standard_normal((k, d))
            history.extend(np.concatenate([old, new], axis=1))
            pending = bool(pair._pending_left)
            recomputes = pair.recomputes
            pair.push(old, new)
            if pair.recomputes != recomputes:
                # the recompute drops the rows recorded before it
                assert pair._pending == 0 and pair._pending_left == []
                recomputes_with_rows_pending += pending
                first = len(history) - len(pair)
                q_old, q_new = pair.matrices()
                assert pair.gram is gram and pair.cross is cross
                np.testing.assert_array_equal(gram, q_old.T @ q_old)
                np.testing.assert_array_equal(cross, q_old.T @ q_new)
            elif rng.random() < 0.1:
                reads += 1
                # either read brings both halves up to date
                pair.cross if rng.random() < 0.5 else pair.gram
                assert not pair._pending_left
                q_old, q_new = pair.matrices()
                rows = np.abs(np.array(history[first:]))
                magnitude = rows[:, :d].T @ rows
                bound = 2 * len(rows) * np.finfo(float).eps * magnitude
                assert pair.gram is gram and pair.cross is cross
                assert gram.flags.f_contiguous and cross.flags.f_contiguous
                assert np.all(np.abs(gram - q_old.T @ q_old) <= bound[:, :d])
                assert np.all(np.abs(cross - q_old.T @ q_new) <= bound[:, d:])
        assert pair.recomputes >= 3 and recomputes_with_rows_pending >= 3
        assert reads >= 100

    def test_pushes_only_record_until_read(self):
        rng = np.random.default_rng(41)
        for d in (8, 32, HELD_MIN_DIMENSION):
            pair = QueuePair(d, 200)
            pair.push(*paired(rng.standard_normal((200, d))))
            before = pair.gram.copy()
            for _ in range(10):
                pair.push(*paired(rng.standard_normal((1, d))))
            np.testing.assert_array_equal(pair._gram, before)
            assert_matches_rows(pair)
