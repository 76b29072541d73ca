import numpy as np
import pytest

from driftcomp.core import PrototypeTable
from driftcomp.errors import DimensionError
from driftcomp.projector import Projector
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
            pair = init_with_pseudo_features(table, Projector.identity(3),
                                            capacity=5, noise_scale=0.0, rng_seed=0)
        q_old = pair.old_queue.matrix()
        assert q_old.shape == (5, 3)
        np.testing.assert_array_equal(q_old, np.tile([1.0, -2.0, 3.0], (5, 1)))

    def test_identity_projector_pairs_bitwise(self):
        rng = np.random.default_rng(1)
        table = self.proto_table(rng)
        pair = init_with_pseudo_features(table, Projector.identity(8),
                                        capacity=100, noise_scale=0.1, rng_seed=3)
        np.testing.assert_array_equal(pair.old_queue.matrix(), pair.new_queue.matrix())

    def test_capacity_rows_generated(self):
        rng = np.random.default_rng(2)
        table = self.proto_table(rng)
        pair = init_with_pseudo_features(table, Projector.identity(8),
                                        capacity=37, noise_scale=0.02, rng_seed=0)
        assert len(pair) == 37

    def test_seed_reproducible_bitwise(self):
        rng = np.random.default_rng(4)
        table = self.proto_table(rng)
        a = init_with_pseudo_features(table, Projector.identity(8), 50, 0.02, rng_seed=9)
        b = init_with_pseudo_features(table, Projector.identity(8), 50, 0.02, rng_seed=9)
        np.testing.assert_array_equal(a.old_queue.matrix(), b.old_queue.matrix())
        np.testing.assert_array_equal(a.new_queue.matrix(), b.new_queue.matrix())

    def test_gram_full_rank_via_svd_oracle(self):
        # svd rank-count oracle on the padded old-feature matrix
        rng = np.random.default_rng(5)
        d = 64
        table = self.proto_table(rng, classes=10, d=d)
        pair = init_with_pseudo_features(table, Projector.identity(d),
                                        capacity=3000, noise_scale=0.02, rng_seed=1)
        q_old = pair.old_queue.matrix()
        singular_values = np.linalg.svd(q_old, compute_uv=False)
        rank = int(np.sum(singular_values > singular_values[0] * 1e-10))
        assert rank == d
        gram = q_old.T @ q_old
        assert np.isfinite(np.linalg.cond(gram))

    def test_nonlinear_projector_applied_rowwise(self):
        rng = np.random.default_rng(6)
        table = self.proto_table(rng, classes=3, d=4)
        w = rng.standard_normal((4, 4))
        pair = init_with_pseudo_features(table, Projector(w), 20, 0.05, rng_seed=2)
        np.testing.assert_allclose(pair.new_queue.matrix(),
                                   pair.old_queue.matrix() @ w, atol=1e-12)
