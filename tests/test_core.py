import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcomp.core import (
    FeatureRecord,
    PrototypeTable,
    class_means,
    compute_prototypes,
    ncm_predict,
    ncm_predict_batch,
)
from driftcomp.errors import DegenerateInputError, DimensionError


def records_from(matrix, class_ids, task_id=1):
    return [FeatureRecord(row, c, task_id) for row, c in zip(matrix, class_ids)]


def naive_class_means(matrix, class_ids):
    """Test-only oracle: naive summation mean per class."""
    out = {}
    for c in sorted(set(class_ids)):
        rows = [row for row, cid in zip(matrix, class_ids) if cid == c]
        total = [0.0] * len(rows[0])
        for row in rows:
            for j, v in enumerate(row):
                total[j] += v
        out[c] = np.asarray([v / len(rows) for v in total])
    return out


class TestFeatureRecord:
    def test_rejects_nan(self):
        with pytest.raises(DegenerateInputError):
            FeatureRecord([1.0, np.nan], 0, 1)

    def test_rejects_inf(self):
        with pytest.raises(DegenerateInputError):
            FeatureRecord([np.inf, 0.0], 0, 1)

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            FeatureRecord([1.0], -1, 1)
        with pytest.raises(ValueError):
            FeatureRecord([1.0], 0, -2)

    def test_vector_is_immutable(self):
        rec = FeatureRecord([1.0, 2.0], 0, 1)
        with pytest.raises(ValueError):
            rec.vector[0] = 5.0


class TestComputePrototypes:
    def test_single_record(self):
        table = compute_prototypes([FeatureRecord([1.0, 2.0, 3.0], 7, 1)])
        np.testing.assert_array_equal(table.prototype(7), [1.0, 2.0, 3.0])
        assert table.aligned_task(7) == 1

    def test_two_point_means(self):
        recs = records_from([[0, 0], [2, 0], [0, 4]], [0, 0, 1])
        table = compute_prototypes(recs)
        np.testing.assert_array_equal(table.prototype(0), [1.0, 0.0])
        np.testing.assert_array_equal(table.prototype(1), [0.0, 4.0])

    def test_matches_naive_mean_oracle(self):
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((200, 16))
        class_ids = [i // 50 for i in range(200)]
        table = compute_prototypes(records_from(matrix, class_ids))
        oracle = naive_class_means(matrix, class_ids)
        assert set(table.class_ids) == set(oracle)
        for c, mean in oracle.items():
            np.testing.assert_allclose(table.prototype(c), mean, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((60, 8))
        class_ids = list(rng.integers(0, 4, size=60))
        recs = records_from(matrix, class_ids)
        shuffled = [recs[i] for i in rng.permutation(60)]
        a = compute_prototypes(recs)
        b = compute_prototypes(shuffled)
        for c in a.class_ids:
            np.testing.assert_allclose(a.prototype(c), b.prototype(c), atol=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            compute_prototypes([])

    def test_dimension_mismatch_rejected(self):
        recs = [FeatureRecord([1.0, 2.0], 0, 1), FeatureRecord([1.0, 2.0, 3.0], 0, 1)]
        with pytest.raises(DimensionError):
            compute_prototypes(recs)



def sequential_mean(rows):
    """Test-only oracle: the rows added one at a time, then divided."""
    total = rows[0].copy()
    for row in rows[1:]:
        total = total + row
    return total / len(rows)


class TestClassMeans:
    @pytest.mark.parametrize("d", [1, 2, 8, 128])
    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_matches_sequential_sum_bitwise(self, d, n):
        # per-row scales over six decades make the summation order show
        rng = np.random.default_rng(d * 7919 + n)
        matrices = {c: rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
                    for c in (4, 0, 9)}
        table = class_means(matrices, task=3)
        records = [FeatureRecord(row, c, 3) for c, m in matrices.items() for row in m]
        by_records = compute_prototypes(records)
        assert table.class_ids == by_records.class_ids == (0, 4, 9)
        for c, rows in matrices.items():
            assert np.array_equal(table.prototype(c), sequential_mean(rows))
            assert np.array_equal(by_records.prototype(c), sequential_mean(rows))
            assert table.aligned_task(c) == by_records.aligned_task(c) == 3

    def test_compute_prototypes_keeps_each_class_task(self):
        records = [FeatureRecord([1.0, 2.0], 5, 2), FeatureRecord([3.0, 4.0], 1, 1),
                   FeatureRecord([5.0, 6.0], 5, 4)]
        table = compute_prototypes(records)
        assert [table.aligned_task(c) for c in table.class_ids] == [1, 2]
        np.testing.assert_array_equal(table.prototype(5), [3.0, 4.0])

    @pytest.mark.parametrize("rows", [np.zeros((0, 3)), np.zeros((2, 0)), np.ones(3),
                                      np.ones((2, 3, 1))])
    def test_malformed_matrix_rejected(self, rows):
        with pytest.raises(DimensionError):
            class_means({0: np.ones((2, 3)), 1: rows}, task=1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            class_means({0: np.ones((2, 3)), 1: np.ones((2, 4))}, task=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        rows = np.ones((4, 3))
        rows[2, 1] = bad
        with pytest.raises(DegenerateInputError):
            class_means({0: rows}, task=1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_mean_rejected(self):
        with pytest.raises(DegenerateInputError):
            class_means({0: np.full((2, 3), 1e308)}, task=1)

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValueError):
            class_means({}, task=1)


class TestNcmPredict:
    def make_table(self, rng, classes=10, d=32):
        return PrototypeTable({c: (rng.standard_normal(d), 1) for c in range(classes)})

    def test_self_match(self):
        table = PrototypeTable({1: ([1.0, 0.0], 1), 3: ([0.0, 1.0], 1)})
        assert ncm_predict(np.array([0.0, 1.0]), table) == 3

    def test_scale_invariance(self):
        table = self.make_table(np.random.default_rng(0))
        z = table.prototype(3)
        assert ncm_predict(z, table) == 3
        assert ncm_predict(5.0 * z, table) == 3

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        table = self.make_table(rng)
        features = rng.standard_normal((100, 32))
        for z in features:
            best, best_sim = None, -np.inf
            for c in table.class_ids:
                p = table.prototype(c)
                sim = float(z @ p / (np.linalg.norm(z) * np.linalg.norm(p)))
                if sim > best_sim:
                    best, best_sim = c, sim
            assert ncm_predict(z, table) == best
        np.testing.assert_array_equal(
            ncm_predict_batch(features, table),
            [ncm_predict(z, table) for z in features],
        )

    def test_tie_breaks_to_smallest_class(self):
        # two identical prototypes: smallest class id must win
        table = PrototypeTable({5: ([1.0, 1.0], 1), 9: ([1.0, 1.0], 1)})
        assert ncm_predict(np.array([2.0, 2.0]), table) == 5

    def test_zero_norm_feature_rejected(self):
        table = self.make_table(np.random.default_rng(0))
        with pytest.raises(DegenerateInputError):
            ncm_predict(np.zeros(32), table)

    def test_zero_norm_prototype_rejected(self):
        table = PrototypeTable({0: ([0.0, 0.0], 1), 1: ([1.0, 0.0], 1)})
        with pytest.raises(DegenerateInputError):
            ncm_predict(np.array([1.0, 1.0]), table)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        d = 16
        table = self.make_table(rng, classes=6, d=d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rotated = PrototypeTable(
            {c: (q @ table.prototype(c), 1) for c in table.class_ids}
        )
        for _ in range(50):
            z = rng.standard_normal(d)
            assert ncm_predict(z, table) == ncm_predict(q @ z, rotated)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2 ** 31 - 1))
    def test_positive_scaling_property(self, lam, seed):
        rng = np.random.default_rng(seed)
        table = self.make_table(rng, classes=5, d=8)
        z = rng.standard_normal(8)
        assert ncm_predict(lam * z, table) == ncm_predict(z, table)
