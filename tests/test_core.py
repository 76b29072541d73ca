import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcomp.core import FeatureRecord, PrototypeTable, class_means, ncm_predict
from driftcomp.errors import DegenerateInputError, DimensionError


def means_of(matrix, class_ids):
    """`class_means` over the rows of `matrix` grouped by their class ids."""
    matrix, class_ids = np.asarray(matrix, dtype=np.float64), np.asarray(class_ids)
    return class_means({c: matrix[class_ids == c] for c in set(class_ids.tolist())})


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
    """Prototypes computed by `class_means` from feature rows labelled by class."""

    def test_single_record(self):
        table = means_of([[1.0, 2.0, 3.0]], [7])
        np.testing.assert_array_equal(table.prototype(7), [1.0, 2.0, 3.0])

    def test_two_point_means(self):
        table = means_of([[0, 0], [2, 0], [0, 4]], [0, 0, 1])
        np.testing.assert_array_equal(table.prototype(0), [1.0, 0.0])
        np.testing.assert_array_equal(table.prototype(1), [0.0, 4.0])

    def test_matches_naive_mean_oracle(self):
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((200, 16))
        class_ids = [i // 50 for i in range(200)]
        table = means_of(matrix, class_ids)
        oracle = naive_class_means(matrix, class_ids)
        assert set(table.class_ids) == set(oracle)
        for c, mean in oracle.items():
            np.testing.assert_allclose(table.prototype(c), mean, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((60, 8))
        class_ids = rng.integers(0, 4, size=60)
        shuffled = rng.permutation(60)
        a = means_of(matrix, class_ids)
        b = means_of(matrix[shuffled], class_ids[shuffled])
        for c in a.class_ids:
            np.testing.assert_allclose(a.prototype(c), b.prototype(c), atol=1e-12)



class TestPrototypeTable:
    def test_sorts_unsorted_ids_with_their_rows(self):
        table = PrototypeTable([9, 2, 5], [[9.0, 0.0], [2.0, 0.0], [5.0, 0.0]])
        assert table.class_ids == (2, 5, 9)
        assert all(type(c) is int for c in table.class_ids)
        np.testing.assert_array_equal(table.matrix(), [[2.0, 0.0], [5.0, 0.0], [9.0, 0.0]])
        np.testing.assert_array_equal(table.prototype(9), [9.0, 0.0])

    def test_matrix_is_a_read_only_copy(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        table = PrototypeTable(np.array([0, 1]), rows)
        rows[0, 0] = 7.0
        assert table.prototype(0)[0] == 1.0
        with pytest.raises(ValueError):
            table.matrix()[0, 0] = 5.0

    @pytest.mark.parametrize("ids", [[3, 1, 3], [0, -1], [0.0, 1.0], [[0, 1]]])
    def test_bad_ids_rejected(self, ids):
        with pytest.raises(ValueError, match="distinct non-negative integers"):
            PrototypeTable(ids, np.ones((len(np.ravel(ids)), 2)))

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (3, 0), (3, 2, 1)])
    def test_shape_mismatch_rejected(self, shape):
        with pytest.raises(DimensionError):
            PrototypeTable([0, 1, 2], np.ones(shape))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="at least one class"):
            PrototypeTable([], np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        rows = np.ones((2, 3))
        rows[1, 2] = bad
        with pytest.raises(DegenerateInputError):
            PrototypeTable([0, 1], rows)


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
        table = class_means(matrices)
        assert table.class_ids == (0, 4, 9)
        for c, rows in matrices.items():
            assert np.array_equal(table.prototype(c), sequential_mean(rows))

    @pytest.mark.parametrize("rows", [np.zeros((0, 3)), np.zeros((2, 0)), np.ones(3),
                                      np.ones((2, 3, 1))])
    def test_malformed_matrix_rejected(self, rows):
        with pytest.raises(DimensionError):
            class_means({0: np.ones((2, 3)), 1: rows})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            class_means({0: np.ones((2, 3)), 1: np.ones((2, 4))})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        rows = np.ones((4, 3))
        rows[2, 1] = bad
        with pytest.raises(DegenerateInputError):
            class_means({0: rows})

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_mean_rejected(self):
        with pytest.raises(DegenerateInputError):
            class_means({0: np.full((2, 3), 1e308)})

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValueError):
            class_means({})


class TestNcmPredict:
    def make_table(self, rng, classes=10, d=32):
        return PrototypeTable(range(classes), rng.standard_normal((classes, d)))

    def test_self_match(self):
        table = PrototypeTable([1, 3], [[1.0, 0.0], [0.0, 1.0]])
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

    def test_tie_breaks_to_smallest_class(self):
        # two identical prototypes: smallest class id must win
        table = PrototypeTable([5, 9], [[1.0, 1.0], [1.0, 1.0]])
        assert ncm_predict(np.array([2.0, 2.0]), table) == 5

    def test_zero_norm_feature_rejected(self):
        table = self.make_table(np.random.default_rng(0))
        with pytest.raises(DegenerateInputError):
            ncm_predict(np.zeros(32), table)

    def test_zero_norm_prototype_rejected(self):
        table = PrototypeTable([0, 1], [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateInputError):
            ncm_predict(np.array([1.0, 1.0]), table)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        d = 16
        table = self.make_table(rng, classes=6, d=d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rotated = PrototypeTable(table.class_ids,
                                 [q @ table.prototype(c) for c in table.class_ids])
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
