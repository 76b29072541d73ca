import numpy as np
import pytest

from driftcomp.core import PrototypeTable, class_means
from driftcomp.drift_sim import (
    DriftSpec,
    cold_start_split,
    realize_drift,
    true_drift_similarity,
    warm_start_split,
)
from driftcomp.projector import solve_normal_equations
from driftcomp.queues import QueuePair
from driftcomp.sources import SyntheticSource


def simple_source(**kwargs):
    defaults = dict(num_tasks=3, classes_per_task=[2, 2, 2], dimension=6,
                    train_per_class=10, test_per_class=5, seed=0)
    defaults.update(kwargs)
    return SyntheticSource(**defaults)


class TestDriftSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DriftSpec(kind="quadratic")

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            DriftSpec(kind="rotation", magnitude=-0.1)


class TestRealizeDrift:
    def test_identity_is_exact(self):
        rng = np.random.default_rng(0)
        dmap = realize_drift(DriftSpec(kind="identity"), 5, rng)
        x = rng.standard_normal((7, 5))
        np.testing.assert_array_equal(dmap.apply(x), x)
        np.testing.assert_array_equal(dmap.matrix, np.eye(5))

    def test_rotation_is_orthogonal_and_norm_preserving(self):
        rng = np.random.default_rng(1)
        dmap = realize_drift(DriftSpec(kind="rotation", magnitude=0.8), 8, rng)
        a = dmap.matrix
        np.testing.assert_allclose(a @ a.T, np.eye(8), atol=1e-10)
        x = rng.standard_normal((20, 8))
        np.testing.assert_allclose(
            np.linalg.norm(dmap.apply(x), axis=1), np.linalg.norm(x, axis=1),
            atol=1e-10,
        )

    def test_zero_magnitude_rotation_is_identity(self):
        rng = np.random.default_rng(2)
        dmap = realize_drift(DriftSpec(kind="rotation", magnitude=0.0), 6, rng)
        np.testing.assert_allclose(dmap.matrix, np.eye(6), atol=1e-12)

    def test_scaled_rotation_scales_norms(self):
        rng = np.random.default_rng(3)
        dmap = realize_drift(
            DriftSpec(kind="scaled_rotation", magnitude=0.5, scale=3.0), 6, rng
        )
        x = rng.standard_normal((15, 6))
        np.testing.assert_allclose(
            np.linalg.norm(dmap.apply(x), axis=1),
            3.0 * np.linalg.norm(x, axis=1), atol=1e-10,
        )

    def test_general_affine_condition_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dmap = realize_drift(
                DriftSpec(kind="general_affine", magnitude=0.6), 16, rng
            )
            assert np.linalg.cond(dmap.matrix) <= 50.0

    def test_general_affine_is_linear(self):
        rng = np.random.default_rng(5)
        dmap = realize_drift(DriftSpec(kind="general_affine", magnitude=0.5), 6, rng)
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((4, 6))
        np.testing.assert_allclose(dmap.apply(x + y), dmap.apply(x) + dmap.apply(y),
                                   atol=1e-10)
        np.testing.assert_allclose(dmap.apply(2.5 * x), 2.5 * dmap.apply(x),
                                   atol=1e-10)

    def test_nonlinear_breaks_additivity(self):
        rng = np.random.default_rng(6)
        dmap = realize_drift(DriftSpec(kind="nonlinear", magnitude=0.5), 6, rng)
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((4, 6))
        gap = np.abs(dmap.apply(x + y) - dmap.apply(x) - dmap.apply(y)).max()
        assert gap > 1e-3

    def test_nonlinear_matches_formula(self):
        rng = np.random.default_rng(7)
        dmap = realize_drift(DriftSpec(kind="nonlinear", magnitude=0.4), 5, rng)
        x = rng.standard_normal((10, 5))
        expected = x @ dmap.matrix.T + 0.4 * np.sin(x)
        np.testing.assert_allclose(dmap.apply(x), expected, atol=1e-12)

    def test_projector_target_recovers_map(self):
        # fitting the projector on exact paired data must recover A.T
        rng = np.random.default_rng(8)
        dmap = realize_drift(DriftSpec(kind="general_affine", magnitude=0.7), 6, rng)
        x = rng.standard_normal((200, 6))
        pair = QueuePair(6, 200)
        pair.push(x, dmap.apply(x))
        weights, _, _ = solve_normal_equations(pair.gram, pair.cross)
        np.testing.assert_allclose(weights, dmap.projector_target, atol=1e-8)

    def test_deterministic_given_rng(self):
        a = realize_drift(DriftSpec(kind="general_affine", magnitude=0.5), 8,
                          np.random.default_rng(9))
        b = realize_drift(DriftSpec(kind="general_affine", magnitude=0.5), 8,
                          np.random.default_rng(9))
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestSplits:
    def test_cold_start_even(self):
        assert cold_start_split(100, 10) == [10] * 10

    def test_cold_start_uneven_rejected(self):
        with pytest.raises(ValueError):
            cold_start_split(100, 7)

    def test_warm_start_half_then_even(self):
        assert warm_start_split(100, 6) == [50, 10, 10, 10, 10, 10]

    def test_warm_start_uneven_rejected(self):
        with pytest.raises(ValueError):
            warm_start_split(100, 8)


class TestScenarioValidation:
    def test_classes_per_task_length_checked(self):
        with pytest.raises(ValueError):
            simple_source(classes_per_task=[2, 2])

    def test_drift_schedule_length_checked(self):
        with pytest.raises(ValueError):
            simple_source(drift_schedule=[DriftSpec()])

    def test_zero_class_task_rejected(self):
        with pytest.raises(ValueError):
            simple_source(classes_per_task=[2, 0, 4])


class TestSyntheticDraw:
    def test_class_ids_partition_tasks(self):
        scen = simple_source()
        assert scen.classes_of_task(1) == (0, 1)
        assert scen.classes_of_task(2) == (2, 3)
        assert scen.classes_of_task(3) == (4, 5)
        assert scen.seen_classes(2) == (0, 1, 2, 3)

    def test_sample_counts(self):
        scen = simple_source()
        assert scen.classes_of_task(2) == (2, 3)
        for c in (2, 3):
            assert len(scen.train_matrix(2, c)) == 10
            assert len(scen.test_matrix(2, c)) == 5

    def test_every_class_exists_in_every_space(self):
        scen = simple_source()
        for space in (1, 2, 3):
            for c in range(6):
                assert scen.train_matrix(space, c).shape == (10, 6)
                assert scen.test_matrix(space, c).shape == (5, 6)

    def test_default_schedule_is_identity(self):
        scen = simple_source()
        for c in range(6):
            np.testing.assert_array_equal(scen.train_matrix(1, c),
                                          scen.train_matrix(3, c))

    def test_spaces_chain_through_true_maps(self):
        scen = simple_source(drift_schedule=[
            DriftSpec(kind="general_affine", magnitude=0.5),
            DriftSpec(kind="rotation", magnitude=0.6),
        ])
        for t in (2, 3):
            dmap = scen.drift_map(t)
            for c in range(6):
                np.testing.assert_allclose(
                    scen.test_matrix(t, c),
                    dmap.apply(scen.test_matrix(t - 1, c)), atol=1e-10,
                )

    def test_observation_noise_perturbs_chain(self):
        scen = simple_source(drift_schedule=[
            DriftSpec(kind="identity", observation_noise=0.1),
            DriftSpec(kind="identity", observation_noise=0.1),
        ])
        diff = scen.test_matrix(2, 0) - scen.test_matrix(1, 0)
        assert 0.01 < np.abs(diff).mean() < 0.5

    def test_seed_reproducible_bitwise(self):
        schedule = [DriftSpec(kind="general_affine", magnitude=0.5),
                    DriftSpec(kind="nonlinear", magnitude=0.3)]
        a, b = simple_source(drift_schedule=schedule), simple_source(drift_schedule=schedule)
        for space in (1, 2, 3):
            for c in range(6):
                np.testing.assert_array_equal(a.train_matrix(space, c),
                                              b.train_matrix(space, c))
        for t in (2, 3):
            np.testing.assert_array_equal(a.drift_map(t).matrix,
                                          b.drift_map(t).matrix)

    def test_different_seeds_differ(self):
        a = simple_source(seed=1)
        b = simple_source(seed=2)
        assert np.abs(a.train_matrix(1, 0) - b.train_matrix(1, 0)).max() > 1e-6

    def test_clusters_separable_by_prototypes(self):
        # with generous separation, NCM on true prototypes should be near-perfect
        scen = simple_source(classes_per_task=[4, 4, 4], cluster_separation=6.0, dimension=16)
        table = class_means({c: scen.train_matrix(t, c)
                             for t in (1, 2, 3) for c in scen.classes_of_task(t)})
        # cosine NCM: a feature's norm does not change its arg max
        unit = table.matrix() / np.linalg.norm(table.matrix(), axis=1, keepdims=True)
        correct = total = 0
        for t in (1, 2, 3):
            for c in scen.classes_of_task(t):
                predicted = np.array(table.class_ids)[np.argmax(scen.test_matrix(t, c) @ unit.T,
                                                                axis=1)]
                correct += int(np.sum(predicted == c))
                total += len(predicted)
        assert correct / total > 0.95


class TestTrueDriftSimilarity:
    def tables(self):
        ref = PrototypeTable([0, 1], [[1.0, 0.0], [0.0, 1.0]])
        true = PrototypeTable([0, 1], [[2.0, 0.0], [0.0, 3.0]])
        return ref, true

    def test_perfect_estimate_scores_one(self):
        ref, true = self.tables()
        sims = true_drift_similarity(true, true, ref)
        assert sims == {0: pytest.approx(1.0), 1: pytest.approx(1.0)}

    def test_opposite_estimate_scores_minus_one(self):
        ref, true = self.tables()
        est = PrototypeTable([0, 1], [[0.0, 0.0], [0.0, -1.0]])
        sims = true_drift_similarity(est, true, ref)
        assert sims[0] == pytest.approx(-1.0)
        assert sims[1] == pytest.approx(-1.0)

    def test_zero_drift_convention(self):
        ref, _ = self.tables()
        with pytest.warns(RuntimeWarning):
            sims = true_drift_similarity(ref, ref, ref)
        assert sims == {0: 1.0, 1: 1.0}

    def test_zero_estimate_scores_zero(self):
        # prototypes that never moved against a non-zero true drift
        ref, true = self.tables()
        with pytest.warns(RuntimeWarning, match=r"class \d has a zero-length estimated drift"):
            sims = true_drift_similarity(ref, true, ref)
        assert sims == {0: 0.0, 1: 0.0}

    def test_class_mismatch_rejected(self):
        ref, true = self.tables()
        est = PrototypeTable([0], [[2.0, 0.0]])
        with pytest.raises(ValueError):
            true_drift_similarity(est, true, ref)

    def test_recovered_projector_high_similarity(self):
        # end to end: analytic projector on exact pairs tracks the true drift
        rng = np.random.default_rng(10)
        scen = simple_source(
            classes_per_task=[3, 3, 3], dimension=8,
            train_per_class=40,
            drift_schedule=[DriftSpec(kind="general_affine", magnitude=0.6),
                            DriftSpec(kind="general_affine", magnitude=0.6)],
        )
        old = np.vstack([scen.train_matrix(1, c) for c in range(9)])
        new = np.vstack([scen.train_matrix(2, c) for c in range(9)])
        pair = QueuePair(8, old.shape[0])
        pair.push(old, new)
        weights, _, _ = solve_normal_equations(pair.gram, pair.cross)
        ref = PrototypeTable(range(9), [scen.train_matrix(1, c).mean(axis=0) for c in range(9)])
        est = PrototypeTable(range(9), [ref.prototype(c) @ weights for c in range(9)])
        true = PrototypeTable(range(9), [scen.train_matrix(2, c).mean(axis=0) for c in range(9)])
        sims = true_drift_similarity(est, true, ref)
        assert min(sims.values()) > 0.999
