import numpy as np
import pytest

from driftcomp.config import RunConfig
from driftcomp.core import class_means
from driftcomp.drift_sim import DriftSpec
from driftcomp.engine import _fresh_table
from driftcomp.errors import ConfigError, DumpFormatError
from driftcomp.sources import (
    DumpSource,
    SyntheticSource,
    ToySource,
    open_source,
    write_source_dump,
)


def small_config(**kwargs):
    defaults = dict(num_tasks=3, classes_per_task="2", dimension=6,
                    train_per_class=8, test_per_class=4,
                    drift_kind="general_affine", drift_magnitude=0.5, seed=0)
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestSyntheticSource:
    def test_pairs_cover_seen_classes(self):
        source = SyntheticSource.from_config(small_config())
        pairs = source.test_pairs(2)
        assert sorted({c for c, _, _ in pairs}) == [0, 1, 2, 3]
        assert len(pairs) == 4 * 4

    def test_first_task_has_no_old_side(self):
        source = SyntheticSource.from_config(small_config())
        assert all(z_old is None for _, z_old, _ in source.test_pairs(1))

    def test_pairs_ordered_by_class_then_index(self):
        source = SyntheticSource.from_config(small_config())
        classes = [c for c, _, _ in source.test_pairs(3)]
        assert classes == sorted(classes)

    def test_pair_sides_related_by_true_map(self):
        source = SyntheticSource.from_config(small_config(observation_noise=0.0))
        dmap = source.drift_map(2)
        for _, z_old, z_new in source.test_pairs(2):
            np.testing.assert_allclose(z_new, dmap.apply(z_old[None, :])[0], atol=1e-10)

    def test_reference_drifted_prototypes(self):
        source = SyntheticSource.from_config(small_config())
        old = class_means({c: source.train_matrix(1, c) for c in source.classes_of_task(1)})
        ref = source.reference_drifted_prototypes(2, old)
        dmap = source.drift_map(2)
        for c in old.class_ids:
            np.testing.assert_allclose(ref.prototype(c),
                                       dmap.apply(old.prototype(c)), atol=1e-10)

    def test_scenario_is_the_source(self):
        source = SyntheticSource.from_config(small_config())
        assert source.scenario is source

    def test_from_config_requires_synthetic(self):
        with pytest.raises(ConfigError, match="source=synthetic, not 'toy'"):
            SyntheticSource.from_config(RunConfig(source="toy"))

    def test_from_config_fields_propagate(self):
        cfg = RunConfig(num_tasks=4, classes_per_task="2", dimension=8, cluster_separation=3.0,
                        train_per_class=7, test_per_class=3, drift_kind="rotation",
                        drift_magnitude=0.3, drift_scale=2.0, observation_noise=0.1, seed=11)
        source = SyntheticSource.from_config(cfg)
        assert source.num_tasks == 4
        assert [source.classes_of_task(t) for t in range(1, 5)] == [(0, 1), (2, 3), (4, 5), (6, 7)]
        assert source.dimension == 8
        assert source.drift_schedule == (DriftSpec("rotation", 0.3, 2.0, 0.1),) * 3
        assert source.train_matrix(4, 7).shape == (7, 8)
        assert source.test_matrix(4, 7).shape == (3, 8)
        direct = SyntheticSource(4, (2, 2, 2, 2), 8, 3.0, 7, 3, source.drift_schedule, seed=11)
        for t in range(1, 5):
            for c in range(8):
                assert np.array_equal(source.train_matrix(t, c), direct.train_matrix(t, c))
                assert np.array_equal(source.test_matrix(t, c), direct.test_matrix(t, c))

    def test_seed_argument_overrides_config_seed(self):
        cfg = small_config(seed=3)
        at_5 = SyntheticSource.from_config(cfg, seed=5)
        assert np.array_equal(at_5.train_matrix(2, 1),
                              SyntheticSource.from_config(cfg.replace(seed=5)).train_matrix(2, 1))
        assert not np.array_equal(at_5.train_matrix(2, 1),
                                  SyntheticSource.from_config(cfg).train_matrix(2, 1))


@pytest.fixture(scope="module")
def toy_source():
    cfg = RunConfig(source="toy", num_tasks=2, classes_per_task="2",
                    dimension=6, train_per_class=10, test_per_class=4,
                    toy_input_dim=8, toy_hidden=10, toy_epochs=3,
                    toy_lambda1=1.0, toy_lambda2=0.0, seed=0)
    return ToySource(cfg)


class TestToySource:
    def test_shapes_and_classes(self, toy_source):
        source = toy_source
        assert source.num_tasks == 2
        assert source.dimension == 6
        assert source.classes_of_task(2) == (2, 3)
        recs = source.train_records(2)
        assert len(recs) == 2 * 10
        assert all(r.vector.shape == (6,) for r in recs)

    def test_pairs_use_consecutive_extractors(self, toy_source):
        # old side of each pair is the previous snapshot on the same input
        source = toy_source
        f1, f2 = source.model(1), source.model(2)
        pairs = source.test_pairs(2)
        by_class = {}
        for c, z_old, z_new in pairs:
            by_class.setdefault(c, []).append((z_old, z_new))
        for c, items in by_class.items():
            x = source._test_x[c]
            old_expected = f1.features(x)
            new_expected = f2.features(x)
            for i, (z_old, z_new) in enumerate(items):
                np.testing.assert_allclose(z_old, old_expected[i], atol=1e-12)
                np.testing.assert_allclose(z_new, new_expected[i], atol=1e-12)

    def test_head_grows(self, toy_source):
        assert toy_source.model(1).num_classes == 2
        assert toy_source.model(2).num_classes == 4


class TestDumpRoundTrip:
    def test_synthetic_round_trip_bitwise_pairs(self, tmp_path):
        source = SyntheticSource.from_config(small_config())
        path = tmp_path / "feat.bin"
        write_source_dump(source, path)
        loaded = DumpSource(path)
        assert loaded.num_tasks == source.num_tasks
        assert loaded.dimension == source.dimension
        for t in range(1, source.num_tasks + 1):
            assert loaded.classes_of_task(t) == source.classes_of_task(t)
            a, b = source.test_pairs(t), loaded.test_pairs(t)
            assert len(a) == len(b)
            for (c0, old0, new0), (c1, old1, new1) in zip(a, b):
                assert c0 == c1
                # float32 serialization boundary
                np.testing.assert_allclose(new0, new1, atol=1e-6)
                if old0 is None:
                    assert old1 is None
                else:
                    np.testing.assert_allclose(old0, old1, atol=1e-6)

    def test_train_records_round_trip(self, tmp_path):
        source = SyntheticSource.from_config(small_config())
        path = tmp_path / "feat.bin"
        write_source_dump(source, path)
        loaded = DumpSource(path)
        for t in (1, 2, 3):
            a, b = source.train_records(t), loaded.train_records(t)
            assert len(a) == len(b)
            for ra, rb in zip(a, b):
                assert ra.class_id == rb.class_id
                np.testing.assert_allclose(ra.vector, rb.vector, atol=1e-6)

    def test_pairing_length_mismatch_rejected(self, tmp_path):
        from driftcomp.dump import SPLIT_TEST, SPLIT_TRAIN, write_dump
        path = tmp_path / "bad.bin"
        # class 0 has 2 test records in space 1 but 1 in space 2
        write_dump(path, [0, 1, 0, 0, 0, 1], [1, 2, 1, 1, 2, 2],
                   [SPLIT_TRAIN, SPLIT_TRAIN, SPLIT_TEST, SPLIT_TEST, SPLIT_TEST, SPLIT_TEST],
                   np.ones((6, 3)))
        source = DumpSource(path)
        with pytest.raises(DumpFormatError) as err:
            source.test_pairs(2)
        assert err.value.code == "pairing"

    def test_class_in_two_tasks_rejected(self, tmp_path):
        from driftcomp.dump import SPLIT_TRAIN, write_dump
        path = tmp_path / "bad.bin"
        write_dump(path, [0, 0], [1, 2], [SPLIT_TRAIN] * 2, np.ones((2, 2)))
        with pytest.raises(DumpFormatError) as err:
            DumpSource(path)
        assert err.value.code == "class_task"

    def test_class_in_two_tasks_rejected_when_both_keep_classes(self, tmp_path):
        from driftcomp.dump import SPLIT_TRAIN, write_dump
        path = tmp_path / "bad.bin"
        write_dump(path, [1, 0, 2, 0], [1, 2, 2, 1], [SPLIT_TRAIN] * 4, np.ones((4, 2)))
        with pytest.raises(DumpFormatError, match="class 0 has train records in tasks") as err:
            DumpSource(path)
        assert err.value.code == "class_task"

    def test_train_records_at_task_zero_rejected(self, tmp_path):
        # class 0 trained at task 0 would drop out of every task's classes,
        # and its test records with it
        from driftcomp.dump import SPLIT_TEST, SPLIT_TRAIN, write_dump
        path = tmp_path / "bad.bin"
        write_dump(path, [0, 1, 1, 0], [0, 1, 1, 1],
                   [SPLIT_TRAIN, SPLIT_TRAIN, SPLIT_TEST, SPLIT_TEST], np.ones((4, 2)))
        with pytest.raises(DumpFormatError, match="class 0 has train records at task 0") as err:
            DumpSource(path)
        assert err.value.code == "class_task"

    def test_task_without_test_records_rejected(self, tmp_path):
        # such a task would score an empty stream: accuracy 0.0 and nan means
        from driftcomp.dump import SPLIT_TEST, SPLIT_TRAIN, write_dump
        path = tmp_path / "bad.bin"
        write_dump(path, [0, 1], [1, 2], [SPLIT_TRAIN] * 2, np.ones((2, 2)))
        with pytest.raises(DumpFormatError, match="task 1 has no test records") as err:
            DumpSource(path)
        assert err.value.code == "empty"
        # class 0's test record in space 1 does not test task 2
        write_dump(path, [0, 1, 0], [1, 2, 1], [SPLIT_TRAIN, SPLIT_TRAIN, SPLIT_TEST],
                   np.ones((3, 2)))
        with pytest.raises(DumpFormatError, match="task 2 has no test records in space 2") as err:
            DumpSource(path)
        assert err.value.code == "empty"

    def test_unread_test_records_rejected(self, tmp_path):
        # the streams read class c's test records in spaces max(1, t_c - 1)
        # to num_tasks only, t_c the task that trains c
        from driftcomp.dump import SPLIT_TEST, SPLIT_TRAIN, write_dump
        path = tmp_path / "bad.bin"
        train = ([0, 1, 2, 3], [1, 1, 2, 3], [SPLIT_TRAIN] * 4)
        read = ([0, 1, 2, 2, 3, 3], [1, 3, 1, 2, 2, 3], [SPLIT_TEST] * 6)
        cases = [((5, 1), "class 5 has test records at task 1 but no train records"),
                 ((0, 4), "class 0 has test records at task 4, outside tasks 1 to 3"),
                 ((3, 1), "class 3 has test records at task 1, outside tasks 2 to 3"),
                 ((1, 0), "class 1 has test records at task 0, outside tasks 1 to 3")]
        for (c, t), message in cases:
            columns = [a + b + [x] for a, b, x in zip(train, read, (c, t, SPLIT_TEST))]
            write_dump(path, *columns, np.ones((11, 2)))
            with pytest.raises(DumpFormatError, match=message) as err:
                DumpSource(path)
            assert err.value.code == "class_task"
        write_dump(path, *[a + b for a, b in zip(train, read)], np.ones((10, 2)))
        assert DumpSource(path).num_tasks == 3

    def test_empty_dump_rejected(self, tmp_path):
        from driftcomp.dump import write_dump
        path = tmp_path / "empty.bin"
        write_dump(path, [], [], [], np.zeros((0, 2)))
        with pytest.raises(DumpFormatError) as err:
            DumpSource(path)
        assert err.value.code == "empty"



def sequential_mean(rows):
    total = rows[0].copy()
    for row in rows[1:]:
        total = total + row
    return total / len(rows)


class TestTrainMatrix:
    """`train_matrix(t, c)` holds class c's rows of `train_records(t)`, in
    order, and the fresh table built from it equals the class means of the
    records' vectors bit for bit."""

    @pytest.fixture(params=["synthetic", "dump", "toy"])
    def source(self, request, tmp_path, toy_source):
        if request.param == "toy":
            return toy_source
        synthetic = SyntheticSource.from_config(small_config())
        if request.param == "synthetic":
            return synthetic
        write_source_dump(synthetic, tmp_path / "feat.bin")
        return DumpSource(tmp_path / "feat.bin")

    def test_rows_and_fresh_table_match_records(self, source):
        for t in range(1, source.num_tasks + 1):
            assert (source.train_records(t).task_id == t).all()
            records = list(source.train_records(t))
            classes = source.classes_of_task(t)
            matrices = [source.train_matrix(t, c) for c in classes]
            assert all(m.dtype == np.float64 and m.ndim == 2 for m in matrices)
            assert np.array_equal(np.vstack(matrices), np.vstack([r.vector for r in records]))
            assert [r.class_id for r in records] == \
                   [c for c, m in zip(classes, matrices) for _ in m]
            fresh = _fresh_table(source, t)
            by_records = class_means({c: np.vstack([r.vector for r in records if r.class_id == c])
                                      for c in classes})
            assert fresh.class_ids == by_records.class_ids
            assert np.array_equal(fresh.matrix(), by_records.matrix())


def test_toy_reference_drifted_prototypes_are_sequential_means(toy_source):
    old = class_means({c: toy_source.train_matrix(1, c) for c in toy_source.classes_of_task(1)})
    ref = toy_source.reference_drifted_prototypes(2, old)
    f2 = toy_source.model(2)
    assert ref.class_ids == old.class_ids
    for c in old.class_ids:
        assert np.array_equal(ref.prototype(c), sequential_mean(f2.features(toy_source._train_x[c])))


class TestOpenSource:
    def test_dispatch(self, tmp_path):
        assert isinstance(open_source(small_config()), SyntheticSource)
        src = SyntheticSource.from_config(small_config())
        path = tmp_path / "f.bin"
        write_source_dump(src, path)
        cfg = small_config().replace(source="dump", dump_path=str(path))
        assert isinstance(open_source(cfg), DumpSource)
