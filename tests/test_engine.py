import math
import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftcomp.config import RunConfig, load_config
from driftcomp import engine, projector
from driftcomp.core import PrototypeTable, _nearest_class, _row_norms, ncm_predict
from driftcomp.engine import (
    SAMPLE_FIELDS,
    RunResult,
    TaskRunRecord,
    _StreamFit,
    _TaskLayout,
    _offline_gd,
    _selected_classes,
    _stream_order,
    replay_audit,
    run_engine,
    run_gd_oracle,
    run_task_cycle,
)
from driftcomp.errors import DegenerateInputError, DimensionError, SingularGramError
from driftcomp.projector import (
    SnapshotLog,
    WindowSolver,
    evolve_prototypes,
    solve_normal_equations,
)
from driftcomp.queues import init_with_pseudo_features
from driftcomp.sources import DumpSource, SyntheticSource, write_source_dump
from test_projector import assert_replays

GOLDEN_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "golden_small.txt")


def engine_config(**kwargs):
    defaults = dict(num_tasks=4, classes_per_task="3", dimension=8,
                    train_per_class=20, test_per_class=10,
                    cluster_separation=5.0,
                    drift_kind="general_affine", drift_magnitude=0.5,
                    queue_capacity=200, noise_scale=0.02, seed=0)
    defaults.update(kwargs)
    return RunConfig(**defaults)


def run_with(config):
    source = SyntheticSource.from_config(config)
    return source, run_engine(source, config)


class TestBasicRuns:
    def test_first_task_skips_machinery(self):
        cfg = engine_config(num_tasks=1, classes_per_task="3")
        _, result = run_with(cfg)
        rec = result.tasks[0]
        assert len(rec.projector_snapshots) == 0
        assert all(s.w_index == -1 for s in rec.samples)
        assert rec.accuracy > 0.9

    def test_later_tasks_attach_projectors(self):
        cfg = engine_config()
        _, result = run_with(cfg)
        for rec in result.tasks[1:]:
            assert len(rec.projector_snapshots) > 0
            assert any(s.w_index >= 0 for s in rec.samples)

    def test_sample_counts(self):
        cfg = engine_config()
        _, result = run_with(cfg)
        for t, rec in enumerate(result.tasks, start=1):
            assert len(rec.samples) == t * 3 * 10

    def test_analytic_beats_stale_baseline(self):
        cfg = engine_config(drift_magnitude=0.8)
        _, compensated = run_with(cfg)
        _, stale = run_with(cfg.replace(solver="none"))
        assert compensated.last_accuracy > stale.last_accuracy

    def test_identity_drift_solver_equivalence(self):
        # with no drift the analytic run cannot lose to the stale baseline;
        # the zero-length drift vectors warn by documented convention
        import warnings
        cfg = engine_config(drift_kind="identity", drift_magnitude=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, compensated = run_with(cfg)
        _, stale = run_with(cfg.replace(solver="none"))
        assert abs(compensated.last_accuracy - stale.last_accuracy) < 0.05

    def test_deterministic_given_seed(self):
        cfg = engine_config()
        _, a = run_with(cfg)
        _, b = run_with(cfg)
        assert [s.predicted for rec in a.tasks for s in rec.samples] == \
               [s.predicted for rec in b.tasks for s in rec.samples]
        assert a.per_task_accuracy == b.per_task_accuracy

    def test_seed_changes_stream_order(self):
        cfg = engine_config()
        source = SyntheticSource.from_config(cfg)
        a = run_engine(source, cfg.replace(seed=0))
        b = run_engine(source, cfg.replace(seed=1))
        class_stream_a = [s.class_id for s in a.tasks[1].samples]
        class_stream_b = [s.class_id for s in b.tasks[1].samples]
        assert class_stream_a != class_stream_b

    def test_drift_similarity_recorded_high(self):
        cfg = engine_config()
        _, result = run_with(cfg)
        final = result.tasks[-1].drift_similarity
        assert final is not None
        assert np.mean(list(final.values())) > 0.5

    def test_task_that_never_solves_scores_zero_similarity(self):
        # no sample reaches a resolve, so no old prototype moves while the
        # true drift is non-zero: similarity 0.0, not a perfect 1.0
        cfg = load_config(GOLDEN_CONFIG).replace(resolve_stride=100000)
        with pytest.warns(RuntimeWarning, match=r"class \d+ has a zero-length estimated drift"):
            _, result = run_with(cfg)
        for rec in result.tasks[1:]:
            assert not rec.projector_snapshots
            assert rec.drift_similarity == {c: 0.0 for c in rec.old_table.class_ids}


class TestSolverVariants:
    def test_all_solvers_complete(self):
        cfg = engine_config(num_tasks=3)
        for solver in ("analytic", "gd", "gd_with_queue", "none"):
            _, result = run_with(cfg.replace(solver=solver))
            assert len(result.tasks) == 3

    def test_gd_with_queue_between_none_and_analytic(self):
        cfg = engine_config(drift_magnitude=0.8, gd_steps=1,
                            gd_learning_rate=0.001)
        _, analytic = run_with(cfg)
        _, gd = run_with(cfg.replace(solver="gd_with_queue"))
        _, stale = run_with(cfg.replace(solver="none"))
        assert stale.last_accuracy <= gd.last_accuracy + 0.05
        assert gd.last_accuracy <= analytic.last_accuracy + 0.05

    def test_resolve_stride_reduces_solves(self):
        cfg = engine_config()
        _, every = run_with(cfg)
        _, sparse = run_with(cfg.replace(resolve_stride=10))
        for rec_e, rec_s in zip(every.tasks[1:], sparse.tasks[1:]):
            assert len(rec_s.projector_snapshots) < len(rec_e.projector_snapshots)

    def test_predict_before_update_uses_previous_state(self):
        cfg = engine_config(predict_before_update=True)
        _, result = run_with(cfg)
        # the first streamed sample of every late task must predate any solve
        for rec in result.tasks[1:]:
            assert rec.samples[0].w_index == -1


class TestOracle:
    def test_oracle_not_worse_than_online(self):
        cfg = engine_config(drift_magnitude=0.8, gd_learning_rate=0.01)
        source = SyntheticSource.from_config(cfg)
        online = run_engine(source, cfg)
        oracle = run_gd_oracle(source, cfg)
        assert oracle.oracle
        assert oracle.last_accuracy >= online.last_accuracy - 0.05

    def test_oracle_converges_to_closed_form(self):
        # converged GD on the full paired stream approximates the
        # closed-form solve on exactly the same data
        from driftcomp.queues import QueuePair
        cfg = engine_config(gd_learning_rate=0.01)
        source = SyntheticSource.from_config(cfg)
        oracle = run_gd_oracle(source, cfg)
        for t, rec in enumerate(oracle.tasks, start=1):
            if t == 1:
                continue
            pairs = source.test_pairs(t)
            q_old = np.vstack([p[1] for p in pairs])
            q_new = np.vstack([p[2] for p in pairs])
            pair = QueuePair(cfg.dimension, q_old.shape[0])
            pair.push(q_old, q_new)
            closed, _, _ = solve_normal_equations(pair.gram, pair.cross)
            gap = np.linalg.norm(rec.projector_snapshots[0] - closed)
            assert gap < 1e-3 * max(1.0, np.linalg.norm(closed))

    def test_unbalanced_stream(self):
        # the oracle fits on the selected classes' pairs only, then
        # classifies every pair, in test_pairs order, flagging the rest
        cfg = engine_config(test_balance="unbalanced", unbalanced_fraction=0.5,
                            gd_learning_rate=0.01)
        source = SyntheticSource.from_config(cfg)
        selected = _selected_classes(source, cfg)
        oracle = run_gd_oracle(source, cfg)
        for t, rec in enumerate(oracle.tasks, start=1):
            pairs = source.test_pairs(t)
            assert [s.class_id for s in rec.samples] == [c for c, _, _ in pairs]
            for z_new, (_, _, want) in zip(rec.features_new, pairs):
                assert_same_bits(z_new, want)
            assert [s.excluded for s in rec.samples] == [c not in selected for c, _, _ in pairs]
            if t == 1:
                assert len(rec.projector_snapshots) == 0
                continue
            fit_pairs = [p for p in pairs if p[0] in selected]
            assert 0 < len(fit_pairs) < len(pairs)
            want = _offline_gd(np.vstack([p[1] for p in fit_pairs]),
                               np.vstack([p[2] for p in fit_pairs]),
                               cfg.gd_learning_rate, cfg.gd_optimizer)
            assert len(rec.projector_snapshots) == 1
            assert_same_bits(rec.projector_snapshots[0], want)
        assert replay_audit(oracle)

    def test_ignores_solver(self):
        cfg = engine_config(num_tasks=3, gd_learning_rate=0.01)
        source = SyntheticSource.from_config(cfg)
        none, analytic = (run_gd_oracle(source, cfg.replace(solver=solver))
                          for solver in ("none", "analytic"))
        for a, b in zip(none.tasks, analytic.tasks, strict=True):
            assert np.array_equal(a.samples, b.samples)
            assert (a.drift_similarity is not None) == (a.task > 1)
            assert a.drift_similarity == b.drift_similarity
            assert len(a.projector_snapshots) == len(b.projector_snapshots) == (a.task > 1)
            for got, want in zip(a.projector_snapshots, b.projector_snapshots):
                assert_same_bits(got, want)


class TestUnbalancedStream:
    def test_excluded_classes_marked(self):
        cfg = engine_config(test_balance="unbalanced", unbalanced_fraction=0.5)
        source = SyntheticSource.from_config(cfg)
        result = run_engine(source, cfg)
        last = result.tasks[-1]
        excluded = {s.class_id for s in last.samples if s.excluded}
        included = {s.class_id for s in last.samples if not s.excluded}
        assert excluded and included
        assert excluded.isdisjoint(included)

    def test_all_classes_still_evaluated(self):
        cfg = engine_config(test_balance="unbalanced", unbalanced_fraction=0.4)
        source = SyntheticSource.from_config(cfg)
        result = run_engine(source, cfg)
        last = result.tasks[-1]
        assert {s.class_id for s in last.samples} == set(source.seen_classes(4))
        assert len(last.samples) == 4 * 3 * 10

    def test_selection_stable_across_tasks(self):
        cfg = engine_config(test_balance="unbalanced", unbalanced_fraction=0.5)
        source = SyntheticSource.from_config(cfg)
        result = run_engine(source, cfg)
        excluded_by_task = [
            {s.class_id for s in rec.samples if s.excluded} for rec in result.tasks
        ]
        # a class excluded at task t stays excluded later
        for earlier, later in zip(excluded_by_task, excluded_by_task[1:]):
            assert earlier <= later


# the analytic variant of tests/test_golden.py: strided queue updates and
# solves, prediction before the update, and an unbalanced stream
GOLDEN_VARIANT = dict(solver="analytic", resolve_stride=3, update_stride=2,
                      predict_before_update=True, test_balance="unbalanced")


@pytest.mark.filterwarnings("ignore:noise_scale=0:RuntimeWarning")
class TestRankDeficientQueue:
    """golden_small with noise-free pseudo-features: each task's queue starts
    with a Gram of rank 3 in d=8, until real pairs fill it out. The fallback
    run's predictions are pinned by the `small_analytic_singular` golden run."""

    def config(self, policy):
        return load_config(GOLDEN_CONFIG).replace(solver="analytic", noise_scale=0.0,
                                                  singular_policy=policy)

    def test_strict_raises(self):
        with pytest.raises(SingularGramError):
            run_with(self.config("strict"))

    def test_fallback_applies_ridge_then_recovers(self):
        _, result = run_with(self.config("fallback"))
        old_table = result.tasks[1].old_table
        # task 2's queue as the engine fills it (rng seed = seed * 1000 + task)
        pair = init_with_pseudo_features(old_table, capacity=100, noise_scale=0.0, rng_seed=2)
        _, cond, ridge = solve_normal_equations(pair.gram, pair.cross)
        assert ridge > 0.0 and cond > 1e12
        assert all(rec.accuracy > 0.9 for rec in result.tasks)


class TestSolveCounts:
    """Each task record counts its analytic solves, refactors and ridge
    fallbacks, and keeps the largest condition estimate."""

    def test_every_solve_refactors_below_the_crossover(self):
        _, result = run_with(engine_config(dimension=32, num_tasks=3))
        assert result.tasks[0].solve_counts.solves == 0
        for rec in result.tasks[1:]:
            counts = rec.solve_counts
            assert counts.solves == rec.n_stream_samples > 0
            assert counts.refactors == counts.solves
            assert counts.ridge_fallbacks == 0 and 1.0 <= counts.max_condition < 1e12

    def test_held_factor_refactors_far_less_at_d128(self):
        cfg = engine_config(dimension=128, num_tasks=2, classes_per_task="4",
                            cluster_separation=1.0, train_per_class=200, test_per_class=40,
                            drift_kind="rotation", drift_magnitude=2.0,
                            observation_noise=0.5, queue_capacity=1000)
        _, result = run_with(cfg)
        counts = result.tasks[1].solve_counts
        assert counts.solves == 320
        assert 0 < counts.refactors < counts.solves / 8

    def test_fallbacks_counted(self):
        cfg = load_config(GOLDEN_CONFIG).replace(solver="analytic", noise_scale=0.0)
        with pytest.warns(RuntimeWarning, match="noise_scale=0"):
            _, result = run_with(cfg)
        assert sum(rec.solve_counts.ridge_fallbacks for rec in result.tasks) == 5
        assert result.tasks[1].solve_counts.max_condition == np.inf


    def test_fallbacks_counted_on_solves_without_moved_rows(self, monkeypatch):
        # with update_stride=2 every other solve sees no moved row and hands
        # back the last solution, fallback ridge included
        solve = WindowSolver.solve
        solves = []

        def recording(window):
            weights, cond, ridge = solve(window)
            repeated = window.update == ()
            solves.append((weights, ridge != window.ridge, repeated))
            return weights, cond, ridge
        monkeypatch.setattr(WindowSolver, "solve", recording)
        cfg = load_config(GOLDEN_CONFIG).replace(solver="analytic", noise_scale=0.0,
                                                 update_stride=2)
        with pytest.warns(RuntimeWarning, match="noise_scale=0"):
            _, result = run_with(cfg)
        fallbacks = sum(fallback for _, fallback, _ in solves)
        assert sum(fallback and repeated for _, fallback, repeated in solves) > 0
        assert sum(rec.solve_counts.ridge_fallbacks for rec in result.tasks) == fallbacks


class TestSampleRecords:
    """A task's samples are one record array: its fields are arrays, and an
    element's attributes read and write through to them, as the
    benchmark's checks read and corrupt a logged prediction."""

    def test_element_writes_reach_fields_accuracy_and_audit(self):
        _, result = run_with(engine_config(num_tasks=2))
        rec = result.tasks[-1]
        samples, n = rec.samples, len(rec.samples)
        assert isinstance(samples, np.recarray) and samples.dtype.names == SAMPLE_FIELDS.names
        k = n // 2
        element = samples[k]
        assert [element.class_id, element.predicted, element.w_index, element.excluded] == \
               [samples.class_id[k], samples.predicted[k], samples.w_index[k], samples.excluded[k]]
        hits = int(np.sum(samples.predicted == samples.class_id))
        assert rec.accuracy == hits / n and replay_audit(result)
        original = element.predicted
        hit = original == element.class_id
        element.predicted = (next(c for c in rec.fresh_table.class_ids if c != original)
                             if hit else element.class_id)
        assert samples.predicted[k] == element.predicted != original
        assert rec.accuracy == (hits - 1 if hit else hits + 1) / n
        assert not replay_audit(result)
        samples[k].predicted = original
        assert rec.accuracy == hits / n and replay_audit(result)

    def test_features_new_stack_to_the_staged_matrix(self):
        cfg = engine_config(num_tasks=2)
        source, result = run_with(cfg)
        for t, rec in enumerate(result.tasks, start=1):
            pairs = source.test_pairs(t)
            order = _stream_order(len(pairs), cfg.seed, t)
            assert rec.samples.class_id.tolist() == [pairs[i][0] for i in order]
            features = np.array(rec.features_new)
            assert features.shape == (len(pairs), cfg.dimension)
            assert_same_bits(features, np.vstack([pairs[i][2] for i in order]))


def reference_per_class_accuracy(rows):
    """Per-class accuracy of (class_id, predicted) rows by a loop over the
    rows, the classes in order of first arrival: the reference for
    `per_class_accuracy`'s array reductions."""
    hits, totals = {}, {}
    for class_id, predicted in rows:
        totals[class_id] = totals.get(class_id, 0) + 1
        hits[class_id] = hits.get(class_id, 0) + (predicted == class_id)
    return {c: hits[c] / totals[c] for c in totals}


class TestAccuracyReductions:
    CLASS_IDS = st.sampled_from([0, 1, 2, 7, 31, 2**40])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(CLASS_IDS, CLASS_IDS), max_size=80))
    @example([])
    @example([(7, 7)])
    @example([(3, 3), (3, 1), (3, 3), (3, 0)])
    @example([(2, 2), (0, 1), (2, 0), (0, 0), (1, 1), (2, 2)])
    @pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_match_the_per_sample_loops(self, rows):
        samples = np.recarray(len(rows), dtype=SAMPLE_FIELDS)
        samples.class_id, samples.predicted = np.array(rows, dtype=np.int64).reshape(-1, 2).T
        samples.w_index, samples.excluded = -1, False
        table = PrototypeTable([0], [[1.0]])
        rec = TaskRunRecord(task=1, old_table=None, fresh_table=table, samples=samples)
        want = reference_per_class_accuracy(rows)
        assert rec.accuracy == (sum(p == c for c, p in rows) / len(rows) if rows else 0.0)
        got = rec.per_class_accuracy()
        assert list(got.items()) == list(want.items())
        last = RunResult(config=RunConfig(), seed=0, tasks=[rec]).last_accuracy
        assert np.float64(last).tobytes() == np.float64(np.mean(list(want.values()))).tobytes()


class TestReplayAudit:
    @pytest.mark.parametrize("solver", ["analytic", "gd", "gd_with_queue", "none",
                                        "golden_analytic_variant"])
    def test_replay_reconstructs_predictions(self, solver):
        if solver == "golden_analytic_variant":
            cfg = load_config(GOLDEN_CONFIG).replace(**GOLDEN_VARIANT)
        else:
            cfg = engine_config(num_tasks=3, solver=solver)
        _, result = run_with(cfg)
        assert replay_audit(result)

    def test_replay_reads_snapshots(self):
        cfg = engine_config(num_tasks=3)
        _, result = run_with(cfg)
        # move every projector of the last task by half its norm
        rec = result.tasks[-1]
        moved, rng = SnapshotLog(), np.random.default_rng(0)
        for weights in rec.projector_snapshots:
            noise = rng.standard_normal(weights.shape)
            moved.append(weights + 0.5 * np.linalg.norm(weights) / np.linalg.norm(noise) * noise)
        rec.projector_snapshots = moved
        assert not replay_audit(result)

    def test_replay_detects_tampering(self):
        cfg = engine_config(num_tasks=3)
        _, result = run_with(cfg)
        # corrupt one logged prediction
        sample = result.tasks[-1].samples[0]
        sample.predicted = sample.predicted + 1
        assert not replay_audit(result)

    def test_replay_on_oracle(self):
        cfg = engine_config(num_tasks=3, gd_learning_rate=0.01)
        source = SyntheticSource.from_config(cfg)
        assert replay_audit(run_gd_oracle(source, cfg))


    def test_replay_reads_logged_updates(self):
        # at every d the log keeps rank-m updates; corrupting the first
        # update's correction moves every W replayed after it, here so that
        # the old prototypes' images move by ten times their norm
        for d in (32, 128):
            _, result = run_with(engine_config(num_tasks=3, dimension=d, queue_capacity=300))
            rec = result.tasks[-1]
            log, old_rows = rec.projector_snapshots, rec.old_table.matrix()
            correction, solved = next(entry for entry in log._entries
                                      if isinstance(entry, tuple) and entry)
            assert replay_audit(result)
            noise = np.random.default_rng(0).standard_normal(correction.shape)
            correction += noise * (10.0 * np.linalg.norm(old_rows @ log[0])
                                   / np.linalg.norm(old_rows @ solved @ noise))
            assert not replay_audit(result)

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_feature_count_must_match_samples(self, change):
        # a task that logs one feature too few, whose last prediction is a
        # class it does not have, or one feature too many
        _, result = run_with(engine_config(num_tasks=3))
        assert replay_audit(result)
        rec = result.tasks[1]
        if change == "missing":
            del rec.features_new[-1]
            rec.samples[-1].predicted = -1
        else:
            rec.features_new.append(rec.features_new[0])
        assert not replay_audit(result)


class TestSnapshotLogInStream:
    """Each task's log holds, entry by entry, the bits of a copy of the W
    each window solve returned, through the engine's strides."""

    @pytest.mark.parametrize("d, update_stride, resolve_stride",
                             [(32, 2, 1), (32, 1, 2), (128, 1, 1), (128, 2, 1), (128, 1, 2),
                              (128, 2, 2)])
    def test_every_entry_is_the_solved_w(self, monkeypatch, d, update_stride, resolve_stride):
        copies = []
        recomputes = {}   # each window's queue.recomputes, read at each of its solves
        solve = WindowSolver.solve

        def copying(window):
            weights, cond, ridge = solve(window)
            copies.append(weights.copy())
            recomputes.setdefault(window, []).append(window.queue.recomputes)
            return weights, cond, ridge
        monkeypatch.setattr(WindowSolver, "solve", copying)
        cfg = engine_config(num_tasks=3, dimension=d, queue_capacity=2 * d,
                            update_stride=update_stride, resolve_stride=resolve_stride)
        _, result = run_with(cfg)
        logs = [rec.projector_snapshots for rec in result.tasks]
        assert sum(map(len, logs)) == len(copies)
        entries = [entry for log in logs for entry in log._entries]
        full = sum(not isinstance(entry, tuple) for entry in entries)
        unmoved = sum(entry == () for entry in entries if isinstance(entry, tuple))
        # only the direct solves are full: each task's first, and the first
        # after each recompute of the queue, which these streams reach at
        # d = 32 (90 rows through 64) but not at d = 128
        stream_recomputes = sum(seen[-1] - seen[0] for seen in recomputes.values())
        assert full == sum(map(bool, logs)) + stream_recomputes
        assert (stream_recomputes > 0) == (d < 64)
        assert (unmoved > 0) == (update_stride > resolve_stride)
        rng = np.random.default_rng(d)
        for log in logs:
            assert_replays(log, copies[:len(log)], rng)
            del copies[:len(log)]
        assert replay_audit(result)


class TestWideGate:
    """ROADMAP item 9's gate for the d >= 64 path, at d = 512 on the
    in-place W: a low-noise pre-fill of 90 old prototypes, then 2.5
    capacities of pairs through _StreamFit, which recompute the normal
    equations twice."""

    def test_stream_against_direct_solves(self):
        d, capacity, every = 512, 640, 200
        rng = np.random.default_rng(512)
        old = PrototypeTable(range(90), rng.standard_normal((90, d)))
        cfg = RunConfig(solver="analytic", dimension=d, queue_capacity=capacity,
                        noise_scale=0.05)
        fit = _StreamFit(cfg, old, rng_seed=5)
        w_true = np.eye(d) + rng.standard_normal((d, d)) / np.sqrt(d)
        n = 5 * capacity // 2
        eps = np.finfo(float).eps
        checked = 0
        for i, z_old in enumerate(rng.standard_normal((n, d))):
            fit.push(z_old, z_old @ w_true + 0.1 * rng.standard_normal(d))
            weights = fit.solve(i)
            if i % every and i != n - 1:
                continue
            checked += 1
            # a backward-stable solve is within d eps cond of the exact
            # solution (Higham, Accuracy and Stability, 10.1), so two are
            # within twice that of each other
            q_old, q_new = fit.window.queue.matrices()
            direct, cond, ridge = solve_normal_equations(q_old.T @ q_old, q_old.T @ q_new)
            assert ridge == 0.0
            gap = np.linalg.norm(weights - direct) / np.linalg.norm(direct)
            assert gap <= 2 * d * eps * cond
            assert fit.log[i].tobytes() == weights.tobytes()
        assert checked == n // every + 1
        assert fit.window.queue.recomputes == 3 and fit.window.counts.ridge_fallbacks == 0
        # the log: three direct solves in full, and 2 m d floats for each
        # update, m = 2 rows moved per pair
        entries = fit.log._entries
        full = [entry for entry in entries if not isinstance(entry, tuple)]
        assert len(entries) == n and len(full) == 3
        floats = sum(part.size for entry in entries if isinstance(entry, tuple) for part in entry)
        assert floats == (n - len(full)) * 2 * 2 * d


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def reference_table(rec, w_index):
    """Old prototypes evolved through snapshot `w_index`, merged with the
    fresh ones, built with the public table operations: the per-row bits."""
    old = rec.old_table
    if old is None:
        return rec.fresh_table
    if w_index >= 0:
        old = evolve_prototypes(old, rec.projector_snapshots[w_index], old.class_ids)
    return old.merged_with(rec.fresh_table)


def gemm_table(rec, w_index):
    """The old rows that no fresh class overrides, mapped by one gemm under
    the C-ordered snapshot `w_index`, merged with the fresh ones."""
    old, fresh = rec.old_table, rec.fresh_table
    kept = [c for c in old.class_ids if c not in fresh]
    rows = np.array([old.prototype(c) for c in kept]).reshape(len(kept), old.dimension)
    if w_index >= 0:
        rows = rows @ np.ascontiguousarray(rec.projector_snapshots[w_index])
    return PrototypeTable._from_checked_rows(kept, rows).merged_with(fresh)


def held(layout):
    """The matrix, row norms and zero-norm flag that the layout's next staged
    sample is classified against, as its replay of one slot computes them."""
    return layout._held(layout.source)


def classify(layout, features):
    """The layout's predictions for `features`, staged in order under its
    current images."""
    for z in features:
        layout.stage(z)
    return layout.predictions()


def assert_layout_holds(layout, rec, w_index):
    """The held arrays against tables built from scratch: the matrix bit for
    bit as one gemm maps the old rows, and the norms and zero-norm flag as
    np.linalg.norm gives them."""
    want = gemm_table(rec, w_index)
    matrix, held_norms, zero_norm = held(layout)
    assert layout.class_ids == want.class_ids
    assert_same_bits(matrix, want.matrix())
    norms = np.linalg.norm(matrix, axis=1)
    assert_same_bits(held_norms, norms)
    assert zero_norm == bool(np.any(norms == 0.0))


def random_record(rng, d, old_classes=30, fresh_classes=8, overlap=3):
    """A record whose fresh table overrides `overlap` of the old classes."""
    old_ids = rng.choice(100, size=old_classes, replace=False)
    fresh_ids = np.concatenate([old_ids[:overlap],
                                100 + rng.choice(100, size=fresh_classes - overlap, replace=False)])
    old = PrototypeTable(old_ids, rng.standard_normal((old_classes, d)))
    fresh = PrototypeTable(fresh_ids, rng.standard_normal((fresh_classes, d)))
    return TaskRunRecord(task=2, old_table=old, fresh_table=fresh)


def random_snapshot(rng, d):
    """Near-identity, widely scaled, Fortran-ordered or (rarely) zero weights."""
    kind = rng.integers(4)
    if kind == 0:
        return np.eye(d) + 0.1 * rng.standard_normal((d, d))
    if kind == 1:
        return 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((d, d))
    if kind == 2:
        return np.asfortranarray(rng.standard_normal((d, d)))
    return np.zeros((d, d)) if rng.random() < 0.1 else rng.standard_normal((d, d))


def snapshot(rec, w_index):
    """Snapshot `w_index` of `rec`, or None (the stale rows) for -1."""
    return None if w_index < 0 else rec.projector_snapshots[w_index]


class TestTaskLayout:
    def test_matches_evolve_then_merge_on_every_snapshot(self):
        _, result = run_with(load_config(GOLDEN_CONFIG).replace(solver="analytic"))
        first = _TaskLayout(result.tasks[0])
        assert first.class_ids == result.tasks[0].fresh_table.class_ids
        assert_same_bits(held(first)[0], result.tasks[0].fresh_table.matrix())
        for rec in result.tasks[1:]:
            layout = _TaskLayout(rec)
            assert_layout_holds(layout, rec, -1)
            for w_index in range(len(rec.projector_snapshots)):
                layout.evolve(snapshot(rec, w_index))
                assert_layout_holds(layout, rec, w_index)
            layout.evolve(None)
            assert_layout_holds(layout, rec, -1)

    @pytest.mark.parametrize("d", [32, 128])
    def test_random_stream_of_solves(self, d):
        rng = np.random.default_rng(d)
        rec = random_record(rng, d)
        # one snapshot slot of a plain list, rewritten before each solve,
        # which each evolve reads back from the record
        rec.projector_snapshots = [None]
        layout = _TaskLayout(rec)
        zero_norm_seen = False
        for _ in range(1200):
            if rng.random() < 0.02:
                layout.evolve(None)
                assert_layout_holds(layout, rec, -1)
                continue
            rec.projector_snapshots[0] = random_snapshot(rng, d)
            layout.evolve(rec.projector_snapshots[0])
            assert_layout_holds(layout, rec, 0)
            zero_norm_seen |= held(layout)[2]
        assert zero_norm_seen

    def test_fresh_overrides_old(self):
        rng = np.random.default_rng(3)
        old = PrototypeTable([0, 2, 5, 9], rng.standard_normal((4, 4)))
        fresh = PrototypeTable([2, 7], rng.standard_normal((2, 4)))
        rec = TaskRunRecord(task=2, old_table=old, fresh_table=fresh,
                            projector_snapshots=[rng.standard_normal((4, 4))])
        layout = _TaskLayout(rec)
        layout.evolve(rec.projector_snapshots[0])
        assert_layout_holds(layout, rec, 0)
        table = reference_table(rec, 0)
        assert table.class_ids == layout.class_ids == (0, 2, 5, 7, 9)
        np.testing.assert_array_equal(table.prototype(2), fresh.prototype(2))

    def test_kept_block_after_fresh_rows(self):
        # the kept old rows are one block at rows 2-4 of the merged table
        rng = np.random.default_rng(4)
        old = PrototypeTable([5, 6, 7], rng.standard_normal((3, 4)))
        fresh = PrototypeTable([0, 1], rng.standard_normal((2, 4)))
        rec = TaskRunRecord(task=2, old_table=old, fresh_table=fresh,
                            projector_snapshots=[rng.standard_normal((4, 4)),
                                                 np.eye(4) + 0.1 * rng.standard_normal((4, 4))])
        layout = _TaskLayout(rec)
        assert layout.positions == slice(2, 5)
        for w_index in (0, 1, -1, 1):
            layout.evolve(snapshot(rec, w_index))
            assert_layout_holds(layout, rec, w_index)

    def test_zero_norm_fresh_row_stays_flagged(self):
        # a fresh row of zero norm is never rewritten; every image is non-zero
        rng = np.random.default_rng(5)
        old = PrototypeTable([0, 1, 2], rng.standard_normal((3, 4)))
        fresh = PrototypeTable([3, 4], np.vstack([np.zeros(4), rng.standard_normal(4)]))
        rec = TaskRunRecord(task=2, old_table=old, fresh_table=fresh,
                            projector_snapshots=[np.eye(4) + 0.1 * rng.standard_normal((4, 4))])
        layout = _TaskLayout(rec)
        for w_index in (0, -1, 0):
            layout.evolve(snapshot(rec, w_index))
            assert_layout_holds(layout, rec, w_index)
            _, norms, zero_norm = held(layout)
            assert zero_norm and (norms[:3] > 0.0).all()
            table = reference_table(rec, w_index)
            for predict in (lambda f: classify(layout, [f])[0], lambda f: ncm_predict(f, table)):
                with pytest.raises(DegenerateInputError) as info:
                    predict(rng.standard_normal(4))
                assert str(info.value) == "prototype of class 3 has zero norm"


class TestHandOff:
    @pytest.mark.parametrize("solver", ["analytic", "gd", "gd_with_queue"])
    def test_old_table_is_the_previous_per_row_table(self, solver):
        # each task starts from the table the previous one evolved under its
        # last snapshot, mapped row by row as evolve_prototypes maps it
        _, result = run_with(load_config(GOLDEN_CONFIG).replace(solver=solver))
        for prev, rec in zip(result.tasks, result.tasks[1:]):
            want = reference_table(prev, len(prev.projector_snapshots) - 1)
            assert rec.old_table.class_ids == want.class_ids
            assert_same_bits(rec.old_table.matrix(), want.matrix())

    def test_wide_old_table_is_a_per_row_loop(self):
        # at d = 128 too, each old row is handed on as `v @ W` alone maps it
        _, result = run_with(engine_config(num_tasks=3, dimension=128, queue_capacity=300))
        prev, rec = result.tasks[1], result.tasks[2]
        weights = prev.projector_snapshots[-1]
        rows = [prev.old_table.prototype(c) @ weights for c in prev.old_table.class_ids]
        want = PrototypeTable(prev.old_table.class_ids, rows).merged_with(prev.fresh_table)
        assert rec.old_table.class_ids == want.class_ids
        assert_same_bits(rec.old_table.matrix(), want.matrix())


class OverridingSource:
    """One task whose fresh classes `fresh_ids` may override old classes:
    five train rows and four test pairs per class."""

    def __init__(self, fresh_ids, d, seed):
        rng = np.random.default_rng(seed)
        self.train = {c: rng.standard_normal((5, d)) + 3.0 for c in fresh_ids}
        self.pairs = [(c, *rng.standard_normal((2, d)) + 3.0) for c in fresh_ids for _ in range(4)]

    def classes_of_task(self, t):
        return sorted(self.train)

    def train_matrix(self, t, c):
        return self.train[c]

    def test_pairs(self, t):
        return self.pairs


class TestRunTaskCycleTable:
    """The table run_task_cycle hands on when fresh classes override old ones."""

    def test_kept_old_rows_mapped_under_the_last_w(self):
        rng = np.random.default_rng(7)
        old = PrototypeTable([0, 2, 5, 9], rng.standard_normal((4, 8)) + 3.0)
        source = OverridingSource([2, 9, 11], 8, seed=8)
        # 12 samples, solved after the 5th and 10th: the last two samples
        # solve nothing, and the table keeps the second solve's W
        config = engine_config(dimension=8, solver="analytic", resolve_stride=5)
        table, rec = run_task_cycle(source, config, 2, old)
        assert len(rec.projector_snapshots) == 2
        weights = rec.projector_snapshots[-1]
        assert table.class_ids == (0, 2, 5, 9, 11)
        for c in (0, 5):
            assert_same_bits(table.prototype(c), old.prototype(c) @ weights)
        for c in (2, 9, 11):
            assert_same_bits(table.prototype(c), rec.fresh_table.prototype(c))

    def test_every_old_class_overridden_under_a_non_finite_w(self, monkeypatch):
        # no old row is mapped, so the non-finite W raises nothing
        old = PrototypeTable([1, 3], np.random.default_rng(9).standard_normal((2, 8)))
        source = OverridingSource([1, 3, 4], 8, seed=10)
        monkeypatch.setattr(engine, "_offline_gd", lambda *args: np.full((8, 8), np.nan))
        table, rec = run_task_cycle(source, engine_config(dimension=8), 2, old, oracle=True)
        assert np.isnan(rec.projector_snapshots[0]).all()
        assert table.class_ids == rec.fresh_table.class_ids
        assert_same_bits(table.matrix(), rec.fresh_table.matrix())
        assert len(rec.samples) == 12


class TestGemmImages:
    def test_predictions_match_per_row_images_beyond_error_bound(self):
        # The held images map by gemm, the table handed on row by row. Each
        # image is within b = 2 d eps (|P| |W|) of its per-row one, so each
        # cosine moves by at most 2 |b| / |p| plus the rounding of two
        # cosines, and the two predictions agree wherever the per-row top
        # two are further apart than twice that.
        d, eps = 32, np.finfo(float).eps
        rng = np.random.default_rng(1032)
        rec = random_record(rng, d)
        rec.projector_snapshots = [None]   # a plain list, rewritten before each solve
        layout = _TaskLayout(rec)
        positions = layout.positions
        checked = near_ties = disagreements = 0
        for _ in range(1200):
            weights = random_snapshot(rng, d)
            rec.projector_snapshots[0] = weights
            layout.evolve(rec.projector_snapshots[0])
            table = reference_table(rec, 0)
            per_row = table.matrix()
            bound = 2 * d * eps * (np.abs(layout.old_rows) @ np.abs(weights))
            matrix, _, zero_norm = held(layout)
            assert np.all(np.abs(matrix[positions] - per_row[positions]) <= bound)
            if zero_norm:
                continue
            norms = np.linalg.norm(per_row, axis=1)
            slack = np.zeros(len(norms))
            slack[positions] = 2 * np.linalg.norm(bound, axis=1) / norms[positions]
            margin = 2 * (slack.max() + 2 * (d + 3) * eps)
            # random features, and one halfway between two rows: a near tie
            i, j = rng.choice(len(norms), size=2, replace=False)
            halfway = per_row[i] / norms[i] + per_row[j] / norms[j]
            features = [*rng.standard_normal((4, d)), halfway]
            for z, predicted in zip(features, classify(layout, features)):
                cosines = np.sort(per_row @ z / (norms * np.linalg.norm(z)))
                if cosines[-1] - cosines[-2] > margin:
                    checked += 1
                    disagreements += predicted != ncm_predict(z, table)
                else:
                    near_ties += 1
        assert checked > 4000 and near_ties > 0
        assert disagreements == 0


class TestEvolveChecks:
    """A sample's slot is checked by the k image norms, and its images are
    scanned only when a norm is zero or not finite."""

    @staticmethod
    def layout(old_rows, seed=0):
        rng = np.random.default_rng(seed)
        k, d = old_rows.shape
        old = PrototypeTable(range(k), old_rows)
        fresh = PrototypeTable([k, k + 1], rng.standard_normal((2, d)))
        rec = TaskRunRecord(task=2, old_table=old, fresh_table=fresh,
                            projector_snapshots=[None])
        return rec, _TaskLayout(rec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("first", ["finite", "zero"])
    def test_non_finite_snapshot_raises_and_writes_nothing(self, bad, first):
        rng = np.random.default_rng(1)
        rec, layout = self.layout(rng.standard_normal((5, 8)))
        rec.projector_snapshots[0] = (np.zeros((8, 8)) if first == "zero"
                                      else rng.standard_normal((8, 8)))
        layout.evolve(rec.projector_snapshots[0])
        matrix, norms, zero_norm = (np.copy(part) for part in held(layout))
        assert zero_norm == (first == "zero")
        layout.stage(rng.standard_normal(8))   # a sample under the first W, in slot 0
        weights = rng.standard_normal((8, 8))
        weights[3, 5] = bad
        rec.projector_snapshots[0] = weights
        layout.evolve(rec.projector_snapshots[0])
        layout.stage(rng.standard_normal(8))
        # the earlier sample's error wins: a zero-norm image under the first W
        message = "prototype of class 0 has zero norm" if first == "zero" else "evolved prototype"
        with pytest.raises(DegenerateInputError, match=message):
            layout.predictions()
        # the second W wrote the later sample's slot only
        assert_same_bits(layout.slots[0], matrix)
        assert_same_bits(layout._held(0)[1], norms)
        assert layout._held(0)[2] == zero_norm
        with pytest.raises(DegenerateInputError, match="evolved prototype"):
            reference_table(rec, 0)

    def test_zero_norm_image_sets_the_flag(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((4, 8))
        rows[2] = 0.0
        rows[2, 0] = 3.0
        rec, layout = self.layout(rows)
        weights = rng.standard_normal((8, 8))
        weights[0] = 0.0   # maps row 2 to exactly zero, and no other row
        rec.projector_snapshots[0] = weights
        for w_index, flagged in ((0, True), (-1, False), (0, True)):
            layout.evolve(snapshot(rec, w_index))
            assert held(layout)[2] == flagged
            assert_layout_holds(layout, rec, w_index)
        assert (held(layout)[1] == 0.0).sum() == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_finite_image_with_overflowing_norm_does_not_raise(self):
        rng = np.random.default_rng(3)
        rec, layout = self.layout(1e150 * rng.standard_normal((4, 8)))
        rec.projector_snapshots[0] = 1e10 * np.eye(8)
        layout.evolve(rec.projector_snapshots[0])
        matrix, norms, zero_norm = held(layout)
        images = matrix[layout.positions]
        assert np.isfinite(images).all() and np.isinf(norms[layout.positions]).all()
        assert not zero_norm
        assert_same_bits(images, layout.old_rows @ rec.projector_snapshots[0])

    def test_task_without_old_rows(self):
        # every old class is overridden, or there is none: nothing is mapped
        rng = np.random.default_rng(4)
        fresh = PrototypeTable([0, 1], rng.standard_normal((2, 8)))
        for old in (PrototypeTable([1], rng.standard_normal((1, 8))), None):
            rec = TaskRunRecord(task=2, old_table=old, fresh_table=fresh,
                                projector_snapshots=[np.full((8, 8), np.nan)])
            layout = _TaskLayout(rec)
            for w_index in (0, -1):
                layout.evolve(snapshot(rec, w_index))
                matrix, _, zero_norm = held(layout)
                assert not zero_norm
                assert_same_bits(matrix, fresh.matrix())


def former_ncm_predict(feature, table):
    """Cosine NCM as `ncm_predict` computed it before the shared kernel."""
    proto = table.matrix()
    sims = proto @ feature / (np.linalg.norm(proto, axis=1) * np.linalg.norm(feature))
    return table.class_ids[int(np.argmax(sims))]


def tied_rows(rng, d):
    """Random prototypes with exact ties: a duplicated row, and rows scaled by
    powers of two, whose cosines with any feature are bit-equal."""
    rows = rng.standard_normal((12, d))
    rows[7] = rows[2]
    rows[9] = 4.0 * rows[1]
    rows[11] = 0.5 * rows[2]
    return rows


class TestLayoutPredict:
    @pytest.mark.parametrize("d", [1, 8, 32])
    def test_matches_ncm_predict(self, d):
        rng = np.random.default_rng(d)
        # ids 0, 2, ..., 22: ids 4, 14 and 22 tie, as do 2 and 18; fresh
        # class 6 overrides an old one
        old = PrototypeTable(range(0, 24, 2), tied_rows(rng, d))
        fresh = PrototypeTable([6, 31], rng.standard_normal((2, d)))
        snapshots = [np.eye(d) + 0.1 * rng.standard_normal((d, d)), rng.standard_normal((d, d))]
        rec = TaskRunRecord(task=2, old_table=old, fresh_table=fresh,
                            projector_snapshots=snapshots)
        layout = _TaskLayout(rec)
        for w_index in (-1, 0, 1):
            layout.evolve(snapshot(rec, w_index))
            table = reference_table(rec, w_index)
            if d > 1:   # at d = 1 every row of the feature's sign ties
                assert classify(layout, [table.matrix()[table.class_ids.index(14)]]) == [4]
            strided = np.zeros((10, 2 * d))
            strided[:, ::2] = rng.standard_normal((10, d))
            features = [*rng.standard_normal((40, d)), *table.matrix(), *strided[:, ::2]]
            for lam in (1.0, 1e-3, 3.0, 1e3):
                scaled = [lam * z for z in features]
                for z, got in zip(scaled, classify(layout, scaled), strict=True):
                    assert got == ncm_predict(z, table) == former_ncm_predict(z, table)

    def test_errors_match_ncm_predict(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((3, 4))
        cases = [
            (rows, np.ones(5), DimensionError,
             "feature shape (5,) does not match table dimension 4"),
            (rows, np.ones((1, 4)), DimensionError,
             "feature shape (1, 4) does not match table dimension 4"),
            (rows, np.zeros(4), DegenerateInputError,
             "cosine similarity undefined for zero-norm feature"),
            (rows * [[1], [0], [0]], np.ones(4), DegenerateInputError,
             "prototype of class 5 has zero norm"),
            (rows * [[1], [0], [0]], np.zeros(4), DegenerateInputError,
             "cosine similarity undefined for zero-norm feature"),
        ]
        for matrix, z, error, message in cases:
            table = PrototypeTable([3, 5, 8], matrix)
            layout = _TaskLayout(TaskRunRecord(task=1, old_table=None, fresh_table=table))
            for predict in (lambda f: classify(layout, [f]), lambda f: ncm_predict(f, table)):
                with pytest.raises(error) as info:
                    predict(z)
                assert str(info.value) == message

    def test_misshaped_feature_after_staged_ones(self):
        # the staged samples are classified first, so an earlier sample's
        # error wins; else the misshaped feature raises _nearest_class's error
        rng = np.random.default_rng(6)
        table = PrototypeTable([3, 5, 8], rng.standard_normal((3, 4)))
        layout = _TaskLayout(TaskRunRecord(task=1, old_table=None, fresh_table=table))
        layout.stage(np.zeros(4))
        with pytest.raises(DegenerateInputError) as info:
            layout.stage(np.ones(5))
        assert str(info.value) == "cosine similarity undefined for zero-norm feature"
        layout = _TaskLayout(TaskRunRecord(task=1, old_table=None, fresh_table=table))
        for z in rng.standard_normal((3, 4)):
            layout.stage(z)
        with pytest.raises(DimensionError) as info:
            layout.stage(np.ones((1, 4)))
        assert str(info.value) == "feature shape (1, 4) does not match table dimension 4"

    def test_zero_weights_in_stream(self, monkeypatch):
        def zero_solve(window):
            return np.zeros_like(window.queue.gram), 1.0, window.ridge
        monkeypatch.setattr("driftcomp.projector.WindowSolver.solve", zero_solve)
        with pytest.raises(DegenerateInputError) as info:
            run_with(load_config(GOLDEN_CONFIG).replace(solver="analytic"))
        assert str(info.value) == "prototype of class 0 has zero norm"


class TestStackedKernels:
    """The premise of the chunked flush: each stacked product it runs uses,
    on every slice, the kernel of the per-sample call, so it gives the same
    bits. BLAS runs on one thread here (conftest.py pins it, as
    tests/fingerprint.py does), and a numpy or BLAS that breaks the premise
    fails this test before it moves a prediction."""

    @pytest.mark.parametrize("d", [16, 32, 128, 512])
    @pytest.mark.parametrize("classes", [1, 3, 5, 70])
    def test_stacked_products_match_per_slice_calls(self, d, classes):
        rng = np.random.default_rng(1000 * d + classes)
        n = 7
        slots = rng.standard_normal((n, classes, d))
        features = rng.standard_normal((n, d))
        weights = rng.standard_normal((d, d))
        # the images written into one slot's block by the gemm (gemv for one row)
        for k in sorted({1, max(1, classes - 2), classes}):
            rows = rng.standard_normal((k, d))
            np.matmul(rows, weights, out=slots[3, classes - k:])
            assert_same_bits(slots[3, classes - k:], rows @ weights)
        images = slots[:, 1:]
        norms = np.sqrt(np.add.reduce(images * images, axis=-1))
        stacked = features[:, :, None]
        fnorms = np.sqrt(stacked.transpose(0, 2, 1) @ stacked)[:, 0, 0]
        sims = (slots @ stacked)[:, :, 0]
        for i in range(n):
            assert_same_bits(norms[i], _row_norms(slots[i, 1:]))
            assert_same_bits(fnorms[i], np.float64(math.sqrt(features[i].dot(features[i]))))
            assert_same_bits(sims[i], slots[i] @ features[i])


def per_sample_stream(source, config, result):
    """(class id, prediction, w_index, excluded) of every sample of every
    task as a per-sample loop logs them: each streamed pair classified on
    arrival by `ncm_predict` against the old rows' gemm images under the
    last W solved before it (`gemm_table`), then the excluded tail, every
    pair for the oracle, against the last W."""
    selected = _selected_classes(source, config)
    logged = []
    for t, rec in enumerate(result.tasks, start=1):
        pairs = source.test_pairs(t)
        if result.oracle:
            streamed, tail, stride = [], pairs, 1
        else:
            streamed = [pairs[i] for i in _stream_order(len(pairs), config.seed, t)]
            tail = [p for p in streamed if selected is not None and p[0] not in selected]
            streamed = [p for p in streamed if selected is None or p[0] in selected]
            stride = 1 if config.solver == "gd" else config.resolve_stride
        fits = rec.old_table is not None and (result.oracle or config.solver != "none")
        tables = {}

        def log(class_id, z, solves):
            w_index = solves - 1 if fits else -1
            if w_index not in tables:
                tables[w_index] = (rec.fresh_table if rec.old_table is None
                                   else gemm_table(rec, w_index))
            logged.append((class_id, ncm_predict(z, tables[w_index]), w_index,
                           selected is not None and class_id not in selected))

        lag = 0 if config.predict_before_update else 1
        for i, (class_id, _, z) in enumerate(streamed):
            log(class_id, z, (i + lag) // stride)
        for class_id, _, z in tail:
            log(class_id, z, 1 if result.oracle else len(streamed) // stride)
    return logged


STREAM_VARIANTS = [
    dict(),
    dict(predict_before_update=True, update_stride=3, resolve_stride=3),
    dict(test_balance="unbalanced", unbalanced_fraction=0.5, resolve_stride=3),
    dict(test_balance="unbalanced", unbalanced_fraction=0.5, predict_before_update=True,
         update_stride=3),
]


class TestChunkedStream:
    """Predictions classified a chunk at a time carry the bits, w_index and
    flags a per-sample `_nearest_class` loop gives them, whatever the chunk
    size, and raise the error the per-sample loop raised first."""

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    @pytest.mark.parametrize("solver", ["analytic", "gd", "gd_with_queue", "none", "oracle"])
    def test_matches_per_sample_loop(self, monkeypatch, solver, chunk):
        monkeypatch.setattr("driftcomp.engine.CHUNK_SAMPLES", chunk)
        # the oracle fits once, so of the strides and the timing of the
        # prediction only the balance of the stream reaches it
        for variant in STREAM_VARIANTS[::2] if solver == "oracle" else STREAM_VARIANTS:
            cfg = engine_config(gd_learning_rate=0.01, **variant)
            source = SyntheticSource.from_config(cfg)
            if solver == "oracle":
                result = run_gd_oracle(source, cfg)
            else:
                result = run_engine(source, cfg.replace(solver=solver))
            got = [(s.class_id, s.predicted, s.w_index, s.excluded)
                   for rec in result.tasks for s in rec.samples]
            assert got == per_sample_stream(source, result.config, result)
            assert replay_audit(result)

    @pytest.mark.parametrize("d", [8, 64])
    def test_flush_matches_each_slot_classified_alone(self, d):
        # old rows at an index array (fresh classes override some), chunks
        # filled under a random stream of solves, stale restores and repeats
        rng = np.random.default_rng(d)
        rec = random_record(rng, d)
        layout = _TaskLayout(rec)
        assert not isinstance(layout.positions, slice)
        want, staged = [], 0
        for _ in range(300):
            draw = rng.random()
            if draw < 0.05:
                layout.evolve(None)
            elif draw < 0.7:
                layout.evolve(np.eye(d) + 0.3 * rng.standard_normal((d, d)))
            z = rng.standard_normal(d)
            layout.stage(z)
            matrix = layout.slots[layout.source].copy()
            norms = _row_norms(matrix)
            want.append(_nearest_class(z, layout.class_ids, matrix, norms, not norms.min() > 0.0))
            staged += 1
            if staged == len(layout.slots):   # the layout classified the full chunk
                self.assert_classified_norms(layout, staged)
                staged = 0
        got = layout.predictions()
        self.assert_classified_norms(layout, staged)
        assert got == want

    @staticmethod
    def assert_classified_norms(layout, n):
        """The norms the layout classified its first n slots with are the
        bits `_row_norms` gives each slot's matrix."""
        for i in range(n):
            assert_same_bits(layout.norms[i], _row_norms(layout.slots[i]))

    def test_zero_norm_feature_wins_over_a_later_solve_error(self, monkeypatch):
        # task 2's third streamed feature is zero; its first solve, after
        # the fourth pair, is singular under "strict"
        self.stream_with_faults(monkeypatch, zero_feature_at=2)
        with pytest.raises(DegenerateInputError) as info:
            run_engine(self.source, self.cfg)
        assert str(info.value) == "cosine similarity undefined for zero-norm feature"
        monkeypatch.undo()
        self.stream_with_faults(monkeypatch)
        with pytest.raises(SingularGramError):
            run_engine(self.source, self.cfg)

    def test_non_finite_image_wins_over_a_later_solve_error(self, monkeypatch):
        # task 2's second solve returns a W that maps the old prototypes to NaN
        self.stream_with_faults(monkeypatch, nan_at_solve=1)
        with pytest.raises(DegenerateInputError, match="evolved prototype"):
            run_engine(self.source, self.cfg)

    def stream_with_faults(self, monkeypatch, zero_feature_at=None, nan_at_solve=None):
        """An analytic stream whose fourth solve of task 2 raises a strict
        SingularGramError (the condition bound lowered to 1 just before it),
        with a zero feature at a stream position of task 2 and a NaN W
        returned by one of its solves."""
        self.cfg = engine_config(num_tasks=2, singular_policy="strict")
        self.source = SyntheticSource.from_config(self.cfg)
        test_pairs = self.source.test_pairs

        def faulty_pairs(t):
            pairs = test_pairs(t)
            if t == 2 and zero_feature_at is not None:
                i = _stream_order(len(pairs), self.cfg.seed, t)[zero_feature_at]
                pairs[i] = (pairs[i][0], pairs[i][1], np.zeros(self.cfg.dimension))
            return pairs
        monkeypatch.setattr(self.source, "test_pairs", faulty_pairs)
        solve, calls = WindowSolver.solve, []

        def faulty_solve(window):
            calls.append(None)
            if len(calls) == 4:
                monkeypatch.setattr(projector, "COND_THRESHOLD", 1.0)
            weights, cond, ridge = solve(window)
            if len(calls) - 1 == nan_at_solve:
                weights = np.full_like(weights, np.nan)
            return weights, cond, ridge
        monkeypatch.setattr(WindowSolver, "solve", faulty_solve)

    def test_short_task_times_its_flush(self, monkeypatch):
        # no task fills a chunk, so each is classified by the predictions
        # at its end, whose time goes to the predict phase
        classify_chunk = _TaskLayout._classify

        def slow_classify(layout):
            if layout.count:
                time.sleep(0.005)
            classify_chunk(layout)
        monkeypatch.setattr(_TaskLayout, "_classify", slow_classify)
        _, result = run_with(engine_config(num_tasks=2, test_per_class=2))
        for rec in result.tasks:
            assert 0 < len(rec.samples) < 64
            assert rec.phase_seconds["predict"] >= 0.005


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
class TestNonFiniteEvolvedPrototypes:
    """A finite snapshot whose image of a large old prototype overflows."""

    def config(self):
        # class means of norm ~1e10, which 1e300 * I maps past the float range
        return load_config(GOLDEN_CONFIG).replace(solver="analytic", cluster_separation=1e10)

    def test_stream_raises(self, monkeypatch):
        def overflowing_solve(window):
            return 1e300 * np.eye(window.queue.dimension), 1.0, window.ridge
        monkeypatch.setattr("driftcomp.projector.WindowSolver.solve", overflowing_solve)
        with pytest.raises(DegenerateInputError, match="evolved prototype"):
            run_with(self.config())

    def test_replay_audit_raises(self):
        _, result = run_with(self.config())
        assert replay_audit(result)
        rec = result.tasks[-1]
        snapshots = list(rec.projector_snapshots)
        rec.projector_snapshots = SnapshotLog()
        for weights in snapshots[:-1] + [1e300 * np.eye(snapshots[-1].shape[0])]:
            rec.projector_snapshots.append(weights)
        with pytest.raises(DegenerateInputError, match="evolved prototype"):
            replay_audit(result)


class TestDumpSourceParity:
    def test_dump_round_trip_reproduces_accuracy(self, tmp_path):
        # serialization at float32 may flip borderline predictions, so
        # compare aggregate accuracy within a small tolerance
        cfg = engine_config(num_tasks=3)
        source = SyntheticSource.from_config(cfg)
        direct = run_engine(source, cfg)
        path = tmp_path / "feat.bin"
        write_source_dump(source, path)
        dump_cfg = cfg.replace(source="dump", dump_path=str(path))
        dumped = run_engine(DumpSource(path), dump_cfg)
        for a, b in zip(direct.per_task_accuracy, dumped.per_task_accuracy):
            assert abs(a - b) < 0.02
