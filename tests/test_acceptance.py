"""Acceptance suite: one test per shipping criterion, each printing a
single PASS line with its measured margin.

The committed reference scenario (configs/reference_cold10.txt) is a
10-stage evenly split stream with linear global drift per boundary; several
criteria share its cached engine runs through module fixtures.
"""

import os
import time
import warnings
from unittest import mock

import numpy as np
import pytest

from driftcomp.config import load_config
from driftcomp.core import PrototypeTable, class_means
from driftcomp.drift_sim import DriftSpec, true_drift_similarity
from driftcomp.engine import (
    _offline_gd,
    _selected_classes,
    replay_audit,
    run_engine,
    run_gd_oracle,
)
from driftcomp.projector import evolve_prototypes, solve_normal_equations
from driftcomp.queues import QueuePair, init_with_pseudo_features
from driftcomp.results import emit_results
from driftcomp.sources import SyntheticSource

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
REFERENCE_CONFIG = os.path.join(CONFIG_DIR, "reference_cold10.txt")
GOLDEN_CONFIG = os.path.join(CONFIG_DIR, "golden_small.txt")


def passline(number: int, message: str) -> None:
    print(f"\n[criterion {number:2d}] PASS: {message}")


def residual(pair, weights):
    """Mean squared row residual ||Q_old W - Q_new||^2 / n over the queued rows."""
    q_old, q_new = pair.matrices()
    return float(np.sum((q_old @ weights - q_new) ** 2) / len(q_old))


@pytest.fixture(scope="module")
def reference_config():
    return load_config(REFERENCE_CONFIG)


@pytest.fixture(scope="module")
def reference_source(reference_config):
    return SyntheticSource.from_config(reference_config)


@pytest.fixture(scope="module")
def reference_analytic(reference_source, reference_config):
    return run_engine(reference_source, reference_config)


@pytest.fixture(scope="module")
def reference_baseline(reference_source, reference_config):
    return run_engine(reference_source, reference_config.replace(solver="none"))


@pytest.fixture(scope="module")
def reference_gd(reference_source, reference_config):
    return run_engine(reference_source, reference_config.replace(solver="gd_with_queue"))


def test_criterion_1_exact_drift_recovery():
    # 20 seeded scenarios, linear drift kinds, no observation noise: the
    # closed-form solve on exact paired features must recover the true map
    # and every class drift vector must align with the ground truth
    start = time.time()
    cases = []
    kinds = ("rotation", "scaled_rotation", "general_affine")
    dims = (8, 32, 64)
    seed = 0
    while len(cases) < 20:
        cases.append((kinds[len(cases) % 3], dims[len(cases) % 3 % len(dims)], seed))
        seed += 1
    # rebalance dims so each appears
    cases = [(kinds[i % 3], dims[(i // 3) % 3], i) for i in range(20)]
    worst_rel, worst_cos = 0.0, 1.0
    for kind, d, seed in cases:
        scen = SyntheticSource(
            num_tasks=2, classes_per_task=(4, 4), dimension=d,
            train_per_class=max(40, d), test_per_class=5,
            drift_schedule=(DriftSpec(kind=kind, magnitude=0.6, scale=1.5),),
            seed=seed,
        )
        dmap = scen.drift_map(2)
        q_old = np.vstack([scen.train_matrix(1, c) for c in range(8)])
        q_new = np.vstack([scen.train_matrix(2, c) for c in range(8)])
        pair = QueuePair(d, q_old.shape[0])
        pair.push(q_old, q_new)
        weights, _, _ = solve_normal_equations(pair.gram, pair.cross)
        w_true = dmap.projector_target
        rel = np.linalg.norm(weights - w_true) / np.linalg.norm(w_true)
        assert rel < 1e-8, f"{kind} d={d} seed={seed}: relative error {rel:.3e}"
        worst_rel = max(worst_rel, rel)

        old_table = class_means({c: scen.train_matrix(1, c) for c in scen.classes_of_task(1)})
        evolved = evolve_prototypes(old_table, weights, old_table.class_ids)
        reference = PrototypeTable(
            old_table.class_ids, [dmap.apply(old_table.prototype(c)) for c in old_table.class_ids]
        )
        sims = true_drift_similarity(evolved, reference, old_table)
        low = min(sims.values())
        assert low > 0.999, f"{kind} d={d} seed={seed}: drift cosine {low:.6f}"
        worst_cos = min(worst_cos, low)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"ran {elapsed:.1f}s, budget 10s"
    passline(1, f"20 linear scenarios recovered, worst relative error "
                f"{worst_rel:.2e}, worst drift cosine {worst_cos:.6f}, "
                f"{elapsed:.1f}s")


def test_criterion_2_optimality_and_normal_equations():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_normal = 0.0
    for trial in range(100):
        n = int(rng.integers(30, 100))
        d = int(rng.integers(4, 12))
        q_old = rng.standard_normal((n, d))
        q_new = q_old @ rng.standard_normal((d, d)) + 0.2 * rng.standard_normal((n, d))
        pair = QueuePair(d, n)
        pair.push(q_old, q_new)
        weights, _, _ = solve_normal_equations(pair.gram, pair.cross)
        best = residual(pair, weights)
        gram = q_old.T @ q_old
        rhs = q_old.T @ q_new
        normal_gap = np.linalg.norm(gram @ weights - rhs) / np.linalg.norm(rhs)
        assert normal_gap < 1e-8, f"trial {trial}: normal equation gap {normal_gap:.3e}"
        worst_normal = max(worst_normal, normal_gap)
        for _ in range(100):
            delta = 10.0 ** rng.uniform(-4, -1) * rng.standard_normal((d, d))
            perturbed = residual(pair, weights + delta)
            assert best <= perturbed + 1e-10
        with mock.patch.multiple("driftcomp.engine", OFFLINE_MAX_STEPS=1000, OFFLINE_GRAD_TOL=0.0):
            gd = _offline_gd(q_old, q_new, 1e-3, "adam")
        assert best <= residual(pair, gd) + 1e-10
    elapsed = time.time() - start
    assert elapsed < 30.0, f"ran {elapsed:.1f}s, budget 30s"
    passline(2, f"100 pairs optimal vs 100 perturbations each and 1000-step GD, "
                f"worst normal-equation gap {worst_normal:.2e}, {elapsed:.1f}s")


def test_criterion_3_forgetting_mitigation(reference_analytic, reference_baseline,
                                           reference_gd):
    start = time.time()
    an = reference_analytic.last_accuracy
    base = reference_baseline.last_accuracy
    gd = reference_gd.last_accuracy
    gain_base = 100.0 * (an - base)
    gain_gd = 100.0 * (an - gd)
    assert gain_base >= 20.0, f"analytic - baseline = {gain_base:.2f} points"
    assert gain_gd >= 2.0, f"analytic - online GD = {gain_gd:.2f} points"
    elapsed = time.time() - start
    passline(3, f"final-stage accuracy analytic {an:.4f} vs baseline {base:.4f} "
                f"(+{gain_base:.1f} pts) vs online GD {gd:.4f} (+{gain_gd:.1f} pts)")


def test_criterion_4_early_stream_crossover(reference_config):
    # small test streams (10 samples per class), judged at the first drifted
    # stage: online GD must fall strictly below the stale baseline in a
    # majority of seeds while the analytic solve never does
    start = time.time()
    cfg = reference_config.replace(num_tasks=3, test_per_class=10)
    gd_below, analytic_ok = 0, 0
    details = []
    for seed in range(5):
        scfg = cfg.replace(seed=seed)
        source = SyntheticSource.from_config(scfg)
        base = run_engine(source, scfg.replace(solver="none")).tasks[1].accuracy
        an = run_engine(source, scfg).tasks[1].accuracy
        gd = run_engine(source, scfg.replace(solver="gd_with_queue")).tasks[1].accuracy
        gd_below += gd < base
        analytic_ok += an >= base
        details.append(f"s{seed}: base={base:.3f} gd={gd:.3f} an={an:.3f}")
    assert gd_below >= 3, f"GD below baseline in only {gd_below}/5 seeds ({details})"
    assert analytic_ok == 5, f"analytic under baseline in {5 - analytic_ok} seeds ({details})"
    elapsed = time.time() - start
    passline(4, f"early-stream GD < baseline in {gd_below}/5 seeds, analytic >= "
                f"baseline in 5/5, {elapsed:.1f}s")


def test_criterion_5_gradient_check_gate():
    from driftcomp.toy import PARAM_NAMES, ToyModel, ce_loss, kd_loss, scl_loss
    start = time.time()

    def fd_grads(loss_fn, model, step=1e-5):
        grads = {}
        for name in PARAM_NAMES:
            param = getattr(model, name)
            grad = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + step
                up = loss_fn(model)
                param[idx] = orig - step
                down = loss_fn(model)
                param[idx] = orig
                grad[idx] = (up - down) / (2 * step)
            grads[name] = grad
        return grads

    def check(analytic, numeric, label):
        worst = 0.0
        for name in PARAM_NAMES:
            scale = max(np.abs(numeric[name]).max(), np.abs(analytic[name]).max(), 1e-8)
            gap = np.abs(analytic[name] - numeric[name]).max() / scale
            assert gap < 1e-5, f"{label} {name}: relative error {gap:.3e}"
            worst = max(worst, gap)
        return worst

    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(20):
        model = ToyModel.init(8, 5, 4, 4, rng)
        old_model = ToyModel.init(8, 5, 4, 2, rng)
        x = rng.standard_normal((7, 8))
        y = rng.integers(0, 4, size=7)
        _, g = ce_loss(model, x, y)
        worst = max(worst, check(g, fd_grads(lambda m: ce_loss(m, x, y)[0], model),
                                 f"ce[{i}]"))
        _, g = kd_loss(model, old_model, x, 2)
        worst = max(worst, check(g, fd_grads(lambda m: kd_loss(m, old_model, x, 2)[0],
                                             model), f"kd[{i}]"))
        labels = rng.integers(0, 3, size=7)
        _, g, _ = scl_loss(model, x, labels, tau=0.5)
        worst = max(worst, check(g, fd_grads(lambda m: scl_loss(m, x, labels, tau=0.5)[0],
                                             model), f"scl[{i}]"))
    elapsed = time.time() - start
    assert elapsed < 60.0, f"ran {elapsed:.1f}s, budget 60s"
    passline(5, f"3 losses x 20 instances vs central differences, worst relative "
                f"error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_queue_property_suite():
    start = time.time()
    rng = np.random.default_rng(99)
    trials = 0
    for _ in range(1000):
        d = int(rng.integers(2, 17))
        capacity = int(rng.integers(d, 4 * d))
        pair = QueuePair(d, capacity)
        history_old, history_new = [], []
        for _ in range(int(rng.integers(3, 10))):
            k = int(rng.integers(1, 6))
            old = rng.standard_normal((k, d))
            new = rng.standard_normal((k, d))
            pair.push(old, new)
            history_old.extend(old)
            history_new.extend(new)
            # paired-length invariant after every push
            q_old, q_new = pair.matrices()
            assert len(q_old) == len(q_new) == len(pair) <= capacity
        # FIFO equivalence against an unbounded-list tail
        np.testing.assert_array_equal(q_old, np.vstack(history_old[-capacity:]))
        np.testing.assert_array_equal(q_new, np.vstack(history_new[-capacity:]))
        # pseudo-feature fill with S >= d and positive noise has a full-rank Gram
        classes = int(rng.integers(1, 6))
        table = PrototypeTable(range(classes), rng.standard_normal((classes, d)))
        filled = init_with_pseudo_features(
            table, capacity=capacity,
            noise_scale=float(rng.uniform(0.01, 0.5)), rng_seed=trials,
        )
        q = filled.matrices()[0]
        s = np.linalg.svd(q, compute_uv=False)
        assert int(np.sum(s > s[0] * 1e-10)) == d
        trials += 1
    elapsed = time.time() - start
    assert elapsed < 30.0, f"ran {elapsed:.1f}s, budget 30s"
    passline(6, f"{trials} randomized trials of FIFO/pairing/full-rank "
                f"properties, {elapsed:.1f}s")


def test_criterion_7_gd_oracle_parity(reference_config, reference_source,
                                      reference_analytic):
    start = time.time()
    gaps = []
    # reference linear scenario plus a rotation variant
    oracle_cfg = reference_config.replace(gd_learning_rate=0.01)
    oracle = run_gd_oracle(reference_source, oracle_cfg)
    gaps.append(("general_affine",
                 100.0 * abs(oracle.last_accuracy - reference_analytic.last_accuracy)))
    rot_cfg = reference_config.replace(drift_kind="rotation", drift_magnitude=0.8)
    rot_source = SyntheticSource.from_config(rot_cfg)
    rot_analytic = run_engine(rot_source, rot_cfg)
    rot_oracle = run_gd_oracle(rot_source, rot_cfg.replace(gd_learning_rate=0.01))
    gaps.append(("rotation",
                 100.0 * abs(rot_oracle.last_accuracy - rot_analytic.last_accuracy)))
    for kind, gap in gaps:
        assert gap <= 0.5, f"{kind}: oracle vs analytic gap {gap:.3f} points"
    elapsed = time.time() - start
    assert elapsed < 120.0, f"ran {elapsed:.1f}s, budget 120s"
    passline(7, "offline-converged GD within "
                + ", ".join(f"{g:.2f} pts ({k})" for k, g in gaps)
                + f" of analytic, {elapsed:.1f}s")


def test_criterion_8_unbalanced_adaptation_direction(reference_config):
    start = time.time()
    up, down = 0, 0
    for seed in range(5):
        cfg = reference_config.replace(seed=seed)
        source = SyntheticSource.from_config(cfg)
        balanced = run_engine(source, cfg)
        ucfg = cfg.replace(test_balance="unbalanced", unbalanced_fraction=0.5)
        unbalanced = run_engine(source, ucfg)
        selected = _selected_classes(source, ucfg)
        excluded = [c for c in source.seen_classes(cfg.num_tasks) if c not in selected]

        def group(result, classes):
            per = result.tasks[-1].per_class_accuracy()
            return float(np.mean([per[c] for c in classes]))

        up += group(unbalanced, sorted(selected)) > group(balanced, sorted(selected))
        down += group(unbalanced, excluded) < group(balanced, excluded)
    assert up >= 3, f"streamed-class accuracy increased in only {up}/5 seeds"
    assert down >= 3, f"excluded-class accuracy fell in only {down}/5 seeds"
    elapsed = time.time() - start
    passline(8, f"streamed classes up in {up}/5 seeds, excluded classes down in "
                f"{down}/5 seeds, {elapsed:.1f}s")


def test_criterion_9_determinism_and_replay(tmp_path):
    start = time.time()
    cfg = load_config(GOLDEN_CONFIG)
    outputs = []
    for label in ("a", "b"):
        source = SyntheticSource.from_config(cfg)
        result = run_engine(source, cfg)
        assert replay_audit(result), "replay audit failed"
        out = tmp_path / label
        emit_results([result], out, sources=[source])
        outputs.append(out)
    identical = []
    for name in ("results.csv", "drift_similarity.csv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), \
            f"{name} differs between identical runs"
        identical.append(name)
    summaries = sorted(p.name for p in outputs[0].glob("summary_*.json"))
    assert summaries
    for name in summaries:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), \
            f"{name} differs between identical runs"
        identical.append(name)
    elapsed = time.time() - start
    passline(9, f"{len(identical)} output files byte-identical across reruns, "
                f"replay audit exact, {elapsed:.1f}s")


def test_criterion_10_timing_ordering(reference_config, reference_source):
    # the three runs are made back to back, so that a slow stretch of a
    # shared machine falls on all three; a second round is made only when
    # the first does not show the order, as a cold process's first runs may not
    start = time.time()
    configs = (reference_config.replace(solver="none"),
               reference_config.replace(solver="gd", gd_steps=1, gd_learning_rate=0.001),
               reference_config)
    for rounds in (1, 2):
        t_none, t_gd, t_an = (run_engine(reference_source, cfg).mean_sample_seconds
                              for cfg in configs)
        if t_none < t_gd < t_an:
            break
    assert t_none < t_gd < t_an, \
        f"per-sample seconds none={t_none:.2e} gd={t_gd:.2e} analytic={t_an:.2e}"
    elapsed = time.time() - start
    passline(10, f"mean per-sample seconds none={t_none:.2e} < gd={t_gd:.2e} "
                 f"< analytic={t_an:.2e}, {rounds} round(s), {elapsed:.1f}s")
