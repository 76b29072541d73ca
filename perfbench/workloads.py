"""The three benchmark workloads of the `driftcomp run` path.

Each workload is defined here, not read from `configs/`, and derives every
input from the seed it is given. A workload knows how to prepare untimed
inputs (the feature dump of `wide_dump`), how to build its source (the
timed set-up), and how to check a finished run against numpy.

Why these three (the README has the full table of which layer each one
stresses):
  ref_analytic  the shape of configs/reference_cold10.txt at fewer tasks;
                dominated by prototype-table building in `core` and by the
                replay audit.
  wide_dump     d=128, capacity 1000, few classes, read from a feature
                dump; dominated by queue matrix rebuilds and the projector
                solve, and the only set-up that runs through `dump`.
  toy_gd_queue  genuine retraining drift from the toy extractor, streamed
                through the queue-based Adam solver; set-up is toy training.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

from driftcomp import RunConfig
from driftcomp.sources import DumpSource, SyntheticSource, ToySource, write_source_dump

import checks


def _expected_samples(config: RunConfig) -> int:
    """Test samples one run classifies: every seen class's test set, per task."""
    counts = config.class_counts()
    return config.test_per_class * sum(sum(counts[:t]) for t in range(1, len(counts) + 1))


@dataclass
class Workload:
    name: str
    config: Callable[[int], RunConfig]       # seed -> config of the engine run
    build_source: Callable[["Prepared"], object]
    check: Callable[["Prepared", object, object], None]   # (prepared, source, result)
    setup_repeats: int = 1                    # set-ups timed per round
    prepare: Optional[Callable[["Prepared"], None]] = None


@dataclass
class Prepared:
    """Inputs of one benchmark run, made before any timing starts."""

    workload: Workload
    seed: int
    config: RunConfig
    work_dir: str
    expected_samples: int
    scenario_source: Optional[SyntheticSource] = None   # wide_dump's generator
    dump_path: str = ""


# ---------------------------------------------------------------- ref_analytic

REF_TASKS = 7


def _ref_config(seed: int) -> RunConfig:
    return RunConfig(
        source="synthetic", solver="analytic",
        num_tasks=REF_TASKS, classes_per_task="10", dimension=32,
        cluster_separation=4.0, train_per_class=50, test_per_class=10,
        drift_kind="general_affine", drift_magnitude=0.5, observation_noise=0.5,
        queue_capacity=150, noise_scale=0.02, resolve_stride=1, seed=seed,
    )


def _synthetic_build(prep: Prepared):
    return SyntheticSource.from_config(prep.config, prep.seed)


def _ref_check(prep: Prepared, source, result) -> None:
    checks.check_synthetic(source.scenario, result, checks.REF_LIMITS)


# ---------------------------------------------------------------- wide_dump

def _wide_scenario_config(seed: int) -> RunConfig:
    return RunConfig(
        source="synthetic", num_tasks=2, classes_per_task="4", dimension=128,
        cluster_separation=1.0, train_per_class=1000, test_per_class=100,
        drift_kind="rotation", drift_magnitude=2.0, observation_noise=0.5, seed=seed,
    )


def _wide_config(seed: int) -> RunConfig:
    scenario = _wide_scenario_config(seed)
    # dump_path is replaced by the file written in _wide_prepare
    return scenario.replace(source="dump", solver="analytic", queue_capacity=1000,
                            noise_scale=0.02, resolve_stride=1, dump_path="wide.bin")


def _wide_prepare(prep: Prepared) -> None:
    prep.scenario_source = SyntheticSource.from_config(_wide_scenario_config(prep.seed))
    prep.dump_path = os.path.join(prep.work_dir, f"wide-seed{prep.seed}.bin")
    write_source_dump(prep.scenario_source, prep.dump_path)
    prep.config = prep.config.replace(dump_path=prep.dump_path)


def _wide_build(prep: Prepared):
    return DumpSource(prep.dump_path)


def _wide_check(prep: Prepared, source, result) -> None:
    checks.check_dump_matches_scenario(source, prep.scenario_source.scenario)
    checks.check_synthetic(prep.scenario_source.scenario, result, checks.WIDE_LIMITS,
                           float32=True)


# ---------------------------------------------------------------- toy_gd_queue

def _toy_config(seed: int) -> RunConfig:
    return RunConfig(
        source="toy", solver="gd_with_queue",
        gd_optimizer="adam", gd_steps=5, gd_learning_rate=0.01,
        num_tasks=5, classes_per_task="4", dimension=16,
        train_per_class=40, test_per_class=20, queue_capacity=200, noise_scale=0.02,
        toy_input_dim=16, toy_hidden=32, toy_epochs=20, toy_base_lr=0.1, toy_input_separation=2.5,
        toy_lambda1=1.0, seed=seed,
    )


def _toy_build(prep: Prepared):
    return ToySource(prep.config, prep.seed)


def _toy_check(prep: Prepared, source, result) -> None:
    checks.check_toy(source, result)


WORKLOADS = {
    w.name: w for w in (
        Workload("ref_analytic", _ref_config, _synthetic_build, _ref_check, setup_repeats=5),
        Workload("wide_dump", _wide_config, _wide_build, _wide_check, setup_repeats=5,
                 prepare=_wide_prepare),
        Workload("toy_gd_queue", _toy_config, _toy_build, _toy_check),
    )
}


def prepare(name: str, seed: int, work_dir: str) -> Prepared:
    workload = WORKLOADS[name]
    config = workload.config(seed)
    os.makedirs(work_dir, exist_ok=True)
    prep = Prepared(workload, seed, config.replace(output_dir=os.path.join(work_dir, "results")),
                    work_dir, _expected_samples(config))
    if workload.prepare is not None:
        workload.prepare(prep)
    return prep


def release(prep: Prepared) -> None:
    """Delete generated inputs; the dump is rewritten from the seed each run."""
    if prep.dump_path and os.path.exists(prep.dump_path):
        os.remove(prep.dump_path)
