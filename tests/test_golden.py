"""Golden outputs: engine runs checked against files committed under
tests/golden/.

Each golden run stores, per streamed sample, (task, class_id, predicted,
w_index, excluded); the per-task accuracies; the final projector snapshot
of every task that has one; and the bytes of results.csv and
drift_similarity.csv written by `emit_results`. Predictions, indices,
accuracies and file bytes must match exactly; snapshots must match to a
relative Frobenius distance of SNAPSHOT_RTOL. A run whose config has
source=dump streams its config's synthetic scenario written to a feature
dump and read back by DumpSource.

Regenerate only for a change meant to move outputs, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys
import tempfile

import numpy as np
import pytest

from driftcomp.config import load_config
from driftcomp.engine import run_engine, run_gd_oracle
from driftcomp.results import emit_results
from driftcomp.sources import DumpSource, SyntheticSource, write_source_dump

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
CONFIG_DIR = os.path.join(HERE, "..", "configs")
RESULT_FILES = ("results.csv", "drift_similarity.csv")
SNAPSHOT_RTOL = 1e-12


def _small(**changes):
    return load_config(os.path.join(CONFIG_DIR, "golden_small.txt")).replace(**changes)


# name -> (config, oracle?)
RUNS = {
    "small_analytic": (_small(solver="analytic"), False),
    "small_gd": (_small(solver="gd"), False),
    "small_gd_with_queue": (_small(solver="gd_with_queue"), False),
    "small_none": (_small(solver="none"), False),
    "small_analytic_variant": (_small(solver="analytic", resolve_stride=3, update_stride=2,
                                      predict_before_update=True,
                                      test_balance="unbalanced"), False),
    "small_oracle": (_small(gd_learning_rate=0.01), True),
    # pseudo-features without noise leave the Gram rank-deficient until real
    # pairs arrive, so early solves take the ridge fallback
    "small_analytic_singular": (_small(solver="analytic", noise_scale=0.0), False),
    "reference_gd_with_queue": (
        load_config(os.path.join(CONFIG_DIR, "reference_cold10.txt")).replace(
            solver="gd_with_queue"), False),
    "reference_analytic": (
        load_config(os.path.join(CONFIG_DIR, "reference_cold10.txt")).replace(
            solver="analytic"), False),
    # dump_path only names the file in the config hash; the dump itself is
    # written to a temporary directory
    "small_analytic_dump": (_small(solver="analytic", source="dump",
                                   dump_path="golden_small.bin"), False),
}


def _dump_source(config):
    scenario = SyntheticSource.from_config(config.replace(source="synthetic", dump_path=""))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, config.dump_path)
        write_source_dump(scenario, path)
        return DumpSource(path)


def golden_run(name):
    config, oracle = RUNS[name]
    if config.source == "dump":
        source = _dump_source(config)
    else:
        source = SyntheticSource.from_config(config)
    result = run_gd_oracle(source, config) if oracle else run_engine(source, config)
    return source, result


def _outputs(source, result):
    samples = np.array([(rec.task, s.class_id, s.predicted, s.w_index, s.excluded)
                        for rec in result.tasks for s in rec.samples], dtype=np.int64)
    final = [(rec.task, rec.projector_snapshots[-1])
             for rec in result.tasks if rec.projector_snapshots]
    with tempfile.TemporaryDirectory() as out:
        emit_results([result], out, sources=[source])
        files = {}
        for name in RESULT_FILES:
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    return {
        "samples": samples,
        "accuracy": np.array(result.per_task_accuracy, dtype=np.float64),
        "snapshot_tasks": np.array([t for t, _ in final], dtype=np.int64),
        "snapshots": np.array([w for _, w in final], dtype=np.float64),
    }, files


def write_golden(name):
    arrays, files = _outputs(*golden_run(name))
    run_dir = os.path.join(GOLDEN_DIR, name)
    os.makedirs(run_dir, exist_ok=True)
    np.savez_compressed(os.path.join(run_dir, "run.npz"), **arrays)
    for file_name, data in files.items():
        with open(os.path.join(run_dir, file_name), "wb") as fh:
            fh.write(data)


@pytest.mark.filterwarnings("ignore:noise_scale=0:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_matches_golden(name):
    run_dir = os.path.join(GOLDEN_DIR, name)
    arrays, files = _outputs(*golden_run(name))
    with np.load(os.path.join(run_dir, "run.npz")) as golden:
        np.testing.assert_array_equal(arrays["samples"], golden["samples"])
        assert arrays["accuracy"].tolist() == golden["accuracy"].tolist()
        np.testing.assert_array_equal(arrays["snapshot_tasks"], golden["snapshot_tasks"])
        for got, want in zip(arrays["snapshots"], golden["snapshots"]):
            assert np.linalg.norm(got - want) <= SNAPSHOT_RTOL * np.linalg.norm(want)
    for file_name, data in files.items():
        with open(os.path.join(run_dir, file_name), "rb") as fh:
            assert data == fh.read(), f"{name}: {file_name} differs from the golden copy"


if __name__ == "__main__":
    for run_name in sys.argv[1:] or sorted(RUNS):
        write_golden(run_name)
        print(f"wrote {os.path.join(GOLDEN_DIR, run_name)}")
