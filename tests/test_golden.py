"""Golden outputs: engine runs checked against files committed under
tests/golden/.

Each golden run stores, per streamed sample, (task, class_id, predicted,
w_index, excluded); the per-task accuracies; the final projector snapshot
of every task that has one; and the bytes of results.csv and
drift_similarity.csv written by `emit_results`. Predictions, indices,
accuracies and file bytes must match exactly; snapshots must match to a
relative Frobenius distance of SNAPSHOT_RTOL. A run whose config has
source=dump streams its config's synthetic scenario written to a feature
dump and read back by DumpSource; one with source=toy trains its toy
extractors first.

Regenerate only for a change meant to move outputs, and say so in
CHANGES.md, naming the runs to rewrite (or --all for every run):

    PYTHONPATH=src python tests/test_golden.py small_analytic wide_analytic
"""

import os
import sys
import tempfile

import numpy as np
import pytest

from driftcomp.config import RunConfig, load_config
from driftcomp.engine import run_engine, run_gd_oracle
from driftcomp.results import emit_results
from driftcomp.sources import DumpSource, SyntheticSource, open_source, write_source_dump

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
    # the wide_dump benchmark scenario (d=128) with a shorter stream and a
    # smaller queue: 320 fitted samples through a 200-row window, so task 2
    # crosses one queue recompute
    "wide_analytic": (RunConfig(
        solver="analytic", num_tasks=2, classes_per_task="4", dimension=128,
        cluster_separation=1.0, train_per_class=1000, test_per_class=40,
        drift_kind="rotation", drift_magnitude=2.0, observation_noise=0.5,
        queue_capacity=200, noise_scale=0.02), False),
    # features from toy extractors retrained task by task, so any change in
    # the toy trainer's rounding moves this run
    "small_toy": (_small(source="toy", solver="gd_with_queue"), False),
}


def _dump_source(config):
    scenario = SyntheticSource.from_config(config.replace(source="synthetic", dump_path=""))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, config.dump_path)
        write_source_dump(scenario, path)
        return DumpSource(path)


def golden_run(name):
    config, oracle = RUNS[name]
    source = _dump_source(config) if config.source == "dump" else open_source(config)
    result = run_gd_oracle(source, config) if oracle else run_engine(source, config)
    return source, result


def _outputs(source, result):
    samples = np.concatenate([
        np.column_stack([np.full(len(rec.samples), rec.task), rec.samples.class_id,
                         rec.samples.predicted, rec.samples.w_index, rec.samples.excluded])
        for rec in result.tasks]).astype(np.int64)
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


def main(args):
    """Rewrite the golden runs named in `args`, or all of them for
    ["--all"]; returns the exit status, 2 for no or unknown names."""
    names = sorted(RUNS) if args == ["--all"] else args
    unknown = [name for name in names if name not in RUNS]
    if not names or unknown:
        print("usage: tests/test_golden.py --all | RUN [RUN ...]\nruns: " + " ".join(sorted(RUNS)),
              file=sys.stderr)
        return 2
    for run_name in names:
        write_golden(run_name)
        print(f"wrote {os.path.join(GOLDEN_DIR, run_name)}")
    return 0


@pytest.mark.parametrize("args, written", [
    ([], None), (["no_such_run"], None), (["small_gd", "no_such_run"], None),
    (["--all", "small_gd"], None), (["small_gd"], ["small_gd"]), (["--all"], sorted(RUNS)),
])
def test_regeneration_names_its_runs(monkeypatch, capsys, args, written):
    calls = []
    monkeypatch.setattr(sys.modules[__name__], "write_golden", calls.append)
    assert main(args) == (0 if written else 2)
    assert calls == (written or [])
    if not written:
        assert "usage:" in capsys.readouterr().err


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
