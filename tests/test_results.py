import csv
import json

from driftcomp.config import RunConfig
from driftcomp.engine import run_engine, run_gd_oracle
from driftcomp.results import (
    REPORT_VERSION_LINE,
    RESULTS_VERSION_LINE,
    aggregate_report,
    emit_results,
    run_id,
)
from driftcomp.sources import SyntheticSource


def small_config(**kwargs):
    defaults = dict(num_tasks=3, classes_per_task="2", dimension=6,
                    train_per_class=10, test_per_class=5,
                    drift_kind="general_affine", drift_magnitude=0.5,
                    queue_capacity=100, seed=0)
    defaults.update(kwargs)
    return RunConfig(**defaults)


def one_result(cfg=None):
    cfg = cfg or small_config()
    source = SyntheticSource.from_config(cfg)
    return source, run_engine(source, cfg)


class TestEmit:
    def test_files_written_with_version_lines(self, tmp_path):
        source, result = one_result()
        paths = emit_results([result], tmp_path, sources=[source])
        with open(paths["results"]) as fh:
            assert fh.readline().strip() == RESULTS_VERSION_LINE
            header = fh.readline().strip().split(",")
        assert header == ["run_id", "seed", "solver", "task", "metric", "value"]
        for key in ("drift_similarity", "timing"):
            with open(paths[key]) as fh:
                assert fh.readline().startswith("# driftcomp-")

    def test_metrics_present(self, tmp_path):
        source, result = one_result()
        paths = emit_results([result], tmp_path, sources=[source])
        with open(paths["results"]) as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        metrics = {r["metric"] for r in rows}
        assert {"task_accuracy", "last_accuracy", "old_accuracy", "new_accuracy"} <= metrics
        task_rows = [r for r in rows if r["metric"] == "task_accuracy"]
        assert len(task_rows) == 3

    def test_summary_json_contents(self, tmp_path):
        source, result = one_result()
        rid = run_id(result)
        paths = emit_results([result], tmp_path, sources=[source])
        with open(paths[f"summary_{rid}"]) as fh:
            summary = json.load(fh)
        assert summary["run_id"] == rid
        assert summary["config_hash"] == result.config.config_hash()
        assert len(summary["per_task_accuracy"]) == 3
        assert "wall" not in json.dumps(summary).lower()

    def test_empty_results_header_only(self, tmp_path):
        paths = emit_results([], tmp_path, [])
        with open(paths["results"]) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 2  # version line + column header

    def test_oracle_run_id_suffix(self):
        cfg = small_config()
        source = SyntheticSource.from_config(cfg)
        oracle = run_gd_oracle(source, cfg.replace(gd_learning_rate=0.01))
        assert run_id(oracle).endswith("-oracle")


class TestDeterministicOutput:
    def test_rerun_byte_identical_except_timing(self, tmp_path):
        cfg = small_config()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            source, result = one_result(cfg)
            emit_results([result], out, sources=[source])
        for name in ("results.csv", "drift_similarity.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        rid = run_id(one_result(cfg)[1])
        assert (out_a / f"summary_{rid}.json").read_bytes() == \
               (out_b / f"summary_{rid}.json").read_bytes()

    def test_timing_file_well_formed(self, tmp_path):
        source, result = one_result()
        paths = emit_results([result], tmp_path, sources=[source])
        with open(paths["timing"]) as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        phases = {r["phase"] for r in rows}
        assert phases == {"queue", "solve", "predict", "total"}
        assert all(float(r["mean_seconds_per_sample"]) >= 0 for r in rows)


class TestReport:
    def test_mean_std_over_seeds(self, tmp_path):
        cfg = small_config()
        summary_paths = []
        for seed in (0, 1, 2):
            source = SyntheticSource.from_config(cfg, seed=seed)
            result = run_engine(source, cfg.replace(seed=seed))
            out = tmp_path / f"seed{seed}"
            paths = emit_results([result], out, sources=[source])
            summary_paths.append(paths[f"summary_{run_id(result)}"])
        report_path = tmp_path / "report.csv"
        aggregate_report(summary_paths, report_path)
        with open(report_path) as fh:
            assert fh.readline().strip() == REPORT_VERSION_LINE
            rows = list(csv.DictReader(fh))
        last = [r for r in rows if r["metric"] == "last_accuracy"]
        assert len(last) == 1
        assert last[0]["runs"] == "3"
        assert 0.0 <= float(last[0]["mean"]) <= 1.0
        assert float(last[0]["std"]) >= 0.0

    def test_single_run_std_zero(self, tmp_path):
        source, result = one_result()
        paths = emit_results([result], tmp_path, sources=[source])
        report_path = tmp_path / "report.csv"
        aggregate_report([paths[f"summary_{run_id(result)}"]], report_path)
        with open(report_path) as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert all(float(r["std"]) == 0.0 for r in rows)


class TestSingleTaskSummary:
    def test_non_finite_metric_written_as_null(self, tmp_path):
        # one task has no old classes: its old accuracy is NaN
        source, result = one_result(small_config(num_tasks=1))
        path = emit_results([result], tmp_path, sources=[source])[f"summary_{run_id(result)}"]

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        with open(path) as fh:
            summary = json.load(fh, parse_constant=reject)
        assert summary["old_accuracy"] is None
        assert 0.0 <= summary["new_accuracy"] <= 1.0
        report_path = tmp_path / "report.csv"
        aggregate_report([path], report_path)
        with open(report_path) as fh:
            fh.readline()
            rows = {r["metric"]: r for r in csv.DictReader(fh)}
        assert (rows["old_accuracy"]["mean"], rows["old_accuracy"]["std"]) == ("nan", "nan")
