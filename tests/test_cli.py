import csv
import json

import numpy as np
import pytest

from driftcomp.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_OTHER,
    main,
)
from driftcomp.config import CONFIG_FORMAT_VERSION
from driftcomp.results import REPORT_VERSION_LINE
from driftcomp.sources import DumpSource

SMALL_CFG = f"""
format_version = {CONFIG_FORMAT_VERSION}
num_tasks = 3
classes_per_task = 2
dimension = 6
train_per_class = 10
test_per_class = 5
cluster_separation = 5.0
drift_kind = general_affine
drift_magnitude = 0.5
queue_capacity = 100
seed = 0
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


class TestRun:
    def test_run_writes_results(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["run", "-c", cfg_path, "-o", out]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "last_accuracy=" in stdout
        assert (tmp_path / "results" / "results.csv").exists()
        assert (tmp_path / "results" / "timing.csv").exists()
        summaries = list((tmp_path / "results").glob("summary_*.json"))
        assert len(summaries) == 1

    def test_run_multiple_seeds(self, cfg_path, tmp_path):
        out = tmp_path / "results"
        assert main(["run", "-c", cfg_path, "-o", str(out), "--seeds", "2"]) == EXIT_OK
        assert len(list(out.glob("summary_*.json"))) == 2

    def test_run_id_independent_of_output_dir(self, cfg_path, tmp_path, capsys):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["run", "-c", cfg_path, "-o", str(out)]) == EXIT_OK
        ids = [[p.name for p in out.glob("summary_*.json")] for out in outs]
        assert len(ids[0]) == 1 and ids[0] == ids[1]
        for name in ("results.csv", "drift_similarity.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seeds_differ_only_in_run_id_suffix(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "-c", cfg_path, "-o", str(out), "--seeds", "2"]) == EXIT_OK
        with open(out / "results.csv") as fh:
            fh.readline()
            ids = sorted({row["run_id"] for row in csv.DictReader(fh)})
        stem = ids[0].rsplit("-", 1)[0]
        assert ids == [f"{stem}-s{seed}" for seed in (0, 1)]

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_seed_count_below_one_exit_code(self, cfg_path, tmp_path, capsys, seeds):
        out = tmp_path / "results"
        assert main(["run", "-c", cfg_path, "-o", str(out), "--seeds", seeds]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: --seeds")
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        code = main(["run", "-c", str(tmp_path / "nope.cfg")])
        assert code != EXIT_OK

    def test_invalid_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("solver = newton\n")
        assert main(["run", "-c", str(bad)]) == EXIT_CONFIG

    @pytest.mark.filterwarnings("ignore:noise_scale=0:RuntimeWarning")
    def test_singular_strict_exit_code(self, tmp_path):
        # noise-free pseudo-features leave a rank-2 Gram in d=6
        path = tmp_path / "strict.cfg"
        path.write_text(SMALL_CFG + "noise_scale = 0\nsingular_policy = strict\n")
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == EXIT_OTHER

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        path = tmp_path / "diverge.cfg"
        path.write_text(SMALL_CFG + "solver = gd\ngd_optimizer = sgd\n"
                        "gd_learning_rate = 1e6\ngd_steps = 5\n")
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == EXIT_DIVERGED
        assert "divergence" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "format_version = abc\n", "split_style = warm\n", "ridge = inf\n",
        "cluster_separation = nan\n", "min_ridge = inf\n", "gd_learning_rate = inf\n",
    ])
    def test_config_error_exit_code(self, tmp_path, text, capsys):
        # a format_version line is checked wherever it stands; SMALL_CFG has 3
        # tasks of 2 classes, which the warm split cannot divide; a non-finite
        # float is rejected before any run
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + text)
        assert main(["run", "-c", str(bad), "-o", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_unknown_key_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key = 1\n")
        assert main(["run", "-c", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("line", [
        "toy_batch_size = 0", "toy_tau = 0", "toy_lambda1 = -1", "toy_input_dim = 0",
        "toy_hidden = 0", "toy_epochs = -1", "toy_base_lr = -1",
    ])
    def test_invalid_toy_key_exit_code(self, tmp_path, line, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + "source = toy\n" + line + "\n")
        assert main(["run", "-c", str(bad), "-o", str(tmp_path / "out")]) == EXIT_CONFIG
        assert line.split(" ")[0] in capsys.readouterr().err


class TestSweep:
    def test_sweep_over_capacity(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = main(["sweep", "-c", cfg_path, "--key", "queue_capacity",
                     "--values", "50,100", "-o", out])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.count("queue_capacity=") == 2

    def test_sweep_float_key(self, cfg_path, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(["sweep", "-c", cfg_path, "--key", "noise_scale",
                     "--values", "0.01,0.1", "-o", out])
        assert code == EXIT_OK

    def test_sweep_string_key(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = main(["sweep", "-c", cfg_path, "--key", "solver",
                     "--values", "none,analytic", "-o", out])
        assert code == EXIT_OK
        assert "solver=none:" in capsys.readouterr().out

    @pytest.mark.parametrize("key,values,message", [
        ("not_a_key", "1,2", "unknown key 'not_a_key'"),
        ("solver", "newton", "solver='newton'"),
        ("queue_capacity", "abc", "expects an integer"),
        ("noise_scale", "x", "expects a number"),
        ("queue_capacity", "0", "queue_capacity=0"),
    ])
    def test_sweep_bad_key_or_value_exit_code(self, cfg_path, tmp_path, capsys,
                                              key, values, message):
        code = main(["sweep", "-c", cfg_path, "--key", key, "--values", values,
                     "-o", str(tmp_path / "sweep")])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("key,values", [
        ("solver", "analytic,bogus"),
        # SMALL_CFG's 3 tasks of 2 classes cannot be split warm
        ("split_style", "cold,warm"),
    ])
    def test_bad_last_value_runs_nothing(self, cfg_path, tmp_path, capsys, key, values):
        out = tmp_path / "sweep"
        code = main(["sweep", "-c", cfg_path, "--key", key, "--values", values,
                     "-o", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().out == ""
        assert not out.exists()

    # runs that share a run id: config_hash leaves out output_dir, and a
    # repeated value (after parsing) is the same config twice
    @pytest.mark.parametrize("key,values,message", [
        ("output_dir", "a,b", "cannot vary output_dir"),
        ("queue_capacity", "50,100,50", "repeats queue_capacity=50"),
        ("noise_scale", "0.1,0.10", "repeats noise_scale=0.1"),
        ("solver", "analytic, analytic", "repeats solver='analytic'"),
    ])
    def test_shared_run_id_rejected_before_any_run(self, cfg_path, tmp_path, capsys,
                                                    key, values, message):
        out = tmp_path / "sweep"
        code = main(["sweep", "-c", cfg_path, "--key", key, "--values", values,
                     "-o", str(out)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not out.exists()


class TestOracle:
    def test_gd_oracle_prints_both(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "oracle")
        assert main(["gd-oracle", "-c", cfg_path, "-o", out]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "analytic last_accuracy=" in stdout
        assert "gd_oracle last_accuracy=" in stdout
        assert "non-online" in stdout


class TestReplayAuditGate:
    """Every run a command makes is replay-audited before anything is written."""

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--key", "queue_capacity", "--values", "50,100"], ["gd-oracle"],
    ])
    def test_failed_audit_exit_code(self, cfg_path, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr("driftcomp.cli.replay_audit", lambda result: False)
        out = tmp_path / "out"
        assert main([command[0], "-c", cfg_path, "-o", str(out), *command[1:]]) == EXIT_OTHER
        assert "replay audit FAILED" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_audits_every_run(self, cfg_path, tmp_path, capsys, monkeypatch):
        audited = []

        def audit(result):
            audited.append(result.config.queue_capacity)
            return result.config.queue_capacity != 100
        monkeypatch.setattr("driftcomp.cli.replay_audit", audit)
        out = tmp_path / "out"
        assert main(["sweep", "-c", cfg_path, "--key", "queue_capacity",
                     "--values", "50,100", "-o", str(out)]) == EXIT_OTHER
        assert audited == [50, 100]
        assert "replay audit FAILED" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("failing_oracle", [True, False])
    def test_gd_oracle_audits_both_runs(self, cfg_path, tmp_path, capsys, monkeypatch,
                                        failing_oracle):
        monkeypatch.setattr("driftcomp.cli.replay_audit",
                            lambda result: result.oracle != failing_oracle)
        out = tmp_path / "out"
        assert main(["gd-oracle", "-c", cfg_path, "-o", str(out)]) == EXIT_OTHER
        assert "replay audit FAILED" in capsys.readouterr().err
        assert not out.exists()


class TestGenAndIngest:
    def test_gen_then_ingest_check(self, cfg_path, tmp_path, capsys):
        dump = str(tmp_path / "features.bin")
        assert main(["gen", "-c", cfg_path, "-o", dump]) == EXIT_OK
        assert main(["ingest-check", dump]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "tasks=3" in stdout
        source = DumpSource(dump)
        for t in range(1, 4):
            assert (f"  task {t}: classes={list(source.classes_of_task(t))} "
                    f"train={len(source.train_records(t))} "
                    f"test_pairs={len(source.test_pairs(t))}") in stdout.splitlines()

    def test_gen_then_run_from_dump(self, cfg_path, tmp_path):
        dump = str(tmp_path / "features.bin")
        assert main(["gen", "-c", cfg_path, "-o", dump]) == EXIT_OK
        dump_cfg = tmp_path / "dump.cfg"
        dump_cfg.write_text(SMALL_CFG + f"source = dump\ndump_path = {dump}\n")
        out = str(tmp_path / "dumprun")
        assert main(["run", "-c", str(dump_cfg), "-o", out]) == EXIT_OK

    def test_run_from_dump_without_test_records_exit_code(self, tmp_path, capsys):
        from driftcomp.dump import SPLIT_TRAIN, write_dump
        dump = tmp_path / "train_only.bin"
        write_dump(dump, [0, 1], [1, 2], [SPLIT_TRAIN] * 2, np.ones((2, 2)))
        dump_cfg = tmp_path / "dump.cfg"
        dump_cfg.write_text(SMALL_CFG + f"source = dump\ndump_path = {dump}\n")
        out = tmp_path / "dumprun"
        assert main(["run", "-c", str(dump_cfg), "-o", str(out)]) == EXIT_DATA
        assert "task 1 has no test records" in capsys.readouterr().err
        assert not out.exists()

    def test_ingest_check_corrupt_exit_code(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTADUMP" + b"\x00" * 20)
        assert main(["ingest-check", str(bad)]) == EXIT_DATA


class TestReportAndInit:
    def test_report_from_directory(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "results"
        main(["run", "-c", cfg_path, "-o", str(out), "--seeds", "2"])
        capsys.readouterr()
        report = str(tmp_path / "report.csv")
        assert main(["report", str(out), "-o", report]) == EXIT_OK
        assert "aggregated 2 summaries" in capsys.readouterr().out

    def test_report_groups_seeds_of_one_config(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "-c", cfg_path, "-o", str(out), "--seeds", "3"]) == EXIT_OK
        report = tmp_path / "report.csv"
        assert main(["report", str(out), "-o", str(report)]) == EXIT_OK
        with open(report) as fh:
            assert fh.readline().strip() == REPORT_VERSION_LINE
            rows = list(csv.DictReader(fh))
        assert {r["config_key"] for r in rows} == {rows[0]["config_key"]}
        last = [r for r in rows if r["metric"] == "last_accuracy"]
        assert len(last) == 1 and last[0]["runs"] == "3"

    def test_report_counts_each_summary_once(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "-c", cfg_path, "-o", str(out)]) == EXIT_OK
        summary = next(out.glob("summary_*.json"))
        (tmp_path / "link").symlink_to(out)
        report = tmp_path / "report.csv"
        capsys.readouterr()
        for args in ([str(out), str(out)],
                     [str(out), str(summary), str(tmp_path / "link" / summary.name)]):
            assert main(["report", *args, "-o", str(report)]) == EXIT_OK
            assert "aggregated 1 summaries" in capsys.readouterr().out
            with open(report) as fh:
                fh.readline()
                last = [r for r in csv.DictReader(fh) if r["metric"] == "last_accuracy"]
            assert len(last) == 1 and last[0]["runs"] == "1"

    def test_report_no_matches(self, tmp_path):
        assert main(["report", str(tmp_path / "missing"),
                     "-o", str(tmp_path / "r.csv")]) == EXIT_DATA

    @pytest.mark.parametrize("case", ["not_json", "missing_key", "old_version"])
    def test_report_rejects_bad_summary(self, cfg_path, tmp_path, capsys, case):
        out = tmp_path / "results"
        assert main(["run", "-c", cfg_path, "-o", str(out), "--seeds", "2"]) == EXIT_OK
        bad = sorted(out.glob("summary_*.json"))[1]
        summary = json.loads(bad.read_text())
        if case == "not_json":
            bad.write_text("# driftcomp\n\nnot a summary\n")
        elif case == "missing_key":
            del summary["config_hash"]
            bad.write_text(json.dumps(summary))
        else:
            summary["format_version"] = 1
            bad.write_text(json.dumps(summary))
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert main(["report", str(out), "-o", str(report)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "summary format error" in err and str(bad) in err
        assert not report.exists()

    def test_init_config_round_trips(self, tmp_path, capsys):
        out = tmp_path / "default.cfg"
        assert main(["init-config", "-o", str(out)]) == EXIT_OK
        path = tmp_path / "results"
        # a freshly initialized config is heavy (10 tasks); just parse it
        from driftcomp.config import load_config
        cfg = load_config(out)
        assert cfg.num_tasks == 10

    def test_summary_configs_match_run(self, cfg_path, tmp_path):
        out = tmp_path / "results"
        main(["run", "-c", cfg_path, "-o", str(out)])
        summary = json.loads(next(out.glob("summary_*.json")).read_text())
        assert summary["config"]["num_tasks"] == 3
        assert summary["config"]["output_dir"] == str(out)
