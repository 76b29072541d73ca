"""Result persistence: column-stable tabular files plus a structured
summary per run, and seed aggregation for reports.

Wall-clock numbers live only in timing.csv so results.csv and the
summaries stay byte-identical across repeated seeded runs. A report groups
runs whose configs differ only in seed and output directory.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .engine import PHASES, RunResult
from .errors import SummaryFormatError

RESULTS_VERSION_LINE = "# driftcomp-results v1"
SIMILARITY_VERSION_LINE = "# driftcomp-drift-similarity v1"
TIMING_VERSION_LINE = "# driftcomp-timing v2"
REPORT_VERSION_LINE = "# driftcomp-report v3"
SUMMARY_FORMAT_VERSION = 2

RESULT_COLUMNS = ("run_id", "seed", "solver", "task", "metric", "value")


def _metric(value: float):
    """A summary metric as JSON holds it: rounded, and null when not finite
    (a single-task run has no old classes), which strict parsers accept."""
    return round(value, 10) if np.isfinite(value) else None


def run_id(result: RunResult) -> str:
    suffix = "-oracle" if result.oracle else ""
    return f"{result.config.config_hash()}-s{result.seed}{suffix}"


def _result_rows(result: RunResult, source) -> List[tuple]:
    rid = run_id(result)
    cfg = result.config
    solver = "gd_oracle" if result.oracle else cfg.solver
    rows = []
    for rec in result.tasks:
        rows.append((rid, result.seed, solver, rec.task, "task_accuracy",
                     f"{rec.accuracy:.10f}"))
    t_last = len(result.tasks)
    rows.append((rid, result.seed, solver, t_last, "last_accuracy",
                 f"{result.last_accuracy:.10f}"))
    old_acc, new_acc = result.old_new_accuracy(source)
    rows.append((rid, result.seed, solver, t_last, "old_accuracy", f"{old_acc:.10f}"))
    rows.append((rid, result.seed, solver, t_last, "new_accuracy", f"{new_acc:.10f}"))
    return rows


def emit_results(results: Sequence[RunResult], out_dir, sources: Sequence) -> Dict[str, str]:
    """Write results.csv, drift_similarity.csv, timing.csv and one summary
    JSON per run into `out_dir`; `sources[i]` is the source of `results[i]`.
    Returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)

    paths = {}

    results_path = os.path.join(out_dir, "results.csv")
    with open(results_path, "w", newline="") as fh:
        fh.write(RESULTS_VERSION_LINE + "\n")
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for result, source in zip(results, sources):
            writer.writerows(_result_rows(result, source))
    paths["results"] = results_path

    sim_path = os.path.join(out_dir, "drift_similarity.csv")
    with open(sim_path, "w", newline="") as fh:
        fh.write(SIMILARITY_VERSION_LINE + "\n")
        writer = csv.writer(fh)
        writer.writerow(("run_id", "seed", "task", "class_id", "similarity"))
        for result in results:
            rid = run_id(result)
            for rec in result.tasks:
                if rec.drift_similarity is None:
                    continue
                for class_id in sorted(rec.drift_similarity):
                    writer.writerow((rid, result.seed, rec.task, class_id,
                                     f"{rec.drift_similarity[class_id]:.10f}"))
    paths["drift_similarity"] = sim_path

    timing_path = os.path.join(out_dir, "timing.csv")
    with open(timing_path, "w", newline="") as fh:
        fh.write(TIMING_VERSION_LINE + "\n")
        writer = csv.writer(fh)
        writer.writerow(("run_id", "seed", "phase", "mean_seconds_per_sample"))
        for result in results:
            rid = run_id(result)
            per_phase = result.mean_phase_seconds()
            for phase in PHASES:
                writer.writerow((rid, result.seed, phase, f"{per_phase[phase]:.9f}"))
            writer.writerow((rid, result.seed, "total", f"{result.mean_sample_seconds:.9f}"))
    paths["timing"] = timing_path

    for result, source in zip(results, sources):
        rid = run_id(result)
        old_acc, new_acc = result.old_new_accuracy(source)
        summary = {
            "format_version": SUMMARY_FORMAT_VERSION,
            "run_id": rid,
            "seed": result.seed,
            "oracle": result.oracle,
            "config": {k: v for k, v in result.config.canonical_items()},
            "config_hash": result.config.config_hash(),
            "per_task_accuracy": [_metric(a) for a in result.per_task_accuracy],
            "last_accuracy": _metric(result.last_accuracy),
            "old_accuracy": _metric(old_acc),
            "new_accuracy": _metric(new_acc),
        }
        path = os.path.join(out_dir, f"summary_{rid}.json")
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths[f"summary_{rid}"] = path
    return paths


def _read_metric(value) -> float:
    """A summary metric as a float: null, written for a non-finite one, is NaN."""
    return np.nan if value is None else float(value)


def aggregate_report(summary_paths: Iterable[str], out_path) -> str:
    """Aggregate per-run summaries into mean/std columns per metric, one
    group per config hash, with "-oracle" added for oracle runs.

    Raises SummaryFormatError, naming the file, for a summary that is not
    JSON, lacks a field or has another `format_version`."""
    groups: Dict[str, Dict[str, List[float]]] = {}
    for path in summary_paths:
        try:
            with open(path) as fh:
                summary = json.load(fh)
            version = summary["format_version"]
            if version != SUMMARY_FORMAT_VERSION:
                raise ValueError(f"format_version {version!r}, expected {SUMMARY_FORMAT_VERSION}")
            key = summary["config_hash"] + ("-oracle" if summary["oracle"] else "")
            metrics = [(m, _read_metric(summary[m]))
                       for m in ("last_accuracy", "old_accuracy", "new_accuracy")]
            metrics += [(f"task_{t}_accuracy", _read_metric(acc))
                        for t, acc in enumerate(summary["per_task_accuracy"], start=1)]
        except (ValueError, KeyError, TypeError) as exc:
            raise SummaryFormatError(f"{path}: not a run summary: {exc!r}") from None
        bucket = groups.setdefault(key, {})
        for metric, value in metrics:
            bucket.setdefault(metric, []).append(value)
    with open(out_path, "w", newline="") as fh:
        fh.write(REPORT_VERSION_LINE + "\n")
        writer = csv.writer(fh)
        writer.writerow(("config_key", "metric", "runs", "mean", "std"))
        for key in sorted(groups):
            for metric in sorted(groups[key]):
                vals = groups[key][metric]
                writer.writerow((key, metric, len(vals),
                                 f"{float(np.mean(vals)):.10f}",
                                 f"{float(np.std(vals)):.10f}"))
    return str(out_path)
