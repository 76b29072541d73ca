"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 data/format error,
4 runtime divergence, 1 anything else.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from .config import RunConfig, coerce_value, load_config, write_config
from .dump import read_dump_header
from .engine import replay_audit, run_engine, run_gd_oracle
from .errors import ConfigError, DivergenceError, DriftCompError, DumpFormatError
from .results import aggregate_report, emit_results, run_id
from .sources import DumpSource, open_source, write_source_dump

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _audited(result) -> bool:
    """Whether `result` passes the replay audit; says so on stderr if not."""
    if replay_audit(result):
        return True
    print("replay audit FAILED", file=sys.stderr)
    return False


def _cmd_run(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    config = load_config(args.config)
    if args.output:
        config = config.replace(output_dir=args.output)
    results, sources = [], []
    seeds = [config.seed + i for i in range(args.seeds)]
    for seed in seeds:
        source = open_source(config, seed)
        result = run_engine(source, config.replace(seed=seed))
        if not _audited(result):
            return EXIT_OTHER
        results.append(result)
        sources.append(source)
    paths = emit_results(results, config.output_dir, sources)
    for result in results:
        print(f"{run_id(result)}: last_accuracy={result.last_accuracy:.4f} "
              f"per_task={['%.3f' % a for a in result.per_task_accuracy]}")
    print(f"wrote {paths['results']}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if args.output:
        config = config.replace(output_dir=args.output)
    values = [coerce_value(args.key, raw) for raw in args.values.split(",")]
    # every value's config and source is built before the first run, so a bad
    # value fails the sweep before any work is done
    configs = [config.replace(**{args.key: value}) for value in values]
    sources = [open_source(cfg) for cfg in configs]
    results = []
    for value, cfg, source in zip(values, configs, sources):
        result = run_engine(source, cfg)
        if not _audited(result):
            return EXIT_OTHER
        results.append(result)
        print(f"{args.key}={value}: last_accuracy={result.last_accuracy:.4f}")
    paths = emit_results(results, config.output_dir, sources)
    print(f"wrote {paths['results']}")
    return EXIT_OK


def _cmd_gd_oracle(args) -> int:
    config = load_config(args.config)
    if args.output:
        config = config.replace(output_dir=args.output)
    source = open_source(config)
    oracle = run_gd_oracle(source, config)
    analytic = run_engine(source, config.replace(solver="analytic"))
    if not (_audited(oracle) and _audited(analytic)):
        return EXIT_OTHER
    emit_results([analytic, oracle], config.output_dir, [source, source])
    print(f"analytic last_accuracy={analytic.last_accuracy:.4f}")
    print(f"gd_oracle last_accuracy={oracle.last_accuracy:.4f} (offline, non-online)")
    return EXIT_OK


def _cmd_gen(args) -> int:
    config = load_config(args.config)
    source = open_source(config)
    count = write_source_dump(source, args.out)
    print(f"wrote {count} records to {args.out}")
    return EXIT_OK


def _cmd_ingest_check(args) -> int:
    version, dim, count = read_dump_header(args.dump)
    source = DumpSource(args.dump)
    print(f"{args.dump}: version={version} dimension={dim} records={count} "
          f"tasks={source.num_tasks}")
    for t in range(1, source.num_tasks + 1):
        pairs = source.test_pairs(t)
        classes = source.classes_of_task(t)
        train = sum(source.train_matrix(t, c).shape[0] for c in classes)
        print(f"  task {t}: classes={list(classes)} "
              f"train={train} test_pairs={len(pairs)}")
    return EXIT_OK


def _cmd_report(args) -> int:
    paths = []
    for pattern in args.summaries:
        if os.path.isdir(pattern):
            paths.extend(sorted(glob.glob(os.path.join(pattern, "summary_*.json"))))
        else:
            paths.extend(sorted(glob.glob(pattern)))
    if not paths:
        print("no summary files found", file=sys.stderr)
        return EXIT_DATA
    out = aggregate_report(paths, args.out)
    print(f"aggregated {len(paths)} summaries into {out}")
    return EXIT_OK


def _cmd_init_config(args) -> int:
    write_config(RunConfig(), args.out)
    print(f"wrote default config to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftcomp",
        description="Streaming semantic-drift compensation engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario end to end")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="grid over one config key")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gd-oracle", help="offline GD oracle vs analytic comparison")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gd_oracle)

    p = sub.add_parser("gen", help="write a synthetic or toy scenario as a feature dump")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("ingest-check", help="validate a feature dump")
    p.add_argument("dump")
    p.set_defaults(func=_cmd_ingest_check)

    p = sub.add_parser("report", help="aggregate run summaries across seeds")
    p.add_argument("summaries", nargs="+", help="summary files, globs, or result dirs")
    p.add_argument("-o", "--out", default="report.csv")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("init-config", help="write a default config file")
    p.add_argument("-o", "--out", default="run.cfg")
    p.set_defaults(func=_cmd_init_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DumpFormatError as exc:
        print(f"dump format error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DriftCompError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
