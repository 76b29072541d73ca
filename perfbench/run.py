"""Benchmark of the `driftcomp run` path on three seeded workloads.

    python3 perfbench/run.py --workload ref_analytic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the program is imported from `src/`.

One run is one process and one closed loop: rounds of set-up (building the
source), `run_engine`, `replay_audit` and `emit_results`, each sample of a
stream classified after the previous one, repeated until `--seconds` have
passed. Only whole rounds are run. After each round, outside the timed
region, the outputs are checked against numpy (see checks.py).

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics (medians over rounds); with `--trace 1` untraced and
traced rounds alternate, the per-layer metrics come from the traced rounds,
and spans and a per-layer table are written under perfbench/out/.
"""

import os

# BLAS is held to one thread before numpy is first imported: the loop works
# on small matrices, where a thread pool costs more than it saves and makes
# timings depend on other load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("ref_analytic", "wide_dump", "toy_gd_queue")

END_TO_END_UNITS = {"setup_s": "s", "samples_per_s": "samples/s", "run_s": "s", "peak_rss_mb": "MB"}


def import_program():
    if not os.path.isfile(os.path.join(SRC, "driftcomp", "__init__.py")):
        print(f"error: the program is not in {SRC}; run from the root of a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


# The probe kernel's mean time on the machine the README's figures come
# from. Timed work is scaled by REFERENCE_NOMINAL_S / (mean probe time in
# the same round), so figures read as seconds on that machine.
REFERENCE_NOMINAL_S = 0.0032
PROBE_PERIOD_S = 0.1


def reference_kernel() -> float:
    """Fixed work of the program's kind, independent of the program: small
    matrix products and norms, row copies kept in a dict, stacking and an
    argmax. Its time tracks the speed of the (virtual) CPU."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((48, 32))
    w = rng.standard_normal((32, 32))
    rows = {}
    total = 0.0
    for i in range(60):
        b = a @ w
        norms = np.linalg.norm(b, axis=1)
        rows[i % 40] = (b[i % 48] / norms[i % 48]).copy()
        total += float(np.argmax(np.vstack(list(rows.values())) @ b[0]))
    return total


class SpeedProbe:
    """Samples the machine's speed while the work runs.

    A virtual CPU can change speed by tens of percent within seconds and
    over minutes (see the README). While the probe is active, a SIGALRM
    handler times `reference_kernel` every PROBE_PERIOD_S; it runs between
    bytecodes of the one thread, so the loop stays closed. `timed` subtracts
    the handler's time from the work it interrupted and scales the rest by
    REFERENCE_NOMINAL_S / (mean kernel time while the work ran).
    """

    MIN_PROBES = 5   # a shorter segment is scaled by the latest five samples

    def __init__(self, sampling: bool = True):
        self.samples = []   # (start, seconds) of each kernel run
        self.sampling = sampling

    def __enter__(self):
        self._sample()
        if self.sampling:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        reference_kernel()
        self.samples.append((start, time.perf_counter() - start))

    def timed(self, fn):
        """Returns (fn(), scaled seconds, unscaled seconds) of the call."""
        first = len(self.samples)
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        inside = [seconds for _, seconds in self.samples[first:]]
        work = elapsed - sum(inside)
        basis = inside if len(inside) >= self.MIN_PROBES \
            else [seconds for _, seconds in self.samples[-self.MIN_PROBES:]]
        return out, work * REFERENCE_NOMINAL_S / statistics.fmean(basis), work


def run_round(prep, probe):
    """One round: set-ups, then what `driftcomp run` does once the source
    exists. Returns scaled and unscaled seconds and the result. Calls go
    through module attributes so that a tracer's wrappers are the ones
    called."""
    import driftcomp
    from driftcomp import results

    setup, setup_raw = [], []
    for _ in range(prep.workload.setup_repeats):
        source, seconds, raw = probe.timed(lambda: prep.workload.build_source(prep))
        setup.append(seconds)
        setup_raw.append(raw)
    result, engine_s, engine_raw = probe.timed(lambda: driftcomp.run_engine(source, prep.config))

    def audit_and_emit():
        audit_ok = driftcomp.replay_audit(result)
        results.emit_results([result], prep.config.output_dir, [source])
        return audit_ok

    audit_ok, rest_s, rest_raw = probe.timed(audit_and_emit)
    return {"setup": setup, "engine_s": engine_s, "run_s": engine_s + rest_s,
            "raw": {"setup": setup_raw, "engine_s": engine_raw, "run_s": engine_raw + rest_raw},
            "audit_ok": audit_ok, "source": source, "result": result}


def check_round(prep, rnd, fingerprint):
    """Independent checks of one round; returns its predictions, which must
    equal `fingerprint`, the first round's."""
    import checks
    import numpy as np

    if not rnd["audit_ok"]:
        raise checks.CheckFailed("replay_audit returned False")
    samples = sum(len(rec.samples) for rec in rnd["result"].tasks)
    if samples != prep.expected_samples:
        raise checks.CheckFailed(f"{samples} samples classified, expected {prep.expected_samples}")
    prep.workload.check(prep, rnd["source"], rnd["result"])
    current = np.array([s.predicted for rec in rnd["result"].tasks for s in rec.samples])
    if fingerprint is not None and not np.array_equal(current, fingerprint):
        raise checks.CheckFailed("predictions differ between rounds of the same seed")
    return current


def measure(prep, seconds: float, trace: bool):
    """Rounds until `seconds` have passed; returns (correct, rounds,
    metrics, unscaled end-to-end metrics)."""
    import checks
    import tracing

    deadline = time.perf_counter() + seconds
    correct, fingerprint = True, None
    scaled = {"setup_s": [], "samples_per_s": [], "run_s": []}
    raw = {"setup_s": [], "samples_per_s": [], "run_s": []}
    untraced_walls, traced_walls, layer_rounds = [], [], []
    tracer = None
    rounds = 0
    # a traced run alternates untraced and traced rounds after a first
    # untraced one that carries the process's one-time costs
    min_rounds = 3 if trace else 1
    # a traced run reports unscaled times: a probe sample would land in the
    # self time of whatever span it interrupted
    with SpeedProbe(sampling=not trace) as probe:
        while rounds < min_rounds or time.perf_counter() < deadline:
            traced = trace and rounds % 2 == 1
            if traced:
                tracer = tracing.Tracer().install()
            try:
                rnd = run_round(prep, probe)
            finally:
                if traced:
                    tracer.uninstall()
            rounds += 1
            wall = sum(rnd["raw"]["setup"]) + rnd["raw"]["run_s"]
            if traced:
                traced_walls.append(wall)
                layer_rounds.append(tracer.metrics())
            else:
                if rounds > 1:
                    untraced_walls.append(wall)
                for out, times in ((scaled, rnd), (raw, rnd["raw"])):
                    out["setup_s"].extend(times["setup"])
                    out["samples_per_s"].append(prep.expected_samples / times["engine_s"])
                    out["run_s"].append(times["run_s"])
            try:
                fingerprint = check_round(prep, rnd, fingerprint)
            except checks.CheckFailed as exc:
                print(f"check failed in round {rounds}: {exc}", file=sys.stderr)
                correct = False
            del rnd
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unscaled = {key: statistics.median(values) for key, values in raw.items()}
    unscaled["reference_s"] = statistics.fmean(seconds for _, seconds in probe.samples)
    if trace:
        metrics = {name: statistics.median(r[name] for r in layer_rounds)
                   for name in layer_rounds[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
        _write_trace(prep, tracer, metrics)
    else:
        metrics = {key: statistics.median(values) for key, values in scaled.items()}
        metrics["peak_rss_mb"] = peak_rss_mb
    return correct, rounds, metrics, unscaled


def _write_trace(prep, tracer, metrics) -> None:
    """Spans of the last traced round, and the per-layer table."""
    import tracing

    stem = os.path.join(prep.work_dir, f"trace-seed{prep.seed}")
    tracer.write_spans(stem + ".jsonl")
    units = tracing.metric_units()
    lines = [f"{name:<45} {metrics[name]:>16.6f} {units[name]}" for name in units]
    lines += [f"absent (not in this program): {name}" for name in tracer.absent]
    with open(stem + "-layers.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_program()
    import tracing
    import workloads

    prep = workloads.prepare(name, seed, os.path.join(OUT, name))
    try:
        correct, rounds, metrics, unscaled = measure(prep, seconds, trace)
    finally:
        workloads.release(prep)
    units = tracing.metric_units() if trace else END_TO_END_UNITS
    print(f"{name} seed {seed}: {rounds} rounds of {prep.expected_samples} samples")
    if not trace:
        for key, unit in units.items():
            plain = f" unscaled {unscaled[key]:.6f}" if key in unscaled else ""
            print(f"  {key:<14} {metrics[key]:>14.6f} {unit:<10}{plain}")
        print(f"  reference kernel mean {unscaled['reference_s']:.6f} s "
              f"(nominal {REFERENCE_NOMINAL_S} s)")
    print(json.dumps({
        "correct": correct,
        "attempted": rounds * prep.expected_samples,
        "failed": 0,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so each has its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        out = json.loads(lines[-1])
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        for key, value in out["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
