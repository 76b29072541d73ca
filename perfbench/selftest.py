"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs one round of `ref_analytic` (seed 0), asserts that every check passes
on it, then corrupts one logged prediction and, separately, perturbs one
projector snapshot, and asserts that the checks reject each. Exits 0 when
all three hold.
"""

import os
import sys

import run  # pins BLAS threads before numpy is imported


def _rejected(prep, rnd) -> str:
    import checks

    try:
        run.check_round(prep, rnd, None)
    except checks.CheckFailed as exc:
        return str(exc)
    return ""


def main() -> int:
    run.import_program()
    import numpy as np
    import workloads

    prep = workloads.prepare("ref_analytic", 0, os.path.join(run.OUT, "selftest"))
    with run.SpeedProbe() as probe:
        rnd = run.run_round(prep, probe)
    failures = 0

    message = _rejected(prep, rnd)
    print(f"{'FAIL' if message else 'PASS'} clean run accepted {message}")
    failures += bool(message)

    last = rnd["result"].tasks[-1]
    sample = last.samples[len(last.samples) // 2]
    original = sample.predicted
    sample.predicted = next(c for c in last.fresh_table.class_ids if c != original)
    message = _rejected(prep, rnd)
    print(f"{'PASS' if message else 'FAIL'} corrupted prediction rejected: {message}")
    failures += not message
    sample.predicted = original

    snapshots = last.projector_snapshots
    saved = snapshots[-1]
    noise = np.random.default_rng(0).standard_normal(saved.shape)
    snapshots[-1] = saved + 0.5 * np.linalg.norm(saved) / np.linalg.norm(noise) * noise
    message = _rejected(prep, rnd)
    print(f"{'PASS' if message else 'FAIL'} perturbed projector rejected: {message}")
    failures += not message
    snapshots[-1] = saved

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
