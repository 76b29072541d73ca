"""Bit-for-bit fingerprints of the golden runs.

For each run named in `test_golden.RUNS`, prints one line: the run's name
and the SHA-256 over its samples array (task, class_id, predicted, w_index,
excluded per streamed sample), the bytes of every projector snapshot of
every task in stream order, and the bytes of results.csv and
drift_similarity.csv. The golden test compares only each task's last
snapshot, and that to a relative tolerance; two trees whose lines agree
computed every snapshot to the same bits.

The d=128 run `wide_analytic` moves in its last bits with the number of
BLAS threads. So, run as a script, it sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before numpy loads, unless they
are already set, and its lines compare across machines:

    PYTHONPATH=src python tests/fingerprint.py small_analytic wide_analytic
    PYTHONPATH=src python tests/fingerprint.py --all

With `--workloads` it prints one line per benchmark workload of
`perfbench/workloads.py` at each of the seeds 0-3: the SHA-256 over each
task's (class_id, predicted, w_index, excluded) rows and the bytes of every
projector snapshot of the engine run, `wide_dump`'s feature dump written to
a temporary directory. The rows are read sample by sample, by attribute,
which any sequence of sample records supports, so the lines of two trees
compare however each holds its samples:

    PYTHONPATH=src python tests/fingerprint.py --workloads
"""

import hashlib
import os
import sys
import tempfile
import warnings

if __name__ == "__main__":
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_name, "1")

import numpy as np

from driftcomp import run_engine
from test_golden import RESULT_FILES, RUNS, _outputs, golden_run

PERFBENCH = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                          "perfbench"))
WORKLOAD_SEEDS = range(4)


def _snapshot_digest(digest, result) -> None:
    for rec in result.tasks:
        for weights in rec.projector_snapshots:
            digest.update(np.ascontiguousarray(weights, dtype=np.float64).tobytes())


def fingerprint(name: str) -> str:
    """SHA-256 hex digest of golden run `name`'s outputs."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "noise_scale=0", RuntimeWarning)
        source, result = golden_run(name)
    arrays, files = _outputs(source, result)
    digest = hashlib.sha256(arrays["samples"].tobytes())
    _snapshot_digest(digest, result)
    for file_name in RESULT_FILES:
        digest.update(files[file_name])
    return digest.hexdigest()


def workload_fingerprints(seeds=WORKLOAD_SEEDS):
    """(workload, seed, SHA-256 hex digest) of every benchmark workload's
    engine run at each of `seeds`."""
    if PERFBENCH not in sys.path:
        sys.path.append(PERFBENCH)
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        for seed in seeds:
            with tempfile.TemporaryDirectory() as work_dir:
                prep = workloads.prepare(name, seed, work_dir)
                result = run_engine(workload.build_source(prep), prep.config)
            digest = hashlib.sha256()
            for rec in result.tasks:
                rows = [(s.class_id, s.predicted, s.w_index, s.excluded) for s in rec.samples]
                digest.update(np.array(rows, dtype=np.int64).tobytes())
            _snapshot_digest(digest, result)
            yield name, seed, digest.hexdigest()


def main(args):
    """Print the fingerprint of each run named in `args`, of every run for
    ["--all"], or of every benchmark workload at seeds 0-3 for
    ["--workloads"]; returns the exit status, 2 for no or unknown names."""
    if args == ["--workloads"]:
        for name, seed, digest in workload_fingerprints():
            print(f"{name} seed {seed} {digest}")
        return 0
    names = sorted(RUNS) if args == ["--all"] else args
    unknown = [name for name in names if name not in RUNS]
    if not names or unknown:
        print("usage: tests/fingerprint.py --all | --workloads | RUN [RUN ...]\nruns: "
              + " ".join(sorted(RUNS)), file=sys.stderr)
        return 2
    for name in names:
        print(f"{name} {fingerprint(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
