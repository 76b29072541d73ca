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
"""

import hashlib
import os
import sys
import warnings

if __name__ == "__main__":
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_name, "1")

import numpy as np

from test_golden import RESULT_FILES, RUNS, _outputs, golden_run


def fingerprint(name: str) -> str:
    """SHA-256 hex digest of golden run `name`'s outputs."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "noise_scale=0", RuntimeWarning)
        source, result = golden_run(name)
    arrays, files = _outputs(source, result)
    digest = hashlib.sha256(arrays["samples"].tobytes())
    for rec in result.tasks:
        for weights in rec.projector_snapshots:
            digest.update(np.ascontiguousarray(weights, dtype=np.float64).tobytes())
    for file_name in RESULT_FILES:
        digest.update(files[file_name])
    return digest.hexdigest()


def main(args):
    """Print the fingerprint of each run named in `args`, or of every run
    for ["--all"]; returns the exit status, 2 for no or unknown names."""
    names = sorted(RUNS) if args == ["--all"] else args
    unknown = [name for name in names if name not in RUNS]
    if not names or unknown:
        print("usage: tests/fingerprint.py --all | RUN [RUN ...]\nruns: " + " ".join(sorted(RUNS)),
              file=sys.stderr)
        return 2
    for name in names:
        print(f"{name} {fingerprint(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
