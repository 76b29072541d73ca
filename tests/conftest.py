"""Pins BLAS to one thread for the test run, unless the caller set it.

A multi-threaded BLAS that shares the cores with other work slows the
small products of the stream by an order of magnitude, which makes timing
assertions such as acceptance criterion 10's order depend on machine load.
The variables take effect only if they are set before numpy is imported.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before BLAS threads could be pinned"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
