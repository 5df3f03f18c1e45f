"""Grouped low-rank adapters on a frozen compact vision transformer,
trained with orthogonality penalties, with exact merge-back, gradient
auditing, a leave-one-domain-out harness on procedural data, and
weight-space diagnostics.

The package imports no submodule, so ``entry`` can cap numeric thread
pools before numpy is imported.
"""

import os
import sys

__version__ = "0.1.0"


def entry() -> None:
    """The ``pego`` console script: copy ``PEGO_THREADS`` into the BLAS
    thread variables, which take effect only before numpy loads, then run
    the command line."""
    threads = os.environ.get("PEGO_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
            os.environ.setdefault(var, threads)
    from . import cli  # loads numpy, so only after the cap

    sys.exit(cli.main(sys.argv[1:]))
