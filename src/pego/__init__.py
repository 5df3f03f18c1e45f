"""Grouped low-rank adapters on a frozen compact vision transformer,
trained with orthogonality penalties, with exact merge-back, gradient
auditing, a leave-one-domain-out harness on procedural data, and
weight-space diagnostics.

The package imports no submodule, so ``entry`` can pin numeric thread
pools before numpy is imported.
"""

import os
import sys

__version__ = "0.1.0"


def entry() -> None:
    """The ``pego`` console script: pin every BLAS vendor to one thread
    through its thread variable, which takes effect only before numpy
    loads, then run the command line. Everything else about how pego uses
    the CPUs is ``machine``'s: ``PEGO_THREADS`` caps the forward threads
    and pool workers there, not BLAS."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    from . import cli  # loads numpy, so only after the pin

    sys.exit(cli.main(sys.argv[1:]))
