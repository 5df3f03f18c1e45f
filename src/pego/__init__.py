"""Grouped low-rank adapters on a frozen compact vision transformer,
trained with orthogonality penalties, with exact merge-back, gradient
auditing, a leave-one-domain-out harness on procedural data, and
weight-space diagnostics.

The package imports no submodule, so the command-line entry point can
cap numeric thread pools before numpy is imported.
"""

__version__ = "0.1.0"
