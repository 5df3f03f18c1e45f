"""Exception types shared across the package, and the field check that
runs first in each config dataclass's ``__post_init__``, before its value
checks, so a config is checked once, when it is built.

Each class names the command line's exit code for it in ``exit_code``:
2 for a bad config or input, 3 for a file that cannot be read or written
or is malformed, 4 for degenerate input and 1 for a failed check.
"""

import math
import numbers
from dataclasses import fields


class PegoError(Exception):
    """Base class for every error this package raises on purpose."""

    exit_code = 2


class ShapeError(PegoError):
    """Operands have incompatible dimensions."""


class NumericError(PegoError):
    """A computation produced non-finite values or failed to converge."""

    exit_code = 1


class DegenerateInputError(PegoError):
    """Input is structurally valid but carries no usable signal."""

    exit_code = 4


class ConfigError(PegoError):
    """A configuration value violates its documented constraints."""


class SplitError(PegoError):
    """A dataset cannot be partitioned as requested."""


class InputError(PegoError):
    """A runtime input (batch, sample) is unusable."""


class InconclusiveCheckError(PegoError):
    """A verification run rejected too many probes to give a verdict."""

    exit_code = 1


class CheckpointError(PegoError):
    """A file cannot be read or written, or a checkpoint is truncated or malformed."""

    exit_code = 3


_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}


def check_field_types(config) -> None:
    """Raise ``ConfigError`` for a field of the dataclass ``config``
    annotated ``int``, ``float`` or ``bool`` that holds another type, or a
    ``float`` field that holds NaN or an infinity. An integer passes for a
    float; a bool passes for a bool only. Each config dataclass calls it
    first in its ``__post_init__``."""
    for f in fields(config):
        kind = _FIELD_KINDS.get(f.type)
        value = getattr(config, f.name)
        if kind is not None and (not isinstance(value, kind) or isinstance(value, bool) != (kind is bool)):
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
