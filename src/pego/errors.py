"""Exception types shared across the package, and the field-type check
that every config dataclass runs before its value checks."""

import numbers
from dataclasses import fields


class PegoError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(PegoError):
    """Operands have incompatible dimensions."""


class NumericError(PegoError):
    """A computation produced non-finite values or failed to converge."""


class DegenerateInputError(PegoError):
    """Input is structurally valid but carries no usable signal."""


class ConfigError(PegoError):
    """A configuration value violates its documented constraints."""


class SplitError(PegoError):
    """A dataset cannot be partitioned as requested."""


class InputError(PegoError):
    """A runtime input (batch, sample) is unusable."""


class InconclusiveCheckError(PegoError):
    """A verification run rejected too many probes to give a verdict."""


class CheckpointError(PegoError):
    """A file cannot be read or written, or a checkpoint is truncated or malformed."""


_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}


def check_field_types(config) -> None:
    """Raise ``ConfigError`` for a field of the dataclass ``config``
    annotated ``int``, ``float`` or ``bool`` that holds another type. An
    integer passes for a float; a bool passes for a bool only."""
    for f in fields(config):
        kind = _FIELD_KINDS.get(f.type)
        value = getattr(config, f.name)
        if kind is not None and (not isinstance(value, kind) or isinstance(value, bool) != (kind is bool)):
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
