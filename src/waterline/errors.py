"""Exception types shared across the package, and the one JSON-file reader.

The split matters for the CLI, which maps each category to a distinct
exit code (config -> 2, data -> 3, numeric -> 4).
"""

import dataclasses
import json
import math
import typing

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration value or file (camera, generator, training)."""


class _LineError(ValueError):
    """An error in a data file, prefixed with its line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DatasetParseError(_LineError):
    """A dataset file line is not valid JSON."""


class DatasetSchemaError(_LineError):
    """A dataset file line parses but violates the record schema."""


class GenerationError(ConfigError):
    """The generator configuration yielded no usable (visible) queries."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed or shape-incompatible."""


class NumericError(ArithmeticError):
    """Non-finite values encountered where finite math is required."""


class TrainingAborted(NumericError):
    """Training hit a non-finite loss or gradient; partial history attached."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


_NUMBER = (int, float, np.integer, np.floating)


def check_fields(config) -> None:
    """Raise ConfigError unless every field of dataclass `config` holds a value
    of its declared type (see check_value)."""
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        check_value(f.name, getattr(config, f.name), hints[f.name])


def check_value(name: str, value, kind) -> None:
    """Raise ConfigError, naming `name`, unless `value` is of type `kind`.

    An int is an integer, not a bool or a float. A float is a finite int or
    float, not a bool or a string; JSON's 1e999 parses to inf, which either
    kind rejects as non-finite. Numpy scalars count as numbers. tuple[X, Y]
    is a tuple of that length with items of those types, and `X | None` also
    takes None.
    """
    args = typing.get_args(kind)
    if type(None) in args:
        if value is None:
            return
        (kind,) = (arg for arg in args if arg is not type(None))
        args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        if not (isinstance(value, tuple) and len(value) == len(args)):
            raise ConfigError(f"{name} must be {len(args)} numbers, got {value!r}")
        for item, item_kind in zip(value, args):
            check_value(name, item, item_kind)
        return
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, _NUMBER):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if (kind is float or isinstance(value, (float, np.floating))) and not _is_finite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if kind is int and not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def load_json(path, label: str, error: type[Exception]) -> dict:
    """Read a JSON object from `path`; raise `error` naming `label` if the file
    is missing, is not JSON, holds NaN or Infinity, or is not an object."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f, parse_constant=_reject_constant)
    except FileNotFoundError as exc:
        raise error(f"{label} not found: {path}") from exc
    except ValueError as exc:  # JSONDecodeError, or a NaN/Infinity constant
        raise error(f"{label} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{label} must be a JSON object")
    return data
