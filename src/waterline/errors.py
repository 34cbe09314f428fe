"""Exception types shared across the package, and the one JSON-file reader.

The split matters for the CLI, which maps each category to a distinct
exit code (config -> 2, data -> 3, numeric -> 4).
"""

import dataclasses
import json
import math


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


def reject_non_finite(config) -> None:
    """Raise ConfigError if a float field of dataclass `config`, or a float in
    one of its tuple fields, is NaN or infinite (JSON's 1e999 parses to inf)."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


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
