"""Exception types shared across the package, and the one JSON-file reader.

The split matters for the CLI, which maps each category to a distinct
exit code (config -> 2, data -> 3, numeric -> 4).
"""

import json


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
