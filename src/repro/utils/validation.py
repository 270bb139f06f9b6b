"""Input-validation helpers shared across subsystems.

These raise early with actionable messages rather than letting NaNs and
negative rates propagate into simulations or training.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


def check_finite(x: np.ndarray, name: str = "array") -> np.ndarray:
    """Raise ``ValueError`` if ``x`` contains NaN or infinity."""
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return x


def check_positive(x: float, name: str = "value", strict: bool = True) -> float:
    """Raise ``ValueError`` unless ``x`` is positive (or non-negative)."""
    if strict and not x > 0:
        raise ValueError(f"{name} must be > 0, got {x}")
    if not strict and not x >= 0:
        raise ValueError(f"{name} must be >= 0, got {x}")
    return x


def check_probability_vector(p: np.ndarray, name: str = "probability vector") -> np.ndarray:
    """Validate that ``p`` is a 1-D non-negative vector summing to one."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {p.shape}")
    if np.any(p < -1e-12):
        raise ValueError(f"{name} has negative entries")
    if not np.isclose(p.sum(), 1.0, atol=1e-8):
        raise ValueError(f"{name} must sum to 1, sums to {p.sum()}")
    return p


def check_sorted(x: np.ndarray, name: str = "array", strict: bool = False) -> np.ndarray:
    """Validate that ``x`` is sorted in non-decreasing (or increasing) order."""
    x = np.asarray(x)
    d = np.diff(x)
    if strict and np.any(d <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    if not strict and np.any(d < 0):
        raise ValueError(f"{name} must be sorted in non-decreasing order")
    return x


# ------------------------------------------------------ JSON config schemas
# Shared by the generation, outage and fleet loaders: every violation raises
# ConfigError naming the field's path, e.g. ``endpoints[1].slo: ...``.
class ConfigError(ValueError):
    """A config document failed validation; the message names the path."""


def load_json_config(path: str | os.PathLike):
    """Parse a JSON config file; an unreadable file or invalid JSON raises
    :class:`ConfigError` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {os.fspath(path)}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{os.fspath(path)} is not valid JSON: {exc}"
        ) from exc


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _check_keys(obj: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        _fail(path, f"unknown keys {unknown} (allowed: {sorted(allowed)})")


def _object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"must be an object, got {type(obj).__name__}")
    return obj


def _number(obj: dict, key: str, path: str, default=None, *,
            required: bool = False, minimum: float | None = None,
            maximum: float | None = None, strict: bool = False,
            nullable: bool = False):
    """``obj[key]`` as a finite float (``strict``: ``> minimum``)."""
    if key not in obj:
        if required:
            _fail(f"{path}.{key}", "is required")
        return default
    v = obj[key]
    if v is None and nullable:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}.{key}", f"must be a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        _fail(f"{path}.{key}", f"must be finite, got {v!r}")
    if minimum is not None:
        if strict and not v > minimum:
            _fail(f"{path}.{key}", f"must be > {minimum:g}, got {v:g}")
        if not strict and not v >= minimum:
            _fail(f"{path}.{key}", f"must be >= {minimum:g}, got {v:g}")
    if maximum is not None and v > maximum:
        _fail(f"{path}.{key}", f"must be <= {maximum:g}, got {v:g}")
    return v


def _integer(obj: dict, key: str, path: str, default=None, *,
             required: bool = False, minimum: int | None = None,
             nullable: bool = False):
    """``obj[key]`` as an int (booleans rejected)."""
    if key not in obj:
        if required:
            _fail(f"{path}.{key}", "is required")
        return default
    v = obj[key]
    if v is None and nullable:
        return None
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"{path}.{key}", f"must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}, got {v}")
    return v
