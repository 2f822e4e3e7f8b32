"""Small shared helpers: deterministic seeding, log factorials and number formatting."""

from __future__ import annotations

import hashlib
import math

import numpy as np


def stable_seed(*parts) -> int:
    """Derive a reproducible 32-bit seed from arbitrary labels.

    Hash-based so that nested tasks (grid point index, start index, ...)
    get independent streams that do not depend on execution order.
    """
    payload = "::".join(map(str, parts)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") % (2**32)


def log_factorials(ns) -> np.ndarray:
    """log(n!) for each integer n in ns, from the standard library alone.

    Exact factorials below 40, where math.lgamma is off by up to 3 ulp and
    the factorial is cheap; math.lgamma(n + 1) from 40 on.
    """
    return np.array([math.log(math.factorial(n)) if n < 40 else math.lgamma(n + 1.0) for n in ns], dtype=float)


def fmt12(x) -> str:
    """Format a number with 12 significant digits (CSV cell format)."""
    if type(x) is float:  # the common cell, first
        return f"{x:.12g}"
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.12g}"
