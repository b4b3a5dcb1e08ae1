"""Backend dispatch for the table scans.

Verdicts are computed on integer numerators over the table's common
denominator, so every comparison is exact. The compiled extension is
used when it imported cleanly and the numerators fit comfortably in
int64; otherwise the pure-Python reference runs.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import _scan_py

try:
    from . import _scan as _scan_c  # type: ignore[attr-defined]
except ImportError:
    _scan_c = None

# Headroom for the three-term combination in the triangle scans.
_INT64_SAFE = 1 << 61


class Violation(NamedTuple):
    code: int
    i: int
    j: int
    k: int


def compiled_available() -> bool:
    return _scan_c is not None


def active_backend() -> str:
    """Name of the backend the next scan would use for int64-safe tables."""
    return "compiled" if compiled_available() else "pure"


def flatten_numerators(matrix: Sequence[Sequence[Fraction]]) -> list[int]:
    """Flatten a rational table to numerators over its lcm denominator."""
    dens = {q.denominator for row in matrix for q in row}
    lcm = math.lcm(*dens)
    return [q.numerator * (lcm // q.denominator) for row in matrix for q in row]


def _dispatch(scan_name: str, matrix) -> Optional[Violation]:
    n = len(matrix)
    flat = flatten_numerators(matrix)
    if _scan_c is not None and flat and max(abs(v) for v in flat) < _INT64_SAFE:
        hit = getattr(_scan_c, scan_name)(array("q", flat), n)
    else:
        # No extension, or numerators too wide for int64: exact pure ints.
        hit = getattr(_scan_py, scan_name)(flat, n)
    return Violation(*hit) if hit is not None else None


def axiom_scan(matrix: Sequence[Sequence[Fraction]]) -> Optional[Violation]:
    """First partial-metric axiom violation in canonical order, or None."""
    return _dispatch("axiom_scan", matrix)


def metric_scan(matrix: Sequence[Sequence[Fraction]]) -> Optional[Violation]:
    """First metric axiom violation in canonical order, or None."""
    return _dispatch("metric_scan", matrix)
