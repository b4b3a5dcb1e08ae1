"""The table scans.

A scan reads a table as its space stores it: rows of integer numerators
over one common denominator (plain Python ints, so arbitrary
precision), so every comparison is exact. Each scan returns the first
violation in canonical (axiom, i, j, k) order, or None. That order is
pinned by the brute-force oracles in ``tests/oracles.py``.

The triangle phase tests a whole pair of rows at once: each row is packed
into one int with a fixed-width field per column, so a few big-int
operations and one mask test check every k of an unordered pair i < j.
The phase runs only on a symmetric table, where (i, j, k) fails iff
(j, i, k) does, so the n(n-1)/2 pairs cover every triple. Only a row
with a violation is then walked triple by triple, in canonical order,
for its first (j, k).

A packed field is two or three bits wider than the spread it holds, so
a pair test costs a few big-int operations on about n * w bits. A table
whose spread (largest entry minus least) has at most ``COARSE_BITS`` =
16 bits gets one exact pass, O(n^3 * 16) bit operations. A wider table
first gets a coarse pass on the top 16 bits of its spread, the same
O(n^3 * 16); when it flags no row, as on a valid table with no
near-tight triangle, that is the whole scan, whatever the width.
Otherwise the exact test, on fields as wide as the spread, runs on the
flagged rows only, about n^2 * w bit operations per row, and stops at
the first row that truly fails.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat
from operator import add, and_, mul, sub
from typing import NamedTuple, Optional, Sequence

# ``perfbench/`` is the only reader of the four names that follow; the
# benchmark change in ROADMAP item 1 retires them. No entry point calls
# ``metric_scan`` either: the derived metrics of a valid table are metrics
# by the lemma in ``properties``. It stays as a library and test helper,
# and the tracer resolves it by name.
_INT64_SAFE = 1 << 61


def active_backend() -> str:
    return "pure"


def compiled_available() -> bool:
    return False


def flatten_numerators(matrix: Sequence[Sequence[Fraction]]) -> list[int]:
    """Flatten a rational table to numerators over its lcm denominator."""
    dens = {q.denominator for row in matrix for q in row}
    lcm = math.lcm(*dens)
    return [q.numerator * (lcm // q.denominator) for row in matrix for q in row]


class Violation(NamedTuple):
    code: int
    i: int
    j: int
    k: int


def axiom_scan(m: Sequence[Sequence[int]]) -> Optional[Violation]:
    """First violation of the partial-metric axioms in the integer table ``m``.

    Codes: 1 distinct points share self/cross/self values, 2 a
    self-distance exceeds a cross distance, 3 asymmetry, 4 the sharpened
    triangle inequality fails. k is -1 for the pair axioms.

    Each pair axiom first tests a whole row or column with one C-level
    call (``count``, ``min``, ``!=``) and walks pair by pair only a line
    that test flags, in order, so the witness is the canonical first one.
    """
    n = len(m)
    diag = [m[i][i] for i in range(n)]
    for i, row in enumerate(m):
        ii = diag[i]
        if row.count(ii) > 1 and diag.count(ii) > 1:
            for j in range(n):
                if i != j and ii == row[j] == diag[j]:
                    return Violation(1, i, j, -1)
    cols = list(zip(*m))
    for i, col in enumerate(cols):
        ii = diag[i]
        if min(col) < ii:
            for j in range(n):
                if ii > col[j]:  # col[i] is ii itself, so j != i here
                    return Violation(2, i, j, -1)
    return _asymmetry(m, cols) or _triangle_scan(m)


def metric_scan(m: Sequence[Sequence[int]]) -> Optional[Violation]:
    """First violation of the metric axioms in the integer table ``m``.

    Codes: 1 nonzero self-distance, 2 zero or negative distance between
    distinct points, 3 asymmetry, 4 triangle inequality failure.
    """
    n = len(m)
    for i in range(n):
        if m[i][i] != 0:
            return Violation(1, i, i, -1)
    for i, row in enumerate(m):
        if min(row) < 0 or row.count(0) > 1:  # row[i] is the one zero allowed
            for j in range(n):
                if i != j and row[j] <= 0:
                    return Violation(2, i, j, -1)
    # The diagonal is zero here, so the metric triangle is the sharpened one.
    return _asymmetry(m, list(zip(*m))) or _triangle_scan(m)


def _asymmetry(m, cols):
    """First (3, i, j, -1), i < j, with p(i,j) != p(j,i), or None.

    The first row i that differs from column i differs from it at some
    j > i: a difference at j < i alone would have flagged row j first.
    """
    n = len(m)
    for i, col in enumerate(cols):
        row = m[i]
        if tuple(row) != col:
            for j in range(i + 1, n):
                if row[j] != col[j]:
                    return Violation(3, i, j, -1)
    return None


def _triangle_scan(m):
    """First (4, i, j, k) with p(i,j) > p(i,k) + p(k,j) - p(k,k), or None.

    The table is symmetric here, so (i, j, k) fails iff (j, i, k) does,
    and j = i never fails (see ``_violating_rows``). A failure at j < i
    would make row j an earlier failing row, so the first failing row
    fails only at some j > i, and that row, the first that
    ``_violating_rows`` names, is walked over those j alone: the witness
    is the canonical first one.
    """
    n = len(m)
    for i in _violating_rows(m):
        row = m[i]
        for j in range(i + 1, n):
            ij = row[j]
            for k in range(n):
                if ij > row[k] + m[k][j] - m[k][k]:
                    return Violation(4, i, j, k)
    return None


# A table whose spread (largest entry minus least) has more bits than this
# is scanned twice: a coarse pass on the top COARSE_BITS bits of the
# spread, then the exact pass on the rows the coarse pass flags.
COARSE_BITS = 16
# The coarse pass flags a row when some field has T > -COARSE_SLACK, that
# is T >= -1; see ``_violating_rows`` for why that is enough.
COARSE_SLACK = 2


def _violating_rows(m):
    """Each row i, in order, with some p(i,j) > p(i,k) + p(k,j) - p(k,k), j > i.

    The caller has passed symmetry, so the test at (i, j, k) is
    x = p(i,j) + p(k,k) - p(i,k) - p(j,k) > 0, the same for (j, i, k);
    ``_pair_test`` makes it for every k of a pair at once. j = i never
    fails, so n(n-1)/2 pair tests cover every triple, and a row that
    fails only at some j < i is not named; the first failing row always
    fails at some j > i, so it is the first one named.

    A table whose spread has at most ``COARSE_BITS`` bits gets that test
    on every row. A wider one is first tested coarsely, on
    t = (v - lo) >> s with s = spread bits - ``COARSE_BITS`` (lo the least
    entry), where a row is flagged when some (j, k) has
    T = t(i,j) + t(k,k) - t(i,k) - t(j,k) >= -1; the exact test then
    runs on the flagged rows alone, in order, and the exact rows are
    packed only once some row is flagged.

    Lemma: the coarse rows include every row named here. Write
    v - lo = 2^s t + r with 0 <= r < 2^s. The lo terms cancel in x, so
    x = 2^s T + R with R = r(i,j) + r(k,k) - r(i,k) - r(j,k), and
    |R| < 2^(s+1). So x >= 1 gives 2^s T > 1 - 2^(s+1), so T > -2: T >= -1.
    The first failing row is therefore among the coarse rows, and the
    witness stays the canonical one. At k = i and k = j, T = 0 on every
    symmetric table; the coarse test's own-diagonal raise (see
    ``_pair_test``) keeps those fields unflagged.
    """
    if not m:
        return iter(())
    lo = min(map(min, m))
    span = max(map(max, m)) - lo
    rows = _coarse_rows(m, lo, span)
    first = next(rows, None)
    if first is None:
        return iter(())
    return filter(_pair_test(m, lo, span, 0), chain((first,), rows))


def _coarse_rows(m, lo, span):
    """The rows the coarse test flags, lazily in order; every row but the last when
    ``span`` (largest entry of ``m`` minus ``lo``, its least) has at most
    ``COARSE_BITS`` bits."""
    rows = range(len(m) - 1)
    shift = span.bit_length() - COARSE_BITS
    if shift <= 0:
        return iter(rows)
    coarse = [[(v - lo) >> shift for v in row] for row in m]
    return filter(_pair_test(coarse, 0, span >> shift, COARSE_SLACK), rows)


def _pair_test(m, lo, span, slack):
    """Pack ``m`` and return a test of row i against every later row: does some
    p(i,j) + p(k,k) - p(i,k) - p(j,k) exceed -slack, j > i, k not in {i, j}?

    ``lo`` is the least entry and ``span`` the largest minus lo. Rows are
    packed shifted by lo into fields w bits wide, the diagonal too (field
    k of ``diag`` is p(k,k) - lo), and each row's own diagonal field is
    raised by 2*slack. For a pair i < j, field k of

        (half + slack) * ONES + diag - packed[i] - packed[j] + (p(i,j) - lo) * ONES

    holds half + slack + x, whose guard bit (w-1) is set exactly when
    x > -slack; at k = i and k = j, where x = 0 on a symmetric table,
    the raise leaves half - slack, so those fields are never set. The
    caller guarantees p(k,k) <= p(i,k) for all i, k: the axiom scan has
    passed P2; the metric scan has passed identity and positivity, so
    p(k,k) = 0 = lo <= p(i,k); the coarse table keeps it, as v >> s is
    monotone. Every field then lies in [half - slack - 2*span,
    half + slack + span], inside [0, 2^w), so no field borrows from or
    carries into the next and the sum is exact field by field. The same
    bound gives j = i no failure: p(i,i) <= p(i,k) and p(k,k) <= p(i,k).
    """
    n = len(m)
    w = (2 * span + 2 + slack).bit_length() + 1
    half = (1 << (w - 1)) - 1
    ones = int(("0" * (w - 1) + "1") * n, 2)
    guard = ones << (w - 1)

    def pack(values):
        # Field k holds values[k] - lo; column 0 sits in the lowest field.
        fields = 0
        for v in reversed(values):
            fields = fields << w | v - lo
        return fields

    packed = list(map(pack, m))
    if slack:
        packed = [row + (2 * slack << w * i) for i, row in enumerate(packed)]
    base = (half + slack - lo) * ones + pack([m[k][k] for k in range(n)])

    def fails(i):
        sums = map(sub, repeat(base - packed[i]), packed[i + 1:])
        spread = map(mul, m[i][i + 1:], repeat(ones))  # p(i,j) in every field
        return any(map(and_, map(add, sums, spread), repeat(guard)))

    return fails
