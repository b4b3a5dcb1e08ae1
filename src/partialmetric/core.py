"""Finite partial metric spaces: exact tables, axiom verdicts, derived metrics.

A partial metric keeps the familiar symmetry and (sharpened) triangle
inequality but allows a point to sit at a positive distance from itself.
The four defining axioms, checked exhaustively here, are

    P1  x = y  iff  p(x,x) = p(x,y) = p(y,y)
    P2  p(x,x) <= p(y,x)
    P3  p(x,y) = p(y,x)
    P4  p(x,y) <= p(x,z) + p(z,y) - p(z,z)

A table is stored once, as integer numerators over one denominator; the
scans, derived metrics and probes compare those integers, and only a
reported value is a ``fractions.Fraction``. No verdict uses floats.

A table answers the members a catalog space declares (``canonical_sample``,
``finite_sample()``, ``declared_rho_p``, ``declared_bottom``, ``scope``) from
its own table, so no caller asks which kind of space it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import kernels
from .errors import DomainError, MetadataError, StructureError
from .points import Point, Record, format_point, read_json, read_points, read_ratio, to_json

AXIOM_NAMES = {1: "P1", 2: "P2", 3: "P3", 4: "P4"}


def _read_entry(v) -> tuple[int, int]:
    """An entry's (numerator, denominator) as written; text is read by :func:`read_ratio`."""
    if isinstance(v, str):
        return read_ratio(v)
    q = v if type(v) is Fraction else Fraction(v)
    return q.numerator, q.denominator


def _read_row(row: Sequence, read: dict) -> Iterator[tuple[int, ...]]:
    """A row's numerators and denominators as written, as two tuples.

    A row of text reads the texts that are not yet in the table's memo
    ``read`` into it, once each and in set order, and then every cell by
    lookup. Any other row is read cell by cell, and so is a row of text
    with a bad or non-text entry, read again, so that the first bad entry
    in row order is the one reported.
    """
    if type(row[0]) is str:
        try:
            fresh = set(row).difference(read)
            read.update(zip(fresh, map(read_ratio, fresh)))
            return zip(*map(read.__getitem__, row))
        except (ValueError, TypeError):
            pass
    return zip(*map(_read_entry, row))


@dataclass(frozen=True)
class BottomDecl:
    """A bottom set: its finite ``members`` (possibly none), or ``None`` and a predicate."""

    members: Optional[tuple[Point, ...]]
    predicate: Optional[Callable[[Point], bool]] = None

    @classmethod
    def finite(cls, members: Sequence[Point]) -> "BottomDecl":
        return cls(tuple(members))

    @classmethod
    def from_predicate(cls, pred: Callable[[Point], bool]) -> "BottomDecl":
        return cls(None, pred)

    def contains(self, z: Point) -> bool:
        return z in self.members if self.members is not None else self.predicate(z)


# The common denominator of a table's entries as written may have at most
# this many bits. A scaled numerator is at most this much wider than its
# entry, so the cap bounds the work per cell of the constructor and the
# scans; without it n^2 distinct denominators could make every cell n^2
# times as wide as one entry.
MAX_DEN_BITS = 1024


class FinitePMSpace:
    """A finite space given by an explicit rational distance table.

    The constructor enforces only structural validity (square table of
    nonnegative rationals over distinct points) and stores rows ``num``
    of integer numerators over ``den``, the lcm of the reduced
    denominators; the axioms themselves are the business of
    :func:`check_axioms`, so that broken tables can be loaded and
    diagnosed.

    Each entry is read as a pair of ints: text by :func:`points.read_ratio`,
    a ``Fraction`` as its numerator and denominator, anything else through
    ``Fraction(v)``; no ``Fraction`` is built for text. A row of text goes
    through a memo kept for the table, so each distinct text is read once
    and every other cell is a dict lookup. The gain rests on repeated
    texts (the benchmark's n=112 tables hold 168 distinct texts in 12,544
    cells); a table whose texts are all distinct pays for the memo and
    saves no read, and loads 1.2-1.4x slower than a per-cell read. Other
    rows are read cell by cell, since hashing a ``Fraction`` costs more
    than reading it. The pairs are brought over L, the lcm of their
    denominators as written, and then divided by g = gcd(L, all
    numerators), so ``den`` = L/g is the least denominator that makes
    every entry an integer. A table whose L passes ``2**MAX_DEN_BITS`` is
    refused before any numerator is scaled.
    """

    scope = "exhaustive"  # pair verdicts cover every pair of the table

    def __init__(self, points: Sequence[Point], matrix: Sequence[Sequence[Fraction | int]]):
        pts = tuple(points)
        n = len(pts)
        if not pts:
            raise StructureError("a space needs at least one point")
        if len(set(pts)) != n:
            raise StructureError("duplicate points in space")
        if len(matrix) != n:
            raise StructureError(f"table has {len(matrix)} rows for {n} points")
        rows, dens, read = [], set(), {}
        for row in matrix:
            if len(row) != n:
                raise StructureError("table is not square")
            try:
                nums, row_dens = _read_row(row, read)
            except ValueError as exc:
                raise StructureError(str(exc)) from exc
            if min(nums) < 0:
                raise StructureError("distances must be nonnegative")
            rows.append((nums, row_dens))
            dens.update(row_dens)
        den = 1
        for d in dens:
            den = math.lcm(den, d)
            if den.bit_length() > MAX_DEN_BITS:
                raise StructureError(f"the common denominator of the entries as written "
                                     f"has more than {MAX_DEN_BITS} bits")
        scale = {d: den // d for d in dens}
        num = tuple(tuple(map(mul, nums, map(scale.__getitem__, row_dens)))
                    for nums, row_dens in rows)
        g = math.gcd(den, *(math.gcd(*row) for row in num))
        if g > 1:  # some entry was written unreduced
            den //= g
            num = tuple(tuple(v // g for v in row) for row in num)
        self.points: tuple[Point, ...] = pts
        self.den = den
        self.num: tuple[tuple[int, ...], ...] = num
        self._index = {p: i for i, p in enumerate(pts)}

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"FinitePMSpace({len(self)} points)"

    def contains(self, x: Point) -> bool:
        return x in self._index

    def index(self, x: Point) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise DomainError(f"point {format_point(x)} is not in the space") from None

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The table as ``Fraction``s, built on first use."""
        return tuple(tuple(Fraction(v, self.den) for v in row) for row in self.num)

    @cached_property
    def _axiom_report(self) -> AxiomReport:
        """The verdict of :func:`check_axioms`, scanned on first use and kept."""
        hit = kernels.axiom_scan(self.num)
        if hit is None:
            return AxiomReport("pass", None, (), {})
        _, i, j, k = hit
        cells = {1: {"p(x,x)": (i, i), "p(x,y)": (i, j), "p(y,y)": (j, j)},
                 2: {"p(x,x)": (i, i), "p(y,x)": (j, i)},
                 3: {"p(x,y)": (i, j), "p(y,x)": (j, i)},
                 4: {"p(x,y)": (i, j), "p(x,z)": (i, k), "p(z,y)": (k, j), "p(z,z)": (k, k)}}
        witness = tuple(self.points[t] for t in ((i, j) if k < 0 else (i, j, k)))
        values = {key: Fraction(self.num[a][b], self.den)
                  for key, (a, b) in cells[hit.code].items()}
        return AxiomReport("fail", AXIOM_NAMES[hit.code], witness, values)

    def p(self, x: Point, y: Point) -> Fraction:
        return self.matrix[self.index(x)][self.index(y)]

    @property
    def canonical_sample(self) -> tuple[Point, ...]:
        return self.points

    def finite_sample(self) -> "FinitePMSpace":
        return self

    @property
    def declared_rho_p(self) -> Fraction:
        return Fraction(min(row[i] for i, row in enumerate(self.num)), self.den)

    @property
    def declared_bottom(self) -> BottomDecl:
        return BottomDecl.finite(bottom_set(self))

    @classmethod
    def from_function(cls, points: Iterable[Point], dist: Callable[[Point, Point], Fraction]) -> "FinitePMSpace":
        pts = tuple(points)
        return cls(pts, [[dist(x, y) for y in pts] for x in pts])

    def restrict(self, keep: Iterable[Point]) -> "FinitePMSpace":
        """Subspace on ``keep``, in this space's point order."""
        chosen = set(keep)
        missing = chosen - set(self.points)
        if missing:
            raise DomainError(f"points not in space: {sorted(map(format_point, missing))}")
        idx = [i for i, p in enumerate(self.points) if p in chosen]
        return FinitePMSpace(
            [self.points[i] for i in idx],
            [[self.matrix[i][j] for j in idx] for i in idx],
        )

    def to_json_dict(self) -> dict:
        return {"points": to_json(self.points), "p": to_json(self.matrix)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FinitePMSpace":
        try:
            ids, rows = doc["points"], doc["p"]
        except (KeyError, TypeError) as exc:
            raise StructureError(f"space JSON needs 'points' and 'p': {exc}") from exc
        if not isinstance(ids, list):
            raise StructureError("'points' must be a list of point ids")
        points = read_points(ids)
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise StructureError("'p' must be a list of rows, each a list")
        return cls(points, [[str(v) for v in row] for row in rows])

    @classmethod
    def from_json(cls, text: str) -> "FinitePMSpace":
        return cls.from_json_dict(read_json(text))


@dataclass(frozen=True)
class AxiomReport(Record):
    """Verdict of the exhaustive axiom check, with a reproducible witness."""

    verdict: str                       # "pass" | "fail"
    violated_axiom: Optional[str]      # "P1".."P4" when failing
    witness: tuple[Point, ...]         # up to three points
    values: dict[str, Fraction]        # the offending table entries

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


def check_axioms(space: FinitePMSpace) -> AxiomReport:
    """Check P1-P4 over every pair and triple.

    The scan is axiom-major and lexicographic in point indices, so the
    first violation is deterministic and reproducible. It runs once per
    table: later calls return the report the table keeps.
    """
    require_table(space, "check_axioms")
    return space._axiom_report


# Any space with an exact pairwise distance p(x, y) works for the derived
# metrics: finite tables here, formula-backed catalog spaces elsewhere.
def p_m(space, x: Point, y: Point) -> Fraction:
    """Induced metric 2 p(x,y) - p(x,x) - p(y,y); always a true metric."""
    return 2 * space.p(x, y) - space.p(x, x) - space.p(y, y)


def d_metric(space, x: Point, y: Point) -> Fraction:
    """The discrete-collapse metric: p(x,y) off the diagonal, 0 on it."""
    return Fraction(0) if x == y else space.p(x, y)


def rho_of(space) -> Fraction:
    """Infimum of self-distances: a table's least diagonal entry, a catalog space's declaration."""
    rho = space.declared_rho_p
    if rho is None:
        raise MetadataError(f"{space!r} declares no self-distance infimum")
    return rho


def p_bar(space, x: Point, y: Point) -> Fraction:
    """Shifted distance p(x,y) - rho; a metric when restricted to the bottom set."""
    return space.p(x, y) - rho_of(space)


def require_table(space, name: str) -> None:
    """Refuse a space that holds no finite table, before ``name`` reads one.

    The table-only functions read ``num``, ``points`` or ``index``, which
    a catalog space does not have. They do not sample it in its place: a
    catalog space's sample can differ from its declaration (ex5.4 declares
    its bottom set by a predicate), so the caller chooses
    ``space.finite_sample()``.
    """
    if not hasattr(space, "num"):
        raise StructureError(f"{name} needs a finite table; pass space.finite_sample()")


def bottom_set(space: FinitePMSpace) -> tuple[Point, ...]:
    """Points whose self-distance attains the minimum; never empty here."""
    require_table(space, "bottom_set")
    m = space.num
    rho = min(row[i] for i, row in enumerate(m))
    return tuple(p for i, p in enumerate(space.points) if m[i][i] == rho)


def _radius(space: FinitePMSpace, eps: Fraction) -> int:
    """eps in units of 1/den, rounded up: the ball rule on integer rows.

    An integer is below r iff it is below ceil(r), so y lies in the ball
    of radius eps around c iff ``num[c][y] < num[c][c] + _radius(space, eps)``.
    """
    return math.ceil(eps * space.den)


def ball(space: FinitePMSpace, center: Point, eps: Fraction) -> frozenset:
    """Open ball {y : p(center,y) < p(center,center) + eps} of a finite table."""
    require_table(space, "ball")
    if eps <= 0:
        raise ValueError("ball radius must be positive")
    i = space.index(center)
    row = space.num[i]
    bound = row[i] + _radius(space, eps)
    return frozenset(p for j, p in enumerate(space.points) if row[j] < bound)


def ball_masks(space: FinitePMSpace, eps: Fraction) -> list[int]:
    """Every ball at radius eps, by index: bit y of entry c is set iff y lies in ball(c, eps).

    The masks answer what :func:`ball` answers, by the same rule, without
    building or hashing a point. Cost: O(n^2).
    """
    r = _radius(space, eps)
    bits = [1 << y for y in range(len(space))]
    masks = []
    for c, row in enumerate(space.num):
        bound = row[c] + r
        masks.append(sum([bit for bit, v in zip(bits, row) if v < bound]))
    return masks


def diameter(space: FinitePMSpace) -> Fraction:
    require_table(space, "diameter")
    return Fraction(max(map(max, space.num)), space.den)


def minimal_balls(space: FinitePMSpace) -> tuple[tuple[bool, ...], ...]:
    """Row x marks every y that lies in every ball around x: p(x,y) <= p(x,x).

    Balls shrink with the radius and membership changes only at the gaps
    p(x,y) - p(x,x), so row x is the smallest ball around x, reached at
    any radius up to the least positive gap. It fixes the ball topology of
    a finite table, valid or not. Row x always marks x. Cost: O(n^2).
    """
    require_table(space, "minimal_balls")
    return tuple(tuple(v <= row[i] for v in row) for i, row in enumerate(space.num))


def least_gap(space: FinitePMSpace) -> Optional[Fraction]:
    """Smallest positive p(x,y) - p(x,x) over the table, or None when there is none. O(n^2)."""
    gaps = [v - row[i] for i, row in enumerate(space.num) for v in row if v > row[i]]
    return Fraction(min(gaps), space.den) if gaps else None


@dataclass(frozen=True)
class SeparationClass(Record):
    t0: bool
    t1: bool
    hausdorff: bool


def separation_class(space: FinitePMSpace) -> SeparationClass:
    """Separation verdicts of the ball topology, read from :func:`minimal_balls`.

    A ball around x leaves y out at some radius iff row x does not mark
    y. So T0 holds iff no two distinct points mark each other, and T1
    iff every row marks only its own point. Two points are separated by
    balls iff their smallest balls are disjoint, and a mark of y in row
    x puts y in both; so Hausdorff is T1 here. Cost: O(n^2).
    """
    require_table(space, "separation_class")
    rel = minimal_balls(space)
    marks = [(i, j) for i, row in enumerate(rel) for j, on in enumerate(row) if on and i != j]
    t1 = not marks
    return SeparationClass(not any(rel[j][i] for i, j in marks), t1, t1)


# The derived metrics as integer tables over ``den``. No entry point builds
# them, since a valid table's derived metrics are metrics by the lemma in
# ``properties``; they stay as library and test helpers, read with
# ``kernels.metric_scan``, and the tracer resolves them by name.
def p_m_matrix(space: FinitePMSpace) -> list[list[int]]:
    m, n = space.num, len(space)
    return [[2 * m[i][j] - m[i][i] - m[j][j] for j in range(n)] for i in range(n)]


def d_matrix(space: FinitePMSpace) -> list[list[int]]:
    m, n = space.num, len(space)
    return [[0 if i == j else m[i][j] for j in range(n)] for i in range(n)]


def p_bar_matrix(space: FinitePMSpace, restrict: Optional[Iterable[Point]] = None) -> list[list[int]]:
    m = space.num
    idx = range(len(m)) if restrict is None else [space.index(x) for x in restrict]
    rho = min(row[i] for i, row in enumerate(m))
    return [[m[i][j] - rho for j in idx] for i in idx]
