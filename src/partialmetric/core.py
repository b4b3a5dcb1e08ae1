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
from typing import Callable, Iterable, Optional, Sequence

from . import kernels
from .errors import DomainError, MetadataError, StructureError
from .points import (Point, Record, format_point, parse_point_ids, parse_rational, read_json,
                     to_json)

AXIOM_NAMES = {1: "P1", 2: "P2", 3: "P3", 4: "P4"}


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


class FinitePMSpace:
    """A finite space given by an explicit rational distance table.

    The constructor enforces only structural validity (square table of
    nonnegative rationals over distinct points; a text entry is read as
    by :func:`points.parse_rational`) and stores rows ``num`` of integer
    numerators over ``den``, the lcm of the reduced denominators; the
    axioms themselves are the business of :func:`check_axioms`, so that
    broken tables can be loaded and diagnosed.
    """

    scope = "exhaustive"  # pair verdicts cover every pair of the table

    def __init__(self, points: Sequence[Point], matrix: Sequence[Sequence[Fraction | int]]):
        pts = tuple(points)
        if not pts:
            raise StructureError("a space needs at least one point")
        if len(set(pts)) != len(pts):
            raise StructureError("duplicate points in space")
        if len(matrix) != len(pts):
            raise StructureError(f"table has {len(matrix)} rows for {len(pts)} points")
        rows = []
        for row in matrix:
            if len(row) != len(pts):
                raise StructureError("table is not square")
            try:
                # Text goes through the one rational reader, which refuses exponents.
                entries = tuple(v if type(v) is Fraction
                                else parse_rational(v) if isinstance(v, str) else Fraction(v)
                                for v in row)
            except ValueError as exc:
                raise StructureError(str(exc)) from exc
            if any(v < 0 for v in entries):
                raise StructureError("distances must be nonnegative")
            rows.append(entries)
        self.points: tuple[Point, ...] = pts
        self.den = den = math.lcm(*{q.denominator for row in rows for q in row})
        self.num: tuple[tuple[int, ...], ...] = tuple(
            tuple(q.numerator * (den // q.denominator) for q in row) for row in rows)
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
        points = parse_point_ids([str(s) for s in ids])
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
    first violation is deterministic and reproducible.
    """
    hit = kernels.axiom_scan(space.num)
    if hit is None:
        return AxiomReport("pass", None, (), {})
    _, i, j, k = hit
    cells = {1: {"p(x,x)": (i, i), "p(x,y)": (i, j), "p(y,y)": (j, j)},
             2: {"p(x,x)": (i, i), "p(y,x)": (j, i)},
             3: {"p(x,y)": (i, j), "p(y,x)": (j, i)},
             4: {"p(x,y)": (i, j), "p(x,z)": (i, k), "p(z,y)": (k, j), "p(z,z)": (k, k)}}
    witness = tuple(space.points[t] for t in ((i, j) if k < 0 else (i, j, k)))
    values = {key: Fraction(space.num[a][b], space.den) for key, (a, b) in cells[hit.code].items()}
    return AxiomReport("fail", AXIOM_NAMES[hit.code], witness, values)


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


def bottom_set(space: FinitePMSpace) -> tuple[Point, ...]:
    """Points whose self-distance attains the minimum; never empty here."""
    m = space.num
    rho = min(row[i] for i, row in enumerate(m))
    return tuple(p for i, p in enumerate(space.points) if m[i][i] == rho)


def ball(space: FinitePMSpace, center: Point, eps: Fraction) -> frozenset:
    """Open ball {y : p(center,y) < p(center,center) + eps} of a finite table."""
    if eps <= 0:
        raise ValueError("ball radius must be positive")
    i = space.index(center)
    row = space.num[i]
    bound = row[i] + math.ceil(eps * space.den)  # an integer is below r iff below ceil(r)
    return frozenset(p for j, p in enumerate(space.points) if row[j] < bound)


def diameter(space: FinitePMSpace) -> Fraction:
    return Fraction(max(map(max, space.num)), space.den)


@dataclass(frozen=True)
class SeparationClass(Record):
    t0: bool
    t1: bool
    hausdorff: bool


def separation_class(space: FinitePMSpace) -> SeparationClass:
    """Separation verdicts of the ball topology.

    T1 holds iff every cross distance strictly exceeds both self
    distances. For Hausdorff it is enough to look at the smallest balls:
    membership of y in B(x, eps) only changes at the thresholds
    p(x,y) - p(x,x), and balls shrink with eps, so two points can be
    separated iff their minimal balls {y : p(x,y) = p(x,x)} are disjoint.
    """
    m, n = space.num, len(space)
    t0 = all(
        not (m[i][i] == m[i][j] == m[j][j])
        for i in range(n)
        for j in range(n)
        if i != j
    )
    t1 = all(
        m[i][j] > m[i][i] and m[i][j] > m[j][j]
        for i in range(n)
        for j in range(i + 1, n)
    )
    minball = [frozenset(j for j in range(n) if m[i][j] == m[i][i]) for i in range(n)]
    hausdorff = all(
        not (minball[i] & minball[j]) for i in range(n) for j in range(i + 1, n)
    )
    return SeparationClass(t0, t1, hausdorff)


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
