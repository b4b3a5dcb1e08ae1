"""Finite partial metric spaces: exact tables, axiom verdicts, derived metrics.

A partial metric keeps the familiar symmetry and (sharpened) triangle
inequality but allows a point to sit at a positive distance from itself.
The four defining axioms, checked exhaustively here, are

    P1  x = y  iff  p(x,x) = p(x,y) = p(y,y)
    P2  p(x,x) <= p(y,x)
    P3  p(x,y) = p(y,x)
    P4  p(x,y) <= p(x,z) + p(z,y) - p(z,z)

All distances are ``fractions.Fraction``; no verdict in this module ever
depends on floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from . import kernels
from .errors import DomainError, StructureError
from .points import (Point, Record, format_point, parse_point_ids, parse_rational, read_json,
                     to_json)

AXIOM_NAMES = {1: "P1", 2: "P2", 3: "P3", 4: "P4"}


class FinitePMSpace:
    """A finite space given by an explicit rational distance table.

    The constructor enforces only structural validity (square table of
    nonnegative rationals over distinct points); the axioms themselves
    are the business of :func:`check_axioms`, so that broken tables can
    be loaded and diagnosed.
    """

    __slots__ = ("points", "matrix", "_index")

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
            entries = tuple(Fraction(v) for v in row)
            if any(v < 0 for v in entries):
                raise StructureError("distances must be nonnegative")
            rows.append(entries)
        self.points: tuple[Point, ...] = pts
        self.matrix: tuple[tuple[Fraction, ...], ...] = tuple(rows)
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

    def p(self, x: Point, y: Point) -> Fraction:
        return self.matrix[self.index(x)][self.index(y)]

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
        try:
            matrix = [[parse_rational(str(v)) for v in row] for row in rows]
        except ValueError as exc:
            raise StructureError(str(exc)) from exc
        return cls(points, matrix)

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
    hit = kernels.axiom_scan(space.matrix)
    if hit is None:
        return AxiomReport("pass", None, (), {})
    m, pts = space.matrix, space.points
    i, j, k = hit.i, hit.j, hit.k
    if hit.code == 1:
        witness = (pts[i], pts[j])
        values = {"p(x,x)": m[i][i], "p(x,y)": m[i][j], "p(y,y)": m[j][j]}
    elif hit.code == 2:
        witness = (pts[i], pts[j])
        values = {"p(x,x)": m[i][i], "p(y,x)": m[j][i]}
    elif hit.code == 3:
        witness = (pts[i], pts[j])
        values = {"p(x,y)": m[i][j], "p(y,x)": m[j][i]}
    else:
        witness = (pts[i], pts[j], pts[k])
        values = {"p(x,y)": m[i][j], "p(x,z)": m[i][k], "p(z,y)": m[k][j], "p(z,z)": m[k][k]}
    return AxiomReport("fail", AXIOM_NAMES[hit.code], witness, values)


# Any object with an exact pairwise distance p(x, y) works for the derived
# metrics: finite tables here, formula-backed catalog spaces elsewhere.
def p_m(space, x: Point, y: Point) -> Fraction:
    """Induced metric 2 p(x,y) - p(x,x) - p(y,y); always a true metric."""
    return 2 * space.p(x, y) - space.p(x, x) - space.p(y, y)


def d_metric(space, x: Point, y: Point) -> Fraction:
    """The discrete-collapse metric: p(x,y) off the diagonal, 0 on it."""
    return Fraction(0) if x == y else space.p(x, y)


def rho_of(space) -> Fraction:
    """Infimum of self-distances: computed for finite tables, declared otherwise."""
    if isinstance(space, FinitePMSpace):
        return min(space.matrix[i][i] for i in range(len(space)))
    declared = getattr(space, "declared_rho_p", None)
    if declared is None:
        from .errors import MetadataError

        raise MetadataError(f"space {space!r} declares no self-distance infimum")
    return declared


def p_bar(space, x: Point, y: Point) -> Fraction:
    """Shifted distance p(x,y) - rho; a metric when restricted to the bottom set."""
    return space.p(x, y) - rho_of(space)


def bottom_set(space: FinitePMSpace) -> tuple[Point, ...]:
    """Points whose self-distance attains the minimum; never empty here."""
    rho = rho_of(space)
    return tuple(p for i, p in enumerate(space.points) if space.matrix[i][i] == rho)


def ball(space, center: Point, eps: Fraction):
    """Open ball {y : p(center,y) < p(center,center) + eps}.

    Materialized as a frozenset for finite tables; a membership predicate
    for formula-backed spaces.
    """
    if eps <= 0:
        raise ValueError("ball radius must be positive")
    bound = space.p(center, center) + eps
    if isinstance(space, FinitePMSpace):
        i = space.index(center)
        return frozenset(p for j, p in enumerate(space.points) if space.matrix[i][j] < bound)
    return lambda y: space.p(center, y) < bound


def diameter(space: FinitePMSpace) -> Fraction:
    return max(v for row in space.matrix for v in row)


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
    m, n = space.matrix, len(space)
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


def p_m_matrix(space: FinitePMSpace) -> list[list[Fraction]]:
    pts = space.points
    return [[p_m(space, x, y) for y in pts] for x in pts]


def d_matrix(space: FinitePMSpace) -> list[list[Fraction]]:
    pts = space.points
    return [[d_metric(space, x, y) for y in pts] for x in pts]


def p_bar_matrix(space: FinitePMSpace, restrict: Optional[Iterable[Point]] = None) -> list[list[Fraction]]:
    pts = tuple(restrict) if restrict is not None else space.points
    rho = rho_of(space)
    return [[space.p(x, y) - rho for y in pts] for x in pts]
