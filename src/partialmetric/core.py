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
from .errors import DomainError, MetadataError, SizeLimitError, StructureError
from .points import Point, Record, format_point, read_json, read_points, read_ratio, to_json

AXIOM_NAMES = {1: "P1", 2: "P2", 3: "P3", 4: "P4"}


def _read_entry(v) -> tuple[int, int]:
    """An entry's (numerator, denominator) as written; text is read by :func:`read_ratio`."""
    if isinstance(v, str):
        return read_ratio(v)
    q = v if type(v) is Fraction else Fraction(v)
    return q.numerator, q.denominator


def _read_texts(matrix: Sequence, n: int) -> Optional[tuple[list[tuple[int, ...]], int]]:
    """Rows of a table of text over their common denominator, each distinct text read
    once; ``None`` if the table is not square, its first entry is no text (hashing a
    ``Fraction`` costs more than reading it), or an entry is no rational text or < 0."""
    if not all(len(row) == n for row in matrix) or type(matrix[0][0]) is not str:
        return None
    try:
        texts = list(set().union(*matrix))
        nums, dens = zip(*map(read_ratio, texts))
    except (ValueError, TypeError):
        return None
    if min(nums) < 0:
        return None
    den, scale = _lcm_scales(set(dens))
    value = dict(zip(texts, map(mul, nums, map(scale.__getitem__, dens))))
    return [tuple(map(value.__getitem__, row)) for row in matrix], den


def _lcm_scales(dens: set[int]) -> tuple[int, dict[int, int]]:
    """L = lcm(dens), refused once it passes ``MAX_DEN_BITS`` bits, and L // d for each d."""
    den = 1
    for d in dens:
        den = math.lcm(den, d)
        if den.bit_length() > MAX_DEN_BITS:
            raise StructureError(f"the common denominator of the entries as written "
                                 f"has more than {MAX_DEN_BITS} bits")
    return den, {d: den // d for d in dens}


def _table_points(points: Iterable[Point], rows: Sequence) -> tuple[Point, ...]:
    """The points of a table with ``rows``, refused before any entry is read: none, a
    duplicate, or a row count that is not the point count."""
    pts = tuple(points)
    if not pts:
        raise StructureError("a space needs at least one point")
    if len(set(pts)) != len(pts):
        raise StructureError("duplicate points in space")
    if len(rows) != len(pts):
        raise StructureError(f"table has {len(rows)} rows for {len(pts)} points")
    return pts


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
# A stored numerator may have at most this many bits: an entry of up to
# MAX_DEN_BITS bits over a common denominator at its cap. The triangle
# scan reads a wide table's top 16 bits first, O(n^3 * 16) bit operations
# whatever the width; only the rows that coarse pass flags are tested on
# fields as wide as the numerators, so this bounds the work per flagged
# row (see the README's "Scan" section).
MAX_NUM_BITS = 2 * MAX_DEN_BITS


class FinitePMSpace:
    """A finite space given by an explicit rational distance table.

    The constructor enforces only structural validity (square table of
    nonnegative rationals over distinct points) and keeps rows ``num``
    of integer numerators over ``den``, the lcm of the reduced
    denominators; the axioms themselves are the business of
    :func:`check_axioms`, so that broken tables can be loaded and
    diagnosed. ``num`` over ``den`` is the table's one representation:
    :meth:`p` makes one ``Fraction`` per call, and ``matrix`` is a view
    built on each read. Besides them a table keeps its point index and,
    once read, its axiom verdict and its minimal balls.

    Each entry is read as a pair of ints: text by :func:`points.read_ratio`,
    a ``Fraction`` as its numerator and denominator, anything else through
    ``Fraction(v)``. A square table whose first entry is text is read
    table-wide: each distinct text once, then each row by lookup. Any other
    table, and one with a fault, is read cell by cell in row order, so the
    first fault met is the one reported. The pairs are brought over L, the
    lcm of their denominators as written, and divided by g = gcd(L, all
    numerators): ``den`` = L/g is the least denominator that makes every
    entry an integer. A table whose L passes ``2**MAX_DEN_BITS`` is refused
    before any numerator is scaled, and one whose numerator over ``den``
    passes ``2**MAX_NUM_BITS`` when it is stored.

    The builders that hold integer rows already (:meth:`restrict` and
    ``catalog.random_pm_space``) hand them to the same store through
    ``_over``, which reads no entry. Both entries run the same point
    checks first, and the store's gcd reduction and width cap last.
    """

    scope = "exhaustive"  # pair verdicts cover every pair of the table

    def __init__(self, points: Sequence[Point], matrix: Sequence[Sequence[Fraction | int]]):
        pts = _table_points(points, matrix)
        n = len(pts)
        if read := _read_texts(matrix, n):
            self._store(pts, *read)
            return
        rows, dens = [], set()
        for row in matrix:  # in row order, so that the first fault met is reported
            if len(row) != n:
                raise StructureError("table is not square")
            try:
                nums, row_dens = zip(*map(_read_entry, row))
            except ValueError as exc:
                raise StructureError(str(exc)) from exc
            if min(nums) < 0:
                raise StructureError("distances must be nonnegative")
            rows.append((nums, row_dens))
            dens.update(row_dens)
        den, scale = _lcm_scales(dens)
        self._store(pts, [tuple(map(mul, nums, map(scale.__getitem__, row_dens)))
                          for nums, row_dens in rows], den)

    @classmethod
    def _over(cls, points: Sequence[Point], num: Sequence[Sequence[int]],
              den: int) -> "FinitePMSpace":
        """The table of square rows ``num`` of nonnegative ints over ``den``; no entry is read."""
        space = cls.__new__(cls)
        space._store(_table_points(points, num), num, den)
        return space

    def _store(self, pts: tuple[Point, ...], num: Sequence[Sequence[int]], den: int) -> None:
        """Keep ``num`` over ``den`` divided by their gcd, refusing a numerator past the cap."""
        g = math.gcd(den, *(math.gcd(*row) for row in num))
        if g > 1:  # some entry was written unreduced, or a subtable shares a factor
            den //= g
            num = tuple(tuple(v // g for v in row) for row in num)
        else:
            num = tuple(map(tuple, num))
        bits = max(map(max, num)).bit_length()
        if bits > MAX_NUM_BITS:
            raise SizeLimitError(f"an entry's numerator over the common denominator has {bits} "
                                 f"bits, past the cap of {MAX_NUM_BITS}")
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
            raise DomainError(f"point {format_point(x)!r} is not in the space") from None

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The table as ``Fraction``s, built on each read; nothing keeps it."""
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

    @cached_property
    def _minimal_balls(self) -> tuple[int, ...]:
        """The masks of :func:`minimal_balls`, built on first use and kept."""
        return tuple(_ball_rule(self, 1))

    def p(self, x: Point, y: Point) -> Fraction:
        return Fraction(self.num[self.index(x)][self.index(y)], self.den)

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
        """Subspace on ``keep``, in this space's point order: its rows of ``num`` over ``den``."""
        chosen = set(keep)
        missing = chosen - set(self.points)
        if missing:
            raise DomainError(f"points not in space: {sorted(map(format_point, missing))}")
        idx = [i for i, p in enumerate(self.points) if p in chosen]
        return FinitePMSpace._over([self.points[i] for i in idx],
                                   [[self.num[i][j] for j in idx] for i in idx], self.den)

    def to_json_dict(self) -> dict:
        return {"points": to_json(self.points), "p": to_json(self.matrix)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FinitePMSpace":
        if not isinstance(doc, dict):
            raise StructureError("space JSON must be an object")
        try:
            ids, rows = doc["points"], doc["p"]
        except KeyError as exc:
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
    """eps in units of 1/den, rounded up: an integer is below r iff it is below ceil(r)."""
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
    return _ball_rule(space, _radius(space, eps))


def _ball_rule(space: FinitePMSpace, r: int) -> list[int]:
    """Ball masks at integer radius r: bit y of entry c is set iff num[c][y] < num[c][c] + r."""
    bits = [1 << y for y in range(len(space))]
    bounds = [row[c] + r for c, row in enumerate(space.num)]
    return [sum([bit for bit, v in zip(bits, row) if v < bound])
            for row, bound in zip(space.num, bounds)]


def diameter(space: FinitePMSpace) -> Fraction:
    require_table(space, "diameter")
    return Fraction(max(map(max, space.num)), space.den)


def minimal_balls(space: FinitePMSpace) -> tuple[int, ...]:
    """Mask x has bit y set iff y lies in every ball around x: p(x,y) <= p(x,x).

    Membership changes only at the gaps p(x,y) - p(x,x), multiples of
    1/den, so mask x, the ball at radius 1/den, is the smallest ball around
    x; it fixes the ball topology of a table, valid or not. The index masks
    are built once, by the rule of :func:`ball_masks`, in O(n^2), and kept.
    """
    require_table(space, "minimal_balls")
    return space._minimal_balls


def least_gap(space: FinitePMSpace) -> Optional[Fraction]:
    """Smallest positive p(x,y) - p(x,x) over the table, or None when there is none.

    Cost: one O(n^2) pass over ``num`` per call; nothing is kept.
    """
    require_table(space, "least_gap")
    gap = min((v - row[i] for i, row in enumerate(space.num) for v in row if v > row[i]),
              default=None)
    return Fraction(gap, space.den) if gap is not None else None


def set_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first. Cost: O(set bits)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SeparationClass(Record):
    t0: bool
    t1: bool
    hausdorff: bool


def separation_class(space: FinitePMSpace) -> SeparationClass:
    """Separation verdicts of the ball topology, read from the kept masks of :func:`minimal_balls`.

    A ball around x leaves y out at some radius iff mask x, the ball at
    radius 1/den, does not hold y. So T0 holds iff no two distinct points
    hold each other, and T1 iff every mask holds only its own point. Two
    points are separated by balls iff their smallest balls are disjoint,
    and y in mask x puts y in both; so Hausdorff is T1 here. T0 holds
    whenever T1 does; otherwise only the marked pairs are tested, each
    y > x of mask x against bit x of mask y. Cost: O(n) on the kept masks,
    plus the marks when T1 fails.
    """
    require_table(space, "separation_class")
    rel = minimal_balls(space)
    t1 = all(mask == 1 << x for x, mask in enumerate(rel))
    t0 = t1 or not any(rel[y] >> x & 1 for x, mask in enumerate(rel)
                       for y in set_bits((mask >> x + 1) << x + 1))
    return SeparationClass(t0, t1, t1)


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
