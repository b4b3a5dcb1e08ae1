"""The space catalog: formula-backed instances with declared metadata.

Each entry carries an exact evaluator, the analytically known
self-distance infimum and bottom set (a :class:`core.BottomDecl`), a
seeded sampler, and a finite canonical sample chosen to hit every branch
of the defining formula. Samples are validated against the declarations,
never the other way round: a sample minimum says nothing about an
infimum that is not attained. A finite table answers the same members
from its own table, so no caller asks which kind of space it holds.

Stable identifiers: spaces "ex3.1", "ex3.2", "ex3.4", "ex4.4", "ex4.8",
"ex5.4", "ex5.5", "ex5.6", "ex5.8", "apex"; maps "ex3.4.T", "ex5.4.T",
"const.<id>"; sequences "ex3.2.alt", "ex3.4.recip", "ex3.4.T.recip",
"ex4.8.naturals", "ex5.4.orbit0", "ex5.4.orbit3", "ex5.5.recip",
"ex5.6.tail".
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

from .analysis import SequenceSpec
from .core import BottomDecl, FinitePMSpace, check_axioms
from .errors import CatalogKeyError, DomainError, SizeLimitError, UnsupportedSequenceError
from .points import FSet, Frozen, Point, format_point, read_points

F = Fraction

# validate_entry checks each canonical sample plus SAMPLE_COUNT points drawn with SAMPLE_SEED.
SAMPLE_SEED = 0
SAMPLE_COUNT = 24

# random_pm_space refuses more points: its shortest paths take O(n^3) steps.
MAX_RANDOM_POINTS = 200


class CatalogSpace(Frozen):
    """A formula-backed (possibly infinite) space with declared metadata.

    Pair verdicts run over the canonical sample, so their scope is "sample".
    """

    scope = "sample"  # a class attribute, not a field

    name: str
    evaluator: Callable[[Point, Point], Fraction]
    domain_predicate: Callable[[Point], bool]
    declared_rho_p: Optional[Fraction]
    declared_bottom: BottomDecl
    sampler: Callable[[int, int], list[Point]]
    canonical_sample: tuple[Point, ...]
    description: str = ""

    def __repr__(self) -> str:
        return f"CatalogSpace({self.name})"

    def contains(self, x: Point) -> bool:
        return self.domain_predicate(x)

    def admit(self, points: Sequence[Point]) -> Sequence[Point]:
        """``points``, once each is in the space; else a DomainError on the first that is not.

        A caller that admitted its points reads their distances from
        ``evaluator`` without checking them again at every pair.
        """
        for pt in points:
            if not self.contains(pt):
                raise DomainError(f"point {format_point(pt)!r} is not in {self.name}")
        return points

    def p(self, x: Point, y: Point) -> Fraction:
        self.admit((x, y))
        return self.evaluator(x, y)

    def sample(self, seed: int, count: int) -> list[Point]:
        return self.sampler(seed, count)

    def finite_sample(self) -> FinitePMSpace:
        """The canonical sample's table: one table per space, built on first use."""
        return self._table

    @cached_property
    def _table(self) -> FinitePMSpace:
        return FinitePMSpace.from_function(self.admit(self.canonical_sample), self.evaluator)


class MapSpec(Frozen):
    """A self-map of a space; table-backed for finite spaces, formula-backed otherwise."""

    name: str
    fn: Callable[[Point], Point]
    table: Optional[tuple[tuple[Point, Point], ...]] = None

    def apply(self, x: Point) -> Point:
        return self.fn(x)

    @classmethod
    def from_table(cls, name: str, mapping: dict) -> "MapSpec":
        table = tuple(mapping.items())

        def fn(x: Point, _m=dict(mapping)) -> Point:
            try:
                return _m[x]
            except KeyError:
                raise DomainError(f"map {name} has no value at {format_point(x)}") from None

        return cls(name, fn, table)

    @classmethod
    def constant(cls, z: Point, name: Optional[str] = None) -> "MapSpec":
        return cls(name or f"const.{format_point(z)}", lambda _x, _z=z: _z)


class CatalogEntry(Frozen):
    space: CatalogSpace
    maps: tuple[MapSpec, ...] = ()
    sequences: tuple[SequenceSpec, ...] = ()
    known_fixed_points: tuple[Point, ...] = ()

    def map(self, name: str) -> MapSpec:
        return _named(self.maps, name)

    def sequence(self, name: str) -> SequenceSpec:
        return _named(self.sequences, name)


def _named(specs, name: str):
    """The map or sequence whose own ``name`` is ``name``."""
    for spec in specs:
        if spec.name == name:
            return spec
    raise CatalogKeyError(name)


def _rng(tag: str, seed: int) -> random.Random:
    return random.Random(f"{tag}/{seed}")


def _is_rational(x: Point) -> bool:
    return isinstance(x, Fraction)


# -- ex3.1: open unit interval under 1 + max -------------------------------

def _ex31_sampler(seed: int, count: int) -> list[Point]:
    rng = _rng("ex3.1", seed)
    out: list[Point] = []
    for _ in range(count):
        den = rng.randint(2, 64)
        out.append(F(rng.randint(1, den - 1), den))
    return out


EX31 = CatalogSpace(
    name="ex3.1",
    evaluator=lambda x, y: 1 + max(x, y),
    domain_predicate=lambda x: _is_rational(x) and 0 < x < 1,
    declared_rho_p=F(1),
    declared_bottom=BottomDecl.finite(()),
    sampler=_ex31_sampler,
    canonical_sample=(F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)),
    description="(0,1) with p(x,y) = 1 + max{x,y}; induced metric is |x-y|",
)


# -- ex3.2: subsets of a three-element set under union size -----------------

GROUND_ABC = ("a", "b", "c")
_EX32_POINTS = tuple(FSet(GROUND_ABC, m) for m in range(8))


def _ex32_sampler(seed: int, count: int) -> list[Point]:
    rng = _rng("ex3.2", seed)
    return [FSet(GROUND_ABC, rng.randrange(8)) for _ in range(count)]


EX32 = CatalogSpace(
    name="ex3.2",
    evaluator=lambda x, y: F(x.union_size(y)),
    domain_predicate=lambda x: isinstance(x, FSet) and x.ground == GROUND_ABC,
    declared_rho_p=F(0),
    declared_bottom=BottomDecl.finite((FSet(GROUND_ABC, 0),)),
    sampler=_ex32_sampler,
    canonical_sample=_EX32_POINTS,
    description="subsets of {a,b,c} with p(x,y) = |x union y|",
)


# -- ex3.4: three negative anchors glued to the nonnegative ray -------------

_EX34_NEG = frozenset((F(-7), F(-6), F(-5)))


def _ex34_f(x: Fraction) -> Fraction:
    if x >= 0:
        return 3 + x
    if x == -5:
        return F(0)
    return F(1)


def _ex34_eval(x: Fraction, y: Fraction) -> Fraction:
    return (abs(x - y) + _ex34_f(x) + _ex34_f(y)) / 2


def _ex34_T(x: Fraction) -> Fraction:
    if x in _EX34_NEG or x == 0:
        return F(-5)
    # membership in {1/(2q)} is exact on canonical fractions
    if x.numerator == 1 and x.denominator % 2 == 0:
        return F(-7)
    return F(-6)


def _ex34_sampler(seed: int, count: int) -> list[Point]:
    rng = _rng("ex3.4", seed)
    out: list[Point] = []
    for _ in range(count):
        if rng.random() < 0.25:
            out.append(rng.choice(sorted(_EX34_NEG)))
        else:
            den = rng.randint(1, 16)
            out.append(F(rng.randint(0, 4 * den), den))
    return out


EX34 = CatalogSpace(
    name="ex3.4",
    evaluator=_ex34_eval,
    domain_predicate=lambda x: _is_rational(x) and (x in _EX34_NEG or x >= 0),
    declared_rho_p=F(0),
    declared_bottom=BottomDecl.finite((F(-5),)),
    sampler=_ex34_sampler,
    canonical_sample=(F(-7), F(-6), F(-5), F(0), F(1, 2), F(1, 3), F(1, 4), F(1), F(2)),
    description="{-7,-6,-5} + [0,oo) with p = (|x-y| + f(x) + f(y)) / 2",
)


# -- ex4.4: half-open unit interval under max --------------------------------

def _ex44_sampler(seed: int, count: int) -> list[Point]:
    rng = _rng("ex4.4", seed)
    out: list[Point] = []
    for _ in range(count):
        den = rng.randint(2, 64)
        out.append(F(rng.randint(1, den), den))
    return out


EX44 = CatalogSpace(
    name="ex4.4",
    evaluator=lambda x, y: max(x, y),
    domain_predicate=lambda x: _is_rational(x) and 0 < x <= 1,
    declared_rho_p=F(0),
    declared_bottom=BottomDecl.finite(()),
    sampler=_ex44_sampler,
    canonical_sample=(F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(1)),
    description="(0,1] with p(x,y) = max{x,y}; one ball covers everything",
)


# -- ex4.8: naturals plus 0, uniformly spread apart yet convergent ----------

def _ex48_eval(x: Fraction, y: Fraction) -> Fraction:
    if x == y:
        return F(1)
    if x == 0:
        return 1 + 1 / y
    if y == 0:
        return 1 + 1 / x
    return 1 + 1 / x + 1 / y


def _ex48_sampler(seed: int, count: int) -> list[Point]:
    rng = _rng("ex4.8", seed)
    return [F(rng.randint(0, 100)) for _ in range(count)]


EX48 = CatalogSpace(
    name="ex4.8",
    evaluator=_ex48_eval,
    domain_predicate=lambda x: _is_rational(x) and x.denominator == 1 and x >= 0,
    declared_rho_p=F(1),
    declared_bottom=BottomDecl.from_predicate(lambda _z: True),
    sampler=_ex48_sampler,
    canonical_sample=tuple(F(i) for i in range(8)),
    description="{0} + N with p(n,m) = 1 + 1/n + 1/m off the diagonal",
)


# -- ex5.4: two intervals, max on the upper one ------------------------------

def _ex54_eval(x: Fraction, y: Fraction) -> Fraction:
    if x >= 2 or y >= 2:
        return max(x, y)
    return abs(x - y)


def _ex54_T(x: Fraction) -> Fraction:
    if x <= 1:
        return (x + 1) / 2
    return (2 + x) / 2


def _ex54_sampler(seed: int, count: int) -> list[Point]:
    rng = _rng("ex5.4", seed)
    out: list[Point] = []
    for _ in range(count):
        den = rng.randint(1, 32)
        base = F(rng.randint(0, den), den)
        out.append(base + 2 if rng.random() < 0.5 else base)
    return out


EX54 = CatalogSpace(
    name="ex5.4",
    evaluator=_ex54_eval,
    domain_predicate=lambda x: _is_rational(x) and (0 <= x <= 1 or 2 <= x <= 3),
    declared_rho_p=F(0),
    declared_bottom=BottomDecl.from_predicate(lambda z: 0 <= z <= 1),
    sampler=_ex54_sampler,
    canonical_sample=(F(0), F(1, 2), F(3, 4), F(1), F(2), F(9, 4), F(5, 2), F(3)),
    description="[0,1] + [2,3]; |x-y| on the lower block, max when the upper block is touched",
)


# -- ex5.5: unit interval, zero self-distance except at 0 --------------------

def _ex55_eval(x: Fraction, y: Fraction) -> Fraction:
    if x == y and x > 0:
        return F(0)
    return F(1)


def _ex55_sampler(seed: int, count: int) -> list[Point]:
    rng = _rng("ex5.5", seed)
    out: list[Point] = []
    for _ in range(count):
        den = rng.randint(1, 64)
        out.append(F(rng.randint(0, den), den))
    return out


EX55 = CatalogSpace(
    name="ex5.5",
    evaluator=_ex55_eval,
    domain_predicate=lambda x: _is_rational(x) and 0 <= x <= 1,
    declared_rho_p=F(0),
    declared_bottom=BottomDecl.from_predicate(lambda z: z > 0),
    sampler=_ex55_sampler,
    canonical_sample=(F(0), F(1, 2), F(1, 3), F(1)),
    description="[0,1]; p = 0 only on the diagonal above 0, else 1",
)


# -- ex5.6: unit fractions with self-distance equal to the point ------------

def _ex56_eval(x: Fraction, y: Fraction) -> Fraction:
    if x == y and x > 0:
        return x
    return F(1)


def _ex56_sampler(seed: int, count: int) -> list[Point]:
    rng = _rng("ex5.6", seed)
    return [F(0) if rng.random() < 0.2 else F(1, rng.randint(2, 50)) for _ in range(count)]


EX56 = CatalogSpace(
    name="ex5.6",
    evaluator=_ex56_eval,
    domain_predicate=lambda x: _is_rational(x)
    and (x == 0 or (x.numerator == 1 and x.denominator >= 2)),
    declared_rho_p=F(0),
    declared_bottom=BottomDecl.finite(()),
    sampler=_ex56_sampler,
    canonical_sample=(F(0), F(1, 2), F(1, 3), F(1, 4)),
    description="{1/q : q >= 2} + {0}; self-distances approach 0 without attaining it",
)


# -- ex5.8: the two-point space where only one constant map survives --------

_EX58_TABLE = {
    ("a", "a"): F(0),
    ("b", "b"): F(1),
    ("a", "b"): F(2),
    ("b", "a"): F(2),
}


def _ex58_sampler(seed: int, count: int) -> list[Point]:
    rng = _rng("ex5.8", seed)
    return [rng.choice(("a", "b")) for _ in range(count)]


EX58 = CatalogSpace(
    name="ex5.8",
    evaluator=lambda x, y: _EX58_TABLE[(x, y)],
    domain_predicate=lambda x: x in ("a", "b"),
    declared_rho_p=F(0),
    declared_bottom=BottomDecl.finite(("a",)),
    sampler=_ex58_sampler,
    canonical_sample=("a", "b"),
    description="two points: p(a,a)=0, p(b,b)=1, p(a,b)=2",
)


# -- apex: a discrete block that only the apex ball can cover ----------------

APEX_DEFAULT_SIZE = 32


def _apex_eval(x: Point, y: Point) -> Fraction:
    if x == "a" or y == "a":
        return F(2)
    return F(0) if x == y else F(1)


def apex_space(k: int = APEX_DEFAULT_SIZE) -> CatalogSpace:
    """Apex over a k-point discrete block: p = discrete on X, 2 against the apex.

    The whole space sits inside any ball around the apex, while inside X
    every small ball is a singleton, so coverings collapse to size 1
    globally and blow up to size k on the subspace.
    """
    if k < 1:
        raise ValueError("need at least one block point")
    block = tuple(f"x{i}" for i in range(1, k + 1))
    points = ("a",) + block

    def sampler(seed: int, count: int) -> list[Point]:
        rng = _rng(f"apex{k}", seed)
        return [rng.choice(points) for _ in range(count)]

    return CatalogSpace(
        name="apex",
        evaluator=_apex_eval,
        domain_predicate=lambda x: x in points,
        declared_rho_p=F(0),
        declared_bottom=BottomDecl.finite(block),
        sampler=sampler,
        canonical_sample=points,
        description=f"apex over a {k}-point discrete block; p(.,a) = 2, discrete inside",
    )


# -- the catalog: each entry with the maps and sequences it declares ----------

_ENTRIES: dict[str, CatalogEntry] = {entry.space.name: entry for entry in (
    CatalogEntry(EX31),
    CatalogEntry(EX32, sequences=(SequenceSpec.periodic(
        (FSet(GROUND_ABC, 0b001), FSet(GROUND_ABC, 0b010)), name="ex3.2.alt"),)),
    CatalogEntry(EX34, maps=(MapSpec("ex3.4.T", _ex34_T),), known_fixed_points=(F(-5),),
                 sequences=(SequenceSpec.from_generator(lambda n: F(1, n), name="ex3.4.recip"),
                            SequenceSpec.periodic((F(-6), F(-7)), name="ex3.4.T.recip"))),
    CatalogEntry(EX44),
    CatalogEntry(EX48, sequences=(
        SequenceSpec.from_generator(lambda n: F(n), name="ex4.8.naturals"),)),
    CatalogEntry(EX54, maps=(MapSpec("ex5.4.T", _ex54_T),), known_fixed_points=(F(1), F(2)),
                 sequences=(
                     SequenceSpec.from_generator(lambda n: F(2**n - 1, 2**n), name="ex5.4.orbit0"),
                     SequenceSpec.from_generator(lambda n: 2 + F(1, 2**n), name="ex5.4.orbit3"))),
    CatalogEntry(EX55, sequences=(
        SequenceSpec.from_generator(lambda n: F(1, n), name="ex5.5.recip"),)),
    CatalogEntry(EX56, sequences=(
        SequenceSpec.from_generator(lambda n: F(1, n + 1), name="ex5.6.tail"),)),
    CatalogEntry(EX58),
    CatalogEntry(apex_space()),
)}


def catalog_names() -> list[str]:
    return list(_ENTRIES)


def get_entry(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise CatalogKeyError(name) from None


def catalog_space(name: str) -> CatalogSpace:
    return get_entry(name).space


def catalog_map(name: str, points: Sequence[Point] = ()) -> MapSpec:
    """Look up a map declared on a catalog entry, or "const.<point id>".

    The id after "const." is resolved against ``points`` (see
    :func:`read_points`), so it can name any point those hold.
    """
    if name.startswith("const."):
        return MapSpec.constant(read_points([name[len("const."):]], points)[0], name=name)
    return _named((T for entry in _ENTRIES.values() for T in entry.maps), name)


def catalog_sequence(name: str) -> SequenceSpec:
    return _named((seq for entry in _ENTRIES.values() for seq in entry.sequences), name)


def validate_entry(entry: CatalogEntry) -> list[str]:
    """Check an entry's samples against its declarations; returns problems."""
    sp = entry.space
    problems: list[str] = []
    pts = list(sp.canonical_sample) + sp.sample(SAMPLE_SEED, SAMPLE_COUNT)
    for x in pts:
        if not sp.contains(x):
            problems.append(f"sampled point {format_point(x)} outside domain")
    for i, x in enumerate(pts):
        for y in pts[i:]:
            if sp.evaluator(x, y) != sp.evaluator(y, x):
                problems.append(f"evaluator asymmetric at ({format_point(x)}, {format_point(y)})")
    rho = sp.declared_rho_p
    if rho is not None:
        for x in pts:
            self_d = sp.evaluator(x, x)
            if self_d < rho:
                problems.append(f"self-distance below declared infimum at {format_point(x)}")
            attains = self_d == rho
            if attains != sp.declared_bottom.contains(x):
                problems.append(
                    f"bottom declaration disagrees with self-distance at {format_point(x)}")
    report = check_axioms(sp.finite_sample())
    if not report.ok:
        problems.append(f"canonical sample violates {report.violated_axiom}")
    for T in entry.maps:
        for x in sp.canonical_sample:
            if not sp.contains(T.apply(x)):
                problems.append(f"map {T.name} leaves the domain at {format_point(x)}")
    for seq in entry.sequences:
        for n in (1, 2, 3, 5, 8):
            try:
                term = seq.term(n)
            except UnsupportedSequenceError:
                break
            if not sp.contains(term):
                problems.append(f"sequence {seq.name} leaves the domain at n={n}")
    return problems


def random_pm_space(seed: int, n: int, *, zero_f: bool = False) -> FinitePMSpace:
    """Random n-point space that always satisfies the axioms.

    A random positively weighted complete graph is closed under shortest
    paths to get a metric d, a 1-Lipschitz nonnegative f is taken as
    distance-to-anchor plus an offset, and the table is
    (d(x,y) + f(x) + f(y)) / 2. With zero_f the result is the metric d/2.
    Deterministic per (seed, n, zero_f). The weights are drawn in twelfths
    and the shortest paths run on their integer numerators, so the table
    is handed to the store as integer rows over 24, with no ``Fraction``
    built. Cost: O(n^3) integer steps for the shortest paths, so more
    than ``MAX_RANDOM_POINTS`` points is a ``SizeLimitError``.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if n > MAX_RANDOM_POINTS:
        raise SizeLimitError(f"{n} points is past the cap of {MAX_RANDOM_POINTS}")
    rng = random.Random(f"pm-random/{seed}/{n}/{int(zero_f)}")
    d = [[0] * n for _ in range(n)]  # twelfths
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, 24)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            d[i] = [v if v <= dik + w else dik + w for v, w in zip(d[i], dk)]
    anchor = rng.randrange(n)
    offset = rng.randint(0, 12)
    f = [0] * n if zero_f else [d[i][anchor] + offset for i in range(n)]
    return FinitePMSpace._over([F(i) for i in range(n)],
                               [[v + fi + fj for v, fj in zip(di, f)] for di, fi in zip(d, f)], 24)
