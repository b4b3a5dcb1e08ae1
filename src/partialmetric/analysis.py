"""Sequence analyzers and topology probes.

Limits are not decidable from finitely many terms, so the analyzers never
assert one. A "converges" verdict is a finite certificate (tail index and
achieved gap at a tolerance); a "refuted" verdict is issued only when the
offending gap recurs along an exact cycle, either declared on the
sequence or detected as an exactly repeating tail pattern. Everything
else is "inconclusive". A sequence is periodic when it has a ``cycle``;
every analyzer refuses a negative tolerance and a horizon below 1.

Each analyzer reads its sequence once: a periodic spec's preamble and one
cycle, an explicit spec's terms up to the horizon, or a generator's first
``horizon`` terms. Every term read is checked against the space, in order,
before any distance, so a term outside the space is the space's own
``DomainError`` naming the first such term. A horizon past ``MAX_HORIZON``
is a ``SizeLimitError``: a generator's terms are all held at once, and at
the cap ``properly_converges`` on ``ex4.8.naturals`` takes about 1.6 s, at
34 MB peak RSS for the whole process, on a 2-core Xeon.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import (FinitePMSpace, ball, ball_masks, check_axioms, least_gap, minimal_balls,
                   require_table, separation_class)
from .errors import AxiomFailureError, SizeLimitError, UnsupportedSequenceError
from .points import Point, Record

DEFAULT_TOL = Fraction(1, 10**6)
DEFAULT_HORIZON = 10**4
MAX_HORIZON = 10**5

# Pairwise Cauchy checks are quadratic in the window, so cap it.
_PAIR_WINDOW = 64
_MAX_PERIOD = 8


@dataclass(frozen=True)
class SequenceSpec:
    """A sequence given as an explicit prefix, a periodic pattern, or a generator.

    Indices are 1-based. Periodic specs (those with a ``cycle``) describe
    the whole infinite sequence exactly, so verdicts computed from them
    are exact; explicit prefixes and generators only support
    finite-horizon certificates.
    """

    prefix: tuple[Point, ...] = ()
    cycle: tuple[Point, ...] = ()
    generator: Optional[Callable[[int], Point]] = None
    name: Optional[str] = None

    @classmethod
    def explicit(cls, points: Sequence[Point], name: Optional[str] = None) -> "SequenceSpec":
        pts = tuple(points)
        if not pts:
            raise ValueError("empty sequence")
        return cls(prefix=pts, name=name)

    @classmethod
    def periodic(cls, cycle: Sequence[Point], preamble: Sequence[Point] = (),
                 name: Optional[str] = None) -> "SequenceSpec":
        cyc = tuple(cycle)
        if not cyc:
            raise ValueError("empty cycle")
        return cls(prefix=tuple(preamble), cycle=cyc, name=name)

    @classmethod
    def from_generator(cls, fn: Callable[[int], Point], name: Optional[str] = None) -> "SequenceSpec":
        return cls(generator=fn, name=name)

    def term(self, n: int) -> Point:
        if n < 1:
            raise ValueError("sequence indices start at 1")
        if self.generator is not None:
            return self.generator(n)
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        if not self.cycle:
            raise UnsupportedSequenceError(f"explicit sequence has {len(self.prefix)} terms")
        return self.cycle[(n - len(self.prefix) - 1) % len(self.cycle)]


def check_tolerance(tol: Fraction) -> None:
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")


def _tail_period(values: Sequence) -> Optional[int]:
    """Minimal period of the exactly repeating tail half, if any."""
    if len(values) >= 2 and all(v == values[0] for v in values):
        return 1
    tail = list(values[len(values) // 2:])
    for d in range(1, _MAX_PERIOD + 1):
        if len(tail) >= max(2, 3 * d) and all(tail[i] == tail[i + d] for i in range(len(tail) - d)):
            return d
    return None


@dataclass(frozen=True)
class _Reading:
    """The terms read, and the cycle they end in (None if none), from index ``start``."""

    terms: tuple[Point, ...]
    cycle: Optional[tuple[Point, ...]]
    start: Optional[int]
    declared: bool


def _reading(space, seq: SequenceSpec, horizon: int) -> _Reading:
    """The one read of a sequence: its terms, each checked against ``space``, and its cycle.

    A periodic spec's terms are its preamble and cycle, and the cycle is
    declared; otherwise they are the terms up to the horizon and the cycle
    is their exactly repeating tail, if any.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if horizon > MAX_HORIZON:
        raise SizeLimitError(f"horizon {horizon} is past the cap of {MAX_HORIZON}")
    if seq.cycle:
        read = seq.prefix + seq.cycle
    elif seq.generator is not None:
        read = map(seq.generator, range(1, horizon + 1))
    else:
        read = seq.prefix[:horizon]
    # space.p raises the space's DomainError naming y, so no term past it is read
    terms = tuple(y if space.contains(y) else space.p(y, y) for y in read)
    d = len(seq.cycle) if seq.cycle else _tail_period(terms)
    if d is None:
        return _Reading(terms, None, None, False)
    return _Reading(terms, terms[-d:], len(terms) - d + 1, bool(seq.cycle))


@dataclass(frozen=True)
class Certificate(Record):
    tail_index: int
    achieved_gap: Fraction


@dataclass(frozen=True)
class _GapVerdict:
    status: str  # "ok" | "refuted" | "inconclusive"
    certificate: Optional[Certificate]
    witness: tuple[tuple[Point, Fraction], ...]
    exact: bool
    observed_gap: Optional[Fraction]


def _analyze_gaps(r: _Reading, gap_of: Callable[[Point], Fraction],
                  tol: Fraction) -> _GapVerdict:
    """Certificate/refutation analysis of one gap sequence."""
    if r.declared:
        gaps = [(y, gap_of(y)) for y in r.cycle]
        bad = tuple((y, g) for y, g in gaps if g > tol)
        if not bad:
            cert = Certificate(r.start, max(g for _, g in gaps))
            return _GapVerdict("ok", cert, (), True, cert.achieved_gap)
        return _GapVerdict("refuted", None, bad, True, max(g for _, g in bad))

    pts, n = r.terms, len(r.terms)
    gaps = [gap_of(x) for x in pts]
    window_start = n - n // 4 + 1 if n >= 4 else 1
    window = gaps[window_start - 1:]
    if all(g <= tol for g in window):
        n0 = window_start
        while n0 > 1 and gaps[n0 - 2] <= tol:
            n0 -= 1
        return _GapVerdict("ok", Certificate(n0, max(gaps[n0 - 1:])), (), False, max(window))
    d = _tail_period(gaps)
    if d is not None:
        block = [(pts[n - d + i], gaps[n - d + i]) for i in range(d)]
        bad = tuple((y, g) for y, g in block if g > tol)
        if bad:
            return _GapVerdict("refuted", None, bad, False, max(g for _, g in bad))
    return _GapVerdict("inconclusive", None, (), False, max(window))


@dataclass(frozen=True)
class ConvergenceReport(Record):
    mode: str  # "converges" | "properly_converges" | "inconclusive" | "refuted"
    target: Point
    tol: Fraction
    horizon: int
    certificate: Optional[Certificate]
    self_certificate: Optional[Certificate] = None
    witness: tuple[tuple[Point, Fraction], ...] = ()
    exact: bool = False
    observed_gap: Optional[Fraction] = None

    @property
    def ok(self) -> bool:
        return self.mode in ("converges", "properly_converges")


def converges_to(space, seq: SequenceSpec, x: Point, tol: Fraction = DEFAULT_TOL,
                 horizon: int = DEFAULT_HORIZON) -> ConvergenceReport:
    """Finite certificate that p(x_n, x) settles at p(x,x) within tol."""
    check_tolerance(tol)
    px = space.p(x, x)
    leg = _analyze_gaps(_reading(space, seq, horizon), lambda y: abs(space.p(y, x) - px), tol)
    mode = {"ok": "converges", "refuted": "refuted", "inconclusive": "inconclusive"}[leg.status]
    return ConvergenceReport(mode, x, tol, horizon, leg.certificate,
                             witness=leg.witness, exact=leg.exact, observed_gap=leg.observed_gap)


def properly_converges(space, seq: SequenceSpec, x: Point, tol: Fraction = DEFAULT_TOL,
                       horizon: int = DEFAULT_HORIZON) -> ConvergenceReport:
    """As converges_to, plus the self-distances p(x_n, x_n) must settle at p(x,x)."""
    check_tolerance(tol)
    px = space.p(x, x)
    r = _reading(space, seq, horizon)
    plain = _analyze_gaps(r, lambda y: abs(space.p(y, x) - px), tol)
    selfd = _analyze_gaps(r, lambda y: abs(space.p(y, y) - px), tol)
    if plain.status == "ok" and selfd.status == "ok":
        mode = "properly_converges"
    elif plain.status == "refuted" or selfd.status == "refuted":
        mode = "refuted"
    else:
        mode = "inconclusive"
    witness = plain.witness if plain.status == "refuted" else selfd.witness
    observed = [g for g in (plain.observed_gap, selfd.observed_gap) if g is not None]
    return ConvergenceReport(mode, x, tol, horizon, plain.certificate,
                             self_certificate=selfd.certificate, witness=witness,
                             exact=plain.exact and selfd.exact,
                             observed_gap=max(observed) if observed else None)


@dataclass(frozen=True)
class CauchyReport(Record):
    verdict: str  # "cauchy_to" | "inconclusive" | "refuted"
    a: Optional[Fraction]
    tol: Fraction
    horizon: int
    tail_index: Optional[int]
    max_deviation: Optional[Fraction]
    witness: tuple[tuple[tuple[Point, Point], Fraction], ...] = ()
    exact: bool = False

    @property
    def ok(self) -> bool:
        return self.verdict == "cauchy_to"


def _cauchy_over_cycle(space, r: _Reading, tol: Fraction, horizon: int) -> CauchyReport:
    pairs = [((u, v), space.p(u, v)) for u in r.cycle for v in r.cycle]
    values = [g for _, g in pairs]
    lo, hi = min(values), max(values)
    if hi - lo <= 2 * tol:
        return CauchyReport("cauchy_to", (hi + lo) / 2, tol, horizon, r.start,
                            (hi - lo) / 2, exact=r.declared)
    lo_pair = next(pv for pv in pairs if pv[1] == lo)
    hi_pair = next(pv for pv in pairs if pv[1] == hi)
    return CauchyReport("refuted", None, tol, horizon, None, None,
                        witness=(lo_pair, hi_pair), exact=r.declared)


def is_cauchy(space, seq: SequenceSpec, tol: Fraction = DEFAULT_TOL,
              horizon: int = DEFAULT_HORIZON) -> CauchyReport:
    """Do the pairwise distances p(x_n, x_m) stabilize to a single value?"""
    check_tolerance(tol)
    r = _reading(space, seq, horizon)
    if r.declared:
        return _cauchy_over_cycle(space, r, tol, horizon)
    n = len(r.terms)
    w = max(1, min(n // 4 if n >= 4 else n, _PAIR_WINDOW))
    tail = r.terms[n - w:]
    pairs = [((tail[i], tail[j]), space.p(tail[i], tail[j]))
             for i in range(w) for j in range(i, w)]
    values = [g for _, g in pairs]
    lo, hi = min(values), max(values)
    if hi - lo <= 2 * tol:
        return CauchyReport("cauchy_to", (hi + lo) / 2, tol, horizon, n - w + 1,
                            (hi - lo) / 2, exact=False)
    if r.cycle is not None:
        return _cauchy_over_cycle(space, r, tol, horizon)
    return CauchyReport("inconclusive", None, tol, horizon, None, None)


def _cycle_limits(space, cycle: tuple[Point, ...]) -> list[Point]:
    """The points t, in space order, with p(y, t) = p(t,t) for every y of the cycle."""
    return [t for t in space.points if all(space.p(y, t) == space.p(t, t) for y in cycle)]


def limit_set(space: FinitePMSpace, seq: SequenceSpec,
              horizon: int = DEFAULT_HORIZON) -> frozenset:
    """All x with exact lim p(x_n, x) = p(x,x), for exactly periodic sequences.

    The terms are checked first, on members every space has, so a term
    outside a catalog space is that space's own ``DomainError``; then a
    space with no table is refused.
    """
    r = _reading(space, seq, horizon)
    require_table(space, "limit_set")
    if r.cycle is None:
        raise UnsupportedSequenceError("limit_set needs an eventually periodic sequence")
    return frozenset(_cycle_limits(space, r.cycle))


@dataclass(frozen=True)
class SpecializationOrder(Record):
    """The relation x >= y iff y lies in every ball around x, i.e. p(x,y) = p(x,x).

    Row i of ``dominates`` marks the points that point i dominates.
    """

    points: tuple[Point, ...]
    dominates: tuple[tuple[bool, ...], ...]


def _order_masks(space: FinitePMSpace, name: str) -> tuple[int, ...]:
    """The kept masks of :func:`core.minimal_balls`, for ``name``; refuses a table failing P1-P4."""
    require_table(space, name)
    report = check_axioms(space)
    if not report.ok:
        raise AxiomFailureError(f"space violates {report.violated_axiom}")
    return minimal_balls(space)


def specialization_order(space: FinitePMSpace) -> SpecializationOrder:
    """The relation of :func:`core.minimal_balls`; refuses axiom-violating tables.

    On a valid table p(x,x) <= p(y,x) = p(x,y), so the relation's
    p(x,y) <= p(x,x) is p(x,y) = p(x,x). That it is then a partial order
    is checked once, by the property suite. Cost: O(n^2), to spell the
    table's kept index masks as the report's bool rows, each read from
    the mask's binary digits, lowest bit first.
    """
    rel = _order_masks(space, "specialization_order")
    digits = f"0{len(rel)}b"
    rows = tuple(tuple([c == "1" for c in format(mask, digits)[::-1]]) for mask in rel)
    return SpecializationOrder(space.points, rows)


def maximal_points(space: FinitePMSpace) -> frozenset:
    """Points with no proper dominator: held by no mask of :func:`core.minimal_balls` but their own.

    Their balls cover the space at every radius; the property suite
    checks that cover. Refuses an axiom-violating table, as
    :func:`specialization_order` does. Cost: O(n) on the kept index masks.
    """
    dominated = 0
    for x, mask in enumerate(_order_masks(space, "maximal_points")):
        dominated |= mask & ~(1 << x)
    return frozenset(p for y, p in enumerate(space.points) if not dominated >> y & 1)


@dataclass(frozen=True)
class GDeltaReport(Record):
    t1: bool
    stabilization_n: int
    equals_diagonal: bool


def gdelta_diagonal(space: FinitePMSpace) -> GDeltaReport:
    """Is the diagonal the intersection of the product ball neighborhoods?

    Ball membership y in B(x, 1/n) only depends on whether
    p(x,y) - p(x,x) < 1/n, so once 1/n drops below the smallest positive
    gap g nothing changes; the sets shrink with n, hence the infinite
    intersection equals the set at n0 = ceil(1/g). There the ball around
    c is mask c of :func:`core.minimal_balls`, and the union of its
    squares is the diagonal iff every mask holds only its own point: the
    T1 test, read from the masks the table keeps. The least gap is found
    per call, in one O(n^2) pass over ``num``, so this costs O(n^2)
    whatever the table values.
    """
    require_table(space, "gdelta_diagonal")
    t1 = separation_class(space).t1
    gap = least_gap(space)
    n0 = max(1, math.ceil(1 / gap)) if gap is not None else 1
    return GDeltaReport(t1, n0, t1)


@dataclass(frozen=True)
class CoverReport(Record):
    covers: bool
    uncovered: Optional[Point]
    eps: Fraction


def ball_cover_check(space: FinitePMSpace, centers: Sequence[Point], eps: Fraction) -> CoverReport:
    """Do the eps-balls around the centers cover the space?"""
    require_table(space, "ball_cover_check")
    if eps <= 0:
        raise ValueError("cover radius must be positive")
    covered: set = set()
    for c in centers:
        covered |= ball(space, c, eps)
    for p in space.points:
        if p not in covered:
            return CoverReport(False, p, eps)
    return CoverReport(True, None, eps)


@dataclass(frozen=True)
class NetReport(Record):
    centers: tuple[Point, ...]
    size: int
    eps: Fraction


def totally_bounded_at(space: FinitePMSpace, eps: Fraction) -> NetReport:
    """Greedy eps-net.

    Repeatedly picks the uncovered point whose ball swallows the most of
    what is still uncovered (ties to the lowest index), so a point whose
    ball is the whole space is found first. Always succeeds on a finite
    space; the interesting output is the net size. The balls are the
    index masks of :func:`core.ball_masks` and "uncovered" is one more, so
    no point is hashed. Cost: O(n^2) to build the masks, plus O(|net| n)
    mask tests.
    """
    require_table(space, "totally_bounded_at")
    if eps <= 0:
        raise ValueError("net radius must be positive")
    masks = ball_masks(space, eps)
    uncovered = (1 << len(masks)) - 1
    centers: list[Point] = []
    while uncovered:
        # max keeps the first of equal counts: a tie goes to the lowest index
        best = max((i for i in range(len(masks)) if uncovered >> i & 1),
                   key=lambda i: (masks[i] & uncovered).bit_count())
        centers.append(space.points[best])
        uncovered &= ~masks[best]
    return NetReport(tuple(centers), len(centers), eps)


@dataclass(frozen=True)
class SubsequenceWitness(Record):
    kind: str  # "full" | "constant"
    limit: Point
    exact: bool
    progression: Optional[tuple[int, int]] = None   # (start, step) for cycle constants
    indices: Optional[tuple[int, ...]] = None       # explicit positions otherwise


def _most_frequent(terms: Sequence[Point]) -> Point:
    """The pigeonhole value: the most frequent term, the earliest of a tie (one pass)."""
    return Counter(terms).most_common(1)[0][0]


def seq_compact_witness(space: FinitePMSpace, seq: SequenceSpec,
                        tol: Fraction = DEFAULT_TOL,
                        horizon: int = DEFAULT_HORIZON) -> SubsequenceWitness:
    """A convergent subsequence: the whole sequence when a limit is exact or
    certified, otherwise a constant subsequence obtained by pigeonhole.

    An exact limit is the first point of :func:`limit_set` in space order.
    The terms are checked before a space with no table is refused, as there.
    """
    check_tolerance(tol)
    r = _reading(space, seq, horizon)
    require_table(space, "seq_compact_witness")
    if r.cycle is not None:
        limits = _cycle_limits(space, r.cycle)
        if limits:
            return SubsequenceWitness("full", limits[0], True)
        v = _most_frequent(r.cycle)
        if r.declared:
            return SubsequenceWitness("constant", v, True,
                                      progression=(r.start + r.cycle.index(v), len(r.cycle)))
    else:
        for t in space.points:
            pt = space.p(t, t)
            if _analyze_gaps(r, lambda y: abs(space.p(y, t) - pt), tol).status == "ok":
                return SubsequenceWitness("full", t, False)
        v = _most_frequent(r.terms)
    return SubsequenceWitness("constant", v, True,
                              indices=tuple(i + 1 for i, y in enumerate(r.terms) if y == v))
