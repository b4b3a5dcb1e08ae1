"""Contraction-type condition checkers, iteration, and the bottom-set reduction.

Three hypotheses are checked, all with exact arithmetic:

    contraction      p(T(x),T(y)) <= alpha * p(x,y)
    max-condition    p(T(x),T(y)) <= max{alpha p(x,y), p(x,x), p(y,y)}
    min-condition    min over i<=k of p(T^i(x),T^i(y)) <= (p(x,x)+p(y,y)) / 2

Verdicts are exhaustive on finite tables and sample-relative on
formula-backed spaces; reports say which. Iteration never claims a fixed
point it has not either hit exactly or matched, exactly, against a known
candidate whose trace certificate is within tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .analysis import DEFAULT_TOL
from .catalog import CatalogSpace, MapSpec
from .core import FinitePMSpace, bottom_set, rho_of
from .errors import DomainError, MapClosureError, MetadataError, SizeLimitError
from .points import Point, Record, format_point, to_json

DEFAULT_BUDGET = 10_000
DEFAULT_ALPHA_GRID = (Fraction(0), Fraction(1, 2), Fraction(3, 4))

# Consecutive settled steps required before an iteration is certified.
_CONFIRM_WINDOW = 8


@dataclass(frozen=True)
class ConditionViolation(Record):
    x: Point
    y: Point
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class ConditionReport:
    condition: str            # "contraction" | "max" | "min"
    params: tuple[tuple[str, object], ...]
    verdict: str              # "holds" | "violated"
    scope: str                # "exhaustive" | "sample" | "explicit"
    pairs_checked: int
    violation: Optional[ConditionViolation]

    @property
    def ok(self) -> bool:
        return self.verdict == "holds"

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "params": to_json(dict(self.params)),
            "verdict": self.verdict,
            "scope": self.scope,
            "pairs_checked": self.pairs_checked,
            "violation": to_json(self.violation),
        }


def _apply_in(space, T: MapSpec, x: Point) -> Point:
    try:
        y = T.apply(x)
    except (TypeError, AttributeError) as exc:
        # a formula map applied to a point of another kind, e.g. ex5.4.T on a set
        raise DomainError(f"map {T.name} is not defined at {format_point(x)}") from exc
    if not space.contains(y):
        raise MapClosureError(
            f"map {T.name} sends {format_point(x)} to {format_point(y)}, outside the space")
    return y


def _pairs_and_scope(space, pairs):
    if pairs is not None:
        return list(pairs), "explicit"
    if isinstance(space, FinitePMSpace):
        pts = space.points
        return [(pts[i], pts[j]) for i in range(len(pts)) for j in range(i, len(pts))], "exhaustive"
    if isinstance(space, CatalogSpace):
        pts = space.canonical_sample
        return [(pts[i], pts[j]) for i in range(len(pts)) for j in range(i, len(pts))], "sample"
    raise TypeError(f"unsupported space type {type(space)!r}")


def _check_pairwise(space, condition, params, lhs_rhs, pairs) -> ConditionReport:
    plist, scope = _pairs_and_scope(space, pairs)
    for x, y in plist:
        lhs, rhs = lhs_rhs(x, y)
        if lhs > rhs:
            return ConditionReport(condition, params, "violated", scope, len(plist),
                                   ConditionViolation(x, y, lhs, rhs))
    return ConditionReport(condition, params, "holds", scope, len(plist), None)


def check_contraction(space, T: MapSpec, alpha: Fraction, pairs=None) -> ConditionReport:
    """p(T(x),T(y)) <= alpha p(x,y) over the pair set, exactly."""
    if not 0 <= alpha < 1:
        raise ValueError("contraction factor must lie in [0, 1)")

    def lhs_rhs(x, y):
        return space.p(_apply_in(space, T, x), _apply_in(space, T, y)), alpha * space.p(x, y)

    return _check_pairwise(space, "contraction", (("alpha", alpha),), lhs_rhs, pairs)


def _check_max_factor(alpha: Fraction) -> None:
    if not 0 <= alpha < 1:
        raise ValueError("the factor must lie in [0, 1)")


def check_condition_max(space, T: MapSpec, alpha: Fraction, pairs=None) -> ConditionReport:
    """p(T(x),T(y)) <= max{alpha p(x,y), p(x,x), p(y,y)} over the pair set."""
    _check_max_factor(alpha)

    def lhs_rhs(x, y):
        lhs = space.p(_apply_in(space, T, x), _apply_in(space, T, y))
        return lhs, max(alpha * space.p(x, y), space.p(x, x), space.p(y, y))

    return _check_pairwise(space, "max", (("alpha", alpha),), lhs_rhs, pairs)


def check_condition_min(space, T: MapSpec, k: int, pairs=None) -> ConditionReport:
    """min over the first k iterate pairs <= the self-distance average."""
    if k < 1:
        raise ValueError("the iterate depth k must be at least 1")

    def lhs_rhs(x, y):
        u, v = x, y
        best = None
        for _ in range(k):
            u, v = _apply_in(space, T, u), _apply_in(space, T, v)
            val = space.p(u, v)
            best = val if best is None or val < best else best
        return best, (space.p(x, x) + space.p(y, y)) / 2

    return _check_pairwise(space, "min", (("k", k),), lhs_rhs, pairs)


@dataclass(frozen=True)
class IterationTrace(Record):
    start: Point
    iterates: tuple[Point, ...]
    p_steps: tuple[Fraction, ...]     # p(x_n, x_{n+1})
    p_selfs: tuple[Fraction, ...]     # p(x_n, x_n)
    outcome: str                      # "fixed_point" | "certified_cauchy" | "budget_exhausted"
    fixed_point: Optional[Point]
    cauchy_value: Optional[Fraction]
    steps: int
    identified: bool                  # fixed point matched from known candidates

    @property
    def ok(self) -> bool:
        return self.outcome != "budget_exhausted"


def iterate(space, T: MapSpec, x0: Point, tol: Fraction = DEFAULT_TOL,
            budget: int = DEFAULT_BUDGET,
            known_fixed_points: Sequence[Point] = ()) -> IterationTrace:
    """Iterate T from x0 until an exact fixed point or a settled window.

    With a positive bottom level a plain p(x_n, x_{n+1}) -> 0 test is
    wrong, so the settling gap is p(x_n, x_{n+1}) minus the smaller
    neighboring self-distance, confirmed over 8 consecutive steps. A
    settled trace is upgraded to a fixed point only by matching a known
    candidate z with T(z) = z exactly and trace distances within tol.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not space.contains(x0):
        raise DomainError(f"start {format_point(x0)} is not in the space")
    xs = [x0]
    p_steps: list[Fraction] = []
    p_selfs = [space.p(x0, x0)]
    streak = 0
    outcome = "budget_exhausted"
    for _ in range(budget):
        prev = xs[-1]
        nxt = _apply_in(space, T, prev)
        step_val = space.p(prev, nxt)
        xs.append(nxt)
        p_steps.append(step_val)
        p_selfs.append(space.p(nxt, nxt))
        if nxt == prev:
            outcome = "fixed_point"
            break
        gap = step_val - min(p_selfs[-2], p_selfs[-1])
        streak = streak + 1 if gap <= tol else 0
        if streak >= _CONFIRM_WINDOW:
            outcome = "certified_cauchy"
            break
    steps = len(xs) - 1
    if outcome == "fixed_point":
        return IterationTrace(x0, tuple(xs), tuple(p_steps), tuple(p_selfs),
                              "fixed_point", xs[-1], None, steps, False)
    if outcome == "certified_cauchy":
        last = xs[-1]
        for z in known_fixed_points:
            if (space.contains(z) and T.apply(z) == z
                    and abs(space.p(last, z) - space.p(z, z)) <= tol
                    and abs(space.p(last, last) - space.p(z, z)) <= tol):
                return IterationTrace(x0, tuple(xs), tuple(p_steps), tuple(p_selfs),
                                      "fixed_point", z, None, steps, True)
        return IterationTrace(x0, tuple(xs), tuple(p_steps), tuple(p_selfs),
                              "certified_cauchy", None, p_selfs[-1], steps, False)
    return IterationTrace(x0, tuple(xs), tuple(p_steps), tuple(p_selfs),
                          "budget_exhausted", None, None, steps, False)


@dataclass(frozen=True)
class BottomSolveReport(Record):
    status: str  # "fixed_point" | "certified" | "escaped_bottom" | "condition_violated" | "budget_exhausted"
    fixed_point: Optional[Point]
    last: Optional[Point]
    iterations: int
    condition_report: Optional[ConditionReport]
    escape: Optional[tuple[Point, Point]]
    escape_violation: Optional[ConditionViolation]
    fixed_points_in_bottom: Optional[tuple[Point, ...]]
    unique_in_bottom: Optional[bool]

    @property
    def ok(self) -> bool:
        return self.status in ("fixed_point", "certified")


def _bottom_oracle(space):
    """(membership test, finite member list or None, sample members)."""
    if isinstance(space, FinitePMSpace):
        members = tuple(bottom_set(space))
        return (lambda z: z in members), members, members
    decl = space.declared_bottom
    if decl.is_empty():
        raise MetadataError(f"{space.name} declares an empty bottom set")
    sample_members = tuple(z for z in space.canonical_sample if decl.contains(z))
    finite = decl.members if decl.kind == "finite" else None
    return decl.contains, finite, sample_members


def solve_on_bottom(space, T: MapSpec, alpha: Fraction, x0: Point,
                    tol: Fraction = DEFAULT_TOL, budget: int = DEFAULT_BUDGET,
                    known_fixed_points: Sequence[Point] = ()) -> BottomSolveReport:
    """Banach iteration on the bottom set under the shifted metric.

    Verifies the max-condition on the standard pair set and that T maps
    the (sampled) bottom set into the bottom set; any escape triggers a
    search for the condition violation it implies. On finite tables the
    fixed points inside the bottom set are enumerated exhaustively, which
    settles uniqueness.
    """
    in_bottom, finite_members, sample_members = _bottom_oracle(space)
    if not in_bottom(x0):
        raise ValueError(f"start {format_point(x0)} is not in the bottom set")
    pre = check_condition_max(space, T, alpha)
    if not pre.ok:
        return BottomSolveReport("condition_violated", None, None, 0, pre,
                                 None, None, None, None)
    closure_pool = tuple(dict.fromkeys(sample_members + (x0,)))
    for z in closure_pool:
        image = _apply_in(space, T, z)
        if not in_bottom(image):
            violation = None
            probe = check_condition_max(space, T, alpha,
                                        pairs=[(z, y) for y in closure_pool])
            if not probe.ok:
                violation = probe.violation
            return BottomSolveReport("escaped_bottom", None, None, 0, pre,
                                     (z, image), violation, None, None)

    fixed_in_bottom: Optional[tuple[Point, ...]] = None
    unique: Optional[bool] = None
    candidates = list(known_fixed_points)
    if finite_members is not None:
        fixed_in_bottom = tuple(z for z in finite_members if T.apply(z) == z)
        unique = len(fixed_in_bottom) <= 1
        candidates = list(fixed_in_bottom) + candidates

    rho = rho_of(space)
    x = x0
    for step in range(1, budget + 1):
        nxt = _apply_in(space, T, x)
        if nxt == x:
            return BottomSolveReport("fixed_point", x, x, step - 1, pre, None, None,
                                     fixed_in_bottom, unique)
        if space.p(x, nxt) - rho <= tol:
            for z in candidates:
                if (space.contains(z) and T.apply(z) == z
                        and min(space.p(x, z), space.p(nxt, z)) - rho <= tol):
                    return BottomSolveReport("fixed_point", z, x, step, pre, None, None,
                                             fixed_in_bottom, unique)
            return BottomSolveReport("certified", None, x, step, pre, None, None,
                                     fixed_in_bottom, unique)
        x = nxt
    return BottomSolveReport("budget_exhausted", None, x, budget, pre, None, None,
                             fixed_in_bottom, unique)


def constant_map_bottom(space: FinitePMSpace,
                        alphas: Sequence[Fraction] = DEFAULT_ALPHA_GRID) -> tuple[Point, ...]:
    """Points whose constant map satisfies the max-condition at every grid factor.

    For a constant map the left side is alpha-free and the right side is
    nondecreasing in alpha, so the condition holds at every grid factor
    iff it holds at the least one, the only factor checked (after every
    factor is validated). An empty grid keeps every point. The result
    must coincide with the bottom set and that is rechecked. Cost:
    O(n^3) plus one pass over the grid, whatever the table values.
    """
    for a in alphas:
        _check_max_factor(a)
    survivors = list(space.points)
    if alphas:
        least = min(alphas)
        survivors = [z for z in survivors
                     if check_condition_max(space, MapSpec.constant(z), least).ok]
    if set(survivors) != set(bottom_set(space)):
        raise RuntimeError("constant-map survivors differ from the bottom set")
    return tuple(survivors)


def constant_map_ruled_out(space: CatalogSpace, z: Point) -> bool:
    """Constant map at z cannot satisfy the max-condition on the full space.

    By the constant-map characterization of the bottom set this happens
    exactly when z's self-distance exceeds the declared infimum; sample
    pair scans can miss it when the infimum is not attained.
    """
    if space.declared_rho_p is None:
        raise MetadataError(f"{space.name} declares no self-distance infimum")
    return space.p(z, z) > space.declared_rho_p


def exhaustive_condition_maps(space: FinitePMSpace, condition: str, *,
                              alpha: Optional[Fraction] = None,
                              alphas: Optional[Sequence[Fraction]] = None,
                              k: Optional[int] = None) -> list[MapSpec]:
    """All self-maps of a tiny space satisfying the condition, in table order.

    Under the max-condition the left side is alpha-free and the right side
    is nondecreasing in alpha, so a map passes every grid factor iff it
    passes the least one, the only factor checked (after every factor is
    validated).
    """
    n = len(space)
    if n > 5:
        raise SizeLimitError(f"{n}**{n} maps is past the enumeration cutoff (n <= 5)")
    pts = space.points
    if condition == "max":
        grid = tuple(alphas) if alphas is not None else (() if alpha is None else (alpha,))
        if not grid:
            raise ValueError("the max-condition needs alpha or an alpha grid")
        for a in grid:
            _check_max_factor(a)
        least = min(grid)
    elif condition == "contraction":
        if alpha is None:
            raise ValueError("a contraction check needs alpha")
    elif condition == "min":
        if k is None:
            raise ValueError("the min-condition needs k")
    else:
        raise ValueError(f"unknown condition {condition!r}")

    survivors = []
    for images in itertools.product(range(n), repeat=n):
        table = {pts[i]: pts[images[i]] for i in range(n)}
        name = "map:" + ",".join(format_point(pts[i]) for i in images)
        T = MapSpec.from_table(name, table)
        if condition == "max":
            ok = check_condition_max(space, T, least).ok
        elif condition == "contraction":
            ok = check_contraction(space, T, alpha).ok
        else:
            ok = check_condition_min(space, T, k).ok
        if ok:
            survivors.append(T)
    return survivors
