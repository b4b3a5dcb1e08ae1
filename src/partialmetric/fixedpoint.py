"""Contraction-type condition checkers, iteration, and the bottom-set reduction.

Three hypotheses are checked, all with exact arithmetic:

    contraction      p(T(x),T(y)) <= alpha * p(x,y)
    max-condition    p(T(x),T(y)) <= max{alpha p(x,y), p(x,x), p(y,y)}
    min-condition    min over i<=k of p(T^i(x),T^i(y)) <= (p(x,x)+p(y,y)) / 2

Each checker is called as ``check(space, T, alpha or k)``; the map
enumeration on tiny spaces takes a checker and its parameter. A grid of
max-condition factors is decided by its ``least_factor`` alone.

Verdicts are exhaustive on finite tables and sample-relative on
formula-backed spaces; each space names its own ``scope`` and the
reports repeat it. Both kinds answer the same members (pairs from
``canonical_sample``, ``declared_rho_p``, ``declared_bottom``), so no
function here asks which kind it holds. Iteration never claims a fixed
point it has not either hit exactly or matched, exactly, against a known
candidate whose trace certificate is within tolerance.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .analysis import DEFAULT_TOL, check_tolerance
from .catalog import MapSpec
from .core import FinitePMSpace, bottom_set, require_table, rho_of
from .errors import DomainError, MapClosureError, MetadataError, SizeLimitError
from .points import Point, Record, format_point

DEFAULT_BUDGET = 10_000
DEFAULT_ALPHA = Fraction(1, 2)
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
class ConditionReport(Record):
    condition: str            # "contraction" | "max" | "min"
    params: dict              # {"alpha": alpha} | {"k": k}
    verdict: str              # "holds" | "violated"
    scope: str                # "exhaustive" | "sample" | "explicit"
    pairs_checked: int
    violation: Optional[ConditionViolation]

    @property
    def ok(self) -> bool:
        return self.verdict == "holds"


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
    pts = space.canonical_sample
    return [(pts[i], pts[j]) for i in range(len(pts)) for j in range(i, len(pts))], space.scope


def _check_pairwise(space, condition, params, lhs_rhs, pairs) -> ConditionReport:
    plist, scope = _pairs_and_scope(space, pairs)
    for x, y in plist:
        lhs, rhs = lhs_rhs(x, y)
        if lhs > rhs:
            return ConditionReport(condition, params, "violated", scope, len(plist),
                                   ConditionViolation(x, y, lhs, rhs))
    return ConditionReport(condition, params, "holds", scope, len(plist), None)


def _check_factor(alpha: Fraction) -> None:  # of the contraction and the max-condition
    if not 0 <= alpha < 1:
        raise ValueError("the factor must lie in [0, 1)")


def check_contraction(space, T: MapSpec, alpha: Fraction, pairs=None) -> ConditionReport:
    """p(T(x),T(y)) <= alpha p(x,y) over the pair set, exactly."""
    _check_factor(alpha)

    def lhs_rhs(x, y):
        return space.p(_apply_in(space, T, x), _apply_in(space, T, y)), alpha * space.p(x, y)

    return _check_pairwise(space, "contraction", {"alpha": alpha}, lhs_rhs, pairs)


def check_condition_max(space, T: MapSpec, alpha: Fraction, pairs=None) -> ConditionReport:
    """p(T(x),T(y)) <= max{alpha p(x,y), p(x,x), p(y,y)} over the pair set."""
    _check_factor(alpha)

    def lhs_rhs(x, y):
        lhs = space.p(_apply_in(space, T, x), _apply_in(space, T, y))
        return lhs, max(alpha * space.p(x, y), space.p(x, x), space.p(y, y))

    return _check_pairwise(space, "max", {"alpha": alpha}, lhs_rhs, pairs)


def _check_depth(k: int) -> None:
    if k < 1:
        raise ValueError("the iterate depth k must be at least 1")


def check_condition_min(space, T: MapSpec, k: int, pairs=None) -> ConditionReport:
    """min over the first k iterate pairs <= the self-distance average.

    A pair stops once its minimum meets the bound (a holding pair's
    minimum is never reported) or its iterate pair repeats, checked
    against one checkpoint moved at steps 1, 2, 4, ... (Brent): O(1)
    memory, O(n^2) steps on a finite table, up to k where an orbit never
    repeats (``ex5.4.T``).
    """
    _check_depth(k)

    def lhs_rhs(x, y):
        u, v = _apply_in(space, T, x), _apply_in(space, T, y)
        best, rhs = space.p(u, v), (space.p(x, x) + space.p(y, y)) / 2
        mark = (u, v)
        for step in range(2, k + 1):
            if best <= rhs:
                break
            u, v = _apply_in(space, T, u), _apply_in(space, T, v)
            if (u, v) == mark:
                break
            best = min(best, space.p(u, v))
            if step & (step - 1) == 0:
                mark = (u, v)
        return best, rhs

    return _check_pairwise(space, "min", {"k": k}, lhs_rhs, pairs)


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
    _check_run(tol, budget)
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


def _check_run(tol: Fraction, budget: int) -> None:
    check_tolerance(tol)
    if budget < 1:
        raise ValueError("budget must be at least 1")


def solve_on_bottom(space, T: MapSpec, alpha: Fraction, x0: Point,
                    tol: Fraction = DEFAULT_TOL, budget: int = DEFAULT_BUDGET,
                    known_fixed_points: Sequence[Point] = ()) -> BottomSolveReport:
    """Banach iteration on the bottom set under the shifted metric.

    Verifies the max-condition on the standard pair set and that T maps
    the (sampled) bottom set into the bottom set; any escape triggers a
    search for the condition violation it implies. When the bottom set
    lists its members (always on a finite table) the fixed points inside
    it are enumerated exhaustively, which settles uniqueness.
    """
    _check_run(tol, budget)
    bottom = space.declared_bottom
    if bottom.members == ():
        raise MetadataError(f"{space!r} declares an empty bottom set")
    if not bottom.contains(x0):
        raise ValueError(f"start {format_point(x0)} is not in the bottom set")
    pre = check_condition_max(space, T, alpha)
    if not pre.ok:
        return BottomSolveReport("condition_violated", None, None, 0, pre,
                                 None, None, None, None)
    sample_members = tuple(z for z in space.canonical_sample if bottom.contains(z))
    closure_pool = tuple(dict.fromkeys(sample_members + (x0,)))
    for z in closure_pool:
        image = _apply_in(space, T, z)
        if not bottom.contains(image):
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
    if bottom.members is not None:
        fixed_in_bottom = tuple(z for z in bottom.members if T.apply(z) == z)
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


def least_factor(alphas: Sequence[Fraction]) -> Fraction:
    """The least factor of a max-condition grid, after every factor is validated.

    The condition's left side is alpha-free and its right side is
    nondecreasing in alpha, so it holds at every factor iff at the least.
    """
    for a in alphas:
        _check_factor(a)
    if not alphas:
        raise ValueError("the max-condition needs alpha or an alpha grid")
    return min(alphas)


def constant_map_bottom(space: FinitePMSpace) -> tuple[Point, ...]:
    """Points whose constant map satisfies the max-condition: the bottom set.

    The constant map at z has the left side p(z,z) at every pair. Let
    rho be the least self-distance and a/b < 1 the factor. Scaled by b,
    every right side max{a p(x,y), b p(x,x), b p(y,y)} is at least
    b rho, and the diagonal pair (x, x) of a bottom point x has exactly
    b rho, since a rho <= b rho on a nonnegative table. So z passes iff
    p(z,z) = rho, at every factor and on every table, valid or not: the
    result is :func:`core.bottom_set`, in table order.
    """
    require_table(space, "constant_map_bottom")
    return bottom_set(space)


def constant_map_ruled_out(space, z: Point) -> bool:
    """Constant map at z cannot satisfy the max-condition on the full space.

    By the constant-map characterization of the bottom set this happens
    exactly when z's self-distance exceeds the infimum (:func:`rho_of`);
    sample pair scans can miss it when the infimum is not attained.
    """
    return space.p(z, z) > rho_of(space)


def _pruned_maps(m, bound: Fraction, with_selfs: bool) -> list[tuple[int, ...]]:
    """Image tuples passing b p(T i, T k) <= R[i][k] at every pair i <= k, in product order.

    With alpha = a/b, R[i][k] is a p(i,k), or max{a p(i,k), b p(i,i),
    b p(k,k)} under the max-condition; it does not depend on the map, so
    it is built once. Images are assigned depth first in table order,
    and each pair is tested as soon as both of its images are set, so a
    failing pair cuts every map that extends the prefix.
    """
    n = len(m)
    a, b = bound.numerator, bound.denominator
    lhs = [[b * v for v in row] for row in m]
    rhs = [[max(a * m[i][k], b * m[i][i], b * m[k][k]) if with_selfs else a * m[i][k]
            for k in range(n)] for i in range(n)]
    images = [0] * n
    found = []

    def extend(k):
        for v in range(n):
            if lhs[v][v] <= rhs[k][k] and all(lhs[images[i]][v] <= rhs[i][k] for i in range(k)):
                images[k] = v
                if k + 1 < n:
                    extend(k + 1)
                else:
                    found.append(tuple(images))

    extend(0)
    return found


def _contraction_maps(m, alpha: Fraction) -> list[tuple[int, ...]]:
    _check_factor(alpha)
    return _pruned_maps(m, Fraction(alpha), with_selfs=False)


def _max_condition_maps(m, alpha: Fraction) -> list[tuple[int, ...]]:
    _check_factor(alpha)
    return _pruned_maps(m, Fraction(alpha), with_selfs=True)


def _min_condition_maps(m, k: int) -> list[tuple[int, ...]]:
    """Image tuples passing 2 min over t <= k of p(T^t i, T^t j) <= p(i,i) + p(j,j), i <= j.

    The left side reads iterates, which a partial map does not fix, so
    every map of the product is tested. The iterate pair takes at most
    n^2 values, all of them within its first n^2 steps, so the minimum
    is taken over t <= min(k, n^2): O(min(k, n^2) n^2) per map.
    """
    _check_depth(k)
    n = len(m)
    depth = min(k, n * n)
    pairs = [(i, j, m[i][i] + m[j][j]) for i in range(n) for j in range(i, n)]

    def holds(images, i, j, bound):
        for _ in range(depth):
            i, j = images[i], images[j]
            if 2 * m[i][j] <= bound:
                return True
        return False

    return [images for images in itertools.product(range(n), repeat=n)
            if all(holds(images, i, j, bound) for i, j, bound in pairs)]


# Each enumerable checker and the image tuples it passes on a table.
_MAPS_PASSING = {
    check_contraction: _contraction_maps,
    check_condition_max: _max_condition_maps,
    check_condition_min: _min_condition_maps,
}


def exhaustive_condition_maps(space: FinitePMSpace, check: Callable[..., ConditionReport],
                              param: Fraction | int) -> list[MapSpec]:
    """All self-maps of a tiny space that pass ``check(space, T, param)``, in table order.

    ``check`` is :func:`check_contraction`, :func:`check_condition_max`
    or :func:`check_condition_min` (or a wrapper that sets
    ``__wrapped__`` to one of them), and ``param`` its alpha or k. The
    maps come in ``itertools.product`` order over the images, and each
    verdict is the checker's own, evaluated by index on ``space.num``.
    Under the contraction and max-conditions a pair whose images are
    both assigned and that fails prunes every map extending those
    assignments; the min-condition tests every map. Only survivors are
    built as ``MapSpec``s. Errors: ``StructureError`` on a space with no
    table, ``SizeLimitError`` past five points, then the checker's own
    ``ValueError`` for a bad parameter.
    """
    require_table(space, "exhaustive_condition_maps")
    n = len(space)
    if n > 5:
        raise SizeLimitError(f"{n}**{n} maps is past the enumeration cutoff (n <= 5)")
    maps_passing = _MAPS_PASSING.get(inspect.unwrap(check))
    if maps_passing is None:
        raise ValueError(f"the enumeration takes check_contraction, check_condition_max "
                         f"or check_condition_min, not {check!r}")
    pts = space.points
    ids = [format_point(p) for p in pts]
    return [MapSpec.from_table("map:" + ",".join(ids[i] for i in images),
                               {pts[i]: pts[images[i]] for i in range(n)})
            for images in maps_passing(space.num, param)]
