"""Structural property suite over randomly generated spaces.

Every generated table must pass the axiom scan, its minimal-ball
relation must be a partial order whose marked pairs carry the dominance
values, the minimal balls of its maximal points must cover it, it must
be T1 iff every point is maximal (the paper's second claim on a finite
table: Hausdorff, hence metrizable), and every enumerated max-condition
survivor at alpha = 1/2 must fix exactly one point of the bottom set
(the paper's third claim). The topology probes compute; the suite keeps
only the checks whose two sides run different code, and each runs once
here.

The rest are theorems, so no check compares them:

- The constant-map bottom is the bottom set, by the theorem that
  ``fixedpoint.constant_map_bottom`` states.
- The three derived metrics of a table that passes P1-P4 are metrics
  (S. G. Matthews, "Partial metric topology", Ann. New York Acad. Sci.
  728, 1994):
  - p_m(x,y) = 2p(x,y) - p(x,x) - p(y,y) is at least 0 by P2 twice, is
    0 off the diagonal only if p(x,x) = p(x,y) = p(y,y), which P1
    excludes, and its triangle inequality is P4;
  - d, p off the diagonal and 0 on it: p(x,y) >= p(x,x) >= 0 by P2 and
    the constructor's refusal of negative entries, p(x,y) = 0 off the
    diagonal would force p(x,x) = p(y,y) = 0 against P1, and
    p(x,z) <= p(x,y) + p(y,z) - p(y,y) <= p(x,y) + p(y,z) by P4;
  - p_bar = p - rho on the bottom set B: every p(x,x) there is rho, so
    p_bar is p_m / 2 on B.
- The kept masks of ``core.minimal_balls`` are the balls at half the
  least positive gap g. In units of 1/den the masks use radius 1, and
  half the gap rounds up to ceil(g/2), with 1 <= ceil(g/2) <= g. Every
  gap is an integer, and one below either radius is at most 0, since a
  positive one is at least g. With no positive gap, every positive
  radius gives these balls.
- The Hausdorff verdict of ``core.separation_class`` and the
  ``equals_diagonal`` verdict of ``analysis.gdelta_diagonal`` are the T1
  verdict of ``separation_class`` by construction: two points are separated by balls iff their
  smallest balls are disjoint, and the diagonal is the union of the
  squares of the smallest balls iff each holds only its own point.

Three more theorems are what the suite's checks hold the code to, since
each side of them is computed by different code:

- On a table that passes P1-P4 the relation "mask x holds y", that is
  p(x,y) <= p(x,x), is a partial order. It is reflexive. It is
  antisymmetric: with P2, x and y holding each other give
  p(x,x) = p(x,y) = p(y,y), which P1 excludes for x != y. It is
  transitive: p(x,y) = p(x,x) and p(y,z) = p(y,y) give, by P4,
  p(x,z) <= p(x,y) + p(y,z) - p(y,y) = p(x,x). A marked pair x != y
  carries the dominance values p(x,y) = p(x,x) > p(y,y): P2 gives
  p(x,y) >= p(x,x) and p(y,y) <= p(x,y), and P1 excludes equality.
- T1 holds iff every point is maximal: both say that no mask holds a
  point besides its own.
- A map T that passes the max-condition at alpha = 1/2 on a table that
  passes P1-P4 has exactly one fixed point in the bottom set B, where
  every p(z,z) is the least self-distance rho. The pair (z, z) with z in
  B gives p(Tz,Tz) <= max{rho/2, rho} = rho, so T maps B into B. For x,
  y in B the condition reads p(Tx,Ty) <= max{p(x,y)/2, rho}, and
  p(Tx,Ty) >= rho by P2, so p_bar(Tx,Ty) <= p_bar(x,y)/2 with
  p_bar = p - rho, since rho >= 0 and p(x,y) >= rho. By Matthews' lemma
  above p_bar is the metric p_m / 2 on B, so T is a contraction of a
  finite, hence complete, nonempty metric space, and Banach's theorem
  gives the one fixed point. The enumerator decides the condition on
  the table's integer rows; the check applies each survivor's
  ``MapSpec`` to the points of B and counts the points it fixes.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import compress
from typing import Iterable

from .analysis import maximal_points, specialization_order
from .catalog import random_pm_space
from .core import (
    FinitePMSpace,
    bottom_set,
    check_axioms,
    minimal_balls,
    require_table,
    separation_class,
    set_bits,
)
from .fixedpoint import check_condition_max, exhaustive_condition_maps
from .points import Record, format_point

# Tables up to this size get the bottom fixed-point check. A table at the
# limit has about 18 max-condition survivors, and the check makes one
# T.apply per bottom point of each.
ENUMERATION_LIMIT = 4
ALPHA = Fraction(1, 2)  # the max-condition factor of the bottom fixed-point check


class PropertyFailure(Record):
    seed: int
    n: int
    check: str
    detail: str


class PropertyRunResult(Record):
    spaces_checked: int
    elapsed_seconds: float  # rounded to the millisecond
    failures: tuple[PropertyFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _partial_order_problems(masks) -> list[str]:
    """Reflexivity, antisymmetry and transitivity of a relation, on bitmask rows.

    Row i is a mask of the j it marks; the pairs (i, j) are read from the
    set bits alone, and transitivity is "every row that row i marks is a
    subset of row i", one mask test per pair. Reports the first failure
    of each kind.
    """
    pairs = [(i, j) for i, mask in enumerate(masks) for j in set_bits(mask)]
    problems = [f"specialization order: not reflexive at {i}"
                for i, mask in enumerate(masks) if not mask >> i & 1][:1]
    problems += [f"specialization order: not antisymmetric at ({i},{j})"
                 for i, j in pairs if i != j and masks[j] >> i & 1][:1]
    for i, j in pairs:
        missing = masks[j] & ~masks[i]
        if missing:
            k = (missing & -missing).bit_length() - 1
            problems.append(f"specialization order: not transitive at ({i},{j},{k})")
            break
    return problems


def _metrizability_problems(space: FinitePMSpace, masks: tuple[int, ...], hats) -> list[str]:
    """The paper's second claim on a finite table: T1 iff every point is maximal.

    A finite valid table is Hausdorff iff it is T1, and its topology is
    then discrete, that of p_m. ``separation_class`` reads T1 from the
    masks and ``maximal_points`` the maximal points; on a disagreement
    the first pair whose minimal balls meet is read from the kept masks.
    """
    t1, every_maximal = separation_class(space).t1, len(hats) == len(masks)
    if t1 == every_maximal:
        return []
    n = len(masks)
    meet = next((f"({i},{j})" for i in range(n) for j in range(i + 1, n) if masks[i] & masks[j]),
                "none")
    return [f"metrizability: t1={t1}, every point maximal={every_maximal} disagree; "
            f"first pair whose minimal balls meet: {meet}"]


def check_space_properties(space: FinitePMSpace) -> list[str]:
    """All structural checks for one space; returns failure descriptions.

    A table that passes the axioms is not scanned for the metric axioms
    of p_m, d or p_bar on the bottom set: Matthews' lemma in the module
    docstring proves them from P1-P4. No verdict that the lemmas there
    make equal to another is compared with it, and no ball is rebuilt:
    the checks read the masks the table keeps.
    """
    require_table(space, "check_space_properties")
    problems: list[str] = []
    report = check_axioms(space)
    if not report.ok:
        problems.append(f"axioms: {report.violated_axiom} at {report.witness}")
        return problems

    masks, order = minimal_balls(space), specialization_order(space)
    problems += _partial_order_problems(masks)
    m, n = space.num, len(space)
    for i, row in enumerate(order.dominates):
        for j in compress(range(n), row):
            if i != j and not (m[i][j] == m[i][i] > m[j][j]):
                problems.append(f"dominance values: broken at ({i},{j})")

    # Each mask is the smallest ball around its center, at radius 1/den.
    # Balls only grow with the radius, so a cover here is a cover at every radius.
    hats = maximal_points(space)
    covered = 0
    for x in hats:
        covered |= masks[space.index(x)]
    if covered != (1 << n) - 1:
        problems.append(f"maximal cover: maximal balls fail to cover at radius "
                        f"{Fraction(1, space.den)}")
    problems += _metrizability_problems(space, masks, hats)

    if n <= ENUMERATION_LIMIT:
        bottom = bottom_set(space)
        for T in exhaustive_condition_maps(space, check_condition_max, ALPHA):
            fixed = [format_point(z) for z in bottom if T.apply(z) == z]
            if len(fixed) != 1:
                problems.append(f"bottom fixed point: survivor {T.name} fixes "
                                f"{{{', '.join(fixed)}}} in the bottom set, not one point")
    return problems


def property_run(seeds: Iterable[int], max_n: int = 7) -> PropertyRunResult:
    """Run the full suite over random spaces with n = (seed mod max_n) + 1."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    start = time.monotonic()
    failures: list[PropertyFailure] = []
    checked = 0
    for seed in seeds:
        checked += 1
        n = seed % max_n + 1
        space = random_pm_space(seed, n)
        for problem in check_space_properties(space):
            failures.append(PropertyFailure(seed, n, problem.partition(":")[0], problem))
    return PropertyRunResult(checked, round(time.monotonic() - start, 3), tuple(failures))
