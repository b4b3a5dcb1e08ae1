"""Structural property suite over randomly generated spaces.

Every generated table must pass the axiom scan, the specialization
relation must be a partial order whose maximal balls cover the space,
the five finite forms of "Hausdorff, hence metrizable" must agree, and
every enumerated max-condition survivor must keep the bottom set
invariant and contract under the shifted metric. The topology probes
compute; each invariant they rest on is checked here, once.

Two invariants are theorems, so no check compares them:

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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable

from .analysis import gdelta_diagonal, maximal_points, specialization_order
from .catalog import random_pm_space
from .core import (
    FinitePMSpace,
    ball_masks,
    bottom_set,
    check_axioms,
    least_gap,
    minimal_balls,
    require_table,
    separation_class,
    set_bits,
)
from .fixedpoint import check_condition_max, exhaustive_condition_maps
from .points import Record

ENUMERATION_LIMIT = 4
ALPHA = Fraction(1, 2)  # the max-condition factor, also in the shifted contraction


@dataclass(frozen=True)
class PropertyFailure(Record):
    seed: int
    n: int
    check: str
    detail: str


@dataclass(frozen=True)
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


def _metrizability_problems(space: FinitePMSpace, balls: list[int], hats) -> list[str]:
    """The paper's second claim on a finite table: five verdicts that must agree.

    A finite valid table is Hausdorff iff it is T1, iff its diagonal is
    the ball-product intersection, iff every point is maximal, iff every
    ball at the deciding radius is a singleton; its topology is then
    discrete, that of p_m. The last verdict comes from ``core.ball_masks``
    at that radius, not from the minimal-ball masks the table keeps and
    the other four read, and so does the reported pair.
    """
    sep, gd = separation_class(space), gdelta_diagonal(space)
    verdicts = {"hausdorff": sep.hausdorff, "t1": sep.t1, "equals_diagonal": gd.equals_diagonal,
                "every point maximal": len(hats) == len(space),
                "singleton balls": all(b.bit_count() == 1 for b in balls)}
    if len(set(verdicts.values())) == 1:
        return []
    n = len(balls)
    meet = next((f"({i},{j})" for i in range(n) for j in range(i + 1, n) if balls[i] & balls[j]),
                "none")
    said = ", ".join(f"{k}={v}" for k, v in verdicts.items())
    return [f"metrizability: {said} disagree; first pair whose minimal balls meet: {meet}"]


def check_space_properties(space: FinitePMSpace) -> list[str]:
    """All structural checks for one space; returns failure descriptions.

    A table that passes the axioms is not scanned for the metric axioms
    of p_m, d or p_bar on the bottom set: Matthews' lemma in the module
    docstring proves them from P1-P4.
    """
    require_table(space, "check_space_properties")
    problems: list[str] = []
    report = check_axioms(space)
    if not report.ok:
        problems.append(f"axioms: {report.violated_axiom} at {report.witness}")
        return problems

    order = specialization_order(space)
    problems += _partial_order_problems(minimal_balls(space))
    m, n = space.num, len(space)
    for i, row in enumerate(order.dominates):
        for j in compress(range(n), row):
            if i != j and not (m[i][j] == m[i][i] > m[j][j]):
                problems.append(f"dominance values broken at ({i},{j})")

    # The deciding radius: below every positive gap, so each ball is the
    # smallest one around its center. Balls only grow with the radius, so
    # a cover here is a cover at every radius. Balls are index masks.
    gap = least_gap(space)
    eps = gap / 2 if gap is not None else Fraction(1)
    balls = ball_masks(space, eps)
    hats = maximal_points(space)
    covered = 0
    for x in hats:
        covered |= balls[space.index(x)]
    if covered != (1 << n) - 1:
        problems.append(f"maximal cover: maximal balls fail to cover at radius {eps}")
    problems += _metrizability_problems(space, balls, hats)

    if n <= ENUMERATION_LIMIT:
        pts, at_bottom = space.points, [space.index(z) for z in bottom_set(space)]
        rho = m[at_bottom[0]][at_bottom[0]]
        a, b = ALPHA.numerator, ALPHA.denominator
        for T in exhaustive_condition_maps(space, check_condition_max, ALPHA):
            image = {i: space.index(T.apply(pts[i])) for i in at_bottom}
            for i in at_bottom:
                if image[i] not in at_bottom:
                    problems.append(f"survivor {T.name} moves {pts[i]} out of the bottom set")
            for pos, i in enumerate(at_bottom):
                for j in at_bottom[pos:]:
                    # p(Tx,Ty) - rho > ALPHA (p(x,y) - rho), over den and times b
                    if b * (m[image[i]][image[j]] - rho) > a * (m[i][j] - rho):
                        problems.append(f"survivor {T.name} breaks the shifted contraction "
                                        f"at ({pts[i]},{pts[j]})")
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
            failures.append(PropertyFailure(seed, n, problem.split(":")[0], problem))
    return PropertyRunResult(checked, round(time.monotonic() - start, 3), tuple(failures))
