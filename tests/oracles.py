"""Independent brute-force oracles used to freeze expected values.

The scan oracles deliberately avoid the package's kernels and
normalization: plain Fraction comparisons in the same canonical scan
order, plus a complete radius-scan decision for the separation axioms.
The sweep references at the end are the radius and factor sweeps that
gdelta_diagonal, maximal_points, constant_map_bottom and the
max-condition enumeration once ran in full, the partial-order recheck
that specialization_order once ran, and the map enumeration that
exhaustive_condition_maps once ran: every self-map built as a MapSpec
and passed to its checker (condition_maps_by_sweep). The topology
references call no probe they are compared with: T1 comes from
separation_by_radius_scan, the order from specialization_order_by_sweep
and every ball from Fraction comparisons on the table; the others reuse
the package's other pieces unchanged. random_pm_space_by_fractions is the
generator as it once ran, on Fractions, and condition_min_by_loop the
min-condition check as it once ran: all k iterate steps for every pair.
table_by_cells reads a table one Fraction per cell, with no memo and no regex.
greedy_net_by_sets is the greedy eps-net on Fractions and Python sets of
indices, as totally_bounded_at once ran it on sets of points.
"""

import itertools
import math
import random
from fractions import Fraction

from partialmetric.analysis import GDeltaReport, SpecializationOrder
from partialmetric.catalog import MapSpec
from partialmetric.core import FinitePMSpace, bottom_set
from partialmetric.errors import AxiomFailureError
from partialmetric.fixedpoint import (DEFAULT_ALPHA_GRID, ConditionReport, ConditionViolation,
                                      check_condition_max)
from partialmetric.points import format_point


def axiom_violation(matrix):
    """First axiom violation as (name, i, j, k), or None. Pure Fractions."""
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            if i != j and matrix[i][i] == matrix[i][j] == matrix[j][j]:
                return ("P1", i, j, -1)
    for i in range(n):
        for j in range(n):
            if i != j and matrix[i][i] > matrix[j][i]:
                return ("P2", i, j, -1)
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                return ("P3", i, j, -1)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][j] > matrix[i][k] + matrix[k][j] - matrix[k][k]:
                    return ("P4", i, j, k)
    return None


def table_by_cells(matrix):
    """(num, den) of a table read cell by cell: ``Fraction`` on each entry, then the lcm.

    ``den`` is the least common denominator and ``num`` the rows scaled to it.
    Only entries in ``points.read_ratio``'s grammar agree with the package.
    """
    rows = [[Fraction(v) for v in row] for row in matrix]
    den = math.lcm(*(q.denominator for row in rows for q in row))
    return tuple(tuple(q.numerator * (den // q.denominator) for q in row) for row in rows), den


def greedy_net_by_sets(matrix, eps):
    """Indices of the greedy eps-net's centers, in pick order. Pure Fractions, Python sets.

    The ball of c is {y : p(c,y) < p(c,c) + eps}. Each step picks the
    uncovered point whose ball holds the most uncovered points, ties to
    the lowest index, until every point is covered.
    """
    m = [[Fraction(v) for v in row] for row in matrix]
    n, eps = len(m), Fraction(eps)
    balls = [{y for y in range(n) if m[c][y] < m[c][c] + eps} for c in range(n)]
    uncovered = set(range(n))
    centers = []
    while uncovered:
        best = min(uncovered, key=lambda c: (-len(balls[c] & uncovered), c))
        centers.append(best)
        uncovered -= balls[best]
    return centers


def metric_violation(matrix):
    n = len(matrix)
    for i in range(n):
        if matrix[i][i] != 0:
            return ("identity", i, i)
    for i in range(n):
        for j in range(n):
            if i != j and matrix[i][j] <= 0:
                return ("positivity", i, j)
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                return ("symmetry", i, j)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][j] > matrix[i][k] + matrix[k][j]:
                    return ("triangle", i, j, k)
    return None


def triangle_rows(matrix):
    """Rows i with some p(i,j) > p(i,k) + p(k,j) - p(k,k), in order. Pure Fractions."""
    n = len(matrix)
    return [i for i in range(n)
            if any(matrix[i][j] > matrix[i][k] + matrix[k][j] - matrix[k][k]
                   for j in range(n) for k in range(n))]


def upper_triangle_rows(matrix):
    """Rows i with some p(i,j) > p(i,k) + p(k,j) - p(k,k) at a j > i, in order. Pure Fractions."""
    n = len(matrix)
    return [i for i in range(n)
            if any(matrix[i][j] > matrix[i][k] + matrix[k][j] - matrix[k][k]
                   for j in range(i + 1, n) for k in range(n))]


def _candidate_radii(matrix):
    n = len(matrix)
    gaps = sorted({matrix[i][j] - matrix[i][i]
                   for i in range(n) for j in range(n)
                   if matrix[i][j] > matrix[i][i]})
    if not gaps:
        return [Fraction(1)]
    radii = [gaps[0] / 2] + gaps
    radii += [(gaps[t] + gaps[t + 1]) / 2 for t in range(len(gaps) - 1)]
    radii.append(gaps[-1] + 1)
    return sorted(set(radii))


def separation_by_radius_scan(matrix):
    """(t0, t1, hausdorff) of the ball topology by a complete search over radii.

    Ball membership only changes at the entry-difference thresholds, and
    the candidate set hits every interval between consecutive thresholds,
    so the balls at the candidate radii are every ball around a point.
    T0 asks for a ball around one point of each pair that leaves out the
    other, T1 for one around each, Hausdorff for two disjoint ones.
    """
    n = len(matrix)
    radii = _candidate_radii(matrix)
    balls = [{frozenset(j for j in range(n) if matrix[c][j] < matrix[c][c] + eps)
              for eps in radii} for c in range(n)]

    def leaves_out(c, y):
        return any(y not in b for b in balls[c])

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    t0 = all(leaves_out(i, j) or leaves_out(j, i) for i, j in pairs)
    t1 = all(leaves_out(i, j) and leaves_out(j, i) for i, j in pairs)
    hausdorff = all(any(not (b & c) for b in balls[i] for c in balls[j]) for i, j in pairs)
    return t0, t1, hausdorff


def specialization_order_by_sweep(space):
    """specialization_order with the O(n^3) partial-order recheck it once ran.

    The relation is p(x,y) == p(x,x) over the Fraction view, after the
    oracle's own axiom scan.
    """
    m, n = space.matrix, len(space)
    hit = axiom_violation(m)
    if hit is not None:
        raise AxiomFailureError(f"space violates {hit[0]}")
    dom = tuple(tuple(m[i][j] == m[i][i] for j in range(n)) for i in range(n))
    for i in range(n):
        if not dom[i][i]:
            raise RuntimeError("specialization order lost reflexivity")
        for j in range(n):
            if i != j and dom[i][j] and dom[j][i]:
                raise RuntimeError("specialization order lost antisymmetry")
            for k in range(n):
                if dom[i][j] and dom[j][k] and not dom[i][k]:
                    raise RuntimeError("specialization order lost transitivity")
    return SpecializationOrder(space.points, dom)


def gdelta_by_sweep(space):
    """gdelta_diagonal by intersecting the product-ball sets at eps = 1/k, k = 1..n0."""
    m, n = space.matrix, len(space)
    t1 = separation_by_radius_scan(m)[1]
    gaps = [m[i][j] - m[i][i] for i in range(n) for j in range(n) if m[i][j] > m[i][i]]
    n0 = max(1, math.ceil(1 / min(gaps))) if gaps else 1

    def product_pairs(eps):
        members = []
        for c in range(n):
            inside = [i for i in range(n) if m[c][i] - m[c][c] < eps]
            members.extend((i, j) for i in inside for j in inside)
        return frozenset(members)

    inter = product_pairs(Fraction(1, 1))
    for k in range(2, n0 + 1):
        inter &= product_pairs(Fraction(1, k))
    diagonal = frozenset((i, i) for i in range(n))
    return GDeltaReport(t1, n0, inter == diagonal)


def maximal_points_by_sweep(space):
    """maximal_points with the maximal-ball cover checked at every candidate radius.

    The order is specialization_order_by_sweep's, the balls are Fraction
    comparisons on the table, as in separation_by_radius_scan.
    """
    order = specialization_order_by_sweep(space)
    m, n = space.matrix, len(space)
    maximal = [j for j in range(n)
               if not any(i != j and order.dominates[i][j] for i in range(n))]
    for eps in _candidate_radii(m):
        covered = set()
        for c in maximal:
            covered |= {y for y in range(n) if m[c][y] < m[c][c] + eps}
        if covered != set(range(n)):
            raise RuntimeError(f"maximal balls fail to cover at radius {eps}")
    return frozenset(space.points[j] for j in maximal)


def constant_map_bottom_by_sweep(space, alphas=DEFAULT_ALPHA_GRID):
    """constant_map_bottom with the max-condition checked at every grid factor."""
    survivors = []
    for z in space.points:
        T = MapSpec.constant(z)
        if all(check_condition_max(space, T, a).ok for a in alphas):
            survivors.append(z)
    if set(survivors) != set(bottom_set(space)):
        raise RuntimeError("constant-map survivors differ from the bottom set")
    return tuple(survivors)


def _every_map(space):
    pts, n = space.points, len(space)
    for images in itertools.product(range(n), repeat=n):
        yield MapSpec.from_table("map:" + ",".join(format_point(pts[i]) for i in images),
                                 {pts[i]: pts[images[i]] for i in range(n)})


def max_condition_maps_by_sweep(space, alphas):
    """Names of the self-maps passing the max-condition at every grid factor, in table order."""
    return [T.name for T in _every_map(space)
            if all(check_condition_max(space, T, a).ok for a in alphas)]


def condition_maps_by_sweep(space, check, param):
    """Names of the self-maps passing ``check(space, T, param)``, in table order.

    Every map of the full product is built and checked; a bad parameter
    raises the checker's own error at the first map.
    """
    return [T.name for T in _every_map(space) if check(space, T, param).ok]


def random_pm_space_by_fractions(seed, n, zero_f=False):
    """random_pm_space with Floyd-Warshall and the table on Fractions."""
    if n < 1:
        raise ValueError("need at least one point")
    rng = random.Random(f"pm-random/{seed}/{n}/{int(zero_f)}")
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, 24), 12)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    anchor = rng.randrange(n)
    offset = Fraction(rng.randint(0, 12), 12)
    f = [Fraction(0)] * n if zero_f else [d[i][anchor] + offset for i in range(n)]
    points = [Fraction(i) for i in range(n)]
    return FinitePMSpace(points, [[(d[i][j] + f[i] + f[j]) / 2 for j in range(n)]
                                  for i in range(n)])


def condition_min_by_loop(space, T, k):
    """check_condition_min over the canonical pairs, running all k steps for every pair."""
    pts = space.canonical_sample
    pairs = [(pts[i], pts[j]) for i in range(len(pts)) for j in range(i, len(pts))]
    for x, y in pairs:
        u, v, best = x, y, None
        for _ in range(k):
            u, v = T.apply(u), T.apply(v)
            val = space.p(u, v)
            best = val if best is None or val < best else best
        rhs = (space.p(x, x) + space.p(y, y)) / 2
        if best > rhs:
            return ConditionReport("min", {"k": k}, "violated", space.scope, len(pairs),
                                   ConditionViolation(x, y, best, rhs))
    return ConditionReport("min", {"k": k}, "holds", space.scope, len(pairs), None)
