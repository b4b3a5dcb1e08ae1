"""Independent brute-force oracles used to freeze expected values.

The scan oracles deliberately avoid the package's kernels and
normalization: plain Fraction comparisons in the same canonical scan
order, plus a complete radius-scan decision for the Hausdorff property.
The sweep references at the end are the radius and factor sweeps that
gdelta_diagonal, maximal_points, constant_map_bottom and the
max-condition enumeration once ran in full; they reuse the package's
other pieces unchanged.
"""

import itertools
import math
from fractions import Fraction

from partialmetric.analysis import GDeltaReport, specialization_order
from partialmetric.catalog import MapSpec
from partialmetric.core import ball, bottom_set, separation_class
from partialmetric.fixedpoint import DEFAULT_ALPHA_GRID, check_condition_max
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


def hausdorff_by_radius_scan(matrix):
    """Complete search over candidate radius pairs for disjoint balls.

    Ball membership only changes at the entry-difference thresholds, and
    the candidate set hits every interval between consecutive thresholds,
    so scanning all candidate pairs decides the property exactly.
    """
    n = len(matrix)
    radii = _candidate_radii(matrix)

    def ball(center, eps):
        return frozenset(j for j in range(n)
                         if matrix[center][j] < matrix[center][center] + eps)

    for i in range(n):
        for j in range(i + 1, n):
            if not any(not (ball(i, e1) & ball(j, e2)) for e1 in radii for e2 in radii):
                return False
    return True


def gdelta_by_sweep(space):
    """gdelta_diagonal by intersecting the product-ball sets at eps = 1/k, k = 1..n0."""
    m, n = space.matrix, len(space)
    t1 = separation_class(space).t1
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
    """maximal_points with the maximal-ball cover checked at every candidate radius."""
    order = specialization_order(space)
    n = len(space)
    maximal = [j for j in range(n)
               if not any(i != j and order.matrix[i][j] for i in range(n))]
    hats = frozenset(space.points[j] for j in maximal)
    for eps in _candidate_radii(space.matrix):
        covered = set()
        for j in maximal:
            covered |= ball(space, space.points[j], eps)
        if covered != set(space.points):
            raise RuntimeError(f"maximal balls fail to cover at radius {eps}")
    return hats


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


def max_condition_maps_by_sweep(space, alphas):
    """Names of the self-maps passing the max-condition at every grid factor, in table order."""
    pts, n = space.points, len(space)
    names = []
    for images in itertools.product(range(n), repeat=n):
        T = MapSpec.from_table("map:" + ",".join(format_point(pts[i]) for i in images),
                               {pts[i]: pts[images[i]] for i in range(n)})
        if all(check_condition_max(space, T, a).ok for a in alphas):
            names.append(T.name)
    return names
