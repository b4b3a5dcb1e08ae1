"""Structural property suite over randomly generated spaces.

Every generated table must pass the axiom scan, its three derived
metrics must be true metrics, the specialization relation must be a
partial order whose maximal balls cover the space, the diagonal must be
recovered whenever the space is T1, the constant-map survivors must be
exactly the bottom set, and every enumerated max-condition survivor must
keep the bottom set invariant and contract under the shifted metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import kernels
from .analysis import gdelta_diagonal, maximal_points, specialization_order
from .catalog import random_pm_space
from .core import (
    FinitePMSpace,
    bottom_set,
    check_axioms,
    d_matrix,
    p_bar_matrix,
    p_m_matrix,
    rho_of,
)
from .fixedpoint import check_condition_max, constant_map_bottom, exhaustive_condition_maps
from .points import Record, to_json

ENUMERATION_LIMIT = 4
ALPHA = Fraction(1, 2)  # the max-condition factor, also in the shifted contraction


@dataclass(frozen=True)
class PropertyFailure(Record):
    seed: int
    n: int
    check: str
    detail: str


@dataclass(frozen=True)
class PropertyRunResult:
    spaces_checked: int
    failures: tuple[PropertyFailure, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "spaces_checked": self.spaces_checked,
            "elapsed_seconds": round(self.elapsed, 3),
            "failures": to_json(self.failures),
        }


def check_space_properties(space: FinitePMSpace) -> list[str]:
    """All structural checks for one space; returns failure descriptions."""
    problems: list[str] = []
    report = check_axioms(space)
    if not report.ok:
        problems.append(f"axioms: {report.violated_axiom} at {report.witness}")
        return problems

    for label, matrix in (("p_m", p_m_matrix(space)), ("d", d_matrix(space))):
        hit = kernels.metric_scan(matrix)
        if hit is not None:
            problems.append(f"{label} metric axiom {hit.code} at ({hit.i},{hit.j},{hit.k})")
    bottom = bottom_set(space)
    hit = kernels.metric_scan(p_bar_matrix(space, restrict=bottom))
    if hit is not None:
        problems.append(f"p_bar|bottom metric axiom {hit.code}")

    try:
        order = specialization_order(space)
    except RuntimeError as exc:
        problems.append(f"specialization order: {exc}")
        return problems
    m, n = space.matrix, len(space)
    for i in range(n):
        for j in range(n):
            if i != j and order.matrix[i][j] and not (m[i][j] == m[i][i] > m[j][j]):
                problems.append(f"dominance values broken at ({i},{j})")

    try:
        maximal_points(space)
    except RuntimeError as exc:
        problems.append(f"maximal cover: {exc}")

    gd = gdelta_diagonal(space)
    if gd.t1 and not gd.equals_diagonal:
        problems.append("T1 space whose diagonal is not the ball-product intersection")

    try:
        constant_map_bottom(space)
    except RuntimeError as exc:
        problems.append(f"constant-map bottom: {exc}")

    if n <= ENUMERATION_LIMIT:
        rho = rho_of(space)
        bset = set(bottom)
        for T in exhaustive_condition_maps(space, check_condition_max, ALPHA):
            for z in bottom:
                if T.apply(z) not in bset:
                    problems.append(f"survivor {T.name} moves {z} out of the bottom set")
            for a in range(len(bottom)):
                for b in range(a, len(bottom)):
                    x, y = bottom[a], bottom[b]
                    lhs = space.p(T.apply(x), T.apply(y)) - rho
                    rhs = ALPHA * (space.p(x, y) - rho)
                    if lhs > rhs:
                        problems.append(
                            f"survivor {T.name} breaks the shifted contraction at ({x},{y})")
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
    return PropertyRunResult(checked, tuple(failures), time.monotonic() - start)
