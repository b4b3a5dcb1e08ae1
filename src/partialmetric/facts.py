"""Machine-checkable facts attached to the catalog entries.

Every fact re-derives one declared claim about an entry through the
public operations, at desk scale: axiom verdicts on canonical samples,
exact convergence and refutation certificates, condition checks, nets,
covers and fixed-point traces. The suite is deterministic; a fact failure
means the catalog and the analyzers disagree.

The facts are one table, :data:`FACTS`: each entry name maps to rows
``(slug, anchor, check)``. A check is a module-level function of the
entry that returns ``(ok, details)``, and it reads every map, sequence,
sample and declared set it needs from the entry it receives, so an
overriding entry is checked as given. :func:`facts_for_entry` composes
each fact's id ``<entry>/<slug>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .analysis import (
    SequenceSpec,
    ball_cover_check,
    converges_to,
    gdelta_diagonal,
    is_cauchy,
    limit_set,
    maximal_points,
    properly_converges,
    seq_compact_witness,
    totally_bounded_at,
)
from .catalog import (
    CatalogEntry,
    MapSpec,
    catalog_names,
    get_entry,
    validate_entry,
)
from .core import bottom_set, d_metric, diameter, p_bar, p_m, separation_class
from .fixedpoint import (
    DEFAULT_ALPHA_GRID,
    check_condition_max,
    check_contraction,
    constant_map_bottom,
    constant_map_ruled_out,
    exhaustive_condition_maps,
    iterate,
    least_factor,
    solve_on_bottom,
)
from .points import Record, format_point, read_points

F = Fraction

Check = Callable[[CatalogEntry], tuple[bool, str]]


@dataclass(frozen=True)
class Fact:
    fact_id: str
    anchor: str
    run: Check


@dataclass(frozen=True)
class FactResult(Record):
    fact_id: str
    anchor: str
    verdict: str  # "pass" | "fail"
    details: str

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class FactSuiteResult(Record):
    passed: int
    failed: int
    results: tuple[FactResult, ...]

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _fact_axioms_and_metadata(entry: CatalogEntry) -> tuple[bool, str]:
    problems = validate_entry(entry)
    if problems:
        return False, "; ".join(problems)
    return True, "canonical sample passes the axioms; declarations agree with samples"


def _all(conds: Sequence[tuple[bool, str]]) -> tuple[bool, str]:
    bad = [msg for ok, msg in conds if not ok]
    if bad:
        return False, "; ".join(bad)
    return True, f"{len(conds)} checks"


def _induced_metric_is_abs(e: CatalogEntry) -> tuple[bool, str]:
    pts = list(e.space.canonical_sample) + e.space.sample(1, 20)
    return _all([(p_m(e.space, x, y) == abs(x - y), f"p_m != |x-y| at ({x},{y})")
                 for i, x in enumerate(pts) for y in pts[i:]])


def _ex31_pbar_value(e: CatalogEntry) -> tuple[bool, str]:
    got = p_bar(e.space, F(1, 4), F(3, 4))
    return got == F(3, 4), f"p_bar(1/4, 3/4) = {got}"


def _ex32_bottom_is_empty_set(e: CatalogEntry) -> tuple[bool, str]:
    bottom = bottom_set(e.space.finite_sample())
    return (len(bottom) == 1 and str(bottom[0]) == "{}",
            f"bottom = {[str(b) for b in bottom]}")


def _ex32_alt_converges(e: CatalogEntry) -> tuple[bool, str]:
    target, = read_points(["{a,b}"], e.space.canonical_sample)
    rep = converges_to(e.space, e.sequence("ex3.2.alt"), target, tol=F(0))
    return (rep.mode == "converges" and rep.exact
            and rep.certificate is not None and rep.certificate.achieved_gap == 0,
            f"mode={rep.mode}, gap={rep.certificate.achieved_gap if rep.certificate else None}")


def _ex32_alt_not_cauchy(e: CatalogEntry) -> tuple[bool, str]:
    rep = is_cauchy(e.space, e.sequence("ex3.2.alt"))
    values = {g for _, g in rep.witness}
    return (rep.verdict == "refuted" and rep.exact and values == {F(1), F(2)},
            f"verdict={rep.verdict}, witness values={sorted(values)}")


def _ex34_nonnegatives(e: CatalogEntry) -> list:
    return [x for x in e.space.canonical_sample if x >= 0]


def _ex34_contraction(e: CatalogEntry) -> tuple[bool, str]:
    rep = check_contraction(e.space, e.map("ex3.4.T"), F(2, 3))
    return rep.ok, f"verdict={rep.verdict} over {rep.pairs_checked} {rep.scope} pairs"


def _ex34_bottom(e: CatalogEntry) -> tuple[bool, str]:
    got = bottom_set(e.space.finite_sample())
    return got == (F(-5),), f"bottom = {[format_point(b) for b in got]}"


def _ex34_iterates_reach(e: CatalogEntry) -> tuple[bool, str]:
    T = e.map("ex3.4.T")
    checks = []
    for x in e.space.canonical_sample:
        tr = iterate(e.space, T, x, budget=5)
        checks.append((tr.outcome == "fixed_point" and tr.fixed_point == F(-5) and tr.steps <= 5,
                       f"from {format_point(x)}: {tr.outcome} in {tr.steps} steps"))
    return _all(checks)


def _ex34_recip_converges(e: CatalogEntry) -> tuple[bool, str]:
    seq = e.sequence("ex3.4.recip")
    return _all([(converges_to(e.space, seq, x, tol=F(1, 25), horizon=100).mode == "converges",
                  f"no certificate at {format_point(x)}") for x in _ex34_nonnegatives(e)])


def _ex34_recip_avoids_negatives(e: CatalogEntry) -> tuple[bool, str]:
    seq = e.sequence("ex3.4.recip")
    return _all([(converges_to(e.space, seq, x, tol=F(1, 25), horizon=100).mode != "converges",
                  f"spurious certificate at {format_point(x)}") for x in (F(-7), F(-6), F(-5))])


def _ex34_discontinuous(e: CatalogEntry) -> tuple[bool, str]:
    T = e.map("ex3.4.T")
    image_seq = e.sequence("ex3.4.T.recip")
    checks = []
    for x in _ex34_nonnegatives(e):
        rep = converges_to(e.space, image_seq, T.apply(x), tol=F(0))
        checks.append((rep.mode == "refuted" and rep.exact,
                       f"image sequence not refuted at T({format_point(x)})"))
    return _all(checks)


def _ex44_single_ball(e: CatalogEntry) -> tuple[bool, str]:
    sample = e.space.finite_sample()
    return _all([(ball_cover_check(sample, [F(1)], eps).covers, f"ball at 1 fails at eps={eps}")
                 for eps in (F(1, 10), F(1, 2), F(1))])


def _ex48_separated(e: CatalogEntry) -> tuple[bool, str]:
    pts = e.space.admit([F(n) for n in range(51)])  # each point checked here, once
    bad = [(x, y) for i, x in enumerate(pts) for y in pts[i + 1:]
           if e.space.evaluator(x, y) <= 1]
    return not bad, f"{len(bad)} close pairs" if bad else "all 1275 pairs exceed 1"


def _ex48_converge_zero(e: CatalogEntry) -> tuple[bool, str]:
    rep = converges_to(e.space, e.sequence("ex4.8.naturals"), F(0), tol=F(1, 25), horizon=100)
    return (rep.mode == "converges" and rep.certificate is not None
            and rep.certificate.tail_index == 25,
            f"mode={rep.mode}, tail={rep.certificate.tail_index if rep.certificate else None}")


def _ex48_cauchy_one(e: CatalogEntry) -> tuple[bool, str]:
    rep = is_cauchy(e.space, e.sequence("ex4.8.naturals"), tol=F(1, 25), horizon=200)
    return (rep.verdict == "cauchy_to" and rep.a is not None and abs(rep.a - 1) <= F(1, 25),
            f"verdict={rep.verdict}, a={rep.a}")


def _ex48_d_value(e: CatalogEntry) -> tuple[bool, str]:
    got = d_metric(e.space, F(2), F(3))
    return got == F(11, 6), f"d(2,3) = {got}"


def _ex54_max_cond(e: CatalogEntry) -> tuple[bool, str]:
    rep = check_condition_max(e.space, e.map("ex5.4.T"), F(1, 2))
    return rep.ok, f"verdict={rep.verdict} over {rep.pairs_checked} {rep.scope} pairs"


def _ex54_bottom(e: CatalogEntry) -> tuple[bool, str]:
    got = bottom_set(e.space.finite_sample())
    return got == (F(0), F(1, 2), F(3, 4), F(1)), f"bottom = {[format_point(b) for b in got]}"


def _ex54_fixed_points(e: CatalogEntry) -> tuple[bool, str]:
    T = e.map("ex5.4.T")
    fixed = {x for x in e.space.canonical_sample if T.apply(x) == x}
    return fixed == {F(1), F(2)}, f"fixed points in sample = {sorted(fixed)}"


def _ex54_dyadic_orbit(e: CatalogEntry, start: Fraction, fixed: Fraction) -> tuple[bool, str]:
    """The orbit from ``start`` is fixed + (start - fixed)/2**n and identifies ``fixed``."""
    tr = iterate(e.space, e.map("ex5.4.T"), start, budget=100,
                 known_fixed_points=e.known_fixed_points)
    dyadic = all(tr.iterates[n] == fixed + (start - fixed) / 2**n
                 for n in range(min(11, len(tr.iterates))))
    return (tr.outcome == "fixed_point" and tr.fixed_point == fixed and dyadic,
            f"outcome={tr.outcome}, fixed={tr.fixed_point}, dyadic={dyadic}")


def _ex54_iterate0(e: CatalogEntry) -> tuple[bool, str]:
    return _ex54_dyadic_orbit(e, F(0), F(1))


def _ex54_iterate3(e: CatalogEntry) -> tuple[bool, str]:
    return _ex54_dyadic_orbit(e, F(3), F(2))


def _ex54_two_outside_bottom(e: CatalogEntry) -> tuple[bool, str]:
    in_sample_bottom = F(2) in bottom_set(e.space.finite_sample())
    declared = e.space.declared_bottom.contains(F(2))
    return not in_sample_bottom and not declared, "2 sits above the bottom set"


def _ex54_orbits(e: CatalogEntry) -> tuple[bool, str]:
    o0, o3 = e.sequence("ex5.4.orbit0"), e.sequence("ex5.4.orbit3")
    return _all([
        (properly_converges(e.space, o0, F(1), horizon=64).mode == "properly_converges",
         "orbit from 0 not properly convergent to 1"),
        (properly_converges(e.space, o3, F(2), horizon=64).mode == "properly_converges",
         "orbit from 3 not properly convergent to 2"),
        (converges_to(e.space, o0, F(2), horizon=64).mode == "converges",
         "orbit from 0 should still plainly converge to 2"),
        (properly_converges(e.space, o0, F(2), horizon=64).mode == "refuted",
         "orbit from 0 should be refuted as a proper limit at 2"),
    ])


def _ex54_bottom_solve(e: CatalogEntry) -> tuple[bool, str]:
    T = e.map("ex5.4.T")
    rep = solve_on_bottom(e.space, T, F(1, 2), F(0), budget=100,
                          known_fixed_points=e.known_fixed_points)
    bottom_pts = [x for x in e.space.canonical_sample if e.space.declared_bottom.contains(x)]
    banach = all(
        e.space.p(T.apply(x), T.apply(y)) <= F(1, 2) * e.space.p(x, y)
        for i, x in enumerate(bottom_pts) for y in bottom_pts[i:]
    )
    return (rep.status == "fixed_point" and rep.fixed_point == F(1) and banach,
            f"status={rep.status}, fixed={rep.fixed_point}, shifted contraction={banach}")


def _ex55_recip_converges(e: CatalogEntry) -> tuple[bool, str]:
    rep = converges_to(e.space, e.sequence("ex5.5.recip"), F(0), tol=F(0), horizon=64)
    return (rep.mode == "converges" and rep.certificate is not None
            and rep.certificate.tail_index == 1 and rep.certificate.achieved_gap == 0,
            f"mode={rep.mode}")


def _ex55_proper_refuted(e: CatalogEntry) -> tuple[bool, str]:
    rep = properly_converges(e.space, e.sequence("ex5.5.recip"), F(0), horizon=64)
    gaps = {g for _, g in rep.witness}
    return rep.mode == "refuted" and gaps == {F(1)}, f"mode={rep.mode}, gaps={sorted(gaps)}"


def _ex55_const_bottom(e: CatalogEntry) -> tuple[bool, str]:
    got = constant_map_bottom(e.space.finite_sample())
    return (set(got) == {F(1, 2), F(1, 3), F(1)} and F(0) not in got,
            f"survivors = {[format_point(z) for z in got]}")


def _ex55_t0_violates(e: CatalogEntry) -> tuple[bool, str]:
    bad = check_condition_max(e.space, MapSpec.constant(F(0)), F(1, 2))
    good = check_condition_max(e.space, MapSpec.constant(F(1, 2)), F(1, 2))
    return (not bad.ok and good.ok,
            f"const 0 verdict={bad.verdict}, const 1/2 verdict={good.verdict}")


def _ex56_ruled_out(e: CatalogEntry) -> tuple[bool, str]:
    pts = list(e.space.canonical_sample) + e.space.sample(3, 16)
    return _all([(constant_map_ruled_out(e.space, z), f"{format_point(z)} not ruled out")
                 for z in pts])


def _ex56_in_sample_witnesses(e: CatalogEntry) -> tuple[bool, str]:
    half = check_condition_max(e.space, MapSpec.constant(F(1, 2)), F(3, 4))
    third = check_condition_max(e.space, MapSpec.constant(F(1, 3)), F(3, 4))
    quarter = check_condition_max(e.space, MapSpec.constant(F(1, 4)), F(3, 4))
    return (not half.ok and not third.ok and quarter.ok,
            "sample pairs expose 1/2 and 1/3; 1/4 needs the declared infimum "
            f"(scope={quarter.scope})")


def _ex56_limits_contain_zero(e: CatalogEntry) -> tuple[bool, str]:
    trunc = e.space.finite_sample()
    cycles = ((F(1, 2),), (F(1, 2), F(1, 3)), (F(1, 2), F(1, 3), F(1, 4)), (F(0), F(1, 2)))
    return _all([(F(0) in limit_set(trunc, SequenceSpec.periodic(cyc)),
                  f"0 missing for cycle {cyc}") for cyc in cycles])


def _ex56_not_hausdorff(e: CatalogEntry) -> tuple[bool, str]:
    sep = separation_class(e.space.finite_sample())
    return not sep.t1 and not sep.hausdorff, f"t1={sep.t1}, hausdorff={sep.hausdorff}"


def _ex56_tail_converges(e: CatalogEntry) -> tuple[bool, str]:
    rep = converges_to(e.space, e.sequence("ex5.6.tail"), F(0), tol=F(0), horizon=64)
    return rep.mode == "converges", f"mode={rep.mode}"


def _ex56_maximal_is_zero(e: CatalogEntry) -> tuple[bool, str]:
    got = maximal_points(e.space.finite_sample())
    return got == frozenset((F(0),)), f"maximal = {[format_point(p) for p in got]}"


def _ex58_bottom(e: CatalogEntry) -> tuple[bool, str]:
    got = bottom_set(e.space.finite_sample())
    return got == ("a",), f"bottom = {got}"


def _ex58_only_ta(e: CatalogEntry) -> tuple[bool, str]:
    survivors = exhaustive_condition_maps(e.space.finite_sample(), check_condition_max,
                                          least_factor(DEFAULT_ALPHA_GRID))
    tables = [dict(T.table) for T in survivors if T.table]
    return (len(survivors) == 1 and tables == [{"a": "a", "b": "a"}],
            f"{len(survivors)} survivors")


def _ex58_derived_values(e: CatalogEntry) -> tuple[bool, str]:
    return _all([
        (p_m(e.space, "a", "b") == 3, "p_m(a,b) != 3"),
        (d_metric(e.space, "b", "b") == 0, "d(b,b) != 0"),
        (diameter(e.space.finite_sample()) == 2, "diameter != 2"),
    ])


def _ex58_separation_and_diagonal(e: CatalogEntry) -> tuple[bool, str]:
    sample = e.space.finite_sample()
    sep = separation_class(sample)
    gd = gdelta_diagonal(sample)
    return (sep.t1 and gd.t1 and gd.stabilization_n == 1 and gd.equals_diagonal,
            f"t1={sep.t1}, stabilization={gd.stabilization_n}, diagonal={gd.equals_diagonal}")


def _ex58_pigeonhole(e: CatalogEntry) -> tuple[bool, str]:
    witness = seq_compact_witness(e.space.finite_sample(), SequenceSpec.periodic(("a", "b")))
    # only a constant subsequence along a cycle carries a progression
    return (witness.limit == "a" and witness.progression == (1, 2),
            f"kind={witness.kind}, limit={witness.limit}")


def _apex_global_net(e: CatalogEntry) -> tuple[bool, str]:
    net = totally_bounded_at(e.space.finite_sample(), F(1, 2))
    return net.centers == ("a",), f"net = {net.centers[:3]}..., size {net.size}"


def _apex_block_net(e: CatalogEntry) -> tuple[bool, str]:
    block = e.space.declared_bottom.members
    net = totally_bounded_at(e.space.finite_sample().restrict(block), F(1, 2))
    return net.size == len(block), f"size {net.size} for block of {len(block)}"


def _apex_block_centers_fail(e: CatalogEntry) -> tuple[bool, str]:
    rep = ball_cover_check(e.space.finite_sample(), list(e.space.declared_bottom.members),
                           F(1, 2))
    return not rep.covers and rep.uncovered == "a", f"covers={rep.covers}, witness={rep.uncovered}"


def _apex_maximal(e: CatalogEntry) -> tuple[bool, str]:
    got = maximal_points(e.space.finite_sample())
    return got == frozenset(("a",)), f"maximal = {sorted(map(str, got))}"


def _apex_diameter(e: CatalogEntry) -> tuple[bool, str]:
    got = diameter(e.space.finite_sample())
    return got == 2, f"diameter = {got}"


# Entry name -> its facts as (slug, anchor, check), in suite order.
FACTS: dict[str, tuple[tuple[str, str, Check], ...]] = {
    "ex3.1": (
        ("axioms+metadata", "ex3.1: valid space, infimum 1, empty bottom",
         _fact_axioms_and_metadata),
        ("induced-metric-abs", "ex3.1: induced metric is |x-y|", _induced_metric_is_abs),
        ("pbar-value", "ex3.1: shifted distance of (1/4, 3/4) is 3/4", _ex31_pbar_value),
    ),
    "ex3.2": (
        ("axioms+metadata", "ex3.2: union-size table is a partial metric",
         _fact_axioms_and_metadata),
        ("bottom-empty-subset", "ex3.2: only the empty subset attains the infimum",
         _ex32_bottom_is_empty_set),
        ("alt-converges", "ex3.2: the alternating singletons converge to {a,b} with exact "
         "gap 0", _ex32_alt_converges),
        ("alt-not-cauchy", "ex3.2: the alternating singletons oscillate between pairwise "
         "values 1 and 2", _ex32_alt_not_cauchy),
    ),
    "ex3.4": (
        ("axioms+metadata", "ex3.4: glued-ray table is a partial metric",
         _fact_axioms_and_metadata),
        ("contraction-two-thirds",
         "ex3.4: the jump map contracts with factor 2/3 on all sample pairs", _ex34_contraction),
        ("bottom-minus5", "ex3.4: -5 is the only bottom point", _ex34_bottom),
        ("iterates-reach-minus5",
         "ex3.4: every sample orbit hits the fixed point -5 within 5 steps",
         _ex34_iterates_reach),
        ("recip-converges-to-nonnegatives", "ex3.4: 1/n converges to every sampled x >= 0",
         _ex34_recip_converges),
        ("recip-avoids-negatives", "ex3.4: 1/n admits no certificate at the negative anchors",
         _ex34_recip_avoids_negatives),
        ("map-discontinuous",
         "ex3.4: the image sequence T(1/n) is exactly refuted at every T(x), x >= 0",
         _ex34_discontinuous),
    ),
    "ex4.4": (
        ("axioms+metadata", "ex4.4: max table is a partial metric", _fact_axioms_and_metadata),
        ("single-ball-covers", "ex4.4: one ball around 1 covers the sample at every radius",
         _ex44_single_ball),
        ("induced-metric-abs", "ex4.4: induced metric is |x-y|", _induced_metric_is_abs),
    ),
    "ex4.8": (
        ("axioms+metadata", "ex4.8: spread-out table is a partial metric",
         _fact_axioms_and_metadata),
        ("separated-pairs", "ex4.8: distinct points up to 50 stay above 1", _ex48_separated),
        ("naturals-converge-to-0",
         "ex4.8: the naturals converge to 0 with tail 25 at tolerance 1/25", _ex48_converge_zero),
        ("naturals-cauchy-near-1", "ex4.8: pairwise values stabilize near 1", _ex48_cauchy_one),
        ("d-metric-value", "ex4.8: collapse metric gives d(2,3) = 11/6", _ex48_d_value),
    ),
    "ex5.4": (
        ("axioms+metadata", "ex5.4: two-block table is a partial metric",
         _fact_axioms_and_metadata),
        ("max-condition-half",
         "ex5.4: the halving map satisfies the max-condition at factor 1/2", _ex54_max_cond),
        ("bottom-of-sample", "ex5.4: sample bottom set is {0, 1/2, 3/4, 1}", _ex54_bottom),
        ("fixed-points", "ex5.4: exactly 1 and 2 are fixed in the sample", _ex54_fixed_points),
        ("iterate-0-to-1", "ex5.4: dyadic orbit from 0 identifies the fixed point 1",
         _ex54_iterate0),
        ("iterate-3-to-2", "ex5.4: dyadic orbit from 3 identifies the fixed point 2",
         _ex54_iterate3),
        ("two-not-in-bottom", "ex5.4: the fixed point 2 lies outside the bottom set",
         _ex54_two_outside_bottom),
        ("orbit-certificates", "ex5.4: orbit limits are proper exactly at their own fixed "
         "points", _ex54_orbits),
        ("bottom-reduction", "ex5.4: shifted-metric contraction solves to 1 on the bottom set",
         _ex54_bottom_solve),
    ),
    "ex5.5": (
        ("axioms+metadata", "ex5.5: the flat table is a partial metric",
         _fact_axioms_and_metadata),
        ("recip-converges-to-0", "ex5.5: 1/n converges to 0 with exact gap 0",
         _ex55_recip_converges),
        ("recip-improper", "ex5.5: the self-distances stick at 0 against p(0,0) = 1, so proper "
         "convergence is refuted", _ex55_proper_refuted),
        ("constant-bottom-excludes-0",
         "ex5.5: constant-map survivors are exactly the positive sample points",
         _ex55_const_bottom),
        ("const-0-violates", "ex5.5: the constant map at 0 fails the max-condition while "
         "positive constants pass", _ex55_t0_violates),
    ),
    "ex5.6": (
        ("axioms+metadata",
         "ex5.6: unit-fraction table is a partial metric with unattained infimum",
         _fact_axioms_and_metadata),
        ("constants-ruled-out", "ex5.6: every sampled constant map is ruled out against the "
         "declared infimum 0", _ex56_ruled_out),
        ("in-sample-witnesses", "ex5.6: smaller sample points witness the failure of larger "
         "constants", _ex56_in_sample_witnesses),
        ("limit-sets-contain-0", "ex5.6: every sample cycle converges to 0",
         _ex56_limits_contain_zero),
        ("not-hausdorff", "ex5.6: the truncation is neither T1 nor Hausdorff",
         _ex56_not_hausdorff),
        ("tail-converges-to-0", "ex5.6: the unit-fraction tail converges to 0 with exact gap 0",
         _ex56_tail_converges),
        ("maximal-point", "ex5.6: 0 is the unique maximal point of the truncation",
         _ex56_maximal_is_zero),
    ),
    "ex5.8": (
        ("axioms+metadata", "ex5.8: the two-point table is a partial metric",
         _fact_axioms_and_metadata),
        ("bottom-a", "ex5.8: a is the only bottom point", _ex58_bottom),
        ("only-constant-a-survives", "ex5.8: the constant map at a is the only max-condition map",
         _ex58_only_ta),
        ("derived-values", "ex5.8: p_m(a,b)=3, d(b,b)=0, diameter 2", _ex58_derived_values),
        ("t1-diagonal", "ex5.8: T1 with the diagonal recovered at radius 1",
         _ex58_separation_and_diagonal),
        ("alternating-pigeonhole",
         "ex5.8: the alternating sequence yields the constant subsequence at a",
         _ex58_pigeonhole),
    ),
    "apex": (
        ("axioms+metadata", "apex: the apex table is a partial metric",
         _fact_axioms_and_metadata),
        ("global-net-size-1", "apex: one apex ball is a 1/2-net for everything",
         _apex_global_net),
        ("block-net-blows-up", "apex: restricted to the block, the 1/2-net needs every point",
         _apex_block_net),
        ("block-balls-miss-apex", "apex: block-centered balls never reach the apex",
         _apex_block_centers_fail),
        ("maximal-point", "apex: the apex is the unique maximal point and its balls cover",
         _apex_maximal),
        ("diameter", "apex: diameter 2", _apex_diameter),
    ),
}


def facts_for_entry(name: str) -> list[Fact]:
    """The facts :data:`FACTS` declares for one entry, each with the id ``<name>/<slug>``."""
    return [Fact(f"{name}/{slug}", anchor, check) for slug, anchor, check in FACTS.get(name, ())]


def run_fact_suite(names: Optional[Sequence[str]] = None,
                   overrides: Optional[dict[str, CatalogEntry]] = None) -> FactSuiteResult:
    """Run every declared fact; failures are verdicts, not errors."""
    chosen = list(names) if names is not None else catalog_names()
    results: list[FactResult] = []
    for name in chosen:
        entry = (overrides or {}).get(name) or get_entry(name)
        for fact in facts_for_entry(name):
            try:
                ok, details = fact.run(entry)
            except Exception as exc:  # a crash is a failing fact, not a crash of the suite
                ok, details = False, f"{type(exc).__name__}: {exc}"
            results.append(FactResult(fact.fact_id, fact.anchor, "pass" if ok else "fail",
                                      details))
    passed = sum(r.ok for r in results)
    return FactSuiteResult(passed, len(results) - passed, tuple(results))
