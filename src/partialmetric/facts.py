"""Machine-checkable facts attached to the catalog entries.

Every fact re-derives one declared claim about an entry through the
public operations, at desk scale: axiom verdicts on canonical samples,
exact convergence and refutation certificates, condition checks, nets,
covers and fixed-point traces. The suite is deterministic; a fact failure
means the catalog and the analyzers disagree.
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
from .points import format_point, to_json

F = Fraction


@dataclass(frozen=True)
class Fact:
    fact_id: str
    anchor: str
    run: Callable[[CatalogEntry], tuple[bool, str]]


@dataclass(frozen=True)
class FactResult:
    fact_id: str
    anchor: str
    ok: bool
    details: str

    def to_dict(self) -> dict:
        return {"fact_id": self.fact_id, "anchor": self.anchor,
                "verdict": "pass" if self.ok else "fail", "details": self.details}


@dataclass(frozen=True)
class FactSuiteResult:
    results: tuple[FactResult, ...]

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {"passed": self.passed, "failed": self.failed,
                "results": to_json(self.results)}


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


def _expect(cond: bool, msg: str) -> tuple[bool, str]:
    return cond, msg


# -- per-entry fact builders -------------------------------------------------

def _facts_ex31(entry: CatalogEntry) -> list[Fact]:
    sp = entry.space

    def induced_abs(e: CatalogEntry) -> tuple[bool, str]:
        pts = list(e.space.canonical_sample) + e.space.sample(1, 20)
        checks = [_expect(p_m(e.space, x, y) == abs(x - y), f"p_m != |x-y| at ({x},{y})")
                  for i, x in enumerate(pts) for y in pts[i:]]
        return _all(checks)

    def pbar_value(e: CatalogEntry) -> tuple[bool, str]:
        got = p_bar(e.space, F(1, 4), F(3, 4))
        return got == F(3, 4), f"p_bar(1/4, 3/4) = {got}"

    return [
        Fact(f"{sp.name}/axioms+metadata", f"{sp.name}: valid space, infimum 1, empty bottom",
             _fact_axioms_and_metadata),
        Fact(f"{sp.name}/induced-metric-abs", f"{sp.name}: induced metric is |x-y|", induced_abs),
        Fact(f"{sp.name}/pbar-value", f"{sp.name}: shifted distance of (1/4, 3/4) is 3/4",
             pbar_value),
    ]


def _facts_ex32(entry: CatalogEntry) -> list[Fact]:
    sp = entry.space
    target = next(p for p in sp.canonical_sample if str(p) == "{a,b}")

    def bottom_is_empty_set(e: CatalogEntry) -> tuple[bool, str]:
        bottom = bottom_set(e.space.finite_sample())
        return (len(bottom) == 1 and str(bottom[0]) == "{}",
                f"bottom = {[str(b) for b in bottom]}")

    def alt_converges(e: CatalogEntry) -> tuple[bool, str]:
        rep = converges_to(e.space, e.sequence("ex3.2.alt"), target, tol=F(0))
        return (rep.mode == "converges" and rep.exact
                and rep.certificate is not None and rep.certificate.achieved_gap == 0,
                f"mode={rep.mode}, gap={rep.certificate.achieved_gap if rep.certificate else None}")

    def alt_not_cauchy(e: CatalogEntry) -> tuple[bool, str]:
        rep = is_cauchy(e.space, e.sequence("ex3.2.alt"))
        values = {g for _, g in rep.witness}
        return (rep.verdict == "refuted" and rep.exact and values == {F(1), F(2)},
                f"verdict={rep.verdict}, witness values={sorted(values)}")

    return [
        Fact(f"{sp.name}/axioms+metadata", f"{sp.name}: union-size table is a partial metric",
             _fact_axioms_and_metadata),
        Fact(f"{sp.name}/bottom-empty-subset",
             f"{sp.name}: only the empty subset attains the infimum", bottom_is_empty_set),
        Fact(f"{sp.name}/alt-converges", "ex3.2: the alternating singletons converge to {a,b} "
             "with exact gap 0", alt_converges),
        Fact(f"{sp.name}/alt-not-cauchy", "ex3.2: the alternating singletons oscillate between "
             "pairwise values 1 and 2", alt_not_cauchy),
    ]


def _facts_ex34(entry: CatalogEntry) -> list[Fact]:
    sp = entry.space
    nonneg = [x for x in sp.canonical_sample if x >= 0]

    def contraction(e: CatalogEntry) -> tuple[bool, str]:
        rep = check_contraction(e.space, e.map("ex3.4.T"), F(2, 3))
        return rep.ok, f"verdict={rep.verdict} over {rep.pairs_checked} {rep.scope} pairs"

    def bottom(e: CatalogEntry) -> tuple[bool, str]:
        got = bottom_set(e.space.finite_sample())
        return got == (F(-5),), f"bottom = {[format_point(b) for b in got]}"

    def iterates_reach(e: CatalogEntry) -> tuple[bool, str]:
        T = e.map("ex3.4.T")
        checks = []
        for x in e.space.canonical_sample:
            tr = iterate(e.space, T, x, budget=5)
            checks.append(_expect(
                tr.outcome == "fixed_point" and tr.fixed_point == F(-5) and tr.steps <= 5,
                f"from {format_point(x)}: {tr.outcome} in {tr.steps} steps"))
        return _all(checks)

    def recip_converges(e: CatalogEntry) -> tuple[bool, str]:
        seq = e.sequence("ex3.4.recip")
        checks = [_expect(converges_to(e.space, seq, x, tol=F(1, 25), horizon=100).mode
                          == "converges", f"no certificate at {format_point(x)}")
                  for x in nonneg]
        return _all(checks)

    def recip_avoids_negatives(e: CatalogEntry) -> tuple[bool, str]:
        seq = e.sequence("ex3.4.recip")
        checks = [_expect(converges_to(e.space, seq, x, tol=F(1, 25), horizon=100).mode
                          != "converges", f"spurious certificate at {format_point(x)}")
                  for x in (F(-7), F(-6), F(-5))]
        return _all(checks)

    def discontinuous(e: CatalogEntry) -> tuple[bool, str]:
        T = e.map("ex3.4.T")
        image_seq = e.sequence("ex3.4.T.recip")
        checks = []
        for x in nonneg:
            rep = converges_to(e.space, image_seq, T.apply(x), tol=F(0))
            checks.append(_expect(rep.mode == "refuted" and rep.exact,
                                  f"image sequence not refuted at T({format_point(x)})"))
        return _all(checks)

    return [
        Fact(f"{sp.name}/axioms+metadata", f"{sp.name}: glued-ray table is a partial metric",
             _fact_axioms_and_metadata),
        Fact(f"{sp.name}/contraction-two-thirds",
             "ex3.4: the jump map contracts with factor 2/3 on all sample pairs", contraction),
        Fact(f"{sp.name}/bottom-minus5", "ex3.4: -5 is the only bottom point", bottom),
        Fact(f"{sp.name}/iterates-reach-minus5",
             "ex3.4: every sample orbit hits the fixed point -5 within 5 steps", iterates_reach),
        Fact(f"{sp.name}/recip-converges-to-nonnegatives",
             "ex3.4: 1/n converges to every sampled x >= 0", recip_converges),
        Fact(f"{sp.name}/recip-avoids-negatives",
             "ex3.4: 1/n admits no certificate at the negative anchors", recip_avoids_negatives),
        Fact(f"{sp.name}/map-discontinuous",
             "ex3.4: the image sequence T(1/n) is exactly refuted at every T(x), x >= 0",
             discontinuous),
    ]


def _facts_ex44(entry: CatalogEntry) -> list[Fact]:
    sp = entry.space

    def single_ball(e: CatalogEntry) -> tuple[bool, str]:
        sample = e.space.finite_sample()
        checks = [_expect(ball_cover_check(sample, [F(1)], eps).covers,
                          f"ball at 1 fails at eps={eps}")
                  for eps in (F(1, 10), F(1, 2), F(1))]
        return _all(checks)

    def induced_abs(e: CatalogEntry) -> tuple[bool, str]:
        pts = list(e.space.canonical_sample) + e.space.sample(1, 20)
        checks = [_expect(p_m(e.space, x, y) == abs(x - y), f"p_m != |x-y| at ({x},{y})")
                  for i, x in enumerate(pts) for y in pts[i:]]
        return _all(checks)

    return [
        Fact(f"{sp.name}/axioms+metadata", f"{sp.name}: max table is a partial metric",
             _fact_axioms_and_metadata),
        Fact(f"{sp.name}/single-ball-covers",
             "ex4.4: one ball around 1 covers the sample at every radius", single_ball),
        Fact(f"{sp.name}/induced-metric-abs", f"{sp.name}: induced metric is |x-y|", induced_abs),
    ]


def _facts_ex48(entry: CatalogEntry) -> list[Fact]:
    sp = entry.space

    def separated(e: CatalogEntry) -> tuple[bool, str]:
        bad = [(n, m) for n in range(51) for m in range(n + 1, 51)
               if e.space.p(F(n), F(m)) <= 1]
        return not bad, f"{len(bad)} close pairs" if bad else "all 1275 pairs exceed 1"

    def converge_zero(e: CatalogEntry) -> tuple[bool, str]:
        rep = converges_to(e.space, e.sequence("ex4.8.naturals"), F(0),
                           tol=F(1, 25), horizon=100)
        return (rep.mode == "converges" and rep.certificate is not None
                and rep.certificate.tail_index == 25,
                f"mode={rep.mode}, tail={rep.certificate.tail_index if rep.certificate else None}")

    def cauchy_one(e: CatalogEntry) -> tuple[bool, str]:
        rep = is_cauchy(e.space, e.sequence("ex4.8.naturals"), tol=F(1, 25), horizon=200)
        return (rep.verdict == "cauchy_to" and rep.a is not None
                and abs(rep.a - 1) <= F(1, 25),
                f"verdict={rep.verdict}, a={rep.a}")

    def d_value(e: CatalogEntry) -> tuple[bool, str]:
        got = d_metric(e.space, F(2), F(3))
        return got == F(11, 6), f"d(2,3) = {got}"

    return [
        Fact(f"{sp.name}/axioms+metadata", f"{sp.name}: spread-out table is a partial metric",
             _fact_axioms_and_metadata),
        Fact(f"{sp.name}/separated-pairs", "ex4.8: distinct points up to 50 stay above 1",
             separated),
        Fact(f"{sp.name}/naturals-converge-to-0",
             "ex4.8: the naturals converge to 0 with tail 25 at tolerance 1/25", converge_zero),
        Fact(f"{sp.name}/naturals-cauchy-near-1",
             "ex4.8: pairwise values stabilize near 1", cauchy_one),
        Fact(f"{sp.name}/d-metric-value", "ex4.8: collapse metric gives d(2,3) = 11/6", d_value),
    ]


def _facts_ex54(entry: CatalogEntry) -> list[Fact]:
    sp = entry.space

    def max_cond(e: CatalogEntry) -> tuple[bool, str]:
        rep = check_condition_max(e.space, e.map("ex5.4.T"), F(1, 2))
        return rep.ok, f"verdict={rep.verdict} over {rep.pairs_checked} {rep.scope} pairs"

    def bottom(e: CatalogEntry) -> tuple[bool, str]:
        got = bottom_set(e.space.finite_sample())
        return got == (F(0), F(1, 2), F(3, 4), F(1)), f"bottom = {[format_point(b) for b in got]}"

    def fixed_points(e: CatalogEntry) -> tuple[bool, str]:
        T = e.map("ex5.4.T")
        fixed = {x for x in e.space.canonical_sample if T.apply(x) == x}
        return fixed == {F(1), F(2)}, f"fixed points in sample = {sorted(fixed)}"

    def iterate0(e: CatalogEntry) -> tuple[bool, str]:
        tr = iterate(e.space, e.map("ex5.4.T"), F(0), budget=100,
                     known_fixed_points=e.known_fixed_points)
        dyadic = all(tr.iterates[n] == 1 - F(1, 2**n) for n in range(min(11, len(tr.iterates))))
        return (tr.outcome == "fixed_point" and tr.fixed_point == F(1) and dyadic,
                f"outcome={tr.outcome}, fixed={tr.fixed_point}, dyadic={dyadic}")

    def iterate3(e: CatalogEntry) -> tuple[bool, str]:
        tr = iterate(e.space, e.map("ex5.4.T"), F(3), budget=100,
                     known_fixed_points=e.known_fixed_points)
        dyadic = all(tr.iterates[n] == 2 + F(1, 2**n) for n in range(min(11, len(tr.iterates))))
        return (tr.outcome == "fixed_point" and tr.fixed_point == F(2) and dyadic,
                f"outcome={tr.outcome}, fixed={tr.fixed_point}, dyadic={dyadic}")

    def two_outside_bottom(e: CatalogEntry) -> tuple[bool, str]:
        in_sample_bottom = F(2) in bottom_set(e.space.finite_sample())
        declared = e.space.declared_bottom.contains(F(2))
        return not in_sample_bottom and not declared, "2 sits above the bottom set"

    def orbits(e: CatalogEntry) -> tuple[bool, str]:
        o0, o3 = e.sequence("ex5.4.orbit0"), e.sequence("ex5.4.orbit3")
        checks = [
            _expect(properly_converges(e.space, o0, F(1), horizon=64).mode
                    == "properly_converges", "orbit from 0 not properly convergent to 1"),
            _expect(properly_converges(e.space, o3, F(2), horizon=64).mode
                    == "properly_converges", "orbit from 3 not properly convergent to 2"),
            _expect(converges_to(e.space, o0, F(2), horizon=64).mode == "converges",
                    "orbit from 0 should still plainly converge to 2"),
            _expect(properly_converges(e.space, o0, F(2), horizon=64).mode == "refuted",
                    "orbit from 0 should be refuted as a proper limit at 2"),
        ]
        return _all(checks)

    def bottom_solve(e: CatalogEntry) -> tuple[bool, str]:
        rep = solve_on_bottom(e.space, e.map("ex5.4.T"), F(1, 2), F(0), budget=100,
                              known_fixed_points=e.known_fixed_points)
        bottom_pts = [x for x in e.space.canonical_sample if e.space.declared_bottom.contains(x)]
        T = e.map("ex5.4.T")
        banach = all(
            e.space.p(T.apply(x), T.apply(y)) <= F(1, 2) * e.space.p(x, y)
            for i, x in enumerate(bottom_pts) for y in bottom_pts[i:]
        )
        return (rep.status == "fixed_point" and rep.fixed_point == F(1) and banach,
                f"status={rep.status}, fixed={rep.fixed_point}, shifted contraction={banach}")

    return [
        Fact(f"{sp.name}/axioms+metadata", f"{sp.name}: two-block table is a partial metric",
             _fact_axioms_and_metadata),
        Fact(f"{sp.name}/max-condition-half",
             "ex5.4: the halving map satisfies the max-condition at factor 1/2", max_cond),
        Fact(f"{sp.name}/bottom-of-sample", "ex5.4: sample bottom set is {0, 1/2, 3/4, 1}",
             bottom),
        Fact(f"{sp.name}/fixed-points", "ex5.4: exactly 1 and 2 are fixed in the sample",
             fixed_points),
        Fact(f"{sp.name}/iterate-0-to-1", "ex5.4: dyadic orbit from 0 identifies the fixed "
             "point 1", iterate0),
        Fact(f"{sp.name}/iterate-3-to-2", "ex5.4: dyadic orbit from 3 identifies the fixed "
             "point 2", iterate3),
        Fact(f"{sp.name}/two-not-in-bottom", "ex5.4: the fixed point 2 lies outside the bottom "
             "set", two_outside_bottom),
        Fact(f"{sp.name}/orbit-certificates", "ex5.4: orbit limits are proper exactly at their "
             "own fixed points", orbits),
        Fact(f"{sp.name}/bottom-reduction", "ex5.4: shifted-metric contraction solves to 1 on "
             "the bottom set", bottom_solve),
    ]


def _facts_ex55(entry: CatalogEntry) -> list[Fact]:
    sp = entry.space

    def recip_converges(e: CatalogEntry) -> tuple[bool, str]:
        rep = converges_to(e.space, e.sequence("ex5.5.recip"), F(0), tol=F(0), horizon=64)
        return (rep.mode == "converges" and rep.certificate is not None
                and rep.certificate.tail_index == 1 and rep.certificate.achieved_gap == 0,
                f"mode={rep.mode}")

    def proper_refuted(e: CatalogEntry) -> tuple[bool, str]:
        rep = properly_converges(e.space, e.sequence("ex5.5.recip"), F(0), horizon=64)
        gaps = {g for _, g in rep.witness}
        return rep.mode == "refuted" and gaps == {F(1)}, f"mode={rep.mode}, gaps={sorted(gaps)}"

    def const_bottom(e: CatalogEntry) -> tuple[bool, str]:
        got = constant_map_bottom(e.space.finite_sample())
        return (set(got) == {F(1, 2), F(1, 3), F(1)} and F(0) not in got,
                f"survivors = {[format_point(z) for z in got]}")

    def t0_violates(e: CatalogEntry) -> tuple[bool, str]:
        bad = check_condition_max(e.space, MapSpec.constant(F(0)), F(1, 2))
        good = check_condition_max(e.space, MapSpec.constant(F(1, 2)), F(1, 2))
        return (not bad.ok and good.ok,
                f"const 0 verdict={bad.verdict}, const 1/2 verdict={good.verdict}")

    return [
        Fact(f"{sp.name}/axioms+metadata", f"{sp.name}: the flat table is a partial metric",
             _fact_axioms_and_metadata),
        Fact(f"{sp.name}/recip-converges-to-0", "ex5.5: 1/n converges to 0 with exact gap 0",
             recip_converges),
        Fact(f"{sp.name}/recip-improper", "ex5.5: the self-distances stick at 0 against "
             "p(0,0) = 1, so proper convergence is refuted", proper_refuted),
        Fact(f"{sp.name}/constant-bottom-excludes-0",
             "ex5.5: constant-map survivors are exactly the positive sample points", const_bottom),
        Fact(f"{sp.name}/const-0-violates", "ex5.5: the constant map at 0 fails the "
             "max-condition while positive constants pass", t0_violates),
    ]


def _facts_ex56(entry: CatalogEntry) -> list[Fact]:
    sp = entry.space

    def ruled_out(e: CatalogEntry) -> tuple[bool, str]:
        pts = list(e.space.canonical_sample) + e.space.sample(3, 16)
        checks = [_expect(constant_map_ruled_out(e.space, z),
                          f"{format_point(z)} not ruled out") for z in pts]
        return _all(checks)

    def in_sample_witnesses(e: CatalogEntry) -> tuple[bool, str]:
        half = check_condition_max(e.space, MapSpec.constant(F(1, 2)), F(3, 4))
        third = check_condition_max(e.space, MapSpec.constant(F(1, 3)), F(3, 4))
        quarter = check_condition_max(e.space, MapSpec.constant(F(1, 4)), F(3, 4))
        return (not half.ok and not third.ok and quarter.ok,
                "sample pairs expose 1/2 and 1/3; 1/4 needs the declared infimum "
                f"(scope={quarter.scope})")

    def limits_contain_zero(e: CatalogEntry) -> tuple[bool, str]:
        trunc = e.space.finite_sample()
        cycles = ((F(1, 2),), (F(1, 2), F(1, 3)), (F(1, 2), F(1, 3), F(1, 4)), (F(0), F(1, 2)))
        checks = [_expect(F(0) in limit_set(trunc, SequenceSpec.periodic(cyc)),
                          f"0 missing for cycle {cyc}") for cyc in cycles]
        return _all(checks)

    def not_hausdorff(e: CatalogEntry) -> tuple[bool, str]:
        sep = separation_class(e.space.finite_sample())
        return not sep.t1 and not sep.hausdorff, f"t1={sep.t1}, hausdorff={sep.hausdorff}"

    def tail_converges(e: CatalogEntry) -> tuple[bool, str]:
        rep = converges_to(e.space, e.sequence("ex5.6.tail"), F(0), tol=F(0), horizon=64)
        return rep.mode == "converges", f"mode={rep.mode}"

    def maximal_is_zero(e: CatalogEntry) -> tuple[bool, str]:
        got = maximal_points(e.space.finite_sample())
        return got == frozenset((F(0),)), f"maximal = {[format_point(p) for p in got]}"

    return [
        Fact(f"{sp.name}/axioms+metadata",
             f"{sp.name}: unit-fraction table is a partial metric with unattained infimum",
             _fact_axioms_and_metadata),
        Fact(f"{sp.name}/constants-ruled-out", "ex5.6: every sampled constant map is ruled out "
             "against the declared infimum 0", ruled_out),
        Fact(f"{sp.name}/in-sample-witnesses", "ex5.6: smaller sample points witness the "
             "failure of larger constants", in_sample_witnesses),
        Fact(f"{sp.name}/limit-sets-contain-0", "ex5.6: every sample cycle converges to 0",
             limits_contain_zero),
        Fact(f"{sp.name}/not-hausdorff", "ex5.6: the truncation is neither T1 nor Hausdorff",
             not_hausdorff),
        Fact(f"{sp.name}/tail-converges-to-0", "ex5.6: the unit-fraction tail converges to 0 "
             "with exact gap 0", tail_converges),
        Fact(f"{sp.name}/maximal-point", "ex5.6: 0 is the unique maximal point of the "
             "truncation", maximal_is_zero),
    ]


def _facts_ex58(entry: CatalogEntry) -> list[Fact]:
    sp = entry.space

    def bottom(e: CatalogEntry) -> tuple[bool, str]:
        got = bottom_set(e.space.finite_sample())
        return got == ("a",), f"bottom = {got}"

    def only_ta(e: CatalogEntry) -> tuple[bool, str]:
        sample = e.space.finite_sample()
        survivors = exhaustive_condition_maps(sample, check_condition_max,
                                              least_factor(DEFAULT_ALPHA_GRID))
        tables = [dict(T.table) for T in survivors if T.table]
        return (len(survivors) == 1 and tables == [{"a": "a", "b": "a"}],
                f"{len(survivors)} survivors")

    def derived_values(e: CatalogEntry) -> tuple[bool, str]:
        sample = e.space.finite_sample()
        checks = [
            _expect(p_m(e.space, "a", "b") == 3, "p_m(a,b) != 3"),
            _expect(d_metric(e.space, "b", "b") == 0, "d(b,b) != 0"),
            _expect(diameter(sample) == 2, "diameter != 2"),
        ]
        return _all(checks)

    def separation_and_diagonal(e: CatalogEntry) -> tuple[bool, str]:
        sample = e.space.finite_sample()
        sep = separation_class(sample)
        gd = gdelta_diagonal(sample)
        return (sep.t1 and gd.t1 and gd.stabilization_n == 1 and gd.equals_diagonal,
                f"t1={sep.t1}, stabilization={gd.stabilization_n}, diagonal={gd.equals_diagonal}")

    def pigeonhole(e: CatalogEntry) -> tuple[bool, str]:
        sample = e.space.finite_sample()
        witness = seq_compact_witness(sample, SequenceSpec.periodic(("a", "b")))
        # only a constant subsequence along a cycle carries a progression
        return (witness.limit == "a" and witness.progression == (1, 2),
                f"kind={witness.kind}, limit={witness.limit}")

    return [
        Fact(f"{sp.name}/axioms+metadata", f"{sp.name}: the two-point table is a partial metric",
             _fact_axioms_and_metadata),
        Fact(f"{sp.name}/bottom-a", "ex5.8: a is the only bottom point", bottom),
        Fact(f"{sp.name}/only-constant-a-survives",
             "ex5.8: the constant map at a is the only max-condition map", only_ta),
        Fact(f"{sp.name}/derived-values", "ex5.8: p_m(a,b)=3, d(b,b)=0, diameter 2",
             derived_values),
        Fact(f"{sp.name}/t1-diagonal", "ex5.8: T1 with the diagonal recovered at radius 1",
             separation_and_diagonal),
        Fact(f"{sp.name}/alternating-pigeonhole",
             "ex5.8: the alternating sequence yields the constant subsequence at a", pigeonhole),
    ]


def _facts_apex(entry: CatalogEntry) -> list[Fact]:
    sp = entry.space
    block = sp.declared_bottom.members

    def global_net(e: CatalogEntry) -> tuple[bool, str]:
        net = totally_bounded_at(e.space.finite_sample(), F(1, 2))
        return net.centers == ("a",), f"net = {net.centers[:3]}..., size {net.size}"

    def block_net(e: CatalogEntry) -> tuple[bool, str]:
        net = totally_bounded_at(e.space.finite_sample().restrict(block), F(1, 2))
        return net.size == len(block), f"size {net.size} for block of {len(block)}"

    def block_centers_fail(e: CatalogEntry) -> tuple[bool, str]:
        rep = ball_cover_check(e.space.finite_sample(), list(block), F(1, 2))
        return not rep.covers and rep.uncovered == "a", f"covers={rep.covers}, witness={rep.uncovered}"

    def maximal(e: CatalogEntry) -> tuple[bool, str]:
        got = maximal_points(e.space.finite_sample())
        return got == frozenset(("a",)), f"maximal = {sorted(map(str, got))}"

    def diam(e: CatalogEntry) -> tuple[bool, str]:
        got = diameter(e.space.finite_sample())
        return got == 2, f"diameter = {got}"

    return [
        Fact(f"{sp.name}/axioms+metadata", "apex: the apex table is a partial metric",
             _fact_axioms_and_metadata),
        Fact(f"{sp.name}/global-net-size-1", "apex: one apex ball is a 1/2-net for everything",
             global_net),
        Fact(f"{sp.name}/block-net-blows-up", "apex: restricted to the block, the 1/2-net "
             "needs every point", block_net),
        Fact(f"{sp.name}/block-balls-miss-apex", "apex: block-centered balls never reach the "
             "apex", block_centers_fail),
        Fact(f"{sp.name}/maximal-point", "apex: the apex is the unique maximal point and its "
             "balls cover", maximal),
        Fact(f"{sp.name}/diameter", "apex: diameter 2", diam),
    ]


_BUILDERS: dict[str, Callable[[CatalogEntry], list[Fact]]] = {
    "ex3.1": _facts_ex31,
    "ex3.2": _facts_ex32,
    "ex3.4": _facts_ex34,
    "ex4.4": _facts_ex44,
    "ex4.8": _facts_ex48,
    "ex5.4": _facts_ex54,
    "ex5.5": _facts_ex55,
    "ex5.6": _facts_ex56,
    "ex5.8": _facts_ex58,
    "apex": _facts_apex,
}


def facts_for_entry(name: str, entry: Optional[CatalogEntry] = None) -> list[Fact]:
    entry = entry if entry is not None else get_entry(name)
    builder = _BUILDERS.get(name)
    return builder(entry) if builder else []


def run_fact_suite(names: Optional[Sequence[str]] = None,
                   overrides: Optional[dict[str, CatalogEntry]] = None) -> FactSuiteResult:
    """Run every declared fact; failures are verdicts, not errors."""
    chosen = list(names) if names is not None else catalog_names()
    results: list[FactResult] = []
    for name in chosen:
        entry = (overrides or {}).get(name) or get_entry(name)
        for fact in facts_for_entry(name, entry):
            try:
                ok, details = fact.run(entry)
            except Exception as exc:  # a crash is a failing fact, not a crash of the suite
                ok, details = False, f"{type(exc).__name__}: {exc}"
            results.append(FactResult(fact.fact_id, fact.anchor, ok, details))
    return FactSuiteResult(tuple(results))
