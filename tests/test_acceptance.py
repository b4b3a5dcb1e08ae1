"""Acceptance suite: one test per criterion, each printing a verdict line.

Tolerances are pinned here and nowhere else: exact (tol 0) wherever the
gap is exactly zero or the refutation rides an exact cycle, 1/25 with
horizon 100 for the 1/n-style tail certificates, and wall-clock budgets
of 1 s for the catalog axiom sweep and 30 s for the 200-space property
sweep.
"""

import time
from fractions import Fraction

from partialmetric import (
    SequenceSpec,
    apex_space,
    ball_cover_check,
    bottom_set,
    catalog_map,
    catalog_names,
    catalog_sequence,
    catalog_space,
    check_axioms,
    check_condition_max,
    check_condition_min,
    check_contraction,
    constant_map_bottom,
    constant_map_ruled_out,
    converges_to,
    exhaustive_condition_maps,
    get_entry,
    is_cauchy,
    iterate,
    least_factor,
    limit_set,
    p_m,
    properly_converges,
    random_pm_space,
    separation_class,
    totally_bounded_at,
)
from partialmetric.points import FSet
from partialmetric.properties import property_run

F = Fraction


def _verdict(n: int, ok: bool) -> None:
    print(f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_catalog_axiom_suite():
    ok = False
    try:
        start = time.monotonic()
        for name in catalog_names():
            report = check_axioms(catalog_space(name).finite_sample())
            assert report.ok, f"{name} violates {report.violated_axiom}"
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"axiom sweep took {elapsed:.3f}s"
        ok = True
    finally:
        _verdict(1, ok)


def test_criterion_2_derived_metric_identities():
    ok = False
    try:
        for name in ("ex3.1", "ex4.4"):
            sp = catalog_space(name)
            pts = sp.sample(0, 100)
            pairs = list(zip(pts[:50], pts[50:]))
            assert len(pairs) == 50
            for x, y in pairs:
                assert p_m(sp, x, y) == abs(x - y)
        ok = True
    finally:
        _verdict(2, ok)


def test_criterion_3_ex32_alternating_sequence():
    ok = False
    try:
        sp = catalog_space("ex3.2")
        alt = catalog_sequence("ex3.2.alt")
        target = FSet.of(("a", "b", "c"), "a", "b")
        rep = converges_to(sp, alt, target, tol=F(0))
        assert rep.mode == "converges" and rep.exact
        assert rep.certificate.achieved_gap == 0
        cauchy = is_cauchy(sp, alt)
        assert cauchy.verdict == "refuted" and cauchy.exact
        assert {g for _, g in cauchy.witness} == {F(1), F(2)}
        ok = True
    finally:
        _verdict(3, ok)


def test_criterion_4_ex34_contraction_and_discontinuity():
    ok = False
    try:
        entry = get_entry("ex3.4")
        sp, T = entry.space, entry.map("ex3.4.T")
        assert check_contraction(sp, T, F(2, 3)).ok

        sample = sp.finite_sample()
        assert bottom_set(sample) == (F(-5),)

        for x in sp.canonical_sample:
            tr = iterate(sp, T, x, budget=5)
            assert tr.outcome == "fixed_point" and tr.fixed_point == F(-5)
            assert tr.steps <= 5

        recip = catalog_sequence("ex3.4.recip")
        nonneg = [x for x in sp.canonical_sample if x >= 0]
        for x in nonneg:
            # beyond n = 1/x the gap is exactly zero, so positive targets
            # certify at zero tolerance; at x = 0 the gap is 1/n > 0 and the
            # finite certificate runs at 1/25
            tol = F(0) if x > 0 else F(1, 25)
            rep = converges_to(sp, recip, x, tol=tol, horizon=100)
            assert rep.mode == "converges", f"no certificate at {x}"
        image = catalog_sequence("ex3.4.T.recip")
        for x in nonneg:
            rep = converges_to(sp, image, T.apply(x), tol=F(0))
            assert rep.mode == "refuted" and rep.exact, f"not refuted at T({x})"
        ok = True
    finally:
        _verdict(4, ok)


def test_criterion_5_ex44_cover_and_apex_nets():
    ok = False
    try:
        sample = catalog_space("ex4.4").finite_sample()
        for eps in (F(1, 10), F(1, 2), F(1)):
            assert ball_cover_check(sample, [F(1)], eps).covers
        apex = apex_space(32).finite_sample()
        assert totally_bounded_at(apex, F(1, 2)).size == 1
        block = [p for p in apex.points if p != "a"]
        assert totally_bounded_at(apex.restrict(block), F(1, 2)).size == 32
        ok = True
    finally:
        _verdict(5, ok)


def test_criterion_6_ex48_spread_but_convergent():
    ok = False
    try:
        sp = catalog_space("ex4.8")
        for n in range(51):
            for m in range(n + 1, 51):
                assert sp.p(F(n), F(m)) > 1
        rep = converges_to(sp, catalog_sequence("ex4.8.naturals"), F(0),
                           tol=F(1, 25), horizon=100)
        assert rep.mode == "converges"
        assert rep.certificate.tail_index == 25
        ok = True
    finally:
        _verdict(6, ok)


def test_criterion_7_ex54_maxcondition_and_orbits():
    ok = False
    try:
        entry = get_entry("ex5.4")
        sp, T = entry.space, entry.map("ex5.4.T")
        assert check_condition_max(sp, T, F(1, 2)).ok

        tr0 = iterate(sp, T, F(0), budget=100, known_fixed_points=entry.known_fixed_points)
        assert tr0.outcome == "fixed_point" and tr0.fixed_point == F(1)
        for n, x in enumerate(tr0.iterates):
            assert x == 1 - F(1, 2**n)

        tr3 = iterate(sp, T, F(3), budget=100, known_fixed_points=entry.known_fixed_points)
        assert tr3.outcome == "fixed_point" and tr3.fixed_point == F(2)
        for n, x in enumerate(tr3.iterates):
            assert x == 2 + F(1, 2**n)

        bottom = bottom_set(sp.finite_sample())
        assert bottom == (F(0), F(1, 2), F(3, 4), F(1))
        assert F(2) not in bottom
        ok = True
    finally:
        _verdict(7, ok)


def test_criterion_8_bottom_set_pathologies():
    ok = False
    try:
        # ex5.5: convergent but improper; the constant map at 0 is out
        sp55 = catalog_space("ex5.5")
        recip = catalog_sequence("ex5.5.recip")
        assert converges_to(sp55, recip, F(0), tol=F(0), horizon=64).mode == "converges"
        proper = properly_converges(sp55, recip, F(0), horizon=64)
        assert proper.mode == "refuted"
        assert {g for _, g in proper.witness} == {F(1)}
        survivors = constant_map_bottom(sp55.finite_sample())
        assert F(0) not in survivors and set(survivors) == {F(1, 2), F(1, 3), F(1)}

        # ex5.6: unattained infimum rules out every sampled constant map
        sp56 = catalog_space("ex5.6")
        for z in list(sp56.canonical_sample) + sp56.sample(0, 40):
            assert constant_map_ruled_out(sp56, z)
        trunc = sp56.finite_sample()
        for cycle in ((F(1, 2),), (F(1, 2), F(1, 3)), (F(1, 3), F(1, 4))):
            assert F(0) in limit_set(trunc, SequenceSpec.periodic(cycle))
        sep = separation_class(trunc)
        assert not sep.hausdorff

        # ex5.8: a single constant map survives exhaustive enumeration
        sample58 = catalog_space("ex5.8").finite_sample()
        survivors58 = exhaustive_condition_maps(sample58, check_condition_max,
                                                least_factor((F(0), F(1, 2), F(3, 4))))
        assert len(survivors58) == 1
        assert dict(survivors58[0].table) == {"a": "a", "b": "a"}
        ok = True
    finally:
        _verdict(8, ok)


def test_criterion_9_property_suite_200_spaces():
    ok = False
    try:
        result = property_run(range(200), max_n=7)
        assert result.ok, result.failures[:5]
        assert result.spaces_checked == 200
        assert result.elapsed_seconds < 30.0, f"property sweep took {result.elapsed_seconds:.1f}s"
        ok = True
    finally:
        _verdict(9, ok)


def test_criterion_10_min_condition_is_square_constant():
    ok = False
    try:
        for seed in range(20):
            sp = random_pm_space(seed, 3, zero_f=True)
            contractions = exhaustive_condition_maps(sp, check_contraction, F(1, 2))
            min_names = {T.name for T in exhaustive_condition_maps(sp, check_condition_min, 2)}
            both = {T.name for T in contractions if T.name in min_names}
            square_constant = {
                T.name for T in contractions
                if len({T.apply(T.apply(x)) for x in sp.points}) == 1
            }
            assert both == square_constant, f"seed {seed}"
            # sanity on the pair-level statement for the survivors
            for T in contractions:
                if T.name in both:
                    assert check_condition_min(sp, T, 2).ok
        ok = True
    finally:
        _verdict(10, ok)
