"""Condition checkers, iteration traces, bottom-set reduction, enumeration."""

import functools
import inspect
import itertools
import time
from fractions import Fraction

import pytest

from partialmetric import (
    DomainError,
    FinitePMSpace,
    MapClosureError,
    MapSpec,
    SequenceSpec,
    SizeLimitError,
    bottom_set,
    catalog_map,
    catalog_names,
    catalog_space,
    check_condition_max,
    check_condition_min,
    check_contraction,
    constant_map_bottom,
    constant_map_ruled_out,
    exhaustive_condition_maps,
    get_entry,
    iterate,
    least_factor,
    limit_set,
    random_pm_space,
    rho_of,
    solve_on_bottom,
)
from partialmetric.catalog import BottomDecl, CatalogSpace
from partialmetric.fixedpoint import DEFAULT_ALPHA_GRID, ConditionViolation

from oracles import anchored_space, condition_min_by_loop

F = Fraction


class TestContraction:
    def test_ex34_two_thirds(self):
        rep = check_contraction(catalog_space("ex3.4"), catalog_map("ex3.4.T"), F(2, 3))
        assert rep.ok and rep.scope == "sample"

    def test_frozen_pair_zero_one(self):
        sp = catalog_space("ex3.4")
        T = catalog_map("ex3.4.T")
        lhs = sp.p(T.apply(F(0)), T.apply(F(1)))
        assert lhs == 1
        assert F(2, 3) * sp.p(F(0), F(1)) == F(8, 3)
        assert lhs <= F(8, 3)

    def test_identity_on_metric_space_violated(self):
        sp = random_pm_space(0, 4, zero_f=True)
        identity = MapSpec("id", lambda x: x)
        for alpha in (F(0), F(1, 2), F(9, 10)):
            rep = check_contraction(sp, identity, alpha)
            assert not rep.ok
            assert rep.violation.lhs > rep.violation.rhs

    def test_alpha_range_enforced(self):
        sp = catalog_space("ex5.8")
        with pytest.raises(ValueError):
            check_contraction(sp, MapSpec.constant("a"), F(1))
        with pytest.raises(ValueError):
            check_condition_max(sp, MapSpec.constant("a"), F(-1, 2))

    def test_violation_reproduces(self):
        sp = random_pm_space(1, 3, zero_f=True)
        rep = check_contraction(sp, MapSpec("id", lambda x: x), F(1, 2))
        v = rep.violation
        assert sp.p(v.x, v.y) == v.lhs
        assert F(1, 2) * sp.p(v.x, v.y) == v.rhs


class TestMaxCondition:
    def test_ex54_alpha_half(self):
        rep = check_condition_max(catalog_space("ex5.4"), catalog_map("ex5.4.T"), F(1, 2))
        assert rep.ok

    def test_ex58_nonconstant_maps_fail_every_alpha(self):
        sample = catalog_space("ex5.8").finite_sample()
        identity = MapSpec.from_table("id", {"a": "a", "b": "b"})
        swap = MapSpec.from_table("swap", {"a": "b", "b": "a"})
        tb = MapSpec.constant("b")
        for alpha in (F(0), F(1, 4), F(1, 2), F(3, 4)):
            for T in (identity, swap, tb):
                assert not check_condition_max(sample, T, alpha).ok

    def test_bottom_constants_always_hold(self):
        for seed in range(10):
            sp = random_pm_space(seed, seed % 6 + 1)
            for z in bottom_set(sp):
                for alpha in DEFAULT_ALPHA_GRID:
                    assert check_condition_max(sp, MapSpec.constant(z), alpha).ok

    def test_exhaustive_scope_on_finite(self):
        sp = random_pm_space(3, 3)
        rep = check_condition_max(sp, MapSpec.constant(bottom_set(sp)[0]), F(1, 2))
        assert rep.scope == "exhaustive"
        assert rep.pairs_checked == 6  # unordered pairs incl. the diagonal

    def test_only_the_max_condition_takes_explicit_pairs(self):
        sample = catalog_space("ex5.8").finite_sample()
        rep = check_condition_max(sample, MapSpec.constant("b"), F(1, 2),
                                  pairs=[("b", "b"), ("a", "a")])
        assert (rep.scope, rep.pairs_checked) == ("explicit", 2)
        assert rep.violation == ConditionViolation("a", "a", F(1), F(0))
        takes = [check.__name__ for check in (check_contraction, check_condition_max,
                                              check_condition_min)
                 if "pairs" in inspect.signature(check).parameters]
        assert takes == ["check_condition_max"]


class TestMinCondition:
    def test_constant_at_bottom_holds(self):
        sample = catalog_space("ex5.8").finite_sample()
        rep = check_condition_min(sample, MapSpec.constant("a"), 1)
        assert rep.ok

    def test_constant_off_bottom_fails_any_k(self):
        sample = catalog_space("ex5.8").finite_sample()
        for k in (1, 2, 3):
            rep = check_condition_min(sample, MapSpec.constant("b"), k)
            assert not rep.ok

    def test_identity_on_one_point(self):
        sp = FinitePMSpace([F(0)], [[F(3)]])
        assert check_condition_min(sp, MapSpec("id", lambda x: x), 2).ok

    def test_k_validated(self):
        sp = catalog_space("ex5.8")
        with pytest.raises(ValueError):
            check_condition_min(sp, MapSpec.constant("a"), 0)

    def test_settled_and_repeating_pairs_stop_early(self):
        sp = catalog_space("ex5.8")
        start = time.monotonic()
        held = check_condition_min(sp, MapSpec.constant("a"), 10**9)
        broken = check_condition_min(sp, MapSpec.constant("b"), 10**9)
        assert time.monotonic() - start < 1
        assert held.ok and held.pairs_checked == 3
        assert broken.violation == ConditionViolation("a", "a", F(1), F(0))

    def test_matches_the_plain_loop(self):
        cases = []
        for name in catalog_names():
            entry = get_entry(name)
            pts = entry.space.canonical_sample
            consts = [MapSpec.constant(z) for z in dict.fromkeys((pts[0], pts[-1]))]
            cases.append((entry.space, list(entry.maps) + consts))
        for n in (1, 2, 3):
            for seed in range(3):
                sp = random_pm_space(seed, n)
                cases.append((sp, [MapSpec.from_table("t", dict(zip(sp.points, images)))
                                   for images in itertools.product(sp.points, repeat=n)]))
        for sp, maps in cases:
            n = len(sp.canonical_sample)
            for T in maps:
                for k in sorted({1, 2, 3, n * n, 50}):
                    assert check_condition_min(sp, T, k) == condition_min_by_loop(sp, T, k), \
                        (sp, T.name, k)


class TestRunParameters:
    @pytest.mark.parametrize("run", [
        lambda **kw: iterate(catalog_space("ex5.4"), catalog_map("ex5.4.T"), F(0), **kw),
        lambda **kw: solve_on_bottom(catalog_space("ex5.4"), catalog_map("ex5.4.T"), F(1, 2),
                                     F(0), **kw),
    ], ids=["iterate", "solve_on_bottom"])
    def test_negative_tol_and_empty_budget_are_refused(self, run):
        with pytest.raises(ValueError, match="tolerance"):
            run(tol=F(-1, 2))
        with pytest.raises(ValueError, match="budget"):
            run(budget=0)

    # A formula space's bottom predicate may accept a point its domain refuses
    # (ex5.5 at 5), or fail on a point of another type (ex5.4 and ex5.5 at "zzz").
    @pytest.mark.parametrize("space, start", [
        (catalog_space("ex5.4"), "zzz"), (catalog_space("ex5.4"), F(5)),
        (catalog_space("ex5.5"), "zzz"), (catalog_space("ex5.5"), F(5)),
        (catalog_space("ex5.8").finite_sample(), "zzz"),
    ], ids=["ex5.4-str", "ex5.4-5", "ex5.5-str", "ex5.5-5", "finite-str"])
    @pytest.mark.parametrize("run", [
        lambda space, start: iterate(space, catalog_map("ex5.4.T"), start),
        lambda space, start: solve_on_bottom(space, catalog_map("ex5.4.T"), F(1, 2), start),
    ], ids=["iterate", "solve_on_bottom"])
    def test_start_outside_the_space_is_a_domain_error(self, run, space, start):
        with pytest.raises(DomainError, match="is not in the space"):
            run(space, start)


class TestIterate:
    def test_ex34_reaches_fixed_point_in_three_steps(self):
        sp = catalog_space("ex3.4")
        tr = iterate(sp, catalog_map("ex3.4.T"), F(1, 2), budget=5)
        assert tr.outcome == "fixed_point"
        assert tr.fixed_point == F(-5)
        assert tr.steps == 3
        assert tr.iterates[:3] == (F(1, 2), F(-7), F(-5))

    def test_ex54_orbit_identifies_one(self):
        entry = get_entry("ex5.4")
        tr = iterate(entry.space, entry.map("ex5.4.T"), F(0), budget=100,
                     known_fixed_points=entry.known_fixed_points)
        assert tr.outcome == "fixed_point" and tr.fixed_point == F(1) and tr.identified
        for n in range(min(12, len(tr.iterates))):
            assert tr.iterates[n] == 1 - F(1, 2**n)

    def test_ex54_orbit_identifies_two(self):
        entry = get_entry("ex5.4")
        tr = iterate(entry.space, entry.map("ex5.4.T"), F(3), budget=100,
                     known_fixed_points=entry.known_fixed_points)
        assert tr.outcome == "fixed_point" and tr.fixed_point == F(2) and tr.identified
        for n in range(min(12, len(tr.iterates))):
            assert tr.iterates[n] == 2 + F(1, 2**n)

    def test_without_candidates_the_trace_is_certified_only(self):
        entry = get_entry("ex5.4")
        tr = iterate(entry.space, entry.map("ex5.4.T"), F(0), budget=100)
        assert tr.outcome == "certified_cauchy"
        assert tr.cauchy_value == 0

    def test_budget_exhaustion(self):
        entry = get_entry("ex5.4")
        tr = iterate(entry.space, entry.map("ex5.4.T"), F(0), budget=3)
        assert tr.outcome == "budget_exhausted" and tr.steps == 3

    def test_constant_map_fixes_in_one_step(self):
        sp = catalog_space("ex5.8")
        tr = iterate(sp, MapSpec.constant("a"), "b", budget=10)
        assert tr.outcome == "fixed_point" and tr.fixed_point == "a" and tr.steps == 2

    def test_map_leaving_domain_raises(self):
        sp = catalog_space("ex5.4")
        with pytest.raises(MapClosureError):
            iterate(sp, MapSpec.constant(F(7, 2)), F(0), budget=4)

    def test_bad_start_raises(self):
        sp = catalog_space("ex5.4")
        with pytest.raises(DomainError):
            iterate(sp, catalog_map("ex5.4.T"), F(7, 2), budget=4)


def _escape_space():
    """Three points whose canonical sample hides the pair that breaks closure."""
    table = {
        (F(0), F(0)): F(0), (F(1), F(1)): F(0), (F(2), F(2)): F(1),
        (F(0), F(1)): F(1), (F(0), F(2)): F(2), (F(1), F(2)): F(2),
    }

    def ev(x, y):
        return table.get((x, y)) or table[(y, x)]

    return CatalogSpace(
        name="escape-demo",
        evaluator=ev,
        domain_predicate=lambda x: x in (F(0), F(1), F(2)),
        declared_rho_p=F(0),
        declared_bottom=BottomDecl.from_predicate(lambda z: ev(z, z) == 0),
        sampler=lambda seed, count: [F(0)] * count,
        canonical_sample=(F(0),),
    )


class TestSolveOnBottom:
    def test_ex54_reduces_to_banach(self):
        entry = get_entry("ex5.4")
        rep = solve_on_bottom(entry.space, entry.map("ex5.4.T"), F(1, 2), F(0),
                              budget=100, known_fixed_points=entry.known_fixed_points)
        assert rep.status == "fixed_point" and rep.fixed_point == F(1)

    def test_banach_inequality_on_bottom_pairs(self):
        sp = catalog_space("ex5.4")
        T = catalog_map("ex5.4.T")
        bottom = [x for x in sp.canonical_sample if sp.declared_bottom.contains(x)]
        assert bottom == [F(0), F(1, 2), F(3, 4), F(1)]
        for i, x in enumerate(bottom):
            for y in bottom[i:]:
                assert sp.p(T.apply(x), T.apply(y)) <= F(1, 2) * sp.p(x, y)

    def test_constant_map_immediate(self):
        sample = catalog_space("ex5.8").finite_sample()
        rep = solve_on_bottom(sample, MapSpec.constant("a"), F(1, 2), "a", budget=10)
        assert rep.status == "fixed_point" and rep.fixed_point == "a"
        assert rep.fixed_points_in_bottom == ("a",) and rep.unique_in_bottom

    def test_start_outside_bottom_rejected(self):
        sample = catalog_space("ex5.8").finite_sample()
        with pytest.raises(ValueError):
            solve_on_bottom(sample, MapSpec.constant("a"), F(1, 2), "b")

    def test_condition_violation_reported(self):
        sample = catalog_space("ex5.8").finite_sample()
        identity = MapSpec.from_table("id", {"a": "a", "b": "b"})
        rep = solve_on_bottom(sample, identity, F(1, 2), "a")
        assert rep.status == "condition_violated"
        assert rep.condition_report is not None and not rep.condition_report.ok

    def test_escape_triggers_witness_search(self):
        # sample pairs pass, but iterating from the unsampled bottom point 1
        # leaves the bottom set; the escape search finds the violated pair
        sp = _escape_space()
        T = MapSpec.from_table("jump", {F(0): F(0), F(1): F(2), F(2): F(2)})
        rep = solve_on_bottom(sp, T, F(1, 2), F(1), budget=10)
        assert rep.status == "escaped_bottom"
        assert rep.escape == (F(1), F(2))
        assert rep.escape_violation is not None
        assert rep.escape_violation.lhs > rep.escape_violation.rhs

    def test_max_survivors_solve_to_the_one_bottom_fixed_point(self):
        # The suite's claim-3 lemma: a max-condition survivor at 1/2 fixes exactly
        # one point of the bottom set, and iterating on the bottom set reaches it.
        survivors = middle = 0
        for seed in range(300):
            sp, _ = anchored_space(seed, seed % 3 + 2)
            bottom = bottom_set(sp)
            maps = exhaustive_condition_maps(sp, check_condition_max, F(1, 2))
            survivors += len(maps)
            middle += 1 < len(bottom) < len(sp)
            for T in maps:
                fixed = tuple(z for z in bottom if T.apply(z) == z)
                rep = solve_on_bottom(sp, T, F(1, 2), bottom[-1])
                assert len(fixed) == 1, (seed, T.name)
                assert rep.status == "fixed_point" and rep.unique_in_bottom is True
                assert rep.fixed_point == fixed[0] and rep.fixed_points_in_bottom == fixed
        assert survivors >= 800 and middle >= 50, (survivors, middle)


class TestConstantMapBottom:
    def test_ex55_excludes_zero(self):
        sample = catalog_space("ex5.5").finite_sample()
        got = constant_map_bottom(sample)
        assert set(got) == {F(1, 2), F(1, 3), F(1)}
        assert F(0) not in got

    def test_metric_space_keeps_everything(self):
        sp = random_pm_space(9, 4, zero_f=True)
        assert constant_map_bottom(sp) == sp.points

    def test_one_point(self):
        sp = FinitePMSpace([F(0)], [[F(2)]])
        assert constant_map_bottom(sp) == (F(0),)

    def test_matches_bottom_on_random_spaces(self):
        for seed in range(25):
            sp = random_pm_space(seed, seed % 7 + 1)
            assert set(constant_map_bottom(sp)) == set(bottom_set(sp))

    def test_takes_no_factor_grid(self):
        # the answer is the same at every factor, so there is no grid to pass
        with pytest.raises(TypeError):
            constant_map_bottom(catalog_space("ex5.5").finite_sample(), ())


class TestRuledOut:
    def test_ex56_every_sample_point_ruled_out(self):
        sp = catalog_space("ex5.6")
        for z in list(sp.canonical_sample) + sp.sample(1, 30):
            assert constant_map_ruled_out(sp, z)

    def test_ex55_positive_points_not_ruled_out(self):
        sp = catalog_space("ex5.5")
        assert constant_map_ruled_out(sp, F(0))
        assert not constant_map_ruled_out(sp, F(1, 2))


class TestExhaustiveEnumeration:
    def test_ex58_only_constant_a(self):
        sample = catalog_space("ex5.8").finite_sample()
        survivors = exhaustive_condition_maps(sample, check_condition_max,
                                              least_factor((F(0), F(1, 2), F(3, 4))))
        assert len(survivors) == 1
        assert dict(survivors[0].table) == {"a": "a", "b": "a"}

    def test_one_point_space(self):
        sp = FinitePMSpace([F(0)], [[F(1)]])
        for check, param in ((check_condition_max, F(1, 2)), (check_condition_min, 2)):
            assert len(exhaustive_condition_maps(sp, check, param)) == 1
        # with a positive self-distance even the identity is no contraction
        assert exhaustive_condition_maps(sp, check_contraction, F(0)) == []
        flat = FinitePMSpace([F(0)], [[F(0)]])
        assert len(exhaustive_condition_maps(flat, check_contraction, F(0))) == 1

    def test_size_refusal(self):
        sp = random_pm_space(0, 6)
        with pytest.raises(SizeLimitError):
            exhaustive_condition_maps(sp, check_condition_max, F(1, 2))

    def test_only_the_three_checkers_enumerate(self):
        sp = random_pm_space(0, 3)
        with pytest.raises(ValueError, match="takes check_contraction, check_condition_max"):
            exhaustive_condition_maps(sp, lambda space, T, alpha: None, F(1, 2))
        wrapped = functools.wraps(check_condition_max)(lambda *args: check_condition_max(*args))
        assert ([T.name for T in exhaustive_condition_maps(sp, wrapped, F(1, 2))]
                == [T.name for T in exhaustive_condition_maps(sp, check_condition_max, F(1, 2))])

    def test_min_condition_matches_square_constant_on_metric_spaces(self):
        # with a contraction in hand, the min-condition at depth 2 is the same
        # as the second iterate being constant
        for seed in range(20):
            sp = random_pm_space(seed, 3, zero_f=True)
            contractions = {T.name for T in exhaustive_condition_maps(
                sp, check_contraction, F(1, 2))}
            min_maps = {T.name for T in exhaustive_condition_maps(sp, check_condition_min, 2)}
            square_constant = set()
            for T in exhaustive_condition_maps(sp, check_contraction, F(1, 2)):
                images = {T.apply(T.apply(x)) for x in sp.points}
                if len(images) == 1:
                    square_constant.add(T.name)
            assert contractions & min_maps == square_constant

    def test_min_survivor_fixed_points_lie_in_bottom_and_are_unique(self):
        for seed in range(12):
            sp = random_pm_space(seed, 3)
            rho = rho_of(sp)
            for T in exhaustive_condition_maps(sp, check_condition_min, 2):
                fixed = [x for x in sp.points if T.apply(x) == x]
                assert len(fixed) <= 1
                for x in fixed:
                    assert sp.p(x, x) == rho

    def test_max_survivors_keep_bottom_and_stay_continuous_there(self):
        # random_pm_space gives |B| = 1; the anchored tables add 1 < |B| <= n.
        spaces = ([random_pm_space(seed, 3) for seed in range(8)]
                  + [anchored_space(seed, seed % 3 + 2)[0] for seed in range(24)])
        assert sum(1 < len(bottom_set(sp)) < len(sp) for sp in spaces) >= 4
        for sp in spaces:
            bottom = bottom_set(sp)
            bset = set(bottom)
            for T in exhaustive_condition_maps(sp, check_condition_max, F(1, 2)):
                for z in bottom:
                    assert T.apply(z) in bset
                # exact sequential continuity at bottom points
                for x in bottom:
                    cycle = tuple(y for y in sp.points if sp.p(y, x) == sp.p(x, x))
                    seq = SequenceSpec.periodic(cycle)
                    assert x in limit_set(sp, seq)
                    image = SequenceSpec.periodic(tuple(T.apply(y) for y in cycle))
                    assert T.apply(x) in limit_set(sp, image)
