"""Sequence analyzers, topology probes, and the mode-equivalence properties."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from partialmetric import (
    AxiomFailureError,
    DomainError,
    FinitePMSpace,
    PMError,
    SequenceSpec,
    UnsupportedSequenceError,
    apex_space,
    ball_cover_check,
    bottom_set,
    catalog_sequence,
    catalog_space,
    check_space_properties,
    converges_to,
    diameter,
    format_point,
    gdelta_diagonal,
    is_cauchy,
    limit_set,
    maximal_points,
    minimal_balls,
    p_m,
    properly_converges,
    random_pm_space,
    separation_class,
    seq_compact_witness,
    specialization_order,
    totally_bounded_at,
)
from partialmetric.points import FSet, read_points

from oracles import greedy_net_by_sets

F = Fraction
ABC = ("a", "b", "c")


class _PmView:
    """The same point set under the induced metric; p_m-convergence proxy."""

    def __init__(self, base):
        self.base = base

    def p(self, x, y):
        return p_m(self.base, x, y)

    def contains(self, x):
        return self.base.contains(x) if hasattr(self.base, "contains") else True


class TestConvergesTo:
    def test_ex32_alternating_exact(self):
        sp = catalog_space("ex3.2")
        target = FSet.of(ABC, "a", "b")
        rep = converges_to(sp, catalog_sequence("ex3.2.alt"), target, tol=F(0))
        assert rep.mode == "converges" and rep.exact
        assert rep.certificate.achieved_gap == 0

    def test_constant_sequence(self):
        sp = catalog_space("ex5.8")
        rep = converges_to(sp, SequenceSpec.periodic(("b",)), "b", tol=F(0))
        assert rep.mode == "converges" and rep.exact

    def test_ex48_certificate_tail(self):
        rep = converges_to(catalog_space("ex4.8"), catalog_sequence("ex4.8.naturals"),
                           F(0), tol=F(1, 25), horizon=100)
        assert rep.mode == "converges"
        assert rep.certificate.tail_index == 25
        assert rep.certificate.achieved_gap <= F(1, 25)

    def test_periodic_refutation_carries_witness(self):
        sp = catalog_space("ex3.2")
        rep = converges_to(sp, catalog_sequence("ex3.2.alt"), FSet.of(ABC, "a"), tol=F(0))
        assert rep.mode == "refuted" and rep.exact
        assert any(g == 1 for _, g in rep.witness)

    def test_slow_gap_is_inconclusive_not_refuted(self):
        # 1/n against a wrong target decays but never patterns: no refutation.
        sp = catalog_space("ex3.4")
        rep = converges_to(sp, catalog_sequence("ex3.4.recip"), F(-5), tol=F(1, 25),
                           horizon=100)
        assert rep.mode == "inconclusive"

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            SequenceSpec.explicit([])

    def test_negative_tolerance_rejected(self):
        sp = catalog_space("ex5.8")
        with pytest.raises(ValueError):
            converges_to(sp, SequenceSpec.periodic(("a",)), "a", tol=F(-1))

    def test_tiny_horizons_stay_sound(self):
        # below four terms the whole prefix is the certificate window
        sp = catalog_space("ex5.8")
        close = SequenceSpec.explicit(("b",))
        assert converges_to(sp, close, "b", tol=F(0)).mode == "converges"
        far = SequenceSpec.explicit(("a",))
        rep = converges_to(sp, far, "b", tol=F(0), horizon=1)
        assert rep.mode in ("inconclusive", "refuted")
        assert rep.mode != "converges"


class TestProperlyConverges:
    def test_ex55_refuted_exactly(self):
        rep = properly_converges(catalog_space("ex5.5"), catalog_sequence("ex5.5.recip"),
                                 F(0), horizon=64)
        assert rep.mode == "refuted"
        assert {g for _, g in rep.witness} == {F(1)}

    def test_ex55_plain_converges_though(self):
        rep = converges_to(catalog_space("ex5.5"), catalog_sequence("ex5.5.recip"),
                           F(0), tol=F(0), horizon=64)
        assert rep.mode == "converges"

    def test_constant_sequence_proper(self):
        sp = catalog_space("ex5.8")
        rep = properly_converges(sp, SequenceSpec.periodic(("b",)), "b", tol=F(0))
        assert rep.mode == "properly_converges"

    def test_ex54_orbit_proper(self):
        sp = catalog_space("ex5.4")
        rep = properly_converges(sp, catalog_sequence("ex5.4.orbit0"), F(1), horizon=64)
        assert rep.mode == "properly_converges"
        assert rep.certificate is not None and rep.self_certificate is not None


class TestIsCauchy:
    def test_ex32_alt_refuted_with_values_1_2(self):
        rep = is_cauchy(catalog_space("ex3.2"), catalog_sequence("ex3.2.alt"))
        assert rep.verdict == "refuted" and rep.exact
        assert {g for _, g in rep.witness} == {F(1), F(2)}

    def test_constant_is_cauchy_at_self_distance(self):
        sp = catalog_space("ex5.8")
        rep = is_cauchy(sp, SequenceSpec.periodic(("b",)), tol=F(0))
        assert rep.verdict == "cauchy_to" and rep.a == 1

    def test_ex48_naturals_cauchy_near_one(self):
        rep = is_cauchy(catalog_space("ex4.8"), catalog_sequence("ex4.8.naturals"),
                        tol=F(1, 25), horizon=200)
        assert rep.verdict == "cauchy_to"
        assert abs(rep.a - 1) <= F(1, 25)


class TestParameterChecks:
    """Each analyzer refuses a bad horizon or tolerance itself, periodic specs included."""

    @pytest.mark.parametrize("seq, target", [("ex3.2.alt", FSet(ABC, 0)),
                                             ("ex4.8.naturals", F(0))])
    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_below_one_is_refused(self, seq, target, horizon):
        sp, spec = catalog_space(seq.rsplit(".", 1)[0]), catalog_sequence(seq)
        for analyze in (converges_to, properly_converges):
            with pytest.raises(ValueError, match="horizon"):
                analyze(sp, spec, target, horizon=horizon)
        with pytest.raises(ValueError, match="horizon"):
            is_cauchy(sp, spec, horizon=horizon)
        with pytest.raises(ValueError, match="horizon"):
            seq_compact_witness(sp.finite_sample(), spec, horizon=horizon)

    def test_negative_tolerance_is_refused_on_a_cycle(self):
        sp, spec = catalog_space("ex3.2"), catalog_sequence("ex3.2.alt")
        with pytest.raises(ValueError, match="tolerance"):
            seq_compact_witness(sp.finite_sample(), spec, tol=F(-1))
        with pytest.raises(ValueError, match="tolerance"):
            is_cauchy(sp, spec, tol=F(-1))


class TestLimitSet:
    def test_ex56_every_cycle_converges_to_zero(self):
        trunc = catalog_space("ex5.6").finite_sample()
        for cycle in ((F(1, 2),), (F(1, 3), F(1, 4)), (F(0), F(1, 2), F(1, 4))):
            assert F(0) in limit_set(trunc, SequenceSpec.periodic(cycle))

    def test_metric_constant_has_unique_limit(self):
        sp = random_pm_space(5, 5, zero_f=True)
        x = sp.points[2]
        assert limit_set(sp, SequenceSpec.periodic((x,))) == frozenset((x,))

    def test_one_plus_max_cycle_limits(self):
        # Under 1 + max, p(y, t) is constantly 1 + t exactly when t bounds the
        # cycle, so the limit points are the sample points at or above 1/2.
        sample = catalog_space("ex3.1").finite_sample()
        got = limit_set(sample, SequenceSpec.periodic((F(1, 2), F(1, 3), F(1, 4))))
        assert got == frozenset((F(1, 2), F(2, 3), F(3, 4)))

    def test_explicit_constant_list(self):
        sp = catalog_space("ex5.8").finite_sample()
        assert limit_set(sp, SequenceSpec.explicit(("a", "a", "a"))) == frozenset(("a",))

    def test_aperiodic_explicit_rejected(self):
        sp = catalog_space("ex5.6").finite_sample()
        with pytest.raises(UnsupportedSequenceError):
            limit_set(sp, SequenceSpec.explicit((F(0), F(1, 2), F(1, 3), F(1, 4))))

    def test_point_outside_space_rejected(self):
        sp = catalog_space("ex5.8").finite_sample()
        with pytest.raises(Exception):
            limit_set(sp, SequenceSpec.periodic((F(1, 2),)))


class TestSpecializationOrder:
    def test_ex56_zero_dominates_everything(self):
        trunc = catalog_space("ex5.6").finite_sample()
        order = specialization_order(trunc)
        assert all(order.dominates[trunc.index(F(0))])

    def test_metric_order_is_equality(self):
        sp = random_pm_space(8, 5, zero_f=True)
        order = specialization_order(sp)
        for i, x in enumerate(sp.points):
            for j, y in enumerate(sp.points):
                assert order.dominates[i][j] == (i == j)

    def test_ex58_incomparable(self):
        order = specialization_order(catalog_space("ex5.8").finite_sample())
        assert order.dominates == ((True, False), (False, True))

    def test_refuses_invalid_space(self):
        bad = FinitePMSpace(["a", "b"], [[F(1), F(0)], [F(0), F(0)]])
        with pytest.raises(AxiomFailureError):
            specialization_order(bad)

    def test_strict_dominance_value_chain(self):
        for seed in range(15):
            sp = random_pm_space(seed, seed % 6 + 2)
            order = specialization_order(sp)
            m = sp.matrix
            for i in range(len(sp)):
                for j in range(len(sp)):
                    if i != j and order.dominates[i][j]:
                        assert m[i][j] == m[i][i] > m[j][j]


class TestMaximalPoints:
    def test_ex56_truncation(self):
        assert maximal_points(catalog_space("ex5.6").finite_sample()) == frozenset((F(0),))

    def test_metric_space_all_maximal(self):
        sp = random_pm_space(3, 5, zero_f=True)
        assert maximal_points(sp) == frozenset(sp.points)

    def test_apex(self):
        assert maximal_points(apex_space(6).finite_sample()) == frozenset(("a",))


class TestGDelta:
    def test_ex58(self):
        gd = gdelta_diagonal(catalog_space("ex5.8").finite_sample())
        assert gd.t1 and gd.stabilization_n == 1 and gd.equals_diagonal

    def test_ex56_truncation_fails(self):
        gd = gdelta_diagonal(catalog_space("ex5.6").finite_sample())
        assert not gd.t1 and not gd.equals_diagonal

    def test_metric_space(self):
        gd = gdelta_diagonal(random_pm_space(2, 5, zero_f=True))
        assert gd.t1 and gd.equals_diagonal

    def test_one_point_space(self):
        gd = gdelta_diagonal(FinitePMSpace([F(0)], [[F(2)]]))
        assert gd.stabilization_n == 1 and gd.equals_diagonal


class TestCoversAndNets:
    def test_ex44_one_ball_covers(self):
        sample = catalog_space("ex4.4").finite_sample()
        for eps in (F(1, 10), F(1, 2), F(1)):
            assert ball_cover_check(sample, [F(1)], eps).covers

    def test_all_centers_cover(self):
        sp = random_pm_space(1, 5)
        assert ball_cover_check(sp, sp.points, F(1, 100)).covers

    def test_apex_block_centers_miss_apex(self):
        sp = apex_space(4).finite_sample()
        rep = ball_cover_check(sp, ["x1", "x2", "x3", "x4"], F(1, 2))
        assert not rep.covers and rep.uncovered == "a"

    def test_empty_centers(self):
        sp = catalog_space("ex5.8").finite_sample()
        rep = ball_cover_check(sp, [], F(1))
        assert not rep.covers and rep.uncovered == "a"

    def test_apex_nets(self):
        sp = apex_space(32).finite_sample()
        assert totally_bounded_at(sp, F(1, 2)).centers == ("a",)
        block = [p for p in sp.points if p != "a"]
        assert totally_bounded_at(sp.restrict(block), F(1, 2)).size == 32

    def test_net_size_one_past_diameter(self):
        sp = random_pm_space(4, 6)
        assert totally_bounded_at(sp, diameter(sp) + 1).size == 1


@st.composite
def net_cases(draw):
    """(space, eps): a random valid or invalid table, its point ids, and a radius.

    Invalid tables draw entries from 0..top over one denominator; top 1
    fills a table with ties. The radius is a positive gap p(c,y) - p(c,c)
    exactly (the ball is strict), past the diameter, or any k/12.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    if draw(st.booleans()):
        matrix = random_pm_space(draw(st.integers(min_value=0, max_value=10_000)), n).matrix
        event("valid table")
    else:
        top, den = draw(st.sampled_from([1, 6])), draw(st.sampled_from([1, 12]))
        matrix = [[F(draw(st.integers(min_value=0, max_value=top)), den) for _ in range(n)]
                  for _ in range(n)]
        event("ties" if top == 1 else "random table")
    ids = draw(st.sampled_from(["fraction", "str", "int"]))
    event(f"{ids} ids")
    # Ids whose order is not the index order, so a tie must follow the index.
    points = {"fraction": [F(n - i, 3) for i in range(n)],
              "str": [f"p{n - i}" for i in range(n)],
              "int": [n - i for i in range(n)]}[ids]
    sp = FinitePMSpace(points, matrix)
    gaps = sorted({row[y] - row[c] for c, row in enumerate(matrix) for y in range(n)
                   if row[y] > row[c]})
    kinds = ["grid", "past diameter"] + (["gap"] if gaps else [])
    kind = draw(st.sampled_from(kinds))
    event(f"eps {kind}")
    if kind == "gap":
        eps = draw(st.sampled_from(gaps))
    elif kind == "past diameter":
        eps = diameter(sp) + F(draw(st.integers(min_value=1, max_value=12)), 12)
    else:
        eps = F(draw(st.integers(min_value=1, max_value=30)), 12)
    return sp, eps


class TestGreedyNet:
    @settings(max_examples=300, deadline=None)
    @given(net_cases())
    def test_matches_the_set_oracle(self, case):
        sp, eps = case
        net = totally_bounded_at(sp, eps)
        want = tuple(sp.points[i] for i in greedy_net_by_sets(sp.matrix, eps))
        assert net.centers == want and net.size == len(want) and net.eps == eps

    def test_a_ball_at_a_gap_leaves_that_point_out(self):
        sp = FinitePMSpace(["a", "b"], [[0, 1], [1, 0]])
        assert totally_bounded_at(sp, F(1)).centers == ("a", "b")
        assert totally_bounded_at(sp, F(1) + F(1, 10**9)).centers == ("a",)

    def test_ties_go_to_the_lowest_index(self):
        sp = FinitePMSpace([F(3), F(2), F(1)], [[1] * 3] * 3)  # every ball is the whole space
        assert totally_bounded_at(sp, F(1, 2)).centers == (F(3),)

    @pytest.mark.parametrize("eps", [F(0), F(-1, 2)])
    def test_refuses_a_radius_that_is_not_positive(self, eps):
        with pytest.raises(ValueError, match="net radius must be positive"):
            totally_bounded_at(random_pm_space(1, 3), eps)


class TestSeqCompactWitness:
    def test_ex48_truncation_whole_sequence_to_zero(self):
        sp = catalog_space("ex4.8")
        trunc = FinitePMSpace.from_function(tuple(F(i) for i in range(51)), sp.p)
        seq = SequenceSpec.explicit(tuple(F(i) for i in range(1, 51)))
        witness = seq_compact_witness(trunc, seq, tol=F(1, 25), horizon=50)
        assert witness.kind == "full" and witness.limit == F(0)
        # despite every distinct pair sitting above 1
        assert all(sp.p(F(n), F(m)) > 1 for n in range(1, 51) for m in range(n + 1, 51))

    def test_alternating_two_point(self):
        sp = catalog_space("ex5.8").finite_sample()
        witness = seq_compact_witness(sp, SequenceSpec.periodic(("a", "b")))
        assert witness.kind == "constant"
        assert witness.limit == "a"
        assert witness.progression == (1, 2)

    def test_constant_sequence_is_its_own_witness(self):
        sp = catalog_space("ex5.8").finite_sample()
        witness = seq_compact_witness(sp, SequenceSpec.periodic(("b",)))
        assert witness.kind == "full"

    def test_exact_limit_is_the_first_of_the_limit_set(self):
        # a >= b, so the constant sequence at b converges to both
        sp = FinitePMSpace(["a", "b"], [["1", "1"], ["1", "0"]])
        seq = SequenceSpec.periodic(("b",))
        assert limit_set(sp, seq) == {"a", "b"}
        assert seq_compact_witness(sp, seq).limit == "a"

    def test_cycle_term_outside_the_space_is_refused(self):
        sp = FinitePMSpace(ABC, [[0, 2, 3], [2, 1, 3], [3, 3, 2]])
        seq = SequenceSpec.periodic(("b", "c", "zzz"))
        with pytest.raises(DomainError, match="point 'zzz' is not in the space"):
            limit_set(sp, seq)
        with pytest.raises(DomainError, match="point 'zzz' is not in the space"):
            seq_compact_witness(sp, seq)

    @pytest.mark.parametrize("analyze", [
        limit_set,
        seq_compact_witness,
        lambda sp, seq: converges_to(sp, seq, "b"),
        lambda sp, seq: properly_converges(sp, seq, "b"),
        is_cauchy,
    ], ids=["limit_set", "seq_compact_witness", "converges_to", "properly_converges", "is_cauchy"])
    def test_preamble_term_outside_the_space_is_refused(self, analyze):
        sp = FinitePMSpace(ABC, [[0, 2, 3], [2, 1, 3], [3, 3, 2]])
        seq = SequenceSpec.periodic(("b",), preamble=("a", "zzz"))
        with pytest.raises(DomainError, match="point 'zzz' is not in the space"):
            analyze(sp, seq)

    def test_preamble_term_outside_a_catalog_space_is_its_own_error(self):
        seq = SequenceSpec.periodic((F(0),), preamble=("zzz",))
        with pytest.raises(DomainError, match="point 'zzz' is not in ex5.4"):
            converges_to(catalog_space("ex5.4"), seq, F(0))

    @pytest.mark.parametrize("analyze", [
        lambda sp, seq, x: limit_set(sp, seq),
        lambda sp, seq, x: seq_compact_witness(sp, seq),
        converges_to,
        properly_converges,
        lambda sp, seq, x: is_cauchy(sp, seq),
    ], ids=["limit_set", "seq_compact_witness", "converges_to", "properly_converges", "is_cauchy"])
    @pytest.mark.parametrize("space, x, where", [
        (FinitePMSpace(ABC, [[0, 2, 3], [2, 1, 3], [3, 3, 2]]), "b", "the space"),
        (catalog_space("ex5.4"), F(0), "ex5.4"),
    ], ids=["table", "catalog"])
    def test_explicit_term_outside_the_space_is_refused(self, analyze, space, x, where):
        # The tail is constant at x, so only a check of every term catches zzz.
        seq = SequenceSpec.explicit(["zzz"] + [x] * 20)
        with pytest.raises(DomainError, match=f"point 'zzz' is not in {where}"):
            analyze(space, seq, x)

    @pytest.mark.parametrize("analyze", [
        lambda sp, seq, x: limit_set(sp, seq, horizon=100),
        lambda sp, seq, x: seq_compact_witness(sp, seq, horizon=100),
        lambda sp, seq, x: converges_to(sp, seq, x, horizon=100),
        lambda sp, seq, x: properly_converges(sp, seq, x, horizon=100),
        lambda sp, seq, x: is_cauchy(sp, seq, horizon=100),
    ], ids=["limit_set", "seq_compact_witness", "converges_to", "properly_converges", "is_cauchy"])
    @pytest.mark.parametrize("space, x, where", [
        (FinitePMSpace(ABC, [[0, 2, 3], [2, 1, 3], [3, 3, 2]]), "b", "the space"),
        (catalog_space("ex5.4"), F(0), "ex5.4"),
    ], ids=["table", "catalog"])
    @pytest.mark.parametrize("odd", [None, "q"], ids=["tail-inside", "tail-outside"])
    def test_generator_term_outside_the_space_is_refused(self, analyze, space, x, where, odd):
        # x_1 = r is outside; the tail is x, or alternates x with q when odd is q.
        seq = SequenceSpec.from_generator(
            lambda n: "r" if n == 1 else (odd or x) if n % 2 else x)
        with pytest.raises(DomainError, match=f"point 'r' is not in {where}"):
            analyze(space, seq, x)

    def test_explicit_terms_past_the_horizon_are_not_read(self):
        sp = FinitePMSpace(ABC, [[0, 2, 3], [2, 1, 3], [3, 3, 2]])
        seq = SequenceSpec.explicit(["b"] * 20 + ["zzz"])
        assert limit_set(sp, seq, horizon=20) == {"b"}
        assert is_cauchy(sp, seq, horizon=20).verdict == "cauchy_to"
        with pytest.raises(DomainError, match="point 'zzz' is not in the space"):
            is_cauchy(sp, seq, horizon=21)

    @pytest.mark.parametrize("terms, limit, progression", [
        (("b", "a", "a", "b"), "b", (1, 4)),
        (("c", "a", "b", "a", "b"), "a", (2, 5)),
    ])
    def test_pigeonhole_takes_the_earliest_of_a_tie(self, terms, limit, progression):
        sp = FinitePMSpace(ABC, [[1, 2, 2], [2, 1, 2], [2, 2, 1]])
        witness = seq_compact_witness(sp, SequenceSpec.periodic(terms))
        assert (witness.kind, witness.limit, witness.progression) == (
            "constant", limit, progression)

    def test_pigeonhole_on_a_long_explicit_sequence(self):
        sp = FinitePMSpace(ABC, [[1, 2, 2], [2, 1, 2], [2, 2, 1]])
        terms = ("c", "a", "b") + ("a", "b") * 4_000 + ("c", "a")
        witness = seq_compact_witness(sp, SequenceSpec.explicit(terms), horizon=len(terms))
        assert witness.kind == "constant" and witness.limit == "a"
        assert witness.indices == tuple(i + 1 for i, y in enumerate(terms) if y == "a")


class TestOneReading:
    """Each analyzer evaluates a generator at most ``horizon`` times per call."""

    @pytest.mark.parametrize("analyze", [
        lambda sp, seq: converges_to(sp, seq, "b", horizon=100),
        lambda sp, seq: properly_converges(sp, seq, "b", horizon=100),
        lambda sp, seq: is_cauchy(sp, seq, horizon=100),
        lambda sp, seq: limit_set(sp, seq, horizon=100),
        lambda sp, seq: seq_compact_witness(sp, seq, horizon=100),
    ], ids=["converges_to", "properly_converges", "is_cauchy", "limit_set",
            "seq_compact_witness"])
    @pytest.mark.parametrize("term", [
        lambda n: "a" if n < 5 else "bc"[n % 2],                  # a periodic tail
        lambda n: "a" if round(n ** 0.5) ** 2 == n else "b",      # a at the squares only
    ], ids=["periodic-tail", "aperiodic"])
    def test_generator_is_read_once(self, analyze, term):
        sp = FinitePMSpace(ABC, [[0, 2, 3], [2, 1, 3], [3, 3, 2]])
        calls = []
        seq = SequenceSpec.from_generator(lambda n: calls.append(n) or term(n))
        try:
            analyze(sp, seq)
        except UnsupportedSequenceError:  # limit_set on the aperiodic sequence
            pass
        assert len(calls) <= 100


class TestModeEquivalences:
    def test_proper_iff_induced_metric_convergence(self):
        # proper at tol -> p_m-gap certificate at 3 tol; p_m at tol -> proper at 2 tol
        cases = [
            (catalog_space("ex5.4"), catalog_sequence("ex5.4.orbit0"), F(1)),
            (catalog_space("ex5.4"), catalog_sequence("ex5.4.orbit3"), F(2)),
            (catalog_space("ex5.8"), SequenceSpec.periodic(("b",)), "b"),
        ]
        tol = F(1, 10**6)
        for sp, seq, target in cases:
            proper = properly_converges(sp, seq, target, tol=tol, horizon=64)
            induced = converges_to(_PmView(sp), seq, target, tol=3 * tol, horizon=64)
            assert proper.mode == "properly_converges"
            assert induced.mode == "converges"
            back = properly_converges(sp, seq, target, tol=2 * tol, horizon=64)
            assert back.mode == "properly_converges"

    def test_improper_cases_fail_induced_metric_too(self):
        cases = [
            (catalog_space("ex5.5"), catalog_sequence("ex5.5.recip"), F(0)),
            (catalog_space("ex3.2"), catalog_sequence("ex3.2.alt"), FSet.of(ABC, "a", "b")),
        ]
        for sp, seq, target in cases:
            proper = properly_converges(sp, seq, target, horizon=64)
            induced = converges_to(_PmView(sp), seq, target, horizon=64)
            assert proper.mode == "refuted"
            assert induced.mode == "refuted"

    def test_proper_convergence_implies_cauchy_at_3tol(self):
        tol = F(1, 10**6)
        cases = [
            (catalog_space("ex5.4"), catalog_sequence("ex5.4.orbit0"), F(1)),
            (catalog_space("ex5.4"), catalog_sequence("ex5.4.orbit3"), F(2)),
            (catalog_space("ex5.6"), catalog_sequence("ex5.6.tail"), F(0)),
        ]
        for sp, seq, target in cases:
            proper = properly_converges(sp, seq, target, tol=tol, horizon=64)
            if proper.mode != "properly_converges":
                continue
            cauchy = is_cauchy(sp, seq, tol=3 * tol, horizon=64)
            assert cauchy.verdict == "cauchy_to"
            # the settled pairwise value is the limit's self-distance
            assert abs(cauchy.a - sp.p(target, target)) <= 3 * tol

    def test_convergence_to_bottom_point_is_proper(self):
        # catalog case: the orbit limit 1 lies in the declared bottom set
        sp = catalog_space("ex5.4")
        seq = catalog_sequence("ex5.4.orbit0")
        tol = F(1, 10**6)
        assert converges_to(sp, seq, F(1), tol=tol, horizon=64).mode == "converges"
        assert sp.declared_bottom.contains(F(1))
        assert properly_converges(sp, seq, F(1), tol=2 * tol, horizon=64).mode \
            == "properly_converges"
        # finite case: exact cycles around any bottom point stay proper
        for seed in range(10):
            fin = random_pm_space(seed, seed % 5 + 2)
            for x in bottom_set(fin):
                cycle = tuple(y for y in fin.points if fin.p(y, x) == fin.p(x, x))
                seq2 = SequenceSpec.periodic(cycle)
                assert converges_to(fin, seq2, x, tol=F(0)).mode == "converges"
                assert properly_converges(fin, seq2, x, tol=F(0)).mode \
                    == "properly_converges"


def outcome(call):
    """A call's JSON (a point set as its sorted ids), or the error type and message it raised."""
    try:
        value = call()
    except (PMError, ValueError) as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}
    if isinstance(value, frozenset):
        return sorted(format_point(t) for t in value)
    return value.to_dict()


def sequence_outcomes(space, seq, targets, horizon, tol):
    """Each analyzer's JSON on one sequence, or the error type and message it raised."""
    return {
        "converges_to": [outcome(lambda x=x: converges_to(space, seq, x, tol, horizon))
                         for x in targets],
        "properly_converges": [outcome(lambda x=x: properly_converges(space, seq, x, tol, horizon))
                               for x in targets],
        "is_cauchy": outcome(lambda: is_cauchy(space, seq, tol, horizon)),
        "limit_set": outcome(lambda: limit_set(space, seq, horizon)),
        "seq_compact_witness": outcome(lambda: seq_compact_witness(space, seq, tol, horizon)),
    }


def golden_case_inputs(case):
    """The space, sequence and targets a golden case names."""
    catalog = catalog_space(case["space"])
    space = catalog.finite_sample() if case["table"] else catalog
    spec = case["seq"]
    if "catalog" in spec:
        seq = catalog_sequence(spec["catalog"])
    elif "explicit" in spec:
        seq = SequenceSpec.explicit(read_points(spec["explicit"], catalog.canonical_sample))
    else:
        seq = SequenceSpec.periodic(read_points(spec["cycle"], catalog.canonical_sample),
                                    read_points(spec["preamble"], catalog.canonical_sample))
    return space, seq, catalog.canonical_sample[:3]


# Every analyzer's answer on the catalog sequences (on their own spaces) and on
# periodic and explicit sequences over each finite sample, at horizons 1, 3 and
# 100 and tolerances 0 and 1/25, as the analyzers gave them when each read the
# sequence its own way.
SEQUENCE_GOLDEN = json.loads((Path(__file__).parent / "sequence_golden.json").read_text())


@pytest.mark.parametrize("name", sorted({case["space"] for case in SEQUENCE_GOLDEN}))
def test_sequence_analyzers_are_golden(name):
    cases = [case for case in SEQUENCE_GOLDEN if case["space"] == name]
    for case in cases:
        space, seq, targets = golden_case_inputs(case)
        got = sequence_outcomes(space, seq, targets, case["horizon"],
                                Fraction(case["tol"]))
        assert json.dumps(got) == json.dumps(case["outcomes"]), \
            {k: case[k] for k in ("table", "seq", "horizon", "tol")}


def topology_outcomes(space):
    """Each topology probe's JSON on one table, or the error type and message it raised.

    The minimal balls are their marked (x, y) id pairs, so the golden
    does not pin the type they are returned in.
    """
    ids = [format_point(p) for p in space.points]
    masks = minimal_balls(space)
    marked = [[x, y] for i, x in enumerate(ids) for j, y in enumerate(ids) if masks[i] >> j & 1]
    half = Fraction(1, 2)
    return {
        "separation_class": outcome(lambda: separation_class(space)),
        "gdelta_diagonal": outcome(lambda: gdelta_diagonal(space)),
        "specialization_order": outcome(lambda: specialization_order(space)),
        "maximal_points": outcome(lambda: maximal_points(space)),
        "minimal_balls": marked,
        "check_space_properties": check_space_properties(space),
        "totally_bounded_at": outcome(lambda: totally_bounded_at(space, half)),
        "ball_cover_check": outcome(lambda: ball_cover_check(space, bottom_set(space), half)),
    }


def topology_case_space(case):
    """The table a golden case names: a catalog sample, a random space or a table as written."""
    if "catalog" in case:
        return catalog_space(case["catalog"]).finite_sample()
    if "random" in case:
        seed, n = case["random"]
        return random_pm_space(seed, n, zero_f=case["zero_f"])
    return FinitePMSpace.from_json_dict(case["table"])


# Every topology probe's answer, the property suite's and the 1/2 net's and
# cover's on every catalog sample, on random_pm_space(seed, n) for seeds 0-2,
# n 1-10, with and without zero_f, and on small integer tables as written,
# valid or failing P1, P2, P3 or P4, as they were when the minimal balls
# were bool rows rebuilt on each call.
TOPOLOGY_GOLDEN = json.loads((Path(__file__).parent / "topology_golden.json").read_text())


@pytest.mark.parametrize("case", TOPOLOGY_GOLDEN, ids=[case["name"] for case in TOPOLOGY_GOLDEN])
def test_topology_probes_are_golden(case):
    got = topology_outcomes(topology_case_space(case))
    assert json.dumps(got) == json.dumps(case["outcomes"])
