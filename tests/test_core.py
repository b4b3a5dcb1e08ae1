"""Core types, axiom verdicts, derived metrics, separation."""

import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from partialmetric import (
    DomainError,
    FinitePMSpace,
    StructureError,
    ball,
    bottom_set,
    catalog_space,
    check_axioms,
    d_metric,
    diameter,
    minimal_balls,
    p_bar,
    p_m,
    random_pm_space,
    rho_of,
    separation_class,
)
from partialmetric.core import ball_masks, d_matrix, least_gap, p_bar_matrix, p_m_matrix
from partialmetric import kernels

from oracles import axiom_violation, metric_violation

F = Fraction


def two_point(paa, pbb, pab, pba=None):
    return FinitePMSpace(["a", "b"], [[paa, pab], [pba if pba is not None else pab, pbb]])


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(StructureError):
            FinitePMSpace([], [])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(StructureError):
            FinitePMSpace(["a", "b"], [[F(0), F(1)]])

    def test_rejects_ragged(self):
        with pytest.raises(StructureError):
            FinitePMSpace(["a", "b"], [[F(0)], [F(1), F(0)]])

    def test_rejects_negative(self):
        with pytest.raises(StructureError):
            two_point(F(0), F(0), F(-1))

    def test_rejects_duplicates(self):
        with pytest.raises(StructureError):
            FinitePMSpace(["a", "a"], [[F(0), F(1)], [F(1), F(0)]])

    def test_text_entries_read_as_rationals(self):
        sp = FinitePMSpace(["a", "b"], [["0", "1/2"], ["0.5", 1]])
        assert sp.matrix == ((F(0), F(1, 2)), (F(1, 2), F(1)))

    @pytest.mark.parametrize("text", ["1e200000", "1e9999999", "x/y", "1_000", "1_0/2"])
    def test_exponent_or_bad_text_entry_is_refused_at_once(self, text):
        start = time.monotonic()
        with pytest.raises(StructureError, match="not a rational"):
            FinitePMSpace(["a"], [[text]])
        assert time.monotonic() - start < 1

    def test_digit_separator_id_is_a_tag(self):
        sp = FinitePMSpace.from_json_dict({"points": ["1_0", "10"],
                                           "p": [["0", "1"], ["1", "0"]]})
        assert sp.points == ("1_0", F(10))

    def test_unknown_point(self):
        sp = two_point(F(0), F(0), F(1))
        with pytest.raises(DomainError):
            sp.p("a", "c")


class TestCheckAxioms:
    def test_ex32_subset_space_passes(self):
        assert check_axioms(catalog_space("ex3.2").finite_sample()).ok

    def test_ex58_two_point_passes(self):
        assert check_axioms(two_point(F(0), F(1), F(2))).ok

    def test_p2_failure_with_witness(self):
        # p(a,b) = 0 under p(a,a) = 1 puts a self-distance above a cross one.
        report = check_axioms(two_point(F(1), F(0), F(0)))
        assert report.verdict == "fail"
        assert report.violated_axiom == "P2"
        assert report.witness == ("a", "b")
        assert report.values == {"p(x,x)": F(1), "p(y,x)": F(0)}

    def test_p1_failure(self):
        report = check_axioms(two_point(F(1), F(1), F(1)))
        assert report.violated_axiom == "P1"

    def test_p3_failure(self):
        report = check_axioms(two_point(F(0), F(0), F(1), pba=F(2)))
        assert report.violated_axiom == "P3"
        assert report.witness == ("a", "b")

    def test_p4_failure(self):
        # d(a,c) = 5 > d(a,b) + d(b,c) breaks the sharpened triangle via z = b.
        sp = FinitePMSpace(
            ["a", "b", "c"],
            [[F(0), F(1), F(5)], [F(1), F(0), F(1)], [F(5), F(1), F(0)]],
        )
        report = check_axioms(sp)
        assert report.violated_axiom == "P4"
        assert report.witness == ("a", "c", "b")

    def test_witness_reproduces(self):
        report = check_axioms(two_point(F(1), F(0), F(0)))
        sp = two_point(F(1), F(0), F(0))
        x, y = report.witness
        assert sp.p(x, x) == report.values["p(x,x)"]
        assert sp.p(y, x) == report.values["p(y,x)"]
        assert report.values["p(x,x)"] > report.values["p(y,x)"]


class TestDerivedMetrics:
    def test_pm_on_ex31(self):
        sp = catalog_space("ex3.1")
        assert p_m(sp, F(1, 4), F(3, 4)) == F(1, 2)

    def test_pm_self_is_zero(self):
        sp = catalog_space("ex5.8")
        assert p_m(sp, "b", "b") == 0

    def test_pm_on_ex58(self):
        assert p_m(catalog_space("ex5.8"), "a", "b") == 3

    def test_d_metric_on_ex58(self):
        sp = catalog_space("ex5.8")
        assert d_metric(sp, "b", "b") == 0
        assert sp.p("b", "b") == 1

    def test_d_metric_on_ex48(self):
        assert d_metric(catalog_space("ex4.8"), F(2), F(3)) == F(11, 6)

    def test_pbar_ex31(self):
        assert p_bar(catalog_space("ex3.1"), F(1, 4), F(3, 4)) == F(3, 4)

    def test_pbar_ex54(self):
        assert p_bar(catalog_space("ex5.4"), F(1, 2), F(3, 4)) == F(1, 4)

    def test_pbar_zero_on_bottom(self):
        sp = catalog_space("ex3.4")
        assert p_bar(sp, F(-5), F(-5)) == 0


class TestBottomAndDiameter:
    def test_rho_singleton(self):
        sp = FinitePMSpace([F(0)], [[F(5)]])
        assert rho_of(sp) == F(5)

    def test_ex56_truncation_rho_differs_from_declared(self):
        trunc = FinitePMSpace.from_function((F(1, 2), F(1, 3), F(1, 4)), catalog_space("ex5.6").p)
        assert rho_of(trunc) == F(1, 4)
        assert catalog_space("ex5.6").declared_rho_p == 0

    def test_ex58_rho_attained_at_a(self):
        sp = catalog_space("ex5.8").finite_sample()
        assert rho_of(sp) == F(0)
        assert bottom_set(sp) == ("a",)

    def test_ex34_bottom(self):
        trunc = FinitePMSpace.from_function((F(-7), F(-6), F(-5), F(0), F(1)),
                                             catalog_space("ex3.4").p)
        assert bottom_set(trunc) == (F(-5),)

    def test_ex54_grid_bottom(self):
        trunc = FinitePMSpace.from_function((F(0), F(1, 2), F(1), F(2), F(5, 2), F(3)),
                                             catalog_space("ex5.4").p)
        assert bottom_set(trunc) == (F(0), F(1, 2), F(1))

    def test_metric_space_bottom_is_everything(self):
        sp = random_pm_space(7, 5, zero_f=True)
        assert bottom_set(sp) == sp.points

    def test_diameter_ex58(self):
        assert diameter(catalog_space("ex5.8").finite_sample()) == 2

    def test_diameter_singleton(self):
        assert diameter(FinitePMSpace([F(0)], [[F(0)]])) == 0

    def test_diameter_apex_four(self):
        from partialmetric import apex_space

        assert diameter(apex_space(4).finite_sample()) == 2


class TestBalls:
    def test_ball_contains_center(self):
        sp = catalog_space("ex5.8").finite_sample()
        assert "a" in ball(sp, "a", F(1, 100))

    def test_ex44_ball_at_one_is_everything(self):
        sp = catalog_space("ex4.4").finite_sample()
        for eps in (F(1, 100), F(1, 2), F(3)):
            assert ball(sp, F(1), eps) == frozenset(sp.points)

    def test_ex56_ball_at_zero_is_everything(self):
        sp = catalog_space("ex5.6").finite_sample()
        assert ball(sp, F(0), F(1, 10)) == frozenset(sp.points)

    def test_rejects_nonpositive_radius(self):
        sp = catalog_space("ex5.8").finite_sample()
        with pytest.raises(ValueError):
            ball(sp, "a", F(0))


class TestSeparation:
    def test_ex58_t1(self):
        sep = separation_class(catalog_space("ex5.8").finite_sample())
        assert sep.t0 and sep.t1 and sep.hausdorff

    def test_ex56_truncation_not_t1(self):
        sep = separation_class(catalog_space("ex5.6").finite_sample())
        assert sep.t0
        assert not sep.t1
        assert not sep.hausdorff

    def test_metric_space_hausdorff(self):
        sep = separation_class(random_pm_space(11, 6, zero_f=True))
        assert sep.t0 and sep.t1 and sep.hausdorff

    def test_minimal_balls_mark_what_every_ball_holds(self):
        # b lies in every ball around a (p(a,b) <= p(a,a)) though the table fails P2.
        sp = FinitePMSpace(["a", "b"], [["2", "1"], ["1", "0"]])
        assert minimal_balls(sp) == (0b11, 0b10)
        trunc = catalog_space("ex5.6").finite_sample()
        assert minimal_balls(trunc)[trunc.index(F(0))] == (1 << len(trunc)) - 1
        # Random integer tables, valid or not, and valid random spaces: mask x
        # holds y iff p(x,y) <= p(x,x), and the masks are the balls at half
        # the least gap (at radius 1 when there is none).
        rng = random.Random("minimal-balls")
        sizes = [rng.randint(1, 6) for _ in range(300)]
        spaces = [FinitePMSpace(range(n), [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)])
                  for n in sizes]
        spaces += [random_pm_space(seed, seed % 7 + 1) for seed in range(30)]
        for sp in spaces:
            m, rel = sp.matrix, minimal_balls(sp)
            assert all((rel[x] >> y & 1 == 1) == (m[x][y] <= m[x][x])
                       for x in range(len(sp)) for y in range(len(sp)))
            gap = least_gap(sp)
            assert list(rel) == ball_masks(sp, gap / 2 if gap is not None else F(1))

    def test_valid_spaces_are_t0(self):
        for seed in range(20):
            sp = random_pm_space(seed, seed % 7 + 1)
            assert separation_class(sp).t0


@st.composite
def symmetric_tables(draw):
    """Symmetric integer tables, n 2..6, entries 0..6, each off-diagonal entry at
    least both self-distances (P2), so that P1 and P4 decide validity."""
    n = draw(st.integers(min_value=2, max_value=6))
    diag = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n))
    m = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(st.integers(min_value=max(diag[i], diag[j]), max_value=6))
    return m


class TestInvariants:
    def test_derived_tables_are_metrics(self):
        for seed in range(30):
            sp = random_pm_space(seed, seed % 7 + 1)
            assert kernels.metric_scan(p_m_matrix(sp)) is None
            assert kernels.metric_scan(d_matrix(sp)) is None
            assert kernels.metric_scan(p_bar_matrix(sp, restrict=bottom_set(sp))) is None

    @settings(max_examples=300, deadline=None)
    @given(symmetric_tables())
    def test_valid_tables_have_metric_derived_metrics(self, table):
        # Matthews' lemma, which the property suite relies on in place of a scan:
        # P1-P4 make p_m, d, and p_bar on the bottom set metrics.
        assume(axiom_violation(table) is None)
        sp = FinitePMSpace(range(len(table)), table)
        bottom = bottom_set(sp)
        event("bottom set of several points" if len(bottom) > 1 else "one-point bottom set")
        pts = sp.points
        assert metric_violation([[p_m(sp, x, y) for y in pts] for x in pts]) is None
        assert metric_violation([[d_metric(sp, x, y) for y in pts] for x in pts]) is None
        assert metric_violation([[p_bar(sp, x, y) for y in bottom] for x in bottom]) is None

    def test_pm_bounded_by_twice_d(self):
        for seed in range(20):
            sp = random_pm_space(seed, seed % 7 + 1)
            for x in sp.points:
                for y in sp.points:
                    assert p_m(sp, x, y) <= 2 * d_metric(sp, x, y) or x == y

    def test_rho_below_every_entry(self):
        for seed in range(20):
            sp = random_pm_space(seed, seed % 7 + 1)
            rho = rho_of(sp)
            assert all(v >= rho for row in sp.matrix for v in row)

    def test_ball_refinement_by_induced_metric(self):
        # Every p-ball is open in the induced metric: around any member
        # there is a p_m-ball inside, realized by the gap to the nearest
        # excluded point.
        for seed in range(12):
            sp = random_pm_space(seed, seed % 5 + 2)
            radii = sorted({sp.p(x, y) - sp.p(x, x) for x in sp.points for y in sp.points
                            if sp.p(x, y) > sp.p(x, x)}) or [F(1)]
            for x in sp.points:
                for eps in radii + [radii[-1] + 1]:
                    members = ball(sp, x, eps)
                    for y in members:
                        outside = [p_m(sp, y, z) for z in sp.points if z not in members]
                        delta = min(outside) if outside else F(1)
                        assert delta > 0
                        inner = {z for z in sp.points if p_m(sp, y, z) < delta}
                        assert inner <= members


class TestJson:
    def test_round_trip_identity(self):
        sp = random_pm_space(4, 5)
        again = FinitePMSpace.from_json_dict(sp.to_json_dict())
        assert again.points == sp.points
        assert again.matrix == sp.matrix

    def test_round_trip_set_points(self):
        sp = catalog_space("ex3.2").finite_sample()
        again = FinitePMSpace.from_json_dict(sp.to_json_dict())
        assert again.points == sp.points
        assert again.matrix == sp.matrix

    def test_bad_json_is_structural(self):
        with pytest.raises(StructureError):
            FinitePMSpace.from_json("{not json")
        with pytest.raises(StructureError):
            FinitePMSpace.from_json(json.dumps({"points": ["a"]}))
        with pytest.raises(StructureError):
            FinitePMSpace.from_json(json.dumps({"points": ["a"], "p": [["x/y"]]}))
        # nested past the decoder's depth limit, an integer past Python's
        # digit limit, an entry in exponent notation
        for text in ("[" * 200_000, '{"points": ["a"], "p": [[' + "1" * 5000 + "]]}",
                     json.dumps({"points": ["a"], "p": [["1e3"]]})):
            with pytest.raises(StructureError):
                FinitePMSpace.from_json(text)

    def test_non_list_rows_are_structural(self):
        for rows in ([1, 2], ["0/1", "1/1"], [["0/1", "1/1"], {"a": 1}], "ab"):
            with pytest.raises(StructureError, match="row"):
                FinitePMSpace.from_json_dict({"points": ["a", "b"], "p": rows})

    def test_non_list_points_are_structural(self):
        rows = [["0/1", "1/1"], ["1/1", "0/1"]]
        for ids in ("ab", {"a": 1, "b": 2}, 2):
            with pytest.raises(StructureError, match="points"):
                FinitePMSpace.from_json_dict({"points": ids, "p": rows})

    def test_json_number_id_is_read_by_its_text(self):
        # so 1e-07, spelled in exponent notation, is a tag
        sp = FinitePMSpace.from_json(json.dumps({"points": [0.5, 2, 1e-07],
                                                 "p": [["0", "1", "1"], ["1", "0", "1"],
                                                       ["1", "1", "0"]]}))
        assert sp.points == (F(1, 2), F(2), "1e-07")

    def test_restrict_preserves_order(self):
        sp = random_pm_space(9, 6)
        sub = sp.restrict([sp.points[4], sp.points[1]])
        assert sub.points == (sp.points[1], sp.points[4])
        assert sub.p(sp.points[1], sp.points[4]) == sp.p(sp.points[1], sp.points[4])
