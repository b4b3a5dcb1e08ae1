"""The property-suite runner, and the invariants it checks once for the probes."""

import random
from fractions import Fraction

import pytest

from partialmetric import (FinitePMSpace, MapSpec, analysis, bottom_set, core, properties,
                           random_pm_space, separation_class)
from partialmetric.properties import check_space_properties, property_run

from oracles import separation_by_radius_scan

# a >= b: b lies in every ball around a, and a is the only maximal point.
PAIR = FinitePMSpace(["a", "b"], [["1", "1"], ["1", "0"]])
# a and b form the bottom set; c sits above it.
BOTTOM_PAIR = FinitePMSpace(["a", "b", "c"], [["0", "2", "2"], ["2", "0", "2"], ["2", "2", "1"]])
# Every point is its own smallest ball: the table is T1 and every point is maximal.
DISCRETE = FinitePMSpace(["a", "b"], [["0", "1"], ["1", "0"]])
# a >= b >= c, so a >= c too.
CHAIN = FinitePMSpace(["a", "b", "c"], [["2", "2", "2"], ["2", "1", "1"], ["2", "1", "0"]])


def test_property_run_counts_an_iterator():
    result = property_run(iter(range(12)), max_n=4)
    assert result.ok
    assert result.spaces_checked == 12
    assert result.to_dict()["spaces_checked"] == 12


def _drop_mark(monkeypatch, drop):
    """Clear bit drop[1] of mask drop[0] of every table's minimal balls, wherever it is read."""
    real = core.minimal_balls

    def dropped(sp):
        masks = list(real(sp))
        masks[drop[0]] &= ~(1 << drop[1])
        return tuple(masks)

    for module in (core, analysis, properties):
        monkeypatch.setattr(module, "minimal_balls", dropped)


@pytest.mark.parametrize("space, drop, reported", [
    (CHAIN, (2, 2), "specialization order: not reflexive at 2"),
    (CHAIN, (0, 2), "specialization order: not transitive at (0,1,2)"),
], ids=["reflexive", "transitive"])
def test_a_mark_dropped_from_the_relation_is_reported(monkeypatch, space, drop, reported):
    assert check_space_properties(space) == []
    _drop_mark(monkeypatch, drop)
    assert reported in check_space_properties(space)


def test_a_dropped_mark_that_leaves_an_order_is_left_to_the_sweeps(monkeypatch):
    # Without PAIR's (0,1) every point is maximal and T1 holds, so no check of
    # the suite fails; the radius scan builds its own balls and tells them apart.
    assert check_space_properties(PAIR) == []
    _drop_mark(monkeypatch, (0, 1))
    assert check_space_properties(PAIR) == []
    sep = separation_class(PAIR)
    assert (sep.t0, sep.t1, sep.hausdorff) == (True, True, True)
    assert separation_by_radius_scan(PAIR.matrix) == (True, False, False)


@pytest.mark.parametrize("space, reported", [
    (DISCRETE, ["maximal cover: maximal balls fail to cover at radius 1",
                "metrizability: t1=True, every point maximal=False disagree; "
                "first pair whose minimal balls meet: none"]),
    (CHAIN, ["maximal cover: maximal balls fail to cover at radius 1"]),
], ids=["t1", "chain"])
def test_a_maximal_point_dropped_is_reported(monkeypatch, space, reported):
    assert check_space_properties(space) == []
    real = properties.maximal_points
    monkeypatch.setattr(properties, "maximal_points", lambda sp: real(sp) - {sp.points[0]})
    assert check_space_properties(space) == reported


@pytest.mark.parametrize("images, reported", [
    ("cbc", ["survivor map:c,b,c moves a out of the bottom set",
             "survivor map:c,b,c breaks the shifted contraction at (a,a)",
             "survivor map:c,b,c breaks the shifted contraction at (a,b)"]),
    ("abc", ["survivor map:a,b,c breaks the shifted contraction at (a,b)"]),
], ids=["leaves-bottom", "no-contraction"])
def test_a_planted_survivor_is_reported(monkeypatch, images, reported):
    assert check_space_properties(BOTTOM_PAIR) == []
    T = MapSpec.from_table("map:" + ",".join(images), dict(zip("abc", images)))
    monkeypatch.setattr(properties, "exhaustive_condition_maps", lambda *args: [T])
    assert check_space_properties(BOTTOM_PAIR) == reported


def _anchored(seed: int, n: int) -> tuple[FinitePMSpace, set]:
    """A valid table whose bottom set is a random anchor set A, and A.

    With D the metric d/2 of ``random_pm_space(seed, n, zero_f=True)`` and
    f(x) = D(x, A) + offset, the table D(x,y) + (f(x) + f(y))/2 satisfies
    the axioms (f is 1-Lipschitz for D) and has p(x,x) = f(x), least
    exactly on A.
    """
    rng = random.Random(f"anchored/{seed}/{n}")
    metric = random_pm_space(seed, n, zero_f=True)
    D = metric.matrix
    anchors = rng.sample(range(n), rng.randint(1, n))
    offset = Fraction(rng.randint(0, 12), 12)
    f = [min(D[i][a] for a in anchors) + offset for i in range(n)]
    table = [[D[i][j] + (f[i] + f[j]) / 2 for j in range(n)] for i in range(n)]
    return FinitePMSpace(metric.points, table), {metric.points[a] for a in anchors}


def test_bottom_sets_between_one_point_and_all_pass():
    # random_pm_space gives |B| = 1 or |B| = n; these tables fill the range between.
    spaces = [_anchored(seed, seed % 6 + 2) for seed in range(300)]
    assert all(set(bottom_set(sp)) == anchors for sp, anchors in spaces)
    middle = sum(1 < len(anchors) < len(sp) for sp, anchors in spaces)
    assert middle >= 100, middle
    problems = {seed: check_space_properties(sp) for seed, (sp, _) in enumerate(spaces)}
    assert {seed: found for seed, found in problems.items() if found} == {}
