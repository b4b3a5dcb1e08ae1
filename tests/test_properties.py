"""The property-suite runner, and the invariants it checks once for the probes."""

import pytest

from partialmetric import FinitePMSpace, MapSpec, analysis, core, properties
from partialmetric.properties import check_space_properties, property_run

# a >= b: b lies in every ball around a, and a is the only maximal point.
PAIR = FinitePMSpace(["a", "b"], [["1", "1"], ["1", "0"]])
# a and b form the bottom set; c sits above it.
BOTTOM_PAIR = FinitePMSpace(["a", "b", "c"], [["0", "2", "2"], ["2", "0", "2"], ["2", "2", "1"]])
# a >= b >= c, so a >= c too.
CHAIN = FinitePMSpace(["a", "b", "c"], [["2", "2", "2"], ["2", "1", "1"], ["2", "1", "0"]])


def test_property_run_counts_an_iterator():
    result = property_run(iter(range(12)), max_n=4)
    assert result.ok
    assert result.spaces_checked == 12
    assert result.to_dict()["spaces_checked"] == 12


@pytest.mark.parametrize("space, drop, reported", [
    (CHAIN, (2, 2), "specialization order: not reflexive at 2"),
    (CHAIN, (0, 2), "specialization order: not transitive at (0,1,2)"),
    (PAIR, (0, 1), "metrizability: hausdorff=True, t1=True, equals_diagonal=True, "
                   "every point maximal=True, singleton balls=False disagree; "
                   "first pair whose minimal balls meet: (0,1)"),
], ids=["reflexive", "transitive", "metrizability"])
def test_a_mark_dropped_from_the_relation_is_reported(monkeypatch, space, drop, reported):
    assert check_space_properties(space) == []
    real = core.minimal_balls

    def dropped(sp):
        rows = [list(row) for row in real(sp)]
        rows[drop[0]][drop[1]] = False
        return tuple(map(tuple, rows))

    monkeypatch.setattr(core, "minimal_balls", dropped)
    monkeypatch.setattr(analysis, "minimal_balls", dropped)
    assert reported in check_space_properties(space)


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
