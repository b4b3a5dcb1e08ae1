"""The property-suite runner, and the invariants it checks once for the probes."""

import pytest

from partialmetric import FinitePMSpace, analysis, core
from partialmetric.properties import check_space_properties, property_run

# a >= b: b lies in every ball around a, and a is the only maximal point.
PAIR = FinitePMSpace(["a", "b"], [["1", "1"], ["1", "0"]])
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
