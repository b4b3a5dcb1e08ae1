"""A finite table answers the members a catalog space declares, from its own table."""

from fractions import Fraction

import pytest

from partialmetric import (
    BottomDecl,
    FinitePMSpace,
    MapSpec,
    MetadataError,
    bottom_set,
    catalog_names,
    catalog_space,
    check_condition_max,
    constant_map_ruled_out,
    random_pm_space,
    rho_of,
    solve_on_bottom,
)
from partialmetric.points import replace

F = Fraction


def _tables():
    yield pytest.param(random_pm_space(3, 6), id="random")
    yield pytest.param(random_pm_space(4, 5, zero_f=True), id="random-metric")
    yield pytest.param(FinitePMSpace([F(0)], [[F(7, 2)]]), id="one-point")
    for name in catalog_names():
        yield pytest.param(catalog_space(name).finite_sample(), id=name)


@pytest.mark.parametrize("table", list(_tables()))
def test_table_members_agree_with_the_table(table):
    assert table.canonical_sample == table.points
    assert table.finite_sample() is table
    assert table.declared_rho_p == rho_of(table) == min(r[i] for i, r in enumerate(table.matrix))
    assert table.declared_bottom.members == bottom_set(table)
    assert all(table.declared_bottom.contains(z) == (z in bottom_set(table))
               for z in table.points)
    assert table.scope == "exhaustive"


def test_catalog_space_scope_is_sample():
    assert all(catalog_space(name).scope == "sample" for name in catalog_names())


def test_table_pair_checks_are_exhaustive_and_catalog_ones_sampled():
    sp = catalog_space("ex5.8")
    T = MapSpec.constant("a")
    assert check_condition_max(sp, T, F(1, 2)).scope == "sample"
    assert check_condition_max(sp.finite_sample(), T, F(1, 2)).scope == "exhaustive"


def test_bottom_decl_members_is_none_for_a_predicate_set():
    decl = BottomDecl.from_predicate(lambda z: z > 0)
    assert decl.members is None and decl.contains(F(1)) and not decl.contains(F(0))
    assert not BottomDecl.finite(()).contains(F(0))
    assert BottomDecl.finite([F(1)]).members == (F(1),)


class TestMetadataErrors:
    def test_rho_of_without_declared_infimum(self):
        sp = replace(catalog_space("ex5.4"), declared_rho_p=None)
        with pytest.raises(MetadataError, match="ex5.4"):
            rho_of(sp)

    def test_constant_map_ruled_out_without_declared_infimum(self):
        sp = replace(catalog_space("ex5.6"), declared_rho_p=None)
        with pytest.raises(MetadataError):
            constant_map_ruled_out(sp, F(1, 2))

    def test_solve_on_bottom_with_empty_declared_bottom(self):
        sp = catalog_space("ex3.1")
        T = MapSpec("half", lambda x: x / 2)
        with pytest.raises(MetadataError, match="empty bottom set"):
            solve_on_bottom(sp, T, F(1, 2), F(1, 2))

    def test_constant_map_ruled_out_on_a_table(self):
        table = catalog_space("ex5.8").finite_sample()
        assert not constant_map_ruled_out(table, "a")
        assert constant_map_ruled_out(table, "b")
        trunc = FinitePMSpace.from_function((F(1, 2), F(1, 3), F(1, 4)), catalog_space("ex5.6").p)
        # against the table's own least self-distance 1/4, not the declared 0
        assert not constant_map_ruled_out(trunc, F(1, 4))
        assert constant_map_ruled_out(trunc, F(1, 3))
