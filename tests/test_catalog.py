"""Catalog formulas, maps, samplers, metadata, and the random generator."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialmetric import (
    CatalogKeyError,
    DomainError,
    FinitePMSpace,
    SizeLimitError,
    catalog_map,
    catalog_names,
    catalog_sequence,
    catalog_space,
    check_axioms,
    get_entry,
    random_pm_space,
    validate_entry,
)
from partialmetric.catalog import MAX_RANDOM_POINTS
from partialmetric.points import FSet, replace

from oracles import axiom_violation, random_pm_space_by_fractions

F = Fraction


class TestEvaluators:
    def test_ex34_value(self):
        assert catalog_space("ex3.4").evaluator(F(0), F(1)) == 4

    def test_ex34_bottom_value(self):
        assert catalog_space("ex3.4").evaluator(F(-5), F(-5)) == 0

    def test_ex31_declared_rho(self):
        assert catalog_space("ex3.1").declared_rho_p == 1

    def test_ex58_self_distance(self):
        assert catalog_space("ex5.8").evaluator("a", "a") == 0

    def test_ex32_union_size(self):
        sp = catalog_space("ex3.2")
        x = FSet.of(("a", "b", "c"), "a")
        y = FSet.of(("a", "b", "c"), "b", "c")
        assert sp.evaluator(x, y) == 3

    def test_ex48_formula(self):
        sp = catalog_space("ex4.8")
        assert sp.evaluator(F(2), F(3)) == F(11, 6)
        assert sp.evaluator(F(5), F(0)) == F(6, 5)
        assert sp.evaluator(F(7), F(7)) == 1

    def test_ex54_branches(self):
        sp = catalog_space("ex5.4")
        assert sp.evaluator(F(1, 2), F(3, 4)) == F(1, 4)
        assert sp.evaluator(F(1), F(2)) == 2
        assert sp.evaluator(F(5, 2), F(3)) == 3

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            catalog_space("ex3.1").p(F(2), F(1, 2))
        with pytest.raises(DomainError):
            catalog_space("ex5.6").p(F(2, 3), F(1, 2))

    def test_domain_violation_quotes_the_point(self):
        with pytest.raises(DomainError, match=r"^point '2/1' is not in ex3\.1$"):
            catalog_space("ex3.1").p(F(1, 2), F(2))
        with pytest.raises(DomainError, match=r"^point '' is not in ex5\.8$"):
            catalog_space("ex5.8").p("", "a")

    @pytest.mark.parametrize("name", catalog_names())
    def test_table_checks_each_sample_point_once(self, name):
        space = catalog_space(name)
        checked = []
        counting = replace(space, domain_predicate=lambda x: checked.append(x) or space.contains(x))
        table = counting.finite_sample()
        assert checked == list(space.canonical_sample)
        by_pairs = FinitePMSpace.from_function(space.canonical_sample, space.p)
        assert (table.points, table.num, table.den) == (by_pairs.points, by_pairs.num, by_pairs.den)

    def test_table_refuses_the_first_sample_point_outside_the_domain(self):
        space = catalog_space("ex3.1")
        bad = replace(space, canonical_sample=(F(1, 2), F(2), F(3), F(1, 4)))
        with pytest.raises(DomainError, match=r"^point '2/1' is not in ex3\.1$"):
            bad.finite_sample()

    def test_unknown_name(self):
        with pytest.raises(CatalogKeyError, match="^unknown catalog id 'ex9.9'$"):
            catalog_space("ex9.9")
        with pytest.raises(CatalogKeyError, match="^unknown catalog id 'noneuse'$"):
            catalog_map("noneuse")
        with pytest.raises(CatalogKeyError, match="^unknown catalog id 'nope'$"):
            catalog_sequence("nope")


class TestMaps:
    def test_ex54_map_values(self):
        T = catalog_map("ex5.4.T")
        assert T.apply(F(3)) == F(5, 2)
        assert T.apply(F(0)) == F(1, 2)
        assert T.apply(F(1)) == F(1)
        assert T.apply(F(2)) == F(2)

    def test_ex34_map_values(self):
        T = catalog_map("ex3.4.T")
        assert T.apply(F(1, 2)) == F(-7)
        assert T.apply(F(1, 3)) == F(-6)
        assert T.apply(F(1, 4)) == F(-7)
        assert T.apply(F(0)) == F(-5)
        assert T.apply(F(-7)) == F(-5)
        assert T.apply(F(1)) == F(-6)
        # canonical form decides membership in {1/(2q)}
        assert T.apply(F(2, 4)) == F(-7)
        assert T.apply(F(3, 6)) == F(-7)

    def test_constant_map(self):
        T = catalog_map("const.1/2")
        assert all(T.apply(x) == F(1, 2) for x in (F(0), F(1), "anything"))

    def test_map_images_inside_domain(self):
        for name, map_id in (("ex3.4", "ex3.4.T"), ("ex5.4", "ex5.4.T")):
            sp = catalog_space(name)
            T = catalog_map(map_id)
            for x in sp.canonical_sample:
                assert sp.contains(T.apply(x))


class TestEntriesValidate:
    @pytest.mark.parametrize("name", [
        "ex3.1", "ex3.2", "ex3.4", "ex4.4", "ex4.8", "ex5.4", "ex5.5", "ex5.6",
        "ex5.8", "apex"])
    def test_entry_clean(self, name):
        assert validate_entry(get_entry(name)) == []

    def test_names_are_stable(self):
        assert catalog_names() == [
            "ex3.1", "ex3.2", "ex3.4", "ex4.4", "ex4.8", "ex5.4", "ex5.5",
            "ex5.6", "ex5.8", "apex"]

    def test_samplers_are_deterministic(self):
        for name in catalog_names():
            sp = catalog_space(name)
            assert sp.sample(5, 12) == sp.sample(5, 12)
            assert all(sp.contains(x) for x in sp.sample(5, 12))

    def test_ex56_sample_never_attains_declared_rho(self):
        sp = catalog_space("ex5.6")
        for z in list(sp.canonical_sample) + sp.sample(0, 40):
            assert sp.evaluator(z, z) > sp.declared_rho_p


class TestSequences:
    def test_recip_terms(self):
        seq = catalog_sequence("ex3.4.recip")
        assert [seq.term(n) for n in (1, 2, 3)] == [F(1), F(1, 2), F(1, 3)]

    def test_orbit_terms_match_map(self):
        sp = catalog_space("ex5.4")
        T = catalog_map("ex5.4.T")
        for seq_name, start in (("ex5.4.orbit0", F(0)), ("ex5.4.orbit3", F(3))):
            seq = catalog_sequence(seq_name)
            x = start
            for n in range(1, 12):
                x = T.apply(x)
                assert seq.term(n) == x
                assert sp.contains(x)

    def test_image_cycle_matches_map(self):
        T = catalog_map("ex3.4.T")
        seq = catalog_sequence("ex3.4.T.recip")
        for n in range(1, 13):
            assert seq.term(n) == T.apply(F(1, n))


# The maps and sequences each catalog entry declares, by id.
DECLARED = {
    "ex3.1": ((), ()),
    "ex3.2": ((), ("ex3.2.alt",)),
    "ex3.4": (("ex3.4.T",), ("ex3.4.recip", "ex3.4.T.recip")),
    "ex4.4": ((), ()),
    "ex4.8": ((), ("ex4.8.naturals",)),
    "ex5.4": (("ex5.4.T",), ("ex5.4.orbit0", "ex5.4.orbit3")),
    "ex5.5": ((), ("ex5.5.recip",)),
    "ex5.6": ((), ("ex5.6.tail",)),
    "ex5.8": ((), ()),
    "apex": ((), ()),
}
MAP_IDS = tuple(m for maps, _ in DECLARED.values() for m in maps)
SEQ_IDS = tuple(s for _, seqs in DECLARED.values() for s in seqs)
UNDECLARED = ("ex9.9.T", "ex5.4", "const", "", "ex5.4.t", "ex3.4.T.", "map:a,a")


class TestLookup:
    @pytest.mark.parametrize("space", list(DECLARED))
    def test_every_declared_id_is_found_by_its_name(self, space):
        entry = get_entry(space)
        maps, seqs = DECLARED[space]
        assert len(entry.maps) == len(maps) and len(entry.sequences) == len(seqs)
        for map_id in maps:
            assert entry.map(map_id).name == map_id
            assert catalog_map(map_id) is entry.map(map_id)
        for seq_id in seqs:
            assert entry.sequence(seq_id).name == seq_id
            assert catalog_sequence(seq_id) is entry.sequence(seq_id)
        for other in set(MAP_IDS + SEQ_IDS + UNDECLARED) - set(maps):
            with pytest.raises(CatalogKeyError):
                entry.map(other)
        for other in set(MAP_IDS + SEQ_IDS + UNDECLARED) - set(seqs):
            with pytest.raises(CatalogKeyError):
                entry.sequence(other)

    @pytest.mark.parametrize("name", SEQ_IDS + UNDECLARED)
    def test_any_other_map_id_is_a_catalog_key_error(self, name):
        with pytest.raises(CatalogKeyError):
            catalog_map(name)

    @pytest.mark.parametrize("name", MAP_IDS + UNDECLARED)
    def test_any_other_sequence_id_is_a_catalog_key_error(self, name):
        with pytest.raises(CatalogKeyError):
            catalog_sequence(name)


class TestRandomGenerator:
    def test_singleton_self_distance_is_offset(self):
        sp = random_pm_space(123, 1)
        assert len(sp) == 1
        assert sp.matrix[0][0] >= 0

    def test_zero_f_gives_metric(self):
        for seed in range(10):
            sp = random_pm_space(seed, 4, zero_f=True)
            view = sp.matrix
            assert all(view[i][i] == 0 for i in range(4))
            assert check_axioms(sp).ok

    def test_deterministic_per_seed(self):
        a = random_pm_space(42, 6)
        b = random_pm_space(42, 6)
        assert a.matrix == b.matrix
        c = random_pm_space(43, 6)
        assert a.matrix != c.matrix

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_pm_space(0, 0)

    def test_refuses_more_points_than_the_cap(self):
        with pytest.raises(SizeLimitError,
                           match=f"^{MAX_RANDOM_POINTS + 1} points is past the cap of "
                                 f"{MAX_RANDOM_POINTS}$"):
            random_pm_space(0, MAX_RANDOM_POINTS + 1)

    @pytest.mark.parametrize("zero_f", [False, True])
    def test_matches_the_fraction_builder(self, zero_f):
        for n in range(1, 13):
            for seed in range(5):
                got = random_pm_space(seed, n, zero_f=zero_f)
                want = random_pm_space_by_fractions(seed, n, zero_f=zero_f)
                assert (got.points, got.num, got.den) == (want.points, want.num, want.den)

    def test_seed_six_points_passes_oracle(self):
        # independent exhaustive check over all 216 triples
        sp = random_pm_space(6, 6)
        assert axiom_violation(list(map(list, sp.matrix))) is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=7))
    def test_generator_always_valid(self, seed, n):
        sp = random_pm_space(seed, n)
        assert check_axioms(sp).ok

    def test_distinct_points_stay_apart(self):
        for seed in range(10):
            view = random_pm_space(seed, 5).matrix
            for i in range(5):
                for j in range(5):
                    if i != j:
                        assert view[i][j] > 0
