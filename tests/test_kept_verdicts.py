"""A table's axiom verdict is scanned once, its minimal balls are built once,
and a catalog space builds its table once.

Both are kept on first use: a table is not changed after construction,
so every later ``check_axioms`` or ``minimal_balls`` call, and every
probe that reads the verdict or the balls through them, answers from
what the table keeps.
"""

from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import pytest

from partialmetric import (
    FinitePMSpace,
    catalog_names,
    catalog_space,
    check_axioms,
    check_space_properties,
    core,
    gdelta_diagonal,
    get_entry,
    kernels,
    maximal_points,
    minimal_balls,
    random_pm_space,
    separation_class,
    specialization_order,
    totally_bounded_at,
)
from partialmetric.facts import run_fact_suite


@pytest.fixture
def scans(monkeypatch):
    """The tables handed to ``kernels.axiom_scan``, in call order."""
    seen = []
    scan = kernels.axiom_scan

    def counted(m):
        seen.append(m)
        return scan(m)

    monkeypatch.setattr(kernels, "axiom_scan", counted)
    return seen


def test_one_scan_per_property_suite_call(scans):
    for seed in range(12):
        sp = random_pm_space(seed, seed % 7 + 1)
        before = len(scans)
        assert check_space_properties(sp) == []
        assert len(scans) - before == 1
        check_space_properties(sp)
        assert len(scans) - before == 1


def test_the_probes_read_the_kept_verdict(scans):
    sp = random_pm_space(3, 6)
    report = check_axioms(sp)
    assert check_axioms(sp) is report
    assert minimal_balls(sp) is minimal_balls(sp)
    specialization_order(sp)
    maximal_points(sp)
    assert scans == [sp.num]


@pytest.fixture
def builds(monkeypatch):
    """The tables whose minimal balls are built, in build order."""
    seen = []
    build = vars(FinitePMSpace)["_minimal_balls"].func

    def counted(sp):
        seen.append(sp)
        return build(sp)

    kept = cached_property(counted)
    kept.__set_name__(FinitePMSpace, "_minimal_balls")
    monkeypatch.setattr(FinitePMSpace, "_minimal_balls", kept)
    return seen


def test_one_build_of_the_minimal_balls_per_table(builds):
    for seed in range(12):
        sp = random_pm_space(seed, seed % 7 + 1)
        for _ in range(2):
            assert check_space_properties(sp) == []
            totally_bounded_at(sp, Fraction(1, 2))
            separation_class(sp)
            gdelta_diagonal(sp)
            specialization_order(sp)
            maximal_points(sp)
            assert builds == [sp]
        builds.clear()


def test_a_checked_table_builds_no_ball_again(monkeypatch):
    rules = []
    rule = core._ball_rule

    def counted(sp, r):
        rules.append((sp, r))
        return rule(sp, r)

    monkeypatch.setattr(core, "_ball_rule", counted)
    for seed in range(12):
        sp = random_pm_space(seed, seed % 7 + 1)
        assert check_space_properties(sp) == []
        assert rules == [(sp, 1)]
        assert check_space_properties(sp) == []
        assert rules == [(sp, 1)]
        rules.clear()


def test_one_scan_per_catalog_table_in_the_fact_suite(scans):
    fresh = {name: replace(get_entry(name), space=replace(get_entry(name).space))
             for name in catalog_names()}
    suite = run_fact_suite(overrides=fresh)
    assert suite.ok
    assert len(scans) == len(catalog_names()) == 10


@pytest.mark.parametrize("name", catalog_names())
def test_a_catalog_space_builds_one_table(name):
    sp = catalog_space(name)
    table = sp.finite_sample()
    assert sp.finite_sample() is table
    assert table.points == sp.canonical_sample
    assert check_axioms(table) is check_axioms(sp.finite_sample())
