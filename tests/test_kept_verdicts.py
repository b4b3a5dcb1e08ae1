"""A table's axiom verdict is scanned once, and a catalog space builds its table once.

Both are kept on first use: a table is not changed after construction,
so every later ``check_axioms`` call, and every probe that reads the
verdict through it, answers from the kept report.
"""

from dataclasses import replace

import pytest

from partialmetric import (
    catalog_names,
    catalog_space,
    check_axioms,
    check_space_properties,
    get_entry,
    kernels,
    maximal_points,
    random_pm_space,
    specialization_order,
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
    specialization_order(sp)
    maximal_points(sp)
    assert scans == [sp.num]


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
