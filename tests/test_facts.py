"""The catalog fact suite: everything passes, and sabotage is detected."""

import re
from fractions import Fraction as F

from partialmetric import MapSpec, catalog_names, get_entry
from partialmetric.facts import _fact_axioms_and_metadata, facts_for_entry, run_fact_suite
from partialmetric.points import replace


def test_every_fact_passes():
    suite = run_fact_suite()
    failing = [r for r in suite.results if not r.ok]
    assert not failing, failing
    assert suite.passed >= 50


def test_results_carry_anchors_and_ids():
    suite = run_fact_suite(["ex5.8"])
    assert all(r.fact_id.startswith("ex5.8/") for r in suite.results)
    assert all(r.anchor for r in suite.results)


def test_every_entry_validates_through_its_axioms_metadata_fact():
    # `pm catalog verify` relies on this fact for the structural checks.
    for name in catalog_names():
        runs = {f.fact_id: f.run for f in facts_for_entry(name)}
        assert runs[f"{name}/axioms+metadata"] is _fact_axioms_and_metadata


def test_wrong_declaration_fails_axioms_metadata_fact():
    entry = get_entry("ex5.8")
    sabotaged = replace(entry, space=replace(entry.space, declared_rho_p=F(1)))
    suite = run_fact_suite(["ex5.8"], overrides={"ex5.8": sabotaged})
    failed = {r.fact_id for r in suite.results if not r.ok}
    assert "ex5.8/axioms+metadata" in failed


def test_identity_map_sabotage_fails_fixed_point_facts():
    entry = get_entry("ex5.4")
    sabotaged = replace(entry, maps=(MapSpec("ex5.4.T", lambda x: x),))
    suite = run_fact_suite(["ex5.4"], overrides={"ex5.4": sabotaged})
    failing = [r for r in suite.results if not r.ok]
    # the identity fixes every sample point, so the declared fixed-point set
    # and the orbit facts must break, as verdicts and not as crashes
    assert not [r.details for r in failing if re.match(r"\w+(Error|Exception): ", r.details)]
    failed = {r.fact_id for r in failing}
    for fact in ("fixed-points", "iterate-0-to-1", "iterate-3-to-2", "max-condition-half",
                 "bottom-reduction"):
        assert f"ex5.4/{fact}" in failed


def test_empty_selection_is_vacuous():
    suite = run_fact_suite([])
    assert suite.ok and suite.passed == 0 and suite.failed == 0
