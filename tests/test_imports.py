"""The import contract: a lazy package namespace, and a CLI that loads what its command reads.

``import partialmetric`` loads no submodule; each public name, and each
submodule, is imported on first use. The checks on what a fresh import
loads run in a subprocess, since this process has loaded every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partialmetric

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = [
    "AxiomFailureError", "AxiomReport", "BottomDecl", "CatalogEntry", "CatalogKeyError",
    "CatalogSpace", "CauchyReport", "Certificate", "ConditionReport", "ConvergenceReport",
    "DEFAULT_HORIZON", "DEFAULT_TOL", "DomainError", "FSet", "FactSuiteResult", "FinitePMSpace",
    "GDeltaReport", "IterationTrace", "MapClosureError", "MapSpec", "MetadataError", "PMError",
    "Point", "SeparationClass", "SequenceSpec", "SizeLimitError", "SpecializationOrder",
    "StructureError", "UnsupportedSequenceError", "apex_space", "ball", "ball_cover_check",
    "bottom_set", "catalog_map", "catalog_names", "catalog_sequence", "catalog_space",
    "check_axioms", "check_condition_max", "check_condition_min", "check_contraction",
    "check_space_properties", "constant_map_bottom", "constant_map_ruled_out", "converges_to",
    "d_metric", "diameter", "exhaustive_condition_maps", "format_point", "format_rational",
    "gdelta_diagonal", "get_entry", "is_cauchy", "iterate", "least_factor", "limit_set",
    "maximal_points", "minimal_balls", "p_bar", "p_m", "parse_rational", "properly_converges",
    "property_run", "random_pm_space", "rho_of", "run_fact_suite", "separation_class",
    "seq_compact_witness", "solve_on_bottom", "specialization_order", "totally_bounded_at",
    "validate_entry",
]


def _fresh(statements: str, value: str = "None"):
    """The ``partialmetric`` modules loaded, and ``value``, after ``statements`` run
    in a fresh interpreter."""
    code = (f"import json, sys\n{statements}\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('partialmetric'))\n"
            f"print(json.dumps([loaded, {value}]))")
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_public_names_are_pinned():
    assert len(PUBLIC) == 72
    assert sorted(partialmetric.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(partialmetric))
    assert partialmetric.__version__ == "0.1.0"


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_imports_from_the_package(name):
    namespace = {}
    exec(f"from partialmetric import {name}", namespace)
    assert namespace[name] is getattr(partialmetric, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        partialmetric.nosuch  # noqa: B018
    with pytest.raises(ImportError):
        exec("from partialmetric import nosuch", {})


def test_importing_the_package_loads_no_submodule():
    assert _fresh("import partialmetric")[0] == ["partialmetric"]


def test_a_name_loads_only_the_modules_it_needs():
    loaded, _ = _fresh("import partialmetric\npartialmetric.FSet")
    assert loaded == ["partialmetric", "partialmetric.errors", "partialmetric.points"]


@pytest.mark.parametrize("module", ["kernels", "catalog", "properties", "cli"])
def test_a_submodule_resolves_on_the_package(module):
    _, name = _fresh("import partialmetric", f"partialmetric.{module}.__name__")
    assert name == f"partialmetric.{module}"


def test_the_cli_leaves_facts_fixedpoint_and_properties_unloaded():
    loaded, _ = _fresh("import partialmetric.cli")
    assert "partialmetric.cli" in loaded
    for module in ("facts", "fixedpoint", "properties"):
        assert f"partialmetric.{module}" not in loaded


def test_a_loaded_modules_names_are_bound_before_any_read():
    # So a tool that looks for every binding of a function (a tracer, a
    # monkeypatch) finds the package's before its first read.
    _, (bound, unread) = _fresh(
        "import partialmetric, partialmetric.core as core",
        "[vars(partialmetric).get('check_axioms') is core.check_axioms,"
        " 'run_fact_suite' in vars(partialmetric)]")
    assert bound and not unread
