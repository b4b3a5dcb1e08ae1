"""Structure of the package: one space interface, no switch on a class or a kind tag."""

import ast
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

import partialmetric
from partialmetric import (BottomDecl, PMError, SequenceSpec, StructureError, catalog_map,
                           catalog_space, check_condition_max)
from partialmetric.points import fields

SRC = Path(__file__).resolve().parents[1] / "src" / "partialmetric"
SPACE_CLASSES = {"FinitePMSpace", "CatalogSpace"}


def _class_names(node):
    """Names a class argument of ``isinstance`` refers to, tuples included."""
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _class_names(elt)}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def test_no_module_switches_on_a_space_class():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and _class_names(node.args[1]) & SPACE_CLASSES):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


@pytest.mark.parametrize("cls", [SequenceSpec, BottomDecl])
def test_no_kind_tag(cls):
    assert "kind" not in fields(cls)


def test_reports_serialize_by_field_name():
    # Record.to_dict writes each field under its name, and no report writes its own.
    own = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "to_dict"
                    for item in node.body):
                own.append(f"{path.stem}.{node.name}")
    assert own == ["points.Record"]


def _text_handlers(path: Path) -> list[str]:
    """Where a module imports json or splits text at commas (``.split(",")``, ``re.split``)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            if "json" in names:
                found.append(f"import json at {node.lineno}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "split"):
            comma = (node.args and isinstance(node.args[0], ast.Constant)
                     and node.args[0].value == ",")
            if comma or (isinstance(node.func.value, ast.Name) and node.func.value.id == "re"):
                found.append(f"split at {node.lineno}")
    return found


def test_only_points_reads_and_writes_text():
    # json and splitting an id list at its commas live in points alone.
    found = {path.name: _text_handlers(path) for path in sorted(SRC.glob("*.py"))}
    assert {name for name, where in found.items() if where} == {"points.py"}, found


def test_no_module_rechecks_its_own_result():
    # A library function does not raise RuntimeError on its own result;
    # the property suite and the tests check the invariants.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# Every public function of the package whose first parameter is a space.
SPACE_FUNCTIONS = sorted(name for name in partialmetric.__all__
                         if inspect.isfunction(obj := getattr(partialmetric, name))
                         and next(iter(inspect.signature(obj).parameters), None) == "space")

# The functions that read a finite table's own members (num, points, index).
TABLE_ONLY = {"ball", "ball_cover_check", "bottom_set", "check_axioms", "check_space_properties",
              "constant_map_bottom", "diameter", "exhaustive_condition_maps", "gdelta_diagonal",
              "limit_set", "maximal_points", "minimal_balls", "separation_class",
              "seq_compact_witness", "specialization_order", "totally_bounded_at"}


def test_every_table_only_function_is_a_space_function():
    assert TABLE_ONLY <= set(SPACE_FUNCTIONS)


def _arguments(name):
    """What ``name`` takes after the space, in ex5.4's points."""
    x, half, seq = Fraction(0), Fraction(1, 2), SequenceSpec.explicit([Fraction(0)] * 20)
    T = catalog_map("ex5.4.T")
    return {"ball": (x, half), "ball_cover_check": ((x,), half),
            "check_condition_max": (T, half), "check_condition_min": (T, 3),
            "check_contraction": (T, half), "constant_map_ruled_out": (x,),
            "converges_to": (seq, x), "properly_converges": (seq, x), "is_cauchy": (seq,),
            "limit_set": (seq,), "seq_compact_witness": (seq,),
            "d_metric": (x, half), "p_m": (x, half), "p_bar": (x, half),
            "exhaustive_condition_maps": (check_condition_max, half),
            "iterate": (T, x), "solve_on_bottom": (T, half, Fraction(1)),
            "totally_bounded_at": (half,)}.get(name, ())


@pytest.mark.parametrize("kind", ["catalog", "finite_sample"])
@pytest.mark.parametrize("name", SPACE_FUNCTIONS)
def test_every_space_function_answers_both_space_kinds(name, kind):
    # A call returns or raises the package's own error, never a bare AttributeError.
    space = catalog_space("ex5.4")
    if kind == "finite_sample":
        space = space.finite_sample()
    try:
        getattr(partialmetric, name)(space, *_arguments(name))
    except PMError:
        pass


@pytest.mark.parametrize("name", sorted(TABLE_ONLY))
def test_a_table_only_function_refuses_a_catalog_space(name):
    # It does not sample the space in its place: the caller chooses finite_sample().
    with pytest.raises(StructureError,
                       match=rf"^{name} needs a finite table; pass space\.finite_sample\(\)$"):
        getattr(partialmetric, name)(catalog_space("ex5.4"), *_arguments(name))
