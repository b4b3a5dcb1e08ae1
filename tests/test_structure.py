"""Structure of the package: one space interface, no switch on a class or a kind tag."""

import ast
import dataclasses
from pathlib import Path

import pytest

from partialmetric import BottomDecl, SequenceSpec

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
    assert "kind" not in {f.name for f in dataclasses.fields(cls)}


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
