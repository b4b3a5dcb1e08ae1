"""Tests of the benchmark's own code.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import partialmetric as pm  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import tables  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PLANTED = ("late-p4", "early-p1", "early-p3")


def brute_force_first_violation(m):
    """Full canonical-order scan in plain Fractions, the slow way."""
    n = len(m)
    for name, test in (
        ("P1", lambda i, j: i != j and m[i][i] == m[i][j] == m[j][j]),
        ("P2", lambda i, j: i != j and m[i][i] > m[j][i]),
        ("P3", lambda i, j: i < j and m[i][j] != m[j][i]),
    ):
        for i in range(n):
            for j in range(n):
                if test(i, j):
                    return (name, i, j, -1)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if m[i][j] > m[i][k] + m[k][j] - m[k][k]:
                    return ("P4", i, j, k)
    return None


@pytest.mark.parametrize("kind", tables.KINDS)
def test_tables_are_deterministic_per_seed(kind):
    a = tables.make_table(kind, 12, seed=3)
    assert a == tables.make_table(kind, 12, seed=3)
    assert a.to_json() != tables.make_table(kind, 12, seed=4).to_json()


def test_workload_inputs_are_deterministic_per_seed():
    assert ([t.to_json() for t in workloads.audit_tables(5)]
            == [t.to_json() for t in workloads.audit_tables(5)])
    assert tables.make_table("late-p4", 32, 5, tag="cli") == tables.make_table("late-p4", 32, 5, tag="cli")


@pytest.mark.parametrize("kind", PLANTED)
@pytest.mark.parametrize("n", (5, 8, 13))
def test_planted_witness_is_the_first_violation(kind, n):
    for seed in range(8):
        table = tables.make_table(kind, n, seed)
        assert table.expected == brute_force_first_violation(table.matrix)
        got = pm.check_axioms(pm.FinitePMSpace.from_json(table.to_json())).to_dict()
        assert got == table.expected_report()


@pytest.mark.parametrize("kind", ("valid", "wide"))
def test_unplanted_tables_pass(kind):
    for seed in range(4):
        table = tables.make_table(kind, 9, seed)
        assert brute_force_first_violation(table.matrix) is None
        assert pm.check_axioms(pm.FinitePMSpace.from_json(table.to_json())).ok


def test_wide_tables_pass_the_int64_guard():
    table = tables.make_table("wide", 64, 0)
    flat = pm.kernels.flatten_numerators(table.matrix)
    assert max(flat) >= pm.kernels._INT64_SAFE


def test_grid_tables_have_the_grid_as_smallest_gap():
    import random

    for den in (12, 120):
        m = tables.grid_matrix(random.Random(den), 10, den)
        gaps = [m[i][j] - m[i][i] for i in range(10) for j in range(10) if m[i][j] > m[i][i]]
        assert min(gaps) == Fraction(1, den)


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "AUDIT_SIZES", (8, 12))
    monkeypatch.setattr(workloads, "TOPOLOGY_SPACES", (
        ("valid", 12, 6), ("late-p4", 12, 9), ("valid", 120, 5), ("early-p1", 120, 6)))


def _verdicts(ops):
    out = []
    for op in ops:
        got = op.work()
        assert op.check(got), op.label
        if isinstance(got, pm.properties.PropertyRunResult):
            got = (got.spaces_checked, got.failures)
        out.append(got)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_runs_agree(name, small_workloads, tmp_path):
    prepare = workloads.WORKLOADS[name]
    plain = _verdicts(prepare(tmp_path, 2, True))
    with tracer.Tracer() as tr:
        traced = _verdicts(prepare(tmp_path, 2, True))
    assert traced == plain
    assert tr.next_id > 0


def test_topology_checks_catch_wrong_answers(small_workloads, tmp_path):
    for op in workloads.prepare_topology_probe(tmp_path, 1, True):
        for _ in range(workloads.TOPOLOGY_VARIANTS):
            i, problems, centers = op.work()
            assert op.check((i, problems, centers)), op.label
            assert not op.check((i, problems, centers + centers[:1])), op.label
            assert not op.check((i, problems, tuple(reversed(centers)) + (Fraction(-1),))), op.label
            assert not op.check((i, [] if problems else ["axioms: P1 at ()"], centers)), op.label


def test_greedy_net_matches_the_library():
    for seed in range(6):
        table = tables.make_table("valid", 11, seed, den=120)
        space = pm.FinitePMSpace([Fraction(i) for i in range(11)], table.matrix)
        for eps in (Fraction(1, 120), Fraction(1, 12), Fraction(1, 2), Fraction(5)):
            got = pm.totally_bounded_at(space, eps).centers
            assert [int(c) for c in got] == tables.greedy_net(table.matrix, eps)


def test_wrappers_are_removed(small_workloads, tmp_path):
    before = [(ns, attr, obj) for _, ns, attr, obj in tracer.target_bindings()]
    ops = workloads.prepare_property_sweep(tmp_path, 0, True)
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as tr:
            run.run_rounds(ops, run.LOOP, rounds=1, tracer=tr)
            assert hasattr(pm.check_axioms, "__wrapped__")
            raise RuntimeError("leave the traced block early")
    for ns, attr, obj in before:
        current = ns.__dict__[attr] if isinstance(ns, type) else getattr(ns, attr)
        assert current is obj, f"{ns.__name__}.{attr} still wrapped"
    for mod_name, mod in sys.modules.items():
        if mod_name.startswith("partialmetric"):
            assert not any(hasattr(v, "__wrapped__") for v in vars(mod).values()), mod_name


def test_every_target_is_wrapped_while_traced():
    with tracer.Tracer():
        for _, ns, attr, _ in tracer.target_bindings():
            current = ns.__dict__[attr] if isinstance(ns, type) else getattr(ns, attr)
            fn = current.__func__ if isinstance(current, classmethod) else current
            assert hasattr(fn, "__wrapped__"), attr


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    with tr:
        space = pm.catalog.random_pm_space(1, 6)
        tr.begin_op()
        pm.check_space_properties(space)
        planted = tables.make_table("early-p1", 6, 1)
        tr.begin_op()
        pm.check_space_properties(pm.FinitePMSpace.from_json(planted.to_json()))
        tr.end()
    metrics = tr.layer_metrics(2, 1.0)
    # The planted space stops after its one scan and is left out of per_space.
    assert metrics["core.check_axioms.calls"][0] == 2
    assert metrics["core.check_axioms.per_space"][0] == 3
    assert tr.self_s["properties.check_space_properties"] < tr.incl["properties.check_space_properties"]


def test_timed_run_completes_min_rounds():
    ops = [workloads.Op("noop", lambda: 1, lambda got: got == 1)] * 3
    sample = run.run_rounds(ops, run.LOOP, seconds=1e-9, min_rounds=4)
    assert sample.rounds == 4 and len(sample.latencies) == 12 and sample.failed == 0


def test_latencies_scale_by_the_nearby_references():
    ref = run.Reference("fixed", 0.002, lambda: 0.002)
    # Two bursts of ops far apart: the host runs at half speed in the second.
    starts = [0.0, 0.01, 0.02, 100.0, 100.01]
    sample = run.Sample(ref, starts=starts, latencies=[0.005] * 5,
                        marks=[t - 0.001 for t in starts],
                        references=[0.002] * 3 + [0.004] * 2)
    assert sample.scaled() == pytest.approx([0.005] * 3 + [0.0025] * 2)


def test_tail_has_ten_samples_beyond_it():
    q, value = run.tail([float(i) for i in range(100)])
    assert (q, value) == (90.0, 89.0)


def _log(path: Path, values: list[float], backend: str = "pure") -> Path:
    metrics = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    lines = []
    for v in values:
        stamp = {"workload": "axioms-audit", "trace": 0,
                 "env": {"backend": backend, "compiled_available": False}}
        lines.append("perfbench-env " + json.dumps(stamp))
        lines.append(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
            m["name"]: {"value": v, "unit": m["unit"]} for m in metrics}}))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_compare_verdicts():
    parent = [10.0 + 0.1 * i for i in range(10)]
    assert compare.verdict(parent, [v - 2 for v in parent], higher_is_better=False) == "better"
    assert compare.verdict(parent, [v + 2 for v in parent], higher_is_better=False) == "worse"
    assert compare.verdict(parent, list(reversed(parent)), higher_is_better=False) == "unresolved"
    assert compare.verdict(parent[:5], [v - 2 for v in parent[:5]], False) == "unresolved"


def test_compare_refuses_mixed_backends(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(HERE.parent)
    a = _log(tmp_path / "a.log", [1.0] * 10, "pure")
    b = _log(tmp_path / "b.log", [1.0] * 10, "compiled")
    assert compare.main([str(a), str(b)]) == 2
    assert compare.main([str(a), str(a)]) == 0
    assert "axioms-audit     op_tail_ms" in capsys.readouterr().out
