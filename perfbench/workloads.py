"""The four workloads: what one operation is, and what it must answer.

Each ``prepare_*`` function does a workload's untimed preparation and
returns one round of operations. A run repeats whole rounds, so every
run sees the same mix whatever its length. Every ``Op`` pairs the work
with an independent expectation; a wrong answer fails the op, it never
stops the run.

Library calls go through the ``partialmetric`` modules' attributes at
call time (``pm.check_axioms``, not a name bound at import), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import os
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import partialmetric as pm

import tables


@dataclass(frozen=True)
class Op:
    label: str
    work: Callable[[], object]
    check: Callable[[object], bool]


# -- axioms-audit -------------------------------------------------------------

# n from 64 to 160; at each size one valid table, one late P4 plant and
# one wide-numerator table, plus early P1/P3 plants below the top size.
# An odd count of ops per round puts the median inside one op's cluster
# of latencies rather than in the gap between two. Three sizes keep a
# round short, so a run holds more of the costliest ops (see MIN_ROUNDS).
AUDIT_SIZES = (64, 112, 160)
EARLY_KINDS = ("early-p1", "early-p3")


def audit_tables(seed: int) -> list[tables.Table]:
    out = []
    for idx, n in enumerate(AUDIT_SIZES):
        kinds = ["valid", "late-p4", "wide"]
        if n != AUDIT_SIZES[-1]:
            kinds.append(EARLY_KINDS[idx % 2])
        out.extend(tables.make_table(kind, n, seed, tag="audit") for kind in kinds)
    return out


def _axioms_op(label: str, text: str, expected: dict) -> Op:
    def work():
        return pm.check_axioms(pm.FinitePMSpace.from_json(text)).to_dict()

    return Op(label, work, lambda got: got == expected)


def prepare_axioms_audit(root: Path, seed: int, in_process: bool) -> list[Op]:
    return [_axioms_op(f"{t.kind}/n={t.n}", t.to_json(), t.expected_report())
            for t in audit_tables(seed)]


# -- topology-probe -----------------------------------------------------------

# gdelta_diagonal steps through radii 1/k up to 1/min-gap, so the grid
# sets its cost; the coarse grid carries the larger spaces, where the
# cubic order and cover checks dominate instead. The sizes put the median
# among the n=24 coarse-grid ops, with the next cheaper and costlier ops
# well apart. The two planted tables make check_space_properties report
# an axiom violation, so a suite that skipped its checks fails them.
# Eleven spaces: an odd count, for the reason given at AUDIT_SIZES.
TOPOLOGY_SPACES = (
    ("valid", 12, 24), ("valid", 12, 32), ("valid", 12, 40), ("late-p4", 12, 40),
    ("valid", 120, 12), ("valid", 120, 14), ("valid", 120, 24), ("early-p1", 120, 24),
    ("valid", 1200, 6), ("valid", 1200, 10), ("valid", 1200, 12),
)
# Each op takes the next of this many tables of its kind and size in turn:
# a space's cost depends on its table by a tenth or more, and a quantile
# over several tables depends less on the seed than one table's cost.
TOPOLOGY_VARIANTS = 5
NET_EPS = Fraction(1, 2)


def _topology_case(table: tables.Table) -> tuple:
    """(space, expected problems, expected net centers) for one table."""
    space = pm.FinitePMSpace([Fraction(i) for i in range(table.n)], table.matrix)
    problems = []
    if table.expected is not None:
        witness = tuple(Fraction(t) for t in table.witness())
        problems.append(f"axioms: {table.expected[0]} at {witness}")
    return space, problems, tuple(Fraction(c) for c in tables.greedy_net(table.matrix, NET_EPS))


def _topology_op(cases: list[tuple], label: str) -> Op:
    turns = itertools.cycle(range(len(cases)))

    def work():
        i = next(turns)
        space = cases[i][0]
        return i, pm.check_space_properties(space), pm.totally_bounded_at(space, NET_EPS).centers

    return Op(label, work, lambda got: (got[1], got[2]) == cases[got[0]][1:])


def prepare_topology_probe(root: Path, seed: int, in_process: bool) -> list[Op]:
    return [_topology_op([_topology_case(tables.make_table(kind, n, seed, den=den,
                                                           tag=f"topology/{den}/{v}"))
                          for v in range(TOPOLOGY_VARIANTS)],
                         f"{kind}/grid=1/{den}/n={n}")
            for kind, den, n in TOPOLOGY_SPACES]


# -- property-sweep -----------------------------------------------------------

MAX_N = 7
# Far enough apart that runs with neighbouring seeds share no seed.
SWEEP_STRIDE = 7 * 100_000


def prepare_property_sweep(root: Path, seed: int, in_process: bool) -> list[Op]:
    """A round is MAX_N ops on consecutive seeds, so n runs 1..MAX_N in order.

    Later rounds go on counting, so every op checks a fresh space.
    """
    seeds = itertools.count(seed * SWEEP_STRIDE)

    def work():
        return pm.property_run([next(seeds)], max_n=MAX_N)

    # random_pm_space is valid by construction, so no check may fail; the
    # planted tables of topology-probe show that the suite reports failures.
    def check(got) -> bool:
        return got.spaces_checked == 1 and got.failures == ()

    return [Op(f"n={n}", work, check) for n in range(1, MAX_N + 1)]


# -- cli-catalog --------------------------------------------------------------

CLI_TABLE_N = 32


def cli_commands(table_path: str, table: tables.Table) -> list[tuple[list[str], int, dict]]:
    """(argv, expected exit code, expected JSON fields) for each command of the mix."""
    report = table.expected_report()
    return [
        (["catalog", "verify", "--all", "--json"], 0, {"failed": 0}),
        (["axioms", "--space", table_path, "--json"], 1, report),
        # T(x) = (x + 1)/2 on [0,1] halves the distance to 1 each step.
        (["fixedpoint", "iterate", "--space", "ex5.4", "--map", "ex5.4.T", "--from", "0/1",
          "--json"], 0, {"outcome": "fixed_point", "fixed_point": "1/1"}),
        # The gap p(1/n, 0) - p(0, 0) is 1/n: within 1/25 from n = 25 on.
        (["analyze", "seq", "--space", "ex3.4", "--seq", "ex3.4.recip", "--target", "0/1",
          "--tol", "1/25", "--horizon", "100", "--json"], 0,
         {"mode": "converges", "certificate": {"tail_index": 25, "achieved_gap": "1/25"}}),
        # The apex dominates every point, so the space is not T1.
        (["topology", "gdelta", "--space", "apex", "--json"], 0,
         {"t1": False, "equals_diagonal": False}),
        # Constant maps survive exactly at the sample's positive points.
        (["fixedpoint", "bottom", "--space", "ex5.5", "--json"], 0,
         {"bottom": ["1/2", "1/3", "1/1"]}),
    ]


def _matches(stdout: str, code: int, want_code: int, want: dict) -> bool:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    return (code == want_code and isinstance(doc, dict)
            and all(doc.get(k) == v for k, v in want.items()))


CHILD_TIMEOUT_S = 120.0


def run_child(root: Path, args: list[str]) -> tuple[int, str, str]:
    """Run ``python args...`` against the checkout's source; (exit code, stdout, stderr).

    The wait blocks: given a timeout, ``subprocess`` polls with sleeps of
    up to 50 ms, which would quantize every timing. A timer kills a child
    that hangs instead.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with subprocess.Popen([sys.executable, *args], cwd=root, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out, err = proc.communicate()
        finally:
            killer.cancel()
    return proc.returncode, out, err


def _cli_subprocess_op(root: Path, argv: list[str], want_code: int, want: dict) -> Op:
    def work():
        code, out, _ = run_child(root, ["-m", "partialmetric.cli", *argv])
        return code, out

    return Op(" ".join(argv[:2]), work, lambda got: _matches(got[1], got[0], want_code, want))


def _cli_in_process_op(argv: list[str], want_code: int, want: dict) -> Op:
    cli = importlib.import_module("partialmetric.cli")

    def work():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    return Op(" ".join(argv[:2]), work, lambda got: _matches(got[1], got[0], want_code, want))


def prepare_cli_catalog(root: Path, seed: int, in_process: bool) -> list[Op]:
    """Writes the axioms table under ``.perfbench/`` in the checkout."""
    table = tables.make_table("late-p4", CLI_TABLE_N, seed, tag="cli")
    path = root / ".perfbench" / f"cli-table-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(table.to_json())
    commands = cli_commands(str(path), table)
    if in_process:
        return [_cli_in_process_op(argv, code, want) for argv, code, want in commands]
    return [_cli_subprocess_op(root, argv, code, want) for argv, code, want in commands]


# The tail is the 11th-largest latency. A timed run keeps going until it
# has this many rounds, whatever the host's speed, so the tail always falls
# among the costliest ops (the n=160 tables; the largest valid coarse- and
# fine-grid spaces) and the tail and the median each rest on enough
# samples of one or two ops; otherwise the tail would jump to the next
# cheaper op with the round count.
MIN_ROUNDS = {"axioms-audit": 5, "topology-probe": 10}

WORKLOADS = {
    "axioms-audit": prepare_axioms_audit,
    "topology-probe": prepare_topology_probe,
    "property-sweep": prepare_property_sweep,
    "cli-catalog": prepare_cli_catalog,
}
