"""Fuzzed command lines: the 0/1/2 exit contract and one JSON document under --json.

Each example calls ``cli.main`` in-process on an argv drawn from the
subcommands, their flags, junk tokens and bounded values, with fuzzed
JSON table and sequence files. Values that set the amount of work (the
sequence horizon, iteration budget, seed span, point count, iterate
depth) are drawn small, and every command whose default workload is
large gets a small value first, so one example stays well under a
second. Exponent and digit-separator strings are among the rationals
and point ids, and one file content is nested past the JSON decoder's
depth limit; an example that takes 20 s or more fails.
"""

import contextlib
import io
import json
import os
import tempfile
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from partialmetric import catalog_names, get_entry
from partialmetric.cli import main

POINT_IDS = ("0/1", "1/2", "1/1", "-5/1", "2/1", "a", "b", "x1", "{}", "{a}", "{a,b}", "", "zz",
             "1e99999999", "1_0")
SPACE_IDS = tuple(catalog_names()) + ("ex9.9",)
SEQ_IDS = tuple(s.name for n in catalog_names() for s in get_entry(n).sequences) + ("ex0.seq",)
MAP_IDS = ("ex3.4.T", "ex5.4.T", "const.a", "const.{}", "const.{a}", "const.0/1", "const.1/2",
           "nomap")
JUNK = ("--", "-", "--bogus", "x", "{", "0:", ":", "1/0", "nan", "--json=1", "é", "3:1")

ints = st.integers(min_value=-2, max_value=50).map(str)
small_ints = st.integers(min_value=-1, max_value=5).map(str)
rationals = st.builds(lambda a, b: f"{a}/{b}", st.integers(-2, 12), st.integers(0, 12))
rationals = rationals | st.sampled_from(("0", "1", "1/2", "3/4", "0.5", "x/y", "1e99999999",
                                         "1E-99999999", "1_0/2"))
point_lists = st.lists(st.sampled_from(POINT_IDS), min_size=1, max_size=4).map(",".join)
# A span of width -1 or 0 holds no seed, which exits 2.
seed_spans = st.builds(lambda lo, k: f"{lo}:{lo + k}", st.integers(0, 50), st.integers(-1, 3))

# Table and sequence documents: mostly well-shaped with n <= 5, sometimes arbitrary JSON.
json_leaf = (st.none() | st.booleans() | st.integers(-3, 50)
             | st.sampled_from(("0/1", "1/2", "1", "x/y", "a", "{a}", "-1/2")))
any_json = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(
        st.sampled_from(("points", "p", "explicit", "generator", "horizon", "x")),
        inner, max_size=4),
    max_leaves=20)
entries = st.sampled_from(("0/1", "1/2", "1/1", "3/2", "2/1", "1/1000000000000")) | json_leaf


@st.composite
def table_docs(draw):
    n = draw(st.integers(1, 5))
    points = draw(st.lists(st.sampled_from(POINT_IDS), min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return {"points": points, "p": rows}


sequence_docs = (
    st.builds(lambda ids: {"explicit": ids}, st.lists(st.sampled_from(POINT_IDS), max_size=5))
    | st.builds(lambda g, h: {"generator": g, "horizon": h}, st.sampled_from(SEQ_IDS),
                st.integers(-1, 50) | json_leaf))
documents = table_docs() | sequence_docs | any_json

TABLE = "@table"  # replaced by the path of the fuzzed table file
SEQ_FILE = "@seq"  # replaced by the path of the fuzzed sequence file
DEEP_FILE = "@deep"  # replaced by the path of a file nested past the decoder's depth limit

spaces = st.sampled_from(SPACE_IDS + (TABLE, TABLE, SEQ_FILE, DEEP_FILE))

FLAG_VALUES = {
    "--space": spaces,
    "--seq": st.sampled_from(SEQ_IDS + (SEQ_FILE, SEQ_FILE, TABLE, DEEP_FILE)),
    "--target": st.sampled_from(POINT_IDS),
    "--from": st.sampled_from(POINT_IDS),
    "--mode": st.sampled_from(("plain", "proper", "cauchy", "fast")),
    "--tol": rationals,
    "--horizon": ints,
    "--centers": point_lists,
    "--eps": rationals,
    "--restrict": point_lists,
    "--map": st.sampled_from(MAP_IDS),
    "--cond": st.sampled_from(("contraction", "max", "min", "other")),
    "--alpha": rationals,
    "--alpha-grid": st.lists(rationals, max_size=4).map(",".join),
    "--k": small_ints,
    "--budget": ints,
    "--seed": ints,
    "-n": small_ints,
    "--seeds": seed_spans,
    "--max-n": small_ints,
}
# Flags and switches of each subcommand; a drawn argv mostly uses its own command's.
COMMAND_FLAGS = {
    "axioms": ("--space", "--json"),
    "analyze": ("--space", "--seq", "--target", "--mode", "--tol", "--horizon", "--json"),
    "topology": ("--space", "--centers", "--eps", "--restrict", "--json"),
    "fixedpoint": ("--space", "--map", "--cond", "--alpha", "--alpha-grid", "--k", "--from",
                   "--tol", "--budget", "--json"),
    "catalog": ("--all", "--json"),
    "random": ("--seed", "-n", "--seeds", "--max-n", "--zero-f", "--json"),
}
SWITCHES = ("--json", "--all", "--zero-f")


def _prefixes():
    """Subcommand words and required flags, then small values for costly defaults."""
    yield st.builds(lambda sp: ["axioms", "--space", sp], spaces)
    yield st.builds(lambda sp, seq, t, h: ["analyze", "seq", "--space", sp, "--seq", seq,
                                           "--target", t, "--horizon", h],
                    spaces, FLAG_VALUES["--seq"], FLAG_VALUES["--target"], ints)
    # A catalog sequence on its own space, so that the analyzers run.
    yield st.builds(lambda seq, t, h: ["analyze", "seq", "--space", seq.rsplit(".", 1)[0],
                                       "--seq", seq, "--target", t, "--horizon", h],
                    st.sampled_from([s for s in SEQ_IDS if s.rsplit(".", 1)[0] in SPACE_IDS]),
                    FLAG_VALUES["--target"], ints)
    for probe in ("separation", "gdelta", "order", "maximal", "cover", "net"):
        yield st.builds(lambda sp, p=probe: ["topology", p, "--space", sp], spaces)
    for action in ("check", "iterate", "enumerate", "bottom"):
        yield st.builds(lambda sp, m, x, b, a=action: ["fixedpoint", a, "--space", sp,
                                                      "--map", m, "--from", x, "--budget", b],
                        spaces, FLAG_VALUES["--map"], FLAG_VALUES["--from"], ints)
    # Only the min-condition reads --k; any other action refuses it.
    for action in ("check", "enumerate"):
        yield st.builds(lambda sp, m, k, a=action: ["fixedpoint", a, "--space", sp, "--map", m,
                                                   "--cond", "min", "--k", k],
                        spaces, FLAG_VALUES["--map"], small_ints)
    for action in ("list", "export", "verify"):
        yield st.builds(lambda name, a=action: ["catalog", a] + name,
                        st.sampled_from(([],) + tuple([s] for s in SPACE_IDS)))
    yield st.just(["random", "generate"])
    yield st.builds(lambda s: ["random", "property-run", "--seeds", s], seed_spans)
    yield st.sampled_from((["bogus"], ["analyze"], ["topology", "net"], []))


def _flag_pair(flag):
    if flag in SWITCHES:
        return st.just([flag])
    return FLAG_VALUES[flag].map(lambda value: [flag, value])


@st.composite
def argvs(draw):
    """A prefix, flags of its own command, and at most one foreign flag or junk token."""
    argv = list(draw(st.one_of(*_prefixes())))
    own = COMMAND_FLAGS.get(argv[0] if argv else "", ("--json",))
    for group in draw(st.lists(st.sampled_from(own).flatmap(_flag_pair), max_size=4)):
        argv += group
    noise = st.sampled_from(sorted(FLAG_VALUES) + list(SWITCHES)).flatmap(
        _flag_pair) | st.sampled_from(JUNK).map(lambda j: [j])
    for group in draw(st.lists(noise, max_size=1)):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = group
    return argv


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), table=documents, sequence=documents | sequence_docs)
def test_fuzzed_argv_keeps_the_exit_contract(argv, table, sequence):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: os.path.join(tmp, key[1:] + ".json") for key in (TABLE, SEQ_FILE, DEEP_FILE)}
        for key, text in ((TABLE, json.dumps(table)), (SEQ_FILE, json.dumps(sequence)),
                          (DEEP_FILE, "[" * 200_000)):
            with open(paths[key], "w") as fh:
                fh.write(text)
        argv = [paths.get(tok, tok) for tok in argv]
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # argparse rejecting the command line
            assert exc.code == 2, argv
            return
        finally:
            assert time.monotonic() - start < 20, argv
    assert code in (0, 1, 2), argv
    if "--json" in argv:
        if code == 2:
            assert out.getvalue() == "", argv
        else:
            json.loads(out.getvalue())  # exactly one document
