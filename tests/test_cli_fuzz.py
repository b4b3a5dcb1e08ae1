"""Fuzzed command lines: the 0/1/2 exit contract and one JSON document under --json.

Each example calls ``cli.main`` in-process on an argv drawn from the
subcommands, their flags, junk tokens and bounded values, with fuzzed
JSON table and sequence files. Values that set the amount of work (the
sequence horizon, iteration budget, seed span, point count, iterate
depth) are drawn small, and every command whose default workload is
large gets a small value first, so one example stays well under a
second. Exponent and digit-separator strings are among the rationals
and point ids, and one file content is nested past the JSON decoder's
depth limit, and one holds an n = 24 table whose distinct 300-digit
denominators pass the cap on the common denominator. Flags go mostly to
the actions that read them, since any other is refused with exit 2. An
example that takes 20 s or more fails. Horizons include one past the
cap, which exits 2 before any term is read; a second property draws the
cap itself and one past it, on catalog sequences whose terms stay small,
by flag and by file. A third puts the empty id in each id slot, which
exits 2 with a message that names it. A fourth draws the cap on
`random generate -n` and one past it, which exits 2 within a second,
and a fifth does the same for the bit width of a table's numerators in
`axioms --space`.
"""

import contextlib
import io
import json
import os
import tempfile
import time

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from partialmetric import catalog_names, get_entry
from partialmetric.analysis import MAX_HORIZON
from partialmetric.catalog import MAX_RANDOM_POINTS
from partialmetric.cli import main
from partialmetric.core import MAX_NUM_BITS

POINT_IDS = ("0/1", "1/2", "1/1", "-5/1", "2/1", "a", "b", "x1", "{}", "{a}", "{a,b}", "", "zz",
             "1e99999999", "1_0")
SPACE_IDS = tuple(catalog_names()) + ("ex9.9",)
SEQ_IDS = tuple(s.name for n in catalog_names() for s in get_entry(n).sequences) + ("ex0.seq",)
MAP_IDS = ("ex3.4.T", "ex5.4.T", "const.a", "const.{}", "const.{a}", "const.0/1", "const.1/2",
           "nomap")
JUNK = ("--", "-", "--bogus", "x", "{", "0:", ":", "1/0", "nan", "--json=1", "é", "3:1")

ints = st.integers(min_value=-2, max_value=50).map(str)
horizons = ints | st.just(str(MAX_HORIZON + 1))
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
                st.integers(-1, 50) | st.just(MAX_HORIZON + 1) | json_leaf))
documents = table_docs() | sequence_docs | any_json

TABLE = "@table"  # replaced by the path of the fuzzed table file
SEQ_FILE = "@seq"  # replaced by the path of the fuzzed sequence file
DEEP_FILE = "@deep"  # replaced by the path of a file nested past the decoder's depth limit
WIDE_FILE = "@wide"  # replaced by the path of a table with 576 distinct 300-digit denominators
WIDE_TEXT = json.dumps({"points": [str(i) for i in range(24)],
                        "p": [[f"{10**299 + 24 * i + j}/{10**299 + 24 * i + j + 1}"
                               for j in range(24)] for i in range(24)]})

spaces = st.sampled_from(SPACE_IDS + (TABLE, TABLE, SEQ_FILE, DEEP_FILE, WIDE_FILE))

FLAG_VALUES = {
    "--space": spaces,
    "--seq": st.sampled_from(SEQ_IDS + (SEQ_FILE, SEQ_FILE, TABLE, DEEP_FILE)),
    "--target": st.sampled_from(POINT_IDS),
    "--from": st.sampled_from(POINT_IDS),
    "--mode": st.sampled_from(("plain", "proper", "cauchy", "fast")),
    "--tol": rationals,
    "--horizon": horizons,
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
# Flags and switches of each command or action that reads them; a drawn
# argv mostly uses its own action's (else its command's).
COMMAND_FLAGS = {
    "axioms": ("--space", "--json"),
    "analyze": ("--space", "--seq", "--target", "--mode", "--tol", "--horizon", "--json"),
    "topology": ("--space", "--json"),
    "topology cover": ("--space", "--centers", "--eps", "--json"),
    "topology net": ("--space", "--eps", "--restrict", "--json"),
    "fixedpoint check": ("--space", "--map", "--cond", "--alpha", "--json"),
    "fixedpoint iterate": ("--space", "--map", "--from", "--tol", "--budget", "--json"),
    "fixedpoint enumerate": ("--space", "--cond", "--alpha-grid", "--json"),
    "fixedpoint bottom": ("--space", "--json"),
    "catalog": ("--all", "--json"),
    "random": ("--seed", "-n", "--seeds", "--max-n", "--zero-f", "--json"),
}
SWITCHES = ("--json", "--all", "--zero-f")


def _prefixes():
    """Subcommand words and required flags, then small values for costly defaults."""
    yield st.builds(lambda sp: ["axioms", "--space", sp], spaces)
    yield st.builds(lambda sp, seq, t, h: ["analyze", "seq", "--space", sp, "--seq", seq,
                                           "--target", t, "--horizon", h],
                    spaces, FLAG_VALUES["--seq"], FLAG_VALUES["--target"], horizons)
    # A catalog sequence on its own space, so that the analyzers run.
    yield st.builds(lambda seq, t, h: ["analyze", "seq", "--space", seq.rsplit(".", 1)[0],
                                       "--seq", seq, "--target", t, "--horizon", h],
                    st.sampled_from([s for s in SEQ_IDS if s.rsplit(".", 1)[0] in SPACE_IDS]),
                    FLAG_VALUES["--target"], horizons)
    for probe in ("separation", "gdelta", "order", "maximal", "cover", "net"):
        yield st.builds(lambda sp, p=probe: ["topology", p, "--space", sp], spaces)
    yield st.builds(lambda sp, m: ["fixedpoint", "check", "--space", sp, "--map", m],
                    spaces, FLAG_VALUES["--map"])
    yield st.builds(lambda sp, m, x, b: ["fixedpoint", "iterate", "--space", sp, "--map", m,
                                         "--from", x, "--budget", b],
                    spaces, FLAG_VALUES["--map"], FLAG_VALUES["--from"], ints)
    for action in ("enumerate", "bottom"):
        yield st.builds(lambda sp, a=action: ["fixedpoint", a, "--space", sp], spaces)
    # Only the min-condition reads --k; any other action refuses it.
    yield st.builds(lambda sp, m, k: ["fixedpoint", "check", "--space", sp, "--map", m,
                                      "--cond", "min", "--k", k],
                    spaces, FLAG_VALUES["--map"], small_ints)
    yield st.builds(lambda sp, k: ["fixedpoint", "enumerate", "--space", sp, "--cond", "min",
                                   "--k", k], spaces, small_ints)
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
    own = COMMAND_FLAGS.get(" ".join(argv[:2])) or COMMAND_FLAGS.get("".join(argv[:1]),
                                                                      ("--json",))
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
        files = {TABLE: json.dumps(table), SEQ_FILE: json.dumps(sequence),
                 DEEP_FILE: "[" * 200_000, WIDE_FILE: WIDE_TEXT}
        paths = {key: os.path.join(tmp, key[1:] + ".json") for key in files}
        for key, text in files.items():
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


# ex5.4's orbits are left out: their n-th term has about n bits, so the cap's
# terms alone would hold gigabytes.
SMALL_TERM_SEQS = ("ex3.2.alt", "ex4.8.naturals", "ex5.5.recip", "ex5.6.tail")


@settings(max_examples=8, deadline=None)
@given(seq=st.sampled_from(SMALL_TERM_SEQS), target=st.sampled_from(POINT_IDS),
       mode=st.sampled_from(("plain", "proper", "cauchy")),
       horizon=st.sampled_from((MAX_HORIZON, MAX_HORIZON + 1)), by_file=st.booleans())
# An empty target id is an id, not a missing --target.
@example(seq="ex3.2.alt", target="", mode="plain", horizon=MAX_HORIZON + 1, by_file=False)
@example(seq="ex4.8.naturals", target="", mode="proper", horizon=MAX_HORIZON + 1, by_file=True)
def test_horizon_cap_keeps_the_exit_contract(seq, target, mode, horizon, by_file):
    argv = ["analyze", "seq", "--space", seq.rsplit(".", 1)[0], f"--target={target}",
            "--mode", mode, "--json"]
    with tempfile.TemporaryDirectory() as tmp:
        if by_file and seq != "ex3.2.alt":  # a file names a generator
            path = os.path.join(tmp, "seq.json")
            with open(path, "w") as fh:
                json.dump({"generator": seq, "horizon": horizon}, fh)
            argv += ["--seq", path]
        else:
            argv += ["--seq", seq, "--horizon", str(horizon)]
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.monotonic() - start
    if horizon > MAX_HORIZON:
        assert code == 2 and out.getvalue() == "" and elapsed < 1, argv
        assert "past the cap" in err.getvalue() or "not in" in err.getvalue(), argv
    else:
        assert code in (0, 1, 2) and elapsed < 20, argv
        if code != 2:
            json.loads(out.getvalue())


# The empty id names no catalog space, sequence, map or catalog point: each
# slot refuses it by name with exit 2, and never reads it as a missing id.
EMPTY_ID_ARGVS = (
    ["axioms", "--space="],
    ["topology", "order", "--space", ""],
    ["analyze", "seq", "--space", "ex3.2", "--seq=", "--target", "1/2"],
    ["fixedpoint", "check", "--space", "ex5.4", "--map="],
    ["fixedpoint", "iterate", "--space", "ex5.4", "--map=", "--from", "0"],
    ["fixedpoint", "iterate", "--space", "ex5.4", "--map", "ex5.4.T", "--from="],
    ["catalog", "verify", ""],
    ["catalog", "export", ""],
)


@settings(max_examples=16, deadline=None)
@given(argv=st.sampled_from(EMPTY_ID_ARGVS), as_json=st.booleans())
@example(argv=["catalog", "verify", ""], as_json=False)
@example(argv=["catalog", "export", ""], as_json=True)
@example(argv=["fixedpoint", "iterate", "--space", "ex5.4", "--map=", "--from", "0"], as_json=False)
@example(argv=["fixedpoint", "iterate", "--space", "ex5.4", "--map", "ex5.4.T", "--from="],
         as_json=True)
def test_an_empty_id_is_refused_by_name(argv, as_json):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json"] * as_json)
    assert code == 2 and out.getvalue() == "", argv
    assert "''" in err.getvalue(), argv


@settings(max_examples=4, deadline=None)
@given(n=st.sampled_from((MAX_RANDOM_POINTS, MAX_RANDOM_POINTS + 1)), seed=st.integers(0, 3),
       zero_f=st.booleans(), as_json=st.booleans())
@example(n=MAX_RANDOM_POINTS + 1, seed=0, zero_f=False, as_json=False)
@example(n=MAX_RANDOM_POINTS, seed=0, zero_f=True, as_json=True)
def test_random_point_cap_keeps_the_exit_contract(n, seed, zero_f, as_json):
    argv = (["random", "generate", "-n", str(n), "--seed", str(seed)]
            + ["--zero-f"] * zero_f + ["--json"] * as_json)
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.monotonic() - start
    if n > MAX_RANDOM_POINTS:
        assert code == 2 and out.getvalue() == "" and elapsed < 1, argv
        assert f"past the cap of {MAX_RANDOM_POINTS}" in err.getvalue(), argv
    else:
        assert code == 0 and elapsed < 20, argv
        assert len(json.loads(out.getvalue())["points"]) == n


@settings(max_examples=4, deadline=None)
@given(bits=st.sampled_from((MAX_NUM_BITS, MAX_NUM_BITS + 1)), as_text=st.booleans(),
       as_json=st.booleans())
@example(bits=MAX_NUM_BITS + 1, as_text=False, as_json=False)
@example(bits=MAX_NUM_BITS, as_text=True, as_json=True)
def test_entry_width_cap_keeps_the_exit_contract(bits, as_text, as_json):
    top = (1 << bits) - 1  # a valid table whose widest numerator has ``bits`` bits
    rows = [[top - 1, top], [top, top - 1]]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wide.json")
        with open(path, "w") as fh:
            json.dump({"points": ["x", "y"],
                       "p": [[str(v) if as_text else v for v in row] for row in rows]}, fh)
        argv = ["axioms", "--space", path] + ["--json"] * as_json
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.monotonic() - start
    if bits > MAX_NUM_BITS:
        assert code == 2 and out.getvalue() == "" and elapsed < 1, argv
        assert f"past the cap of {MAX_NUM_BITS}" in err.getvalue(), argv
    else:
        assert code == 0 and elapsed < 20, argv
        assert "pass" in out.getvalue(), argv
