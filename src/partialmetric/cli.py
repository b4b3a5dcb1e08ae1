"""Command-line front end.

Exit codes: 0 for pass/success verdicts, 1 for refuted/violated/failed
verdicts, 2 for structural problems (malformed input, unknown ids, bad
arguments). With --json exactly one JSON document goes to stdout and any
human-readable chatter to stderr; without it, text goes to stdout.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .analysis import (
    DEFAULT_HORIZON,
    DEFAULT_TOL,
    MAX_HORIZON,
    SequenceSpec,
    ball_cover_check,
    converges_to,
    gdelta_diagonal,
    is_cauchy,
    maximal_points,
    properly_converges,
    specialization_order,
    totally_bounded_at,
)
from .catalog import (
    CatalogEntry,
    CatalogSpace,
    catalog_map,
    catalog_names,
    catalog_sequence,
    get_entry,
    random_pm_space,
)
from .core import FinitePMSpace, check_axioms, separation_class
from .errors import PMError, StructureError
from .facts import run_fact_suite
from .fixedpoint import (
    DEFAULT_ALPHA,
    DEFAULT_ALPHA_GRID,
    DEFAULT_BUDGET,
    check_condition_max,
    check_condition_min,
    check_contraction,
    constant_map_bottom,
    exhaustive_condition_maps,
    iterate,
    least_factor,
)
from .points import (format_point, format_value, parse_rational, read_json, read_list,
                     read_points, write_json)
from .properties import property_run


def _emit(report, text_lines: list[str], as_json: bool) -> None:
    """Print the report's JSON under --json, with the text lines on stderr; else the lines."""
    if as_json:
        print(write_json(report))
    for line in text_lines:
        print(line, file=sys.stderr if as_json else sys.stdout)


def _resolve_space(arg: str) -> tuple[Optional[CatalogEntry], Union[FinitePMSpace, CatalogSpace]]:
    if arg in catalog_names():
        entry = get_entry(arg)
        return entry, entry.space
    path = Path(arg)
    if not path.exists():
        raise StructureError(f"{arg!r} is neither a catalog id nor a file")
    return None, FinitePMSpace.from_json(path.read_text())


def _resolve_sequence(arg: str, horizon: Optional[int],
                      space: Union[FinitePMSpace, CatalogSpace]) -> tuple[SequenceSpec, int]:
    eff_horizon = DEFAULT_HORIZON if horizon is None else horizon
    try:
        return catalog_sequence(arg), eff_horizon
    except PMError:
        pass
    path = Path(arg)
    if not path.exists():
        raise StructureError(f"{arg!r} is neither a sequence id nor a file")
    doc = read_json(path.read_text())
    if not isinstance(doc, dict):
        raise StructureError("sequence JSON must be an object")
    if "explicit" in doc:
        ids = doc["explicit"]
        if not isinstance(ids, list):
            raise StructureError("'explicit' must be a list of point ids")
        return SequenceSpec.explicit(read_points(ids, space.canonical_sample)), eff_horizon
    if "generator" in doc:
        seq = catalog_sequence(str(doc["generator"]))
        file_horizon = doc.get("horizon", DEFAULT_HORIZON)
        if type(file_horizon) is not int:  # a JSON integer; bool is an int subclass
            raise StructureError("sequence horizon must be an integer, not "
                                 + type(file_horizon).__name__)
        return seq, file_horizon if horizon is None else horizon
    raise StructureError("sequence JSON needs 'explicit' or 'generator'")


def _cmd_axioms(args) -> int:
    _, space = _resolve_space(args.space)
    report = check_axioms(space.finite_sample())
    lines = [f"axioms: {report.verdict}"]
    if not report.ok:
        lines.append(f"violated {report.violated_axiom} at "
                     f"({', '.join(format_point(p) for p in report.witness)})")
        lines.extend(f"  {k} = {format_value(v)}" for k, v in report.values.items())
    _emit(report, lines, args.json)
    return 0 if report.ok else 1


def _cmd_analyze(args) -> int:
    _, space = _resolve_space(args.space)
    seq, horizon = _resolve_sequence(args.seq, args.horizon, space)
    tol = DEFAULT_TOL if args.tol is None else parse_rational(args.tol)
    if args.mode == "cauchy":
        rep = is_cauchy(space, seq, tol=tol, horizon=horizon)
        ok = rep.verdict == "cauchy_to"
        lines = [f"cauchy: {rep.verdict}"
                 + (f" a={format_value(rep.a)}" if rep.a is not None else "")]
        _emit(rep, lines, args.json)
        return 0 if ok else 1
    if not args.target:
        raise StructureError("plain/proper analysis needs --target")
    target, = read_points([args.target], space.canonical_sample)
    fn = properly_converges if args.mode == "proper" else converges_to
    rep = fn(space, seq, target, tol=tol, horizon=horizon)
    lines = [f"convergence to {format_point(target)}: {rep.mode}"]
    if rep.certificate:
        cert = rep.certificate
        lines.append(f"  tail={cert.tail_index} gap={format_value(cert.achieved_gap)}")
    _emit(rep, lines, args.json)
    return 0 if rep.ok else 1


# The optional flags of `pm topology` and `pm fixedpoint`: where argparse puts
# each, and what kind of input it is. The three factor flags share a kind.
FLAGS = {
    "--alpha": ("alpha", "factor flag"),
    "--alpha-grid": ("alpha_grid", "factor flag"),
    "--k": ("k", "factor flag"),
    "--cond": ("cond", "condition"),
    "--map": ("map", "map"),
    "--from": ("start", "start point"),
    "--tol": ("tol", "tolerance"),
    "--budget": ("budget", "budget"),
    "--centers": ("centers", "centers"),
    "--eps": ("eps", "radius"),
    "--restrict": ("restrict", "restriction"),
}

# Action -> the optional flags it reads. `fixedpoint check` and `enumerate`
# also read the factor flag that CONDITIONS gives for their --cond.
READS = {
    "topology separation": (),
    "topology gdelta": (),
    "topology order": (),
    "topology maximal": (),
    "topology cover": ("--centers", "--eps"),
    "topology net": ("--eps", "--restrict"),
    "fixedpoint check": ("--map", "--cond"),
    "fixedpoint iterate": ("--map", "--from", "--tol", "--budget"),
    "fixedpoint enumerate": ("--cond",),
    "fixedpoint bottom": (),
}


def _refuse_unread(args, action: str, reads: tuple[str, ...]) -> None:
    """Exit 2 on a flag that the action would ignore, naming the flags it reads."""
    for flag, (dest, kind) in FLAGS.items():
        if getattr(args, dest, None) is not None and flag not in reads:
            alike = ", ".join(f for f in reads if FLAGS[f][1] == kind) or f"no {kind}"
            raise StructureError(f"{action} reads {alike}, not {flag} "
                                 f"(it reads {', '.join(reads) or 'no option'})")


DEFAULT_EPS = Fraction(1, 2)  # the radius of `topology cover` and `net`


def _eps(args) -> Fraction:
    return DEFAULT_EPS if args.eps is None else parse_rational(args.eps)


def _cmd_topology(args) -> int:
    _refuse_unread(args, f"topology {args.probe}", READS[f"topology {args.probe}"])
    _, space = _resolve_space(args.space)
    finite = space.finite_sample()
    if args.probe == "separation":
        sep = separation_class(finite)
        _emit(sep, [f"t0={sep.t0} t1={sep.t1} hausdorff={sep.hausdorff}"], args.json)
        return 0
    if args.probe == "gdelta":
        gd = gdelta_diagonal(finite)
        _emit(gd, [f"t1={gd.t1} stabilization={gd.stabilization_n} "
                   f"diagonal={gd.equals_diagonal}"], args.json)
        return 0
    if args.probe == "order":
        order = specialization_order(finite)
        lines = [f"{format_point(x)} >= {format_point(y)}"
                 for i, x in enumerate(order.points)
                 for j, y in enumerate(order.points) if i != j and order.dominates[i][j]]
        _emit(order, lines or ["relation is equality"], args.json)
        return 0
    if args.probe == "maximal":
        hats = maximal_points(finite)
        ids = sorted(format_point(p) for p in hats)
        _emit({"maximal": ids}, ["maximal: " + ", ".join(ids)], args.json)
        return 0
    if args.probe == "cover":
        centers = ([] if args.centers is None
                   else read_points(read_list(args.centers), finite.points))
        rep = ball_cover_check(finite, centers, _eps(args))
        lines = [f"covers: {rep.covers}" + ("" if rep.covers else f" uncovered={format_point(rep.uncovered)}")]
        _emit(rep, lines, args.json)
        return 0 if rep.covers else 1
    target = finite  # the probe is "net"
    if args.restrict is not None:
        target = finite.restrict(read_points(read_list(args.restrict), finite.points))
    net = totally_bounded_at(target, _eps(args))
    lines = [f"net size {net.size}: " + ", ".join(format_point(p) for p in net.centers)]
    _emit(net, lines, args.json)
    return 0


# --cond -> (checker, the parameter flag `check` reads, the one `enumerate` reads).
CONDITIONS = {
    "contraction": (check_contraction, "--alpha", "--alpha"),
    "max": (check_condition_max, "--alpha", "--alpha-grid"),
    "min": (check_condition_min, "--k", "--k"),
}

# Parameter flag -> its value; enumeration under the max-condition checks
# the least --alpha-grid factor.
PARAMETERS = {
    "--alpha": lambda args: DEFAULT_ALPHA if args.alpha is None else parse_rational(args.alpha),
    "--alpha-grid": lambda args: least_factor(
        DEFAULT_ALPHA_GRID if args.alpha_grid is None
        else [parse_rational(s) for s in read_list(args.alpha_grid)]),
    "--k": lambda args: 1 if args.k is None else args.k,
}


def _cmd_fixedpoint(args) -> int:
    cond = args.cond or "max"
    check, on_check, on_enumerate = CONDITIONS[cond]
    action, reads = f"fixedpoint {args.action}", READS[f"fixedpoint {args.action}"]
    if args.action in ("check", "enumerate"):
        action += f" --cond {cond}"
        reads += (on_check if args.action == "check" else on_enumerate,)
    _refuse_unread(args, action, reads)
    entry, space = _resolve_space(args.space)
    if args.action in ("check", "iterate"):
        if not args.map:
            raise StructureError(f"fixedpoint {args.action} needs --map")
        T = catalog_map(args.map, space.canonical_sample)
    if args.action == "check":
        rep = check(space, T, PARAMETERS[on_check](args))
        lines = [f"{rep.condition}: {rep.verdict} over {rep.pairs_checked} {rep.scope} pairs"]
        if rep.violation:
            v = rep.violation
            lines.append(f"  violated at ({format_point(v.x)}, {format_point(v.y)}): "
                         f"{format_value(v.lhs)} > {format_value(v.rhs)}")
        _emit(rep, lines, args.json)
        return 0 if rep.ok else 1
    if args.action == "iterate":
        if not args.start:
            raise StructureError("fixedpoint iterate needs --from")
        x0, = read_points([args.start], space.canonical_sample)
        tol = DEFAULT_TOL if args.tol is None else parse_rational(args.tol)
        known = entry.known_fixed_points if entry else ()
        budget = DEFAULT_BUDGET if args.budget is None else args.budget
        tr = iterate(space, T, x0, tol=tol, budget=budget, known_fixed_points=known)
        lines = [f"outcome: {tr.outcome} after {tr.steps} steps"]
        if tr.fixed_point is not None:
            lines.append(f"fixed point {format_point(tr.fixed_point)}")
        if tr.cauchy_value is not None:
            lines.append(f"settled pairwise value near {format_value(tr.cauchy_value)}")
        _emit(tr, lines, args.json)
        return 0 if tr.ok else 1
    finite = space.finite_sample()
    if args.action == "enumerate":
        survivors = exhaustive_condition_maps(finite, check, PARAMETERS[on_enumerate](args))
        lines = [f"{len(survivors)} surviving maps"] + [T.name for T in survivors]
        _emit({"count": len(survivors), "maps": [T.name for T in survivors]}, lines, args.json)
        return 0
    survivors = constant_map_bottom(finite)  # the action is "bottom"
    lines = ["constant-map bottom: " + ", ".join(format_point(p) for p in survivors)]
    _emit({"bottom": survivors}, lines, args.json)
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        names = catalog_names()
        _emit({"spaces": names}, names, args.json)
        return 0
    if args.action == "export":
        if not args.name:
            raise StructureError("catalog export needs a space id")
        _emit(get_entry(args.name).space.finite_sample(), [], True)
        return 0
    names = None if args.all or not args.name else [args.name]  # the action is "verify"
    suite = run_fact_suite(names)
    lines = [f"{'PASS' if r.ok else 'FAIL'} {r.fact_id}: {r.details}" for r in suite.results]
    lines.append(f"{suite.passed} passed, {suite.failed} failed")
    _emit(suite, lines, args.json)
    return 0 if suite.ok else 1


def _cmd_random(args) -> int:
    if args.action == "generate":
        space = random_pm_space(args.seed, args.n, zero_f=args.zero_f)
        _emit(space, [f"seed {args.seed}, {args.n} points"], True)
        return 0
    lo, _, hi = args.seeds.partition(":")  # the action is "property-run"
    seeds = range(int(lo), int(hi)) if hi else range(int(lo))
    if not seeds:
        raise StructureError(f"seed span {args.seeds!r} holds no seed")
    result = property_run(seeds, max_n=args.max_n)
    lines = [f"seeds {seeds.start}..{seeds.stop - 1}, {result.spaces_checked} spaces, "
             f"{len(result.failures)} failures, {result.elapsed_seconds:.2f}s"]
    lines += [f"  seed {f.seed} (n={f.n}): {f.detail}" for f in result.failures]
    _emit(result, lines, args.json)
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pm", description="exact partial-metric toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    ax = sub.add_parser("axioms", help="check the partial-metric axioms of a space")
    ax.add_argument("--space", required=True)
    ax.add_argument("--json", action="store_true")
    ax.set_defaults(fn=_cmd_axioms)

    an = sub.add_parser("analyze", help="sequence analysis")
    an_sub = an.add_subparsers(dest="what", required=True)
    seq = an_sub.add_parser("seq", help="convergence / Cauchy analysis of a sequence")
    seq.add_argument("--space", required=True)
    seq.add_argument("--seq", required=True)
    seq.add_argument("--target")
    seq.add_argument("--mode", choices=("plain", "proper", "cauchy"), default="plain")
    seq.add_argument("--tol")
    seq.add_argument("--horizon", type=int,
                     help=f"terms to read, 1 to {MAX_HORIZON} (default {DEFAULT_HORIZON})")
    seq.add_argument("--json", action="store_true")
    seq.set_defaults(fn=_cmd_analyze)

    topo = sub.add_parser("topology", help="separation, order, covers, nets")
    topo.add_argument("probe", choices=("separation", "gdelta", "order", "maximal",
                                        "cover", "net"))
    topo.add_argument("--space", required=True)
    topo.add_argument("--centers")
    topo.add_argument("--eps")
    topo.add_argument("--restrict")
    topo.add_argument("--json", action="store_true")
    topo.set_defaults(fn=_cmd_topology)

    fp = sub.add_parser("fixedpoint", help="condition checks, iteration, enumeration")
    fp.add_argument("action", choices=("check", "iterate", "enumerate", "bottom"))
    fp.add_argument("--space", required=True)
    fp.add_argument("--map")
    fp.add_argument("--cond", choices=tuple(CONDITIONS))
    fp.add_argument("--alpha")
    fp.add_argument("--alpha-grid", dest="alpha_grid")
    fp.add_argument("--k", type=int)
    fp.add_argument("--from", dest="start")
    fp.add_argument("--tol")
    fp.add_argument("--budget", type=int)
    fp.add_argument("--json", action="store_true")
    fp.set_defaults(fn=_cmd_fixedpoint)

    cat = sub.add_parser("catalog", help="list, export, verify catalog entries")
    cat.add_argument("action", choices=("list", "export", "verify"))
    cat.add_argument("name", nargs="?")
    cat.add_argument("--all", action="store_true")
    cat.add_argument("--json", action="store_true")
    cat.set_defaults(fn=_cmd_catalog)

    rnd = sub.add_parser("random", help="generate random spaces, run the property suite")
    rnd.add_argument("action", choices=("generate", "property-run"))
    rnd.add_argument("--seed", type=int, default=0)
    rnd.add_argument("-n", type=int, default=5)
    rnd.add_argument("--zero-f", dest="zero_f", action="store_true")
    rnd.add_argument("--seeds", default="0:200")
    rnd.add_argument("--max-n", dest="max_n", type=int, default=7)
    rnd.add_argument("--json", action="store_true")
    rnd.set_defaults(fn=_cmd_random)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PMError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
