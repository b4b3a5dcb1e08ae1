"""Run one workload of the partialmetric benchmark and print its metrics.

Run from the repository root, which must hold ``src/partialmetric``:

    python3 perfbench/run.py --workload axioms-audit --seed 1 --seconds 20 --trace 0

One process, one caller, closed loop: each operation starts when the
previous one has returned. The run repeats whole rounds of the
workload's operation mix until ``--seconds`` have passed and the
workload's minimum number of rounds is done, checks every
answer against an expectation derived without the code under test, and
prints the metrics by name and unit. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
makes a separate traced run, after an untraced run of the same rounds,
and reports the per-layer metrics (see ``tracer.py``). Each run also
prints a ``perfbench-env`` line that ``compare.py`` reads.

Every time is reported at reference speed. A shared host's CPU speed
drifts by a third or more over seconds to minutes, and a whole run can
land in a slow phase. So before each op the run times a fixed piece of
reference work that never touches ``partialmetric``, and scales the op's
time by the reference's nominal time over the median of the reference
times taken within ``REFERENCE_SPAN_S`` of the op: a time reads as it
would on a host where the reference takes its nominal time. The reference is a loop of integer arithmetic
for ops run in-process, and the start of a bare interpreter for ops that
start one (cli-catalog), whose time is mostly interpreter start. A change
to the package moves the op times and not the reference, so it shows in
full. The ``perfbench-env`` line carries the reference's measured median
and the unscaled latency percentiles.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SETUP_REPEATS = 5
MAX_REPORTED_FAILURES = 10

# An op's speed factor is the median of the reference times taken from
# REFERENCE_SPAN_S before the op starts to REFERENCE_SPAN_S after it ends:
# enough of them to outweigh a burst of noise, close enough to follow a drift.
REFERENCE_SPAN_S = 0.5


@dataclass(frozen=True)
class Reference:
    """Fixed work that never touches ``partialmetric``, and its nominal time."""

    name: str
    nominal_s: float
    measure: Callable[[], float]


def _loop_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(25_000):
        acc += i * i % 7
    return time.perf_counter() - t0


# About 2 ms on a 2-vCPU cloud host. Its ints are not tracked by the
# garbage collector, so it neither triggers nor pays for collections of
# the workload's objects.
LOOP = Reference("loop", 0.002, _loop_seconds)


def bare_interpreter(root: Path) -> Reference:
    """``python -c pass``: about 50 ms on the same host."""
    return Reference("bare-interpreter", 0.05, lambda: _child_seconds(root, "pass"))


@dataclass
class Sample:
    reference: Reference
    starts: list[float] = field(default_factory=list)      # perf_counter at each op's start
    latencies: list[float] = field(default_factory=list)   # seconds, unscaled
    marks: list[float] = field(default_factory=list)       # perf_counter at each reference's start
    references: list[float] = field(default_factory=list)  # reference seconds, one before each op
    failed: int = 0
    rounds: int = 0

    def scaled(self) -> list[float]:
        """Each latency at reference speed, in seconds."""
        out = []
        for start, lat in zip(self.starts, self.latencies):
            lo = bisect.bisect_left(self.marks, start - REFERENCE_SPAN_S)
            hi = bisect.bisect_right(self.marks, start + lat + REFERENCE_SPAN_S)
            out.append(lat * self.reference.nominal_s / statistics.median(self.references[lo:hi]))
        return out


def run_rounds(ops, reference: Reference, seconds: float | None = None,
               rounds: int | None = None, tracer=None, min_rounds: int = 1) -> Sample:
    """Repeat whole rounds of ``ops`` until ``rounds`` are done, or until
    ``seconds`` have passed and at least ``min_rounds`` are done."""
    sample = Sample(reference)
    start = time.perf_counter()
    while True:
        for op in ops:
            sample.marks.append(time.perf_counter())
            sample.references.append(reference.measure())
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            sample.starts.append(t0)
            elapsed = None
            try:
                got = op.work()
                elapsed = time.perf_counter() - t0
                reason = None if op.check(got) else "wrong answer"
            # A failing op is counted and the run goes on; argparse exits
            # with SystemExit when the in-process CLI rejects its arguments.
            except (Exception, SystemExit) as exc:
                reason = f"{type(exc).__name__}: {exc}"
            sample.latencies.append(time.perf_counter() - t0 if elapsed is None else elapsed)
            if reason is not None:
                sample.failed += 1
                if sample.failed <= MAX_REPORTED_FAILURES:
                    print(f"perfbench: op {op.label} failed: {reason}", file=sys.stderr)
        sample.rounds += 1
        if rounds is not None and sample.rounds >= rounds:
            break
        if (seconds is not None and time.perf_counter() - start >= seconds
                and sample.rounds >= min_rounds):
            break
    return sample


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    idx = max(len(ordered) - 11, 0)
    return 100.0 * (idx + 1) / len(ordered), ordered[idx]


def _child_seconds(root: Path, code: str) -> float:
    from workloads import run_child

    t0 = time.perf_counter()
    status, _, err = run_child(root, ["-c", code])
    elapsed = time.perf_counter() - t0
    if status != 0:
        raise RuntimeError(f"python -c {code!r} exited with {status}: {err.strip()}")
    return elapsed


def set_up(root: Path, prepare, seed: int, in_process: bool):
    """Prepare the workload SETUP_REPEATS times, each after a fresh-interpreter import.

    Returns (ops, median set-up seconds, import ms beyond a bare
    interpreter), both at reference speed: the interpreter starts are
    scaled by the bare-interpreter reference, the preparation by the loop.
    """
    bare = bare_interpreter(root)
    loops, bares, imports, prepared = [], [], [], []
    ops = None
    for _ in range(SETUP_REPEATS):
        loops.append(LOOP.measure())
        bares.append(bare.measure())
        imports.append(_child_seconds(root, "import partialmetric"))
        t0 = time.perf_counter()
        ops = prepare(root, seed, in_process)
        prepared.append(time.perf_counter() - t0)
        loops.append(LOOP.measure())
    child_scale = bare.nominal_s / statistics.median(bares)
    loop_scale = LOOP.nominal_s / statistics.median(loops)
    totals = [i * child_scale + p * loop_scale for i, p in zip(imports, prepared)]
    import_ms = 1000.0 * (statistics.median(imports) - statistics.median(bares)) * child_scale
    return ops, statistics.median(totals), import_ms


def environment(root: Path) -> dict:
    from partialmetric import kernels

    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": kernels.active_backend(),
        "compiled_available": kernels.compiled_available(),
        "PARTIALMETRIC_PURE": os.environ.get("PARTIALMETRIC_PURE"),
        "commit": commit,
    }


def end_to_end(sample: Sample, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    scaled = sample.scaled()
    q, tail_s = tail(scaled)
    attempted = len(scaled)
    metrics = {
        "setup_s": (setup_s, "s"),
        # Ops per second spent in ops: the reference loops and the checks
        # between ops are the benchmark's time, not the package's.
        "ops_per_s": (attempted / sum(scaled), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(scaled), "ms"),
        "op_tail_ms": (1000.0 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": ((attempted - sample.failed) / attempted, "ratio"),
    }
    raw = sorted(sample.latencies)
    info = {"tail_percentile": round(q, 2), "samples": attempted,
            "reference": sample.reference.name,
            "reference_ms": round(1000.0 * statistics.median(sample.references), 4),
            "unscaled_p50_ms": round(1000.0 * statistics.median(raw), 3),
            "unscaled_tail_ms": round(1000.0 * tail(raw)[1], 3)}
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "partialmetric" / "__init__.py").is_file():
        print(f"perfbench: {src / 'partialmetric'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import partialmetric

    if Path(partialmetric.__file__).resolve().parent != (src / "partialmetric").resolve():
        print(f"perfbench: imported partialmetric from {partialmetric.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    prepare = workloads.WORKLOADS[args.workload]
    # The CLI workload runs one subprocess per op; its traced run calls
    # cli.main in-process, where the wrappers can see it.
    in_process = bool(args.trace) or args.workload != "cli-catalog"
    ops, setup_s, import_ms = set_up(root, prepare, args.seed, in_process)
    reference = LOOP if in_process else bare_interpreter(root)

    if args.trace:
        base = run_rounds(ops, reference, seconds=args.seconds / 2)
        with tracing.Tracer() as tr:
            traced = run_rounds(ops, reference, rounds=base.rounds, tracer=tr)
            tr.end()
        tr.write_spans(root / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = tr.layer_metrics(len(traced.latencies),
                                   reference.nominal_s / statistics.median(traced.references))
        metrics["cli.import_ms"] = (import_ms, "ms")
        metrics["trace.overhead_ratio"] = (sum(traced.scaled()) / sum(base.scaled()), "ratio")
        attempted = len(base.latencies) + len(traced.latencies)
        failed = base.failed + traced.failed
        info = {"rounds": base.rounds, "spans": tr.next_id}
    else:
        sample = run_rounds(ops, reference, seconds=args.seconds,
                            min_rounds=workloads.MIN_ROUNDS.get(args.workload, 1))
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-catalog" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB
        metrics, info = end_to_end(sample, setup_s, peak_rss_mb)
        attempted, failed = len(sample.latencies), sample.failed
        info["rounds"] = sample.rounds

    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, **info, "env": environment(root)}
    print("perfbench-env " + json.dumps(stamp))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
