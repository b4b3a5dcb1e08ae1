"""Time the pure and compiled table scans on growing spaces.

The axiom scan is cubic in the point count, so it is the only part of
the package whose runtime is worth a compiled core. Tables are built
from the Lipschitz construction (d(x,y) + f(x) + f(y)) / 2, which is
valid by construction, so every timing run exercises the full P1-P4
sweep without finding a violation (the worst case). Both
implementations are called directly on the same flattened numerators;
the `active` column names the one `kernels` dispatches to.

Each size has three rows: the axiom scan and the `p_m` metric scan on a
table over twelfths, and the axiom scan on a wide table whose values
cycle through eight prime denominators near 2^12, so that from eight
points on its numerators (the `bits` column) are past the int64 guard;
smaller sizes have no wide row. The pure scan packs each
row into one int whose fields are as wide as the table's spread, so the
wide row shows what wider fields cost; the compiled scan cannot take
that table and the dispatcher always sends it to the pure scan.

Run:  python3 benchmarks/bench_scan.py [--sizes 16,32,64,128] [--repeats 3]
"""

import argparse
import random
import time
from array import array
from fractions import Fraction

from partialmetric import _scan_py, kernels
from partialmetric.core import FinitePMSpace, p_m_matrix

try:
    from partialmetric import _scan as _scan_c
except ImportError:
    _scan_c = None

F = Fraction

# The eight largest primes below 2^12: their lcm is near 2^96.
WIDE_DENOMINATORS = (4093, 4091, 4079, 4073, 4057, 4051, 4049, 4027)


def build_space(n: int, seed: int = 0, wide: bool = False) -> FinitePMSpace:
    rng = random.Random(f"bench/{seed}/{n}" + ("/wide" if wide else ""))
    dens = [WIDE_DENOMINATORS[i % 8] if wide else 12 for i in range(n)]
    values = [F(rng.randint(0, 2 * n * q), q) for q in dens]
    base = F(1, 12)

    def d(i: int, j: int) -> Fraction:
        return abs(values[i] - values[j]) + (base if i != j else F(0))

    f = [d(i, 0) + F(1, 6) for i in range(n)]
    matrix = [[(d(i, j) + f[i] + f[j]) / 2 for j in range(n)] for i in range(n)]
    return FinitePMSpace([F(i) for i in range(n)], matrix)


def time_scan(scan, num, n: int, label: str, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = scan(num, n)
        best = min(best, time.perf_counter() - start)
        if result is not None:
            raise RuntimeError(f"{label} scan found {result} in a table valid by construction")
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="16,32,64,128")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    if _scan_c is None:
        print("compiled extension not built; timing the pure scan only")
    header = (f"{'n':>5} {'scan':>12} {'bits':>5} {'active':>9} {'pure (ms)':>12} "
              f"{'compiled (ms)':>14} {'speedup':>9}")
    print(header)
    print("-" * len(header))
    for n in sizes:
        space = build_space(n)
        rows = [("axioms", "axiom_scan", space.matrix, False),
                ("p_m metric", "metric_scan", p_m_matrix(space), False)]
        if n >= len(WIDE_DENOMINATORS):
            rows.append(("axioms wide", "axiom_scan", build_space(n, wide=True).matrix, True))
        for label, name, matrix, is_wide in rows:
            flat = kernels.flatten_numerators(matrix)
            bits = max(abs(v) for v in flat).bit_length()
            active = "pure" if is_wide else kernels.active_backend()
            pure = time_scan(getattr(_scan_py, name), flat, n, "pure", args.repeats)
            row = f"{n:>5} {label:>12} {bits:>5} {active:>9} {pure * 1e3:>12.2f}"
            if _scan_c is not None and not is_wide:
                fast = time_scan(getattr(_scan_c, name), array("q", flat), n, "compiled",
                                 args.repeats)
                row += f" {fast * 1e3:>14.2f} {pure / fast:>8.1f}x"
            print(row)


if __name__ == "__main__":
    main()
