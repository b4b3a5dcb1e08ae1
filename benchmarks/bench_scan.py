"""Time the table scans on growing spaces.

The axiom scan is cubic in the point count. Tables are built from the
Lipschitz construction (d(x,y) + f(x) + f(y)) / 2, which is valid by
construction, so every timing run exercises the full P1-P4 sweep
without finding a violation (the worst case). The integer scans are
timed on numerators flattened beforehand, so flattening is not counted.

Each size has three rows: the axiom scan and the `p_m` metric scan on a
table over twelfths, and the axiom scan on a wide table whose values
cycle through eight prime denominators near 2^12, so that from eight
points on its numerators (the `bits` column) are near 2^96; smaller
sizes have no wide row. The scan packs each row into one int whose
fields are as wide as the table's spread, so the wide row shows what
wider fields cost.

Run:  PYTHONPATH=src python3 benchmarks/bench_scan.py [--sizes 16,32,64,128] [--repeats 3]
"""

import argparse
import random
import time
from fractions import Fraction

from partialmetric import kernels
from partialmetric.core import FinitePMSpace, p_m_matrix

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

    header = f"{'n':>5} {'scan':>12} {'bits':>5} {'time (ms)':>10}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        space = build_space(n)
        rows = [("axioms", kernels.axiom_scan_flat, space.matrix),
                ("p_m metric", kernels.metric_scan_flat, p_m_matrix(space))]
        if n >= len(WIDE_DENOMINATORS):
            rows.append(("axioms wide", kernels.axiom_scan_flat, build_space(n, wide=True).matrix))
        for label, scan, matrix in rows:
            flat = kernels.flatten_numerators(matrix)
            bits = max(abs(v) for v in flat).bit_length()
            best = time_scan(scan, flat, n, label, args.repeats)
            print(f"{n:>5} {label:>12} {bits:>5} {best * 1e3:>10.2f}")


if __name__ == "__main__":
    main()
