"""Time the table scans on growing spaces.

The axiom scan is cubic in the point count. Tables are built from the
Lipschitz construction (d(x,y) + f(x) + f(y)) / 2, which is valid by
construction, so every timing run exercises the full P1-P4 sweep
without finding a violation (the worst case). The scans are timed on the
integer tables a space stores (``space.num``) and derives
(``p_m_matrix``), so building them is not counted.

Each size has four rows: the axiom scan and the `p_m` metric scan on a
table over twelfths; the axiom scan on a wide table whose values cycle
through eight prime denominators near 2^12, so that from eight points on
its numerators (the `bits` column) are near 2^96; and the axiom scan on
a tight wide table, p(x,y) = max(v_x, v_y) over distinct values below
2^100, whose triangles hold with equality wherever v_z lies between v_x
and v_y. Smaller sizes have no wide rows. A table whose spread has more
than 16 bits is first scanned on the top 16 bits of its spread, and
only the rows that coarse pass flags are tested exactly: it flags no
row of the wide table and every row of the tight one, so the
two wide rows show the best and the worst case.

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


def build_tight_space(n: int, seed: int = 0) -> FinitePMSpace:
    """p(x,y) = max(v_x, v_y) over n random values below 2^100: valid when they are
    distinct (``time_scan`` would report a repeat as a P1 failure), and tight."""
    rng = random.Random(f"bench/{seed}/{n}/tight")
    values = [rng.getrandbits(100) for _ in range(n)]
    matrix = [[F(max(a, b)) for b in values] for a in values]
    return FinitePMSpace([F(i) for i in range(n)], matrix)


def time_scan(scan, table, label: str, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = scan(table)
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

    header = f"{'n':>5} {'scan':>17} {'bits':>5} {'time (ms)':>10}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        space = build_space(n)
        rows = [("axioms", kernels.axiom_scan, space.num),
                ("p_m metric", kernels.metric_scan, p_m_matrix(space))]
        if n >= len(WIDE_DENOMINATORS):
            rows.append(("axioms wide", kernels.axiom_scan, build_space(n, wide=True).num))
            rows.append(("axioms tight wide", kernels.axiom_scan, build_tight_space(n).num))
        for label, scan, table in rows:
            bits = max(abs(v) for row in table for v in row).bit_length()
            best = time_scan(scan, table, label, args.repeats)
            print(f"{n:>5} {label:>17} {bits:>5} {best * 1e3:>10.2f}")


if __name__ == "__main__":
    main()
