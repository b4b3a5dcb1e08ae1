"""Seeded distance tables and independent expectations for the benchmark.

Everything here is plain ``fractions.Fraction`` arithmetic and never
imports ``partialmetric``: the expected verdicts are derived without the
code under test.

Valid tables use the Lipschitz construction p = (d(x,y) + f(x) + f(y)) / 2
with d a line metric plus a discrete term and f = d(., anchor) + offset,
which satisfies P1-P4 by construction. A planted violation edits a few
cells of a valid table; because the rest of the table is valid, every
new violation touches an edited cell, so the first one in canonical scan
order is found among O(n) candidates per edited cell.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

KINDS = ("valid", "late-p4", "early-p1", "early-p3", "wide")


def _primes_below(limit: int, count: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(limit - 1, 1, -1) if sieve[p]][:count]


# Eight distinct primes near 2**12: a table whose values use them all has
# a common denominator near 2**96, past the kernels' int64 guard (2**61).
WIDE_PRIMES = tuple(_primes_below(1 << 12, 8))


def _fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Table:
    """A generated table with its expected first violation (None if valid)."""

    kind: str
    matrix: list[list[Fraction]]
    expected: Optional[tuple[str, int, int, int]]

    @property
    def n(self) -> int:
        return len(self.matrix)

    def point_ids(self) -> list[str]:
        return [f"{i}/1" for i in range(self.n)]

    def to_json(self) -> str:
        return json.dumps({
            "points": self.point_ids(),
            "p": [[_fmt(v) for v in row] for row in self.matrix],
        })

    def witness(self) -> tuple[int, ...]:
        """Indices of the expected violation's points: two for P1-P3, three for P4."""
        _, i, j, k = self.expected
        return (i, j) if k < 0 else (i, j, k)

    def expected_report(self) -> dict:
        """The ``AxiomReport.to_dict()`` fields this table must produce."""
        if self.expected is None:
            return {"verdict": "pass", "violated_axiom": None, "witness": [], "values": {}}
        name, i, j, k = self.expected
        m = self.matrix
        cells = {
            "P1": {"p(x,x)": m[i][i], "p(x,y)": m[i][j], "p(y,y)": m[j][j]},
            "P2": {"p(x,x)": m[i][i], "p(y,x)": m[j][i]},
            "P3": {"p(x,y)": m[i][j], "p(y,x)": m[j][i]},
        }.get(name) or {"p(x,y)": m[i][j], "p(x,z)": m[i][k], "p(z,y)": m[k][j], "p(z,z)": m[k][k]}
        return {"verdict": "fail", "violated_axiom": name,
                "witness": [f"{t}/1" for t in self.witness()],
                "values": {key: _fmt(v) for key, v in cells.items()}}


def lipschitz_matrix(values: list[Fraction], base: Fraction, anchor: int,
                     offset: Fraction) -> list[list[Fraction]]:
    """(d + f(x) + f(y)) / 2 for d(x,y) = |v_x - v_y| + base [x != y]."""
    n = len(values)

    def d(i: int, j: int) -> Fraction:
        return abs(values[i] - values[j]) + base if i != j else Fraction(0)

    f = [d(i, anchor) + offset for i in range(n)]
    return [[(d(i, j) + f[i] + f[j]) / 2 for j in range(n)] for i in range(n)]


def grid_matrix(rng: random.Random, n: int, den: int) -> list[list[Fraction]]:
    """Valid table on the 1/den grid whose smallest positive gap is 1/den.

    Values, the discrete term and the offset are multiples of 2/den, so
    every entry is a multiple of 1/den, and two non-anchor points on the
    same side of the anchor are exactly 1/den apart in gap.
    """
    step = Fraction(2, den)
    values = [step * rng.randint(0, 2 * n) for _ in range(n)]
    anchor = rng.randrange(n)
    values[anchor] = Fraction(0)
    values[(anchor + 1) % n] = step * (2 * n + 1)
    values[(anchor + 2) % n] = step * (2 * n + 2)
    return lipschitz_matrix(values, step, anchor, step * rng.randint(0, den))


def wide_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Valid table whose values cycle through ``WIDE_PRIMES`` denominators."""
    values = [Fraction(rng.randint(0, 4 * q), q)
              for q in (WIDE_PRIMES[i % len(WIDE_PRIMES)] for i in range(n))]
    anchor = rng.randrange(n)
    return lipschitz_matrix(values, Fraction(1, 2), anchor, Fraction(rng.randint(0, 3)))


def _pair_violation(m, i: int, j: int) -> Optional[str]:
    """Which pair axiom (i, j) breaks, in the scan's per-pair test order."""
    if i == j:
        return None
    if m[i][i] == m[i][j] == m[j][j]:
        return "P1"
    if m[i][i] > m[j][i]:
        return "P2"
    if i < j and m[i][j] != m[j][i]:
        return "P3"
    return None


def first_violation(m, edited: set[tuple[int, int]]) -> Optional[tuple[str, int, int, int]]:
    """First violation in canonical order of a valid table after ``edited`` cells changed.

    Axiom-major, then lexicographic in (i, j, k), as ``check_axioms``
    scans. Only candidates that read an edited cell are tried: O(n) per
    cell for the pair axioms and for P4, whose edited cells must lie off
    the diagonal (a diagonal cell appears in O(n^2) triples).
    """
    n = len(m)
    pairs = set()
    for a, b in edited:
        for t in range(n):
            pairs.update({(a, t), (t, a), (b, t), (t, b)})
    for name in ("P1", "P2", "P3"):
        hits = [(i, j) for i, j in pairs if _pair_violation(m, i, j) == name]
        if hits:
            i, j = min(hits)
            return (name, i, j, -1)
    if any(a == b for a, b in edited):
        raise ValueError("P4 candidates of a diagonal edit are not O(n)")
    triples = set()
    for a, b in edited:
        for t in range(n):
            triples.update({(a, b, t), (a, t, b), (t, b, a)})
    hits = [(i, j, k) for i, j, k in triples if m[i][j] > m[i][k] + m[k][j] - m[k][k]]
    if hits:
        return ("P4",) + min(hits)
    return None


def plant(kind: str, m: list[list[Fraction]], rng: random.Random, unit: Fraction) -> set:
    """Edit a valid table in place to plant ``kind``; returns the edited cells."""
    n = len(m)
    if kind == "late-p4":
        # Near the last rows, so the scan covers almost every triple first.
        a = n - 2 - rng.randrange(3)
        b = rng.randrange(a + 1, n)
        low = min(m[a][k] + m[k][b] - m[k][k] for k in range(n) if k not in (a, b))
        m[a][b] = m[b][a] = low + unit
        return {(a, b), (b, a)}
    a = rng.randrange(4)
    b = rng.choice([t for t in range(n) if t != a])
    if kind == "early-p1":
        m[a][b] = m[b][a] = m[b][b] = m[a][a]
        return {(a, b), (b, a), (b, b)}
    if kind == "early-p3":
        m[a][b] += unit
        return {(a, b)}
    raise ValueError(f"no planting for kind {kind!r}")


def make_table(kind: str, n: int, seed: int, tag: str = "", den: int = 12) -> Table:
    """Deterministic per (kind, n, seed, tag, den); ``den`` sets the grid of
    every kind but "wide"."""
    rng = random.Random(f"perfbench/{tag}/{kind}/{n}/{seed}")
    if kind == "wide":
        return Table(kind, wide_matrix(rng, n), None)
    m = grid_matrix(rng, n, den)
    if kind == "valid":
        return Table(kind, m, None)
    edited = plant(kind, m, rng, Fraction(1, den))
    expected = first_violation(m, edited)
    if expected is None:
        raise RuntimeError(f"planting {kind} produced no violation")
    return Table(kind, m, expected)


def greedy_net(m, eps: Fraction) -> list[int]:
    """Indices of the greedy eps-net's centers, in the order they are picked.

    The ball of c is {y : m[c][y] < m[c][c] + eps}. Each step picks the
    uncovered point whose ball holds the most uncovered points, ties to
    the lowest index, until every point is covered.
    """
    n = len(m)
    balls = [{y for y in range(n) if m[c][y] < m[c][c] + eps} for c in range(n)]
    uncovered = set(range(n))
    centers = []
    while uncovered:
        best = min(uncovered, key=lambda c: (-len(balls[c] & uncovered), c))
        centers.append(best)
        uncovered -= balls[best]
    return centers
