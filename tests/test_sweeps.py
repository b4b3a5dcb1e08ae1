"""The single-evaluation probes against the sweeps they replace.

gdelta_diagonal, maximal_points and the max-condition enumeration each
evaluate a test that is monotone in its parameter once, at the
parameter value that decides it. The references in oracles.py evaluate
it at every point of the old sweep; results and raised errors must be
identical. constant_map_bottom is the bottom set, whatever the factor;
its reference checks every constant map at every factor of a grid. The
ball-topology probes read one minimal-ball relation; the references
scan every radius, or recheck the order the way specialization_order
once did. The map enumeration runs on indices and prunes; its
reference builds every map and passes it to the checker.
"""

import random
import time
from fractions import Fraction

import pytest

from partialmetric import (
    FinitePMSpace,
    catalog_names,
    catalog_space,
    check_condition_max,
    check_condition_min,
    check_contraction,
    constant_map_bottom,
    exhaustive_condition_maps,
    gdelta_diagonal,
    least_factor,
    maximal_points,
    random_pm_space,
    separation_class,
    specialization_order,
)
from partialmetric.fixedpoint import DEFAULT_ALPHA_GRID

from oracles import (
    condition_maps_by_sweep,
    constant_map_bottom_by_sweep,
    gdelta_by_sweep,
    max_condition_maps_by_sweep,
    maximal_points_by_sweep,
    separation_by_radius_scan,
    specialization_order_by_sweep,
)

F = Fraction

ALPHA_GRIDS = (
    None,  # the default grid
    (),
    (F(0),),
    (F(3, 4), F(1, 2)),
    (F(1, 2), F(1)),
    (F(-1, 2), F(0)),
)


def _corrupted(seed: int) -> FinitePMSpace:
    """A random valid table with one entry replaced by a small rational."""
    rng = random.Random(f"sweeps/{seed}")
    sp = random_pm_space(seed, seed % 6 + 2)
    n = len(sp)
    rows = [list(row) for row in sp.matrix]
    rows[rng.randrange(n)][rng.randrange(n)] = F(rng.randint(0, 48), rng.choice((4, 12, 24)))
    return FinitePMSpace(sp.points, rows)


def _tables():
    for seed in range(60):
        yield f"random/{seed}", random_pm_space(seed, seed % 7 + 1)
        yield f"zero_f/{seed}", random_pm_space(seed, seed % 7 + 1, zero_f=True)
        yield f"corrupted/{seed}", _corrupted(seed)
    for name in catalog_names():
        yield f"catalog/{name}", catalog_space(name).finite_sample()
    # Random integer tables, valid or not, so that T0 fails on many of them.
    rng = random.Random("separation")
    sizes = [rng.randint(1, 6) for _ in range(400)]
    for k, n in enumerate(sizes):
        yield f"integer/{k}", FinitePMSpace(range(n), [[rng.randint(0, 4) for _ in range(n)]
                                                       for _ in range(n)])


TABLES = list(_tables())


def _outcome(fn, *args):
    """(result, None) on success, (None, (exception type, message)) on error."""
    try:
        return fn(*args), None
    except Exception as exc:  # the comparison covers every error either side raises
        return None, (type(exc), str(exc))


def test_tables_reach_every_outcome():
    errors = [_outcome(maximal_points, sp)[1] for _, sp in TABLES]
    assert any(e is None for e in errors) and any(e is not None for e in errors)
    gds = [gdelta_diagonal(sp) for _, sp in TABLES]
    assert any(g.equals_diagonal for g in gds) and any(not g.equals_diagonal for g in gds)
    assert max(g.stabilization_n for g in gds) > 1


def test_gdelta_matches_sweep():
    for label, space in TABLES:
        got, want = _outcome(gdelta_diagonal, space), _outcome(gdelta_by_sweep, space)
        assert got == want, label
        if got[0] is not None:
            assert got[0].to_dict() == want[0].to_dict(), label


def test_separation_matches_radius_scan():
    for label, space in TABLES:
        sep = separation_class(space)
        assert (sep.t0, sep.t1, sep.hausdorff) == separation_by_radius_scan(space.matrix), label


def test_specialization_order_matches_sweep():
    for label, space in TABLES:
        got = _outcome(specialization_order, space)
        want = _outcome(specialization_order_by_sweep, space)
        assert got[1] == want[1], label
        if got[0] is not None:
            assert got[0].to_dict() == want[0].to_dict(), label


def test_maximal_points_matches_sweep():
    for label, space in TABLES:
        assert _outcome(maximal_points, space) == _outcome(maximal_points_by_sweep, space), label


def test_constant_map_bottom_matches_sweep():
    # The bottom set is the constant-map bottom at every factor; the sweep
    # checks each constant map at each factor of a valid grid.
    for label, space in TABLES:
        got = _outcome(constant_map_bottom, space)
        for grid in (None, (F(0),), (F(3, 4), F(1, 2))):
            args = (space,) if grid is None else (space, grid)
            assert got == _outcome(constant_map_bottom_by_sweep, *args), (label, grid)


# The grids above with the default spelled out, plus one more. The empty grid
# is an error for the enumeration, not "every map survives".
ENUMERATION_GRIDS = (DEFAULT_ALPHA_GRID,) + tuple(g for g in ALPHA_GRIDS if g) + (
    (F(9, 10), F(1, 3)),)


def test_max_enumeration_matches_sweep():
    spaces = [("catalog/ex5.8", catalog_space("ex5.8").finite_sample())]
    spaces += [(f"random/{seed}", random_pm_space(seed, seed % 4 + 1)) for seed in range(12)]
    for label, space in spaces:
        for grid in ENUMERATION_GRIDS:
            got, err = _outcome(lambda: exhaustive_condition_maps(
                space, check_condition_max, least_factor(grid)))
            want, want_err = _outcome(max_condition_maps_by_sweep, space, grid)
            assert err == want_err, (label, grid)
            if err is None:
                assert [T.name for T in got] == want, (label, grid)


# Each checker at valid parameters, then at parameters it refuses.
CONDITIONS = (
    [(check_contraction, a) for a in (F(1, 2), F(9, 10))]
    + [(check_condition_max, a) for a in (F(0), F(1, 2), F(9, 10))]
    + [(check_condition_min, k) for k in (1, 2, 3)]
    + [(check_contraction, a) for a in (F(1), F(-1, 2))]
    + [(check_condition_max, a) for a in (F(1), F(-1, 2))]
    + [(check_condition_min, 0)]
)

# Every seeded and catalog table of up to three points, those of the first
# twelve seeds and the catalog at four, and two at five: the sweep checks
# 3125 maps one by one at n = 5. The corrupted tables are asymmetric, so
# they pin which way round each pair is read.
ENUMERATION_TABLES = [
    (label, sp) for label, sp in TABLES if not label.startswith("integer/") and (
        len(sp) <= 3 or len(sp) == 4 and (label.startswith("catalog/")
                                          or int(label.split("/")[1]) < 12)
        or label in ("random/4", "corrupted/9"))]


def test_enumeration_tables_cover_five_points_and_asymmetry():
    assert {len(sp) for _, sp in ENUMERATION_TABLES} == {1, 2, 3, 4, 5}
    assert any(sp.num[i][j] != sp.num[j][i] for _, sp in ENUMERATION_TABLES if len(sp) == 5
               for i in range(5) for j in range(5))


def test_enumeration_matches_sweep_under_every_checker():
    for label, space in ENUMERATION_TABLES:
        for check, param in CONDITIONS:
            got, err = _outcome(exhaustive_condition_maps, space, check, param)
            want = _outcome(condition_maps_by_sweep, space, check, param)
            assert (None if got is None else [T.name for T in got], err) == want, (
                label, check.__name__, param)


def test_min_enumeration_depth_is_bounded_by_the_iterate_pairs():
    # (T^t x, T^t y) takes at most n^2 values, so depths past n^2 add no pair
    for label, space in ENUMERATION_TABLES:
        n = len(space)
        want = [T.name for T in exhaustive_condition_maps(space, check_condition_min, n * n)]
        start = time.monotonic()
        got = [T.name for T in exhaustive_condition_maps(space, check_condition_min, 10**9)]
        assert time.monotonic() - start < 1, label
        assert got == want, label


def test_max_enumeration_needs_a_factor():
    for grid in ([], ()):
        with pytest.raises(ValueError, match="needs alpha or an alpha grid"):
            least_factor(grid)


def test_gdelta_tiny_gap_is_one_evaluation():
    # The 1/k sweep would step through 10**9 radii here.
    gap = F(1, 10**9)
    gd = gdelta_diagonal(FinitePMSpace(["a", "b"], [[F(0), gap], [gap, F(0)]]))
    assert gd.stabilization_n == 10**9
    assert gd.t1 and gd.equals_diagonal

