"""Every report's JSON, pinned: keys, key order, values and nesting.

Each report type is built from catalog inputs (or a small literal table)
and its ``to_dict()`` is compared with a literal document, as serialized
JSON so that key order counts too.
"""

import json
from fractions import Fraction

import pytest

from partialmetric import FinitePMSpace, check_axioms, separation_class
from partialmetric.analysis import (
    SequenceSpec,
    ball_cover_check,
    converges_to,
    gdelta_diagonal,
    is_cauchy,
    properly_converges,
    seq_compact_witness,
    specialization_order,
    totally_bounded_at,
)
from partialmetric.catalog import MapSpec, get_entry
from partialmetric.facts import FactResult, run_fact_suite
from partialmetric.fixedpoint import (
    check_condition_max,
    check_condition_min,
    iterate,
    solve_on_bottom,
)
from partialmetric.properties import PropertyFailure, PropertyRunResult

F = Fraction


def _space(name):
    return get_entry(name).space


def _sample(name):
    return get_entry(name).space.finite_sample()


def _seq(name):
    return get_entry(name.rsplit(".", 1)[0]).sequence(name)


def _map(name):
    return get_entry(name.rsplit(".", 1)[0]).map(name)


_KNOWN_54 = get_entry("ex5.4").known_fixed_points
_APEX_BLOCK = get_entry("apex").space.declared_bottom.members

BUILDERS = {
    # AxiomReport
    "axioms_pass": lambda: check_axioms(_sample("ex5.8")),
    "axioms_p4": lambda: check_axioms(
        FinitePMSpace(["a", "b", "c"], [[0, 3, 1], [3, 0, 1], [1, 1, 0]])),
    # SeparationClass
    "separation": lambda: separation_class(_sample("ex5.6")),
    # ConvergenceReport with nested Certificate
    "converges": lambda: converges_to(_space("ex4.8"), _seq("ex4.8.naturals"), F(0),
                                      tol=F(1, 25), horizon=100),
    "proper_refuted": lambda: properly_converges(_space("ex5.5"), _seq("ex5.5.recip"), F(0),
                                                 horizon=64),
    "proper_ok": lambda: properly_converges(_space("ex5.4"), _seq("ex5.4.orbit0"), F(1),
                                            tol=F(1, 8), horizon=16),
    # CauchyReport
    "cauchy_refuted": lambda: is_cauchy(_space("ex3.2"), _seq("ex3.2.alt")),
    "cauchy_to": lambda: is_cauchy(_space("ex4.8"), _seq("ex4.8.naturals"), tol=F(1, 25),
                                   horizon=200),
    # GDeltaReport
    "gdelta": lambda: gdelta_diagonal(_sample("ex5.6")),
    # CoverReport
    "cover_fails": lambda: ball_cover_check(_sample("apex"), list(_APEX_BLOCK), F(1, 2)),
    "cover_holds": lambda: ball_cover_check(_sample("ex4.4"), [F(1)], F(1, 2)),
    # SubsequenceWitness
    "witness_progression": lambda: seq_compact_witness(
        _sample("ex5.8"), SequenceSpec.periodic(("a", "b"))),
    "witness_indices": lambda: seq_compact_witness(
        _sample("ex5.8"), SequenceSpec.explicit(["a", "a", "a", "b", "b", "a", "b", "a"])),
    "witness_full": lambda: seq_compact_witness(
        _sample("ex5.8"), SequenceSpec.explicit(["b", "a", "a", "a"])),
    # ConditionReport with nested ConditionViolation
    "cond_max_violated": lambda: check_condition_max(_space("ex5.8"), MapSpec.constant("b"),
                                                     F(1, 2)),
    "cond_min_holds": lambda: check_condition_min(_space("ex5.8"), MapSpec.constant("a"), 2),
    # IterationTrace
    "iterate_fixed": lambda: iterate(_space("ex3.4"), _map("ex3.4.T"), F(0), budget=5),
    "iterate_identified": lambda: iterate(_space("ex5.4"), _map("ex5.4.T"), F(0), tol=F(1, 4),
                                          budget=100, known_fixed_points=_KNOWN_54),
    "iterate_cauchy": lambda: iterate(_space("ex5.4"), _map("ex5.4.T"), F(0), tol=F(1, 4),
                                      budget=100),
    "iterate_budget": lambda: iterate(_space("ex5.4"), _map("ex5.4.T"), F(0), budget=2),
    # BottomSolveReport
    "bottom_fixed": lambda: solve_on_bottom(_space("ex5.4"), _map("ex5.4.T"), F(1, 2), F(0),
                                            tol=F(1, 4), budget=100,
                                            known_fixed_points=_KNOWN_54),
    "bottom_finite": lambda: solve_on_bottom(_sample("ex5.8"), MapSpec.constant("a"), F(1, 2),
                                             "a"),
    "bottom_violated": lambda: solve_on_bottom(_sample("ex5.8"), MapSpec.constant("b"),
                                               F(1, 2), "a"),
    # SpecializationOrder
    "order": lambda: specialization_order(_sample("ex5.8")),
    # NetReport
    "net": lambda: totally_bounded_at(_sample("apex").restrict(_APEX_BLOCK[:3]), F(1, 2)),
    # PropertyRunResult
    "property_run": lambda: PropertyRunResult(
        2, 0.123, (PropertyFailure(7, 3, "axioms", "axioms: P3 at ('a', 'b')"),)),
    # FactResult and FactSuiteResult
    "fact_fail": lambda: FactResult("x/y", "anchor", "fail", "why"),
    "fact_suite": lambda: run_fact_suite(["ex5.8"]),
}

EXPECTED = {
    'axioms_pass': {'verdict': 'pass',
                    'violated_axiom': None,
                    'witness': [],
                    'values': {}},
    'axioms_p4': {'verdict': 'fail',
                  'violated_axiom': 'P4',
                  'witness': ['a', 'b', 'c'],
                  'values': {'p(x,y)': '3/1',
                             'p(x,z)': '1/1',
                             'p(z,y)': '1/1',
                             'p(z,z)': '0/1'}},
    'separation': {'t0': True, 't1': False, 'hausdorff': False},
    'converges': {'mode': 'converges',
                  'target': '0/1',
                  'tol': '1/25',
                  'horizon': 100,
                  'certificate': {'tail_index': 25, 'achieved_gap': '1/25'},
                  'self_certificate': None,
                  'witness': [],
                  'exact': False,
                  'observed_gap': '1/76'},
    'proper_refuted': {'mode': 'refuted',
                       'target': '0/1',
                       'tol': '1/1000000',
                       'horizon': 64,
                       'certificate': {'tail_index': 1, 'achieved_gap': '0/1'},
                       'self_certificate': None,
                       'witness': [['1/64', '1/1']],
                       'exact': False,
                       'observed_gap': '1/1'},
    'proper_ok': {'mode': 'properly_converges',
                  'target': '1/1',
                  'tol': '1/8',
                  'horizon': 16,
                  'certificate': {'tail_index': 3, 'achieved_gap': '1/8'},
                  'self_certificate': {'tail_index': 1, 'achieved_gap': '0/1'},
                  'witness': [],
                  'exact': False,
                  'observed_gap': '1/8192'},
    'cauchy_refuted': {'verdict': 'refuted',
                       'a': None,
                       'tol': '1/1000000',
                       'horizon': 10000,
                       'tail_index': None,
                       'max_deviation': None,
                       'witness': [[['{a}', '{a}'], '1/1'], [['{a}', '{b}'], '2/1']],
                       'exact': True},
    'cauchy_to': {'verdict': 'cauchy_to',
                  'a': '46207/45904',
                  'tol': '1/25',
                  'horizon': 200,
                  'tail_index': 151,
                  'max_deviation': '303/45904',
                  'witness': [],
                  'exact': False},
    'gdelta': {'t1': False, 'stabilization_n': 2, 'equals_diagonal': False},
    'cover_fails': {'covers': False, 'uncovered': 'a', 'eps': '1/2'},
    'cover_holds': {'covers': True, 'uncovered': None, 'eps': '1/2'},
    'witness_progression': {'kind': 'constant',
                            'limit': 'a',
                            'exact': True,
                            'progression': [1, 2],
                            'indices': None},
    'witness_indices': {'kind': 'constant',
                        'limit': 'a',
                        'exact': True,
                        'progression': None,
                        'indices': [1, 2, 3, 6, 8]},
    'witness_full': {'kind': 'full',
                     'limit': 'a',
                     'exact': False,
                     'progression': None,
                     'indices': None},
    'cond_max_violated': {'condition': 'max',
                          'params': {'alpha': '1/2'},
                          'verdict': 'violated',
                          'scope': 'sample',
                          'pairs_checked': 3,
                          'violation': {'x': 'a', 'y': 'a', 'lhs': '1/1', 'rhs': '0/1'}},
    'cond_min_holds': {'condition': 'min',
                       'params': {'k': 2},
                       'verdict': 'holds',
                       'scope': 'sample',
                       'pairs_checked': 3,
                       'violation': None},
    'iterate_fixed': {'start': '0/1',
                      'iterates': ['0/1', '-5/1', '-5/1'],
                      'p_steps': ['4/1', '0/1'],
                      'p_selfs': ['3/1', '0/1', '0/1'],
                      'outcome': 'fixed_point',
                      'fixed_point': '-5/1',
                      'cauchy_value': None,
                      'steps': 2,
                      'identified': False},
    'iterate_identified': {'start': '0/1',
                           'iterates': ['0/1',
                                        '1/2',
                                        '3/4',
                                        '7/8',
                                        '15/16',
                                        '31/32',
                                        '63/64',
                                        '127/128',
                                        '255/256',
                                        '511/512'],
                           'p_steps': ['1/2',
                                       '1/4',
                                       '1/8',
                                       '1/16',
                                       '1/32',
                                       '1/64',
                                       '1/128',
                                       '1/256',
                                       '1/512'],
                           'p_selfs': ['0/1',
                                       '0/1',
                                       '0/1',
                                       '0/1',
                                       '0/1',
                                       '0/1',
                                       '0/1',
                                       '0/1',
                                       '0/1',
                                       '0/1'],
                           'outcome': 'fixed_point',
                           'fixed_point': '1/1',
                           'cauchy_value': None,
                           'steps': 9,
                           'identified': True},
    'iterate_cauchy': {'start': '0/1',
                       'iterates': ['0/1',
                                    '1/2',
                                    '3/4',
                                    '7/8',
                                    '15/16',
                                    '31/32',
                                    '63/64',
                                    '127/128',
                                    '255/256',
                                    '511/512'],
                       'p_steps': ['1/2',
                                   '1/4',
                                   '1/8',
                                   '1/16',
                                   '1/32',
                                   '1/64',
                                   '1/128',
                                   '1/256',
                                   '1/512'],
                       'p_selfs': ['0/1',
                                   '0/1',
                                   '0/1',
                                   '0/1',
                                   '0/1',
                                   '0/1',
                                   '0/1',
                                   '0/1',
                                   '0/1',
                                   '0/1'],
                       'outcome': 'certified_cauchy',
                       'fixed_point': None,
                       'cauchy_value': '0/1',
                       'steps': 9,
                       'identified': False},
    'iterate_budget': {'start': '0/1',
                       'iterates': ['0/1', '1/2', '3/4'],
                       'p_steps': ['1/2', '1/4'],
                       'p_selfs': ['0/1', '0/1', '0/1'],
                       'outcome': 'budget_exhausted',
                       'fixed_point': None,
                       'cauchy_value': None,
                       'steps': 2,
                       'identified': False},
    'bottom_fixed': {'status': 'fixed_point',
                     'fixed_point': '1/1',
                     'last': '1/2',
                     'iterations': 2,
                     'condition_report': {'condition': 'max',
                                          'params': {'alpha': '1/2'},
                                          'verdict': 'holds',
                                          'scope': 'sample',
                                          'pairs_checked': 36,
                                          'violation': None},
                     'escape': None,
                     'escape_violation': None,
                     'fixed_points_in_bottom': None,
                     'unique_in_bottom': None},
    'bottom_finite': {'status': 'fixed_point',
                      'fixed_point': 'a',
                      'last': 'a',
                      'iterations': 0,
                      'condition_report': {'condition': 'max',
                                           'params': {'alpha': '1/2'},
                                           'verdict': 'holds',
                                           'scope': 'exhaustive',
                                           'pairs_checked': 3,
                                           'violation': None},
                      'escape': None,
                      'escape_violation': None,
                      'fixed_points_in_bottom': ['a'],
                      'unique_in_bottom': True},
    'bottom_violated': {'status': 'condition_violated',
                        'fixed_point': None,
                        'last': None,
                        'iterations': 0,
                        'condition_report': {'condition': 'max',
                                             'params': {'alpha': '1/2'},
                                             'verdict': 'violated',
                                             'scope': 'exhaustive',
                                             'pairs_checked': 3,
                                             'violation': {'x': 'a',
                                                           'y': 'a',
                                                           'lhs': '1/1',
                                                           'rhs': '0/1'}},
                        'escape': None,
                        'escape_violation': None,
                        'fixed_points_in_bottom': None,
                        'unique_in_bottom': None},
    'order': {'points': ['a', 'b'], 'dominates': [[True, False], [False, True]]},
    'net': {'centers': ['x1', 'x2', 'x3'], 'size': 3, 'eps': '1/2'},
    'property_run': {'spaces_checked': 2,
                     'elapsed_seconds': 0.123,
                     'failures': [{'seed': 7,
                                   'n': 3,
                                   'check': 'axioms',
                                   'detail': "axioms: P3 at ('a', 'b')"}]},
    'fact_fail': {'fact_id': 'x/y',
                  'anchor': 'anchor',
                  'verdict': 'fail',
                  'details': 'why'},
    'fact_suite': {'passed': 6,
                   'failed': 0,
                   'results': [{'fact_id': 'ex5.8/axioms+metadata',
                                'anchor': 'ex5.8: the two-point table is a partial '
                                          'metric',
                                'verdict': 'pass',
                                'details': 'canonical sample passes the axioms; '
                                           'declarations agree with samples'},
                               {'fact_id': 'ex5.8/bottom-a',
                                'anchor': 'ex5.8: a is the only bottom point',
                                'verdict': 'pass',
                                'details': "bottom = ('a',)"},
                               {'fact_id': 'ex5.8/only-constant-a-survives',
                                'anchor': 'ex5.8: the constant map at a is the only '
                                          'max-condition map',
                                'verdict': 'pass',
                                'details': '1 survivors'},
                               {'fact_id': 'ex5.8/derived-values',
                                'anchor': 'ex5.8: p_m(a,b)=3, d(b,b)=0, diameter 2',
                                'verdict': 'pass',
                                'details': '3 checks'},
                               {'fact_id': 'ex5.8/t1-diagonal',
                                'anchor': 'ex5.8: T1 with the diagonal recovered at '
                                          'radius 1',
                                'verdict': 'pass',
                                'details': 't1=True, stabilization=1, diagonal=True'},
                               {'fact_id': 'ex5.8/alternating-pigeonhole',
                                'anchor': 'ex5.8: the alternating sequence yields the '
                                          'constant subsequence at a',
                                'verdict': 'pass',
                                'details': 'kind=constant, limit=a'}]},
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_report_json_is_unchanged(name):
    got = BUILDERS[name]().to_dict()
    assert got == EXPECTED[name]
    assert json.dumps(got) == json.dumps(EXPECTED[name])  # key order included


def test_space_export_is_unchanged():
    got = _sample("ex3.2").to_json_dict()
    want = {"points": ["{}", "{a}", "{b}", "{a,b}", "{c}", "{a,c}", "{b,c}", "{a,b,c}"],
            "p": [["0/1", "1/1", "1/1", "2/1", "1/1", "2/1", "2/1", "3/1"],
                  ["1/1", "1/1", "2/1", "2/1", "2/1", "2/1", "3/1", "3/1"],
                  ["1/1", "2/1", "1/1", "2/1", "2/1", "3/1", "2/1", "3/1"],
                  ["2/1", "2/1", "2/1", "2/1", "3/1", "3/1", "3/1", "3/1"],
                  ["1/1", "2/1", "2/1", "3/1", "1/1", "2/1", "2/1", "3/1"],
                  ["2/1", "2/1", "3/1", "3/1", "2/1", "2/1", "3/1", "3/1"],
                  ["2/1", "3/1", "2/1", "3/1", "2/1", "3/1", "2/1", "3/1"],
                  ["3/1", "3/1", "3/1", "3/1", "3/1", "3/1", "3/1", "3/1"]]}
    assert json.dumps(got) == json.dumps(want)
