import hashlib
import io
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DimacsError,
    all_colorings,
    coloring_to_assignment,
    emit_dimacs,
    has_monochromatic_edge,
    parse_dimacs,
    truth_table_satisfiable,
    unit_propagation_closure,
)
from propb import satbridge
from propb.construction import (
    Hypergraph,
    build_full,
    dedup,
    distinct_hypergraph,
    dual_clause_parts,
    dual_dimacs_header,
    edge_line,
    iter_distinct_edges,
    write_edge_list,
)
from propb.params import validate_params
from propb.satbridge import (
    Cnf,
    SolveResult,
    _Dpll,
    assignment_satisfies,
    dpll_satisfiable,
    dual_satisfiable,
    hypergraph_to_cnf,
)
from propb.witness import find_proper_coloring


def test_cnf_validation():
    # Cnf is a plain record; the solver's set-up refuses an invalid clause set.
    assert dpll_satisfiable(Cnf(2, ((1, 2), (-1, -2)))).satisfiable
    invalid = [
        Cnf(2, ((1, 3),)),  # literal out of range
        Cnf(2, ((1, 0),)),  # zero literal
        Cnf(2, ((1, -1),)),  # opposite literals in one clause
        Cnf(-1, ()),
        # Just past the range: a list of bitmaps indexed by literal reads 3 as -2, -3 as +2.
        Cnf(2, ((3,),)),
        Cnf(2, ((-3,),)),
    ]
    for cnf in invalid:
        with pytest.raises(ValueError):
            dpll_satisfiable(cnf)


def test_cnf_compares_by_value():
    cnf = Cnf(2, ((1, 2), (-1, -2)))
    assert cnf == Cnf(2, ((1, 2), (-1, -2)))
    assert cnf != Cnf(3, ((1, 2), (-1, -2)))
    assert cnf != Cnf(2, ((1, 2),))
    assert cnf != Cnf(2, ((-1, -2), (1, 2)))


def test_solve_result_fields_by_keyword():
    result = SolveResult(satisfiable=True, model={1: False}, decisions=3)
    assert (result.satisfiable, result.model, result.decisions) == (True, {1: False}, 3)
    assert result == SolveResult(True, {1: False}, 3)


def test_hypergraph_to_cnf_single_edge():
    p = validate_params(2, 1)
    h = Hypergraph(p, ((0, 1),))
    cnf = hypergraph_to_cnf(h)
    assert cnf.variable_count == 4
    assert cnf.clauses == ((1, 2), (-1, -2))


def test_hypergraph_to_cnf_full_and_empty():
    p = validate_params(2, 1)
    cnf = hypergraph_to_cnf(build_full(p))
    assert cnf.variable_count == 4
    assert len(cnf.clauses) == 48
    # monotone, width k, pairs in edge order
    for plain, negated in zip(cnf.clauses[0::2], cnf.clauses[1::2]):
        assert len(plain) == len(negated) == 2
        assert all(lit > 0 for lit in plain)
        assert negated == tuple(-lit for lit in plain)
    assert hypergraph_to_cnf(Hypergraph(p, ())).clauses == ()


# Unsorted edges too: an edge's first and last vertex need not be its extremes.
@pytest.mark.parametrize("edge", [(-1,), (0, -1), (4,), (4, 0), (1, 4, 2)])
def test_hypergraph_to_cnf_rejects_vertices_out_of_range(edge):
    h = Hypergraph(validate_params(2, 1), ((0, 1), edge, (2, 3)))  # vertices 0..3
    with pytest.raises(ValueError, match=re.escape(str(edge))):
        hypergraph_to_cnf(h)


def _per_literal_cnf(h):
    clauses = []
    for edge in h.edges:
        clauses += [tuple(v + 1 for v in edge), tuple(-(v + 1) for v in edge)]
    return Cnf(h.params.num_vertices, tuple(clauses))


@pytest.mark.parametrize(
    "h",
    [
        distinct_hypergraph(validate_params(3, 3)),
        distinct_hypergraph(validate_params(7, 1)),
        Hypergraph(validate_params(2, 1), ((0, 1), (), (2, 3))),  # an empty edge
        Hypergraph(validate_params(2, 1), ((2, 2), (3, 0, 3))),  # repeated vertices
    ],
    ids=["3-3", "7-1", "empty-edge", "repeated-vertex"],
)
def test_hypergraph_to_cnf_matches_the_checked_construction(h):
    cnf = hypergraph_to_cnf(h)
    assert cnf == _per_literal_cnf(h)
    assert all(type(clause) is tuple for clause in cnf.clauses)


@pytest.mark.parametrize("k,l", [(3, 1), (2, 2), (4, 2)])
def test_dual_clauses_are_monotone_and_k_wide(k, l):
    h = build_full(validate_params(k, l))
    cnf = hypergraph_to_cnf(h)
    assert len(cnf.clauses) == 2 * len(h.edges)
    for clause in cnf.clauses:
        assert len(clause) == k
        assert len({lit > 0 for lit in clause}) == 1  # all plain or all negated


def test_coloring_to_assignment():
    assert coloring_to_assignment("BBBB") == {1: True, 2: True, 3: True, 4: True}
    assert coloring_to_assignment("RRRR") == {1: False, 2: False, 3: False, 4: False}


def test_proper_coloring_satisfies_dual():
    p = validate_params(2, 1)
    h = Hypergraph(p, ((0, 1), (1, 2), (2, 3)))
    cnf = hypergraph_to_cnf(h)
    for coloring in all_colorings(4):
        proper = not has_monochromatic_edge(coloring, h.edges)
        assert proper == assignment_satisfies(cnf, coloring_to_assignment(coloring))


def test_dpll_trivial_cases():
    unsat = Cnf(1, ((1,), (-1,)))
    result = dpll_satisfiable(unsat)
    assert not result.satisfiable and result.model is None

    sat = Cnf(2, ((1, 2), (-1, -2)))
    result = dpll_satisfiable(sat)
    assert result.satisfiable
    assert assignment_satisfies(sat, result.model)

    empty = Cnf(0, ())
    assert dpll_satisfiable(empty).satisfiable

    empty_clause = Cnf(1, ((),))
    assert not dpll_satisfiable(empty_clause).satisfiable


def test_dpll_unsat_on_small_duals():
    for k, l in [(2, 1), (3, 1), (2, 2)]:
        cnf = hypergraph_to_cnf(build_full(validate_params(k, l)))
        assert not dpll_satisfiable(cnf).satisfiable


def test_dpll_repeated_literals():
    # A repeated literal counts once: (1 1) is the unit clause (1).
    assert not dpll_satisfiable(Cnf(1, ((1, 1), (-1,)))).satisfiable
    assert not dpll_satisfiable(parse_dimacs("p cnf 1 2\n1 1 0\n-1 0\n")).satisfiable
    sat = Cnf(2, ((1, 1, -2), (2,)))
    result = dpll_satisfiable(sat)
    assert result.satisfiable and result.model == {1: True, 2: True}
    assert assignment_satisfies(sat, result.model)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_dpll_clauses_are_the_distinct_literal_sets(data):
    # Set-up sorts each clause and calls set() only when some clause repeats
    # a literal; either way its clauses are the distinct literal sets, in order.
    nvars = data.draw(st.integers(1, 5))
    literal = st.integers(1, nvars).flatmap(lambda v: st.sampled_from((v, -v)))
    drawn = data.draw(st.lists(st.lists(literal, max_size=6), max_size=10))
    clauses = [tuple(c) for c in drawn if not any(-u in c for u in c)]
    permuted = [tuple(data.draw(st.permutations(c))) for c in clauses]
    cnf = Cnf(nvars, tuple(clauses + permuted + [c + c[:1] for c in clauses if c]))
    assert _Dpll(cnf).clauses == list(dict.fromkeys(tuple(sorted(set(c))) for c in cnf.clauses))


def test_dpll_agrees_with_truth_table_on_random_cnfs():
    rng = random.Random(2024)
    for _ in range(200):
        nvars = rng.randint(1, 9)
        nclauses = rng.randint(0, 18)
        clauses = []
        for _ in range(nclauses):
            width = rng.randint(1, min(4, nvars))
            variables = rng.sample(range(1, nvars + 1), width)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
        cnf = Cnf(nvars, tuple(clauses))
        expected = truth_table_satisfiable(nvars, clauses) is not None
        result = dpll_satisfiable(cnf)
        assert result.satisfiable == expected
        if result.satisfiable:
            assert assignment_satisfies(cnf, result.model)


def _golden_cnfs():
    # Clause widths 1-5 with distinct variables; a third of the CNFs lean
    # positive, so pure literals and unit clauses both drive the search.
    rng = random.Random(7)
    for _ in range(500):
        nvars = rng.randint(3, 40)
        narrowest = 1 if rng.random() < 0.3 else 2
        positive = rng.choice((0.5, 0.5, 0.75))
        clauses = []
        for _ in range(rng.randint(2 * nvars, 6 * nvars)):
            width = min(rng.choice((narrowest, 3, 3, 3, 4, 5)), nvars)
            variables = rng.sample(range(1, nvars + 1), width)
            clauses.append(tuple(v if rng.random() < positive else -v for v in variables))
        yield Cnf(nvars, tuple(clauses))


# SHA-256 over (satisfiable, decisions, sorted model) of every golden CNF.
# It pins the search tree itself: the branching variable, its polarity order
# and the pure-literal choices, which `solve` reports through its decision
# count.  The truth-table test above checks only the verdict.
GOLDEN_DIGEST = "8d913e254ea3a477ff9c2d368445346079d2c7a195c5756b86561eca5bdbec7b"


def test_dpll_search_tree_is_pinned():
    digest = hashlib.sha256()
    for cnf in _golden_cnfs():
        result = dpll_satisfiable(cnf)
        model = sorted(result.model.items()) if result.satisfiable else None
        digest.update(repr((result.satisfiable, result.decisions, model)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_dpll_pure_literal_shortcut():
    # all-positive clauses: every variable is pure, no decisions needed
    cnf = Cnf(3, ((1, 2), (2, 3), (1, 3)))
    result = dpll_satisfiable(cnf)
    assert result.satisfiable
    assert result.decisions == 0


def test_dpll_search_depth_is_not_bounded_by_recursion():
    # 1200 independent pairs x != y: each takes its own decision, nested one
    # below the other, deeper than Python's default recursion limit of 1000.
    clauses = []
    for i in range(1200):
        x, y = 2 * i + 1, 2 * i + 2
        clauses += [(x, y), (-x, -y)]
    cnf = Cnf(2400, tuple(clauses))
    result = dpll_satisfiable(cnf)
    assert result.satisfiable and result.decisions == 1200
    assert assignment_satisfies(cnf, result.model)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from Linux /proc")
def test_dpll_open_decisions_hold_one_byte_per_variable():
    # The same 1200 nested decisions over 2400 variables: each open decision
    # keeps its own copy of the values, 1200 copies at the deepest point.
    # At one byte a value they take about 3 MB; at a pointer a value, 23 MB.
    # The peak is read in a fresh interpreter, before and after the solve.
    script = """
from propb.satbridge import Cnf, dpll_satisfiable

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

clauses = []
for i in range(1200):
    clauses += [(2 * i + 1, 2 * i + 2), (-2 * i - 1, -2 * i - 2)]
cnf = Cnf(2400, tuple(clauses))
before = peak_kb()
assert dpll_satisfiable(cnf).decisions == 1200
print(peak_kb() - before)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(Path(satbridge.__file__).parents[1])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 12_000  # kB


def test_dpll_unsat_search_tree_is_complete(monkeypatch):
    # On an UNSAT CNF both branches of every decision end in conflicts, so
    # the tree has one conflict leaf more than it has decisions.
    conflicts = 0
    propagate = _Dpll._propagate

    def counting(self, lit):
        nonlocal conflicts
        branch = propagate(self, lit)
        conflicts += branch is None
        return branch

    monkeypatch.setattr(_Dpll, "_propagate", counting)
    duals = [
        (hypergraph_to_cnf(distinct_hypergraph(validate_params(k, l))), expected)
        for k, l, expected in [(2, 2, 2), (4, 1, 20), (4, 2, 88), (3, 3, 528), (7, 1, 924)]
    ]
    golden = [(cnf, None) for cnf in _golden_cnfs()]
    unsat = 0
    for cnf, expected in duals + golden:
        conflicts = 0
        result = dpll_satisfiable(cnf)
        assert expected is None or not result.satisfiable
        if not result.satisfiable:
            unsat += 1
            assert conflicts == result.decisions + 1
            assert expected in (None, conflicts)
    assert unsat == len(duals) + 201  # 201 of the 500 golden CNFs are UNSAT


# Set-up of the deduplicated duals `solve --dedup` decides, as before the
# one-pass set-up: distinct clauses and count planes (clause widths 3, 4, 7).
@pytest.mark.parametrize("k,l,clauses,planes", [(3, 3, 10240, 2), (4, 2, 1248, 3), (7, 1, 6864, 3)])
def test_dpll_setup_on_real_duals(k, l, clauses, planes):
    solver = _Dpll(hypergraph_to_cnf(distinct_hypergraph(validate_params(k, l))))
    assert (len(solver.clauses), len(solver.planes)) == (clauses, planes)


def test_each_literal_of_a_dual_is_one_object():
    # 40 variables, 10,240 clauses of width 3: one int object per literal,
    # not one per occurrence.
    cnf = hypergraph_to_cnf(distinct_hypergraph(validate_params(3, 3)))
    assert len({id(lit) for clause in cnf.clauses for lit in clause}) == 80


def test_dpll_setup_on_the_6_2_dual_stays_small():
    # The set-up keeps each already sorted clause, and every literal is one
    # object: a peak of about 3.0 MB, and 5.0 MB if each negated literal and
    # each sorted clause is a new object (CPython 3.11).
    tracemalloc.start()
    try:
        _Dpll(hypergraph_to_cnf(distinct_hypergraph(validate_params(6, 2))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.6e6


DUAL_SHAPES = [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1), (2, 2), (4, 2), (3, 3), (6, 2)]


def _dual(p):
    return _Dpll.dual(p.num_vertices, p.k, iter_distinct_edges(p))


@pytest.mark.parametrize("k,l", DUAL_SHAPES, ids=[f"{k}-{l}" for k, l in DUAL_SHAPES])
def test_dual_setup_equals_the_cnf_setup(k, l):
    # The set-up from the edge stream against the one from the dual Cnf: the
    # same masks, planes, scores, clause signs and so the same search.
    p = validate_params(k, l)
    cnf_solver, dual_solver = _Dpll(hypergraph_to_cnf(distinct_hypergraph(p))), _dual(p)
    for name in ("pos", "neg", "planes", "static", "unsat"):
        assert getattr(dual_solver, name) == getattr(cnf_solver, name), name
    assert len(dual_solver.clauses) == len(cnf_solver.clauses) == len(dual_solver.polarity)
    assert cnf_solver.polarity == bytes(len(cnf_solver.clauses))
    for ci, clause in enumerate(cnf_solver.clauses):
        sign = -1 if dual_solver.polarity[ci] else 1
        assert {sign * v for v in dual_solver.clauses[ci]} == set(clause)
    assert dual_solver.clauses[0::2] == dual_solver.clauses[1::2]  # one tuple per edge
    assert all(a is b for a, b in zip(dual_solver.clauses[0::2], dual_solver.clauses[1::2]))
    assert (dual_solver._search(), dual_solver.decisions) == (cnf_solver._search(), cnf_solver.decisions)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dual_setup_searches_as_the_cnf_setup_on_random_edge_sets(data):
    # Satisfiable duals too: the same search, and the same model, either way.
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, min(n, 4)))
    edge = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True).map(lambda e: tuple(sorted(e)))
    edges = sorted(set(data.draw(st.lists(edge, max_size=24))))
    clauses = [c for e in edges for c in (tuple(v + 1 for v in e), tuple(-v - 1 for v in e))]
    cnf_solver, dual_solver = _Dpll(Cnf(n, tuple(clauses))), _Dpll.dual(n, k, iter(edges))
    assert (dual_solver.pos, dual_solver.neg, dual_solver.planes) == (cnf_solver.pos, cnf_solver.neg, cnf_solver.planes)
    assert (dual_solver._search(), dual_solver.decisions) == (cnf_solver._search(), cnf_solver.decisions)
    assert dual_solver.value == cnf_solver.value


# Four vertices, k = 2.  Each guard is the only one that rejects its cases.
@pytest.mark.parametrize(
    "edges",
    [[(0, 1), (0, 1)], [(1, 2), (0, 1)], [(1, 0)], [(0, 1), (3, 2)]],
    ids=["repeated", "descending", "unsorted", "unsorted-later"],
)
def test_dual_setup_refuses_edges_out_of_order(edges):
    with pytest.raises(ValueError, match="is unsorted or not above the edge before it"):
        _Dpll.dual(4, 2, edges)


@pytest.mark.parametrize("edges", [[(0, 4)], [(0, 1), (2, 7)], [(-1, 0)]], ids=["n", "later", "negative"])
def test_dual_setup_refuses_vertices_out_of_range(edges):
    with pytest.raises(ValueError, match=r"is outside 0\.\.3"):
        _Dpll.dual(4, 2, edges)


# (0, 1, 2) and (3,) hold four vertices between them, as two 2-wide edges do.
@pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0,)], [(0, 1, 2), (3,)]], ids=["wide", "narrow", "wide-narrow"])
def test_dual_setup_refuses_edges_of_another_width(edges):
    with pytest.raises(ValueError, match="does not have 2 vertices"):
        _Dpll.dual(4, 2, edges)


@pytest.mark.parametrize("edges", [[(0, 0)], [(0, 1), (2, 2)]], ids=["first", "later"])
def test_dual_setup_refuses_a_repeated_vertex(edges):
    with pytest.raises(ValueError, match=r"edge \((0, 0|2, 2)\) repeats a vertex"):
        _Dpll.dual(4, 2, edges)


def test_dpll_satisfiable_checks_a_claimed_model_against_the_cnf(monkeypatch):
    # A search that claims a model, all variables unset and so all false,
    # which falsifies the clause (1 2): the check refuses it.
    monkeypatch.setattr(_Dpll, "_search", lambda self: True)
    with pytest.raises(AssertionError, match="^solver produced a non-satisfying model$"):
        dpll_satisfiable(Cnf(2, ((1, 2),)))


def test_dual_satisfiable_checks_a_claimed_model_against_the_edges(monkeypatch):
    # A search that claims a model, all variables unset and so all false:
    # every edge is one color, and the check refuses it.
    monkeypatch.setattr(_Dpll, "_search", lambda self: True)
    with pytest.raises(AssertionError, match="non-satisfying model"):
        dual_satisfiable(validate_params(3, 3))


def test_dual_satisfiable_returns_a_checked_model(monkeypatch):
    # A 2-colorable edge set in place of the construction: the model returned
    # colors each edge both ways.
    edges = [(0, 1), (1, 2), (2, 3)]
    monkeypatch.setattr(satbridge, "iter_distinct_edges", lambda params: iter(edges))
    result = dual_satisfiable(validate_params(2, 1))
    assert result.satisfiable
    assert all(result.model[u + 1] != result.model[v + 1] for u, v in edges)


def test_solving_the_6_2_dual_from_the_edge_stream_stays_small():
    # The edge stream's set-up holds one variable tuple per edge, and no
    # Hypergraph or Cnf: a peak of about 1.2 MB through the search, where the
    # Cnf path peaks near 3.0 MB (CPython 3.11).
    p = validate_params(6, 2)
    tracemalloc.start()
    try:
        assert not dual_satisfiable(p).satisfiable
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6e6


def _counts(solver):
    """Each clause's count of literals not yet false, decoded from the planes."""
    return [
        sum((plane >> ci & 1) << j for j, plane in enumerate(solver.planes))
        for ci in range(len(solver.clauses))
    ]


@st.composite
def _cnfs_with_repeats(draw):
    # Each clause fixes one sign per variable, so repeated literals, duplicate
    # clauses and empty clauses occur but complementary pairs do not.
    nvars = draw(st.integers(1, 6))
    clauses = []
    for _ in range(draw(st.integers(0, 12))):
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=nvars, max_size=nvars))
        variables = draw(st.lists(st.integers(1, nvars), max_size=5))
        clauses.append(tuple(signs[v - 1] * v for v in variables))
    return Cnf(nvars, tuple(clauses))


@settings(max_examples=300, deadline=None)
@given(cnf=_cnfs_with_repeats(), data=st.data())
def test_dpll_bit_sliced_counts_match_a_recount(cnf, data):
    solver = _Dpll(cnf)
    n = cnf.variable_count
    assert _counts(solver) == [len(clause) for clause in solver.clauses]
    assert solver.unsat == (1 << len(solver.clauses)) - 1
    for v in range(n + 1):
        assert solver.pos[v] & solver.neg[v] == 0
        holding = [ci for ci, clause in enumerate(solver.clauses) if v in clause or -v in clause]
        assert solver.static[v] == len(holding)
    lit = 0
    while True:
        branch = solver._propagate(lit)
        value = solver.value
        truth = [[value[abs(u)] * (1 if u > 0 else -1) for u in clause] for clause in solver.clauses]
        if branch is None:  # a real conflict: some clause has every literal false
            assert any(all(t == -1 for t in clause) for clause in truth)
            break
        counts = _counts(solver)
        for ci, clause in enumerate(truth):
            assert (solver.unsat >> ci & 1) == (1 not in clause)
            if 1 not in clause:
                assert counts[ci] == clause.count(0)
        free = [v for v in range(1, n + 1) if not value[v]]
        if not free:
            break
        lit = data.draw(st.sampled_from(free)) * data.draw(st.sampled_from((1, -1)))


@settings(max_examples=300, deadline=None)
@given(cnf=_cnfs_with_repeats(), data=st.data())
def test_dpll_propagation_reaches_the_closure_of_the_oracle(cnf, data):
    # The solver takes the highest unit clause first, the oracle the first in
    # clause order; both must reach the same closure, or both a conflict.
    if cnf.clauses:  # duplicate clauses, in any order
        cnf = Cnf(cnf.variable_count, cnf.clauses + tuple(data.draw(st.lists(st.sampled_from(cnf.clauses)))))
    solver = _Dpll(cnf)
    n, assignment, lit = cnf.variable_count, {}, 0
    while True:
        expected = unit_propagation_closure(cnf.clauses, assignment, lit)
        branch = solver._propagate(lit)
        assert (branch is None) == (expected is None)
        if expected is None:
            break
        assignment = {v: solver.value[v] > 0 for v in range(1, n + 1) if solver.value[v]}
        assert assignment == expected
        free = [v for v in range(1, n + 1) if v not in assignment]
        if not free:
            break
        lit = data.draw(st.sampled_from(free)) * data.draw(st.sampled_from((1, -1)))


def test_emit_dimacs_examples():
    assert emit_dimacs(Cnf(2, ((1, 2), (-1, -2)))) == "p cnf 2 2\n1 2 0\n-1 -2 0\n"
    assert emit_dimacs(Cnf(0, ())) == "p cnf 0 0\n"
    text = emit_dimacs(hypergraph_to_cnf(build_full(validate_params(2, 1))))
    assert text.startswith("p cnf 4 48\n")


def _streamed(writer, h):
    out = io.StringIO()
    writer(out, h.params, iter(h.edges), len(h.edges))
    return out.getvalue()


@pytest.mark.parametrize("dedup_edges", [False, True])
@pytest.mark.parametrize("pair", [(2, 1), (3, 1), (2, 2), (4, 2), (3, 3), None])
def test_streaming_writers_share_the_edge_line(pair, dedup_edges):
    # pair None: a hypergraph with no edges
    h = Hypergraph(validate_params(2, 1), ()) if pair is None else build_full(validate_params(*pair))
    if dedup_edges:
        h = dedup(h)
    # One edge per chunk, its only block the last, written as gen writes its chunks.
    out = io.StringIO()
    chunks = ("".join(dual_clause_parts(edge_line(edge), True)) for edge in h.edges)
    out.write(dual_dimacs_header(h.params, len(h.edges)) + "\n")
    out.writelines(chunks)
    assert out.getvalue() == emit_dimacs(hypergraph_to_cnf(h))
    lines = _streamed(write_edge_list, h).splitlines()
    assert len(lines) == len(h.edges) + 1
    assert lines[1:] == [edge_line(edge) for edge in h.edges]


def test_dimacs_round_trip():
    cnf = hypergraph_to_cnf(build_full(validate_params(2, 2)))
    text = emit_dimacs(cnf)
    parsed = parse_dimacs(text)
    assert parsed == cnf
    assert emit_dimacs(parsed) == text


def test_parse_dimacs_tolerates_comments_and_layout():
    text = "c a comment\nc another\np cnf 3 2\n1 -2\n3 0 2 3 0\n"
    cnf = parse_dimacs(text)
    assert cnf == Cnf(3, ((1, -2, 3), (2, 3)))


@pytest.mark.parametrize(
    "text",
    [
        "1 2 0\n",  # clause before header
        "p cnf x 2\n1 0\n-1 0\n",  # bad counts
        "p cnf 2 2\n1 0\n",  # clause count mismatch
        "p cnf 2 1\n1 2\n",  # unterminated clause
        "p cnf 2 1\n1 -1 0\n",  # opposite literals
        "p cnf 1 1\n2 0\n",  # literal out of range
        "p cnf 2 1\np cnf 2 1\n1 0\n",  # duplicate header
        "",  # missing header
    ],
)
def test_parse_dimacs_rejects_malformed(text):
    with pytest.raises(DimacsError):
        parse_dimacs(text)


def test_duality_pointwise_on_small_instances():
    # proper(coloring) <=> assignment satisfies the dual, coloring by coloring
    rng = random.Random(5)
    instances = [dedup(build_full(validate_params(2, 1)))]
    p = validate_params(2, 1)
    for _ in range(6):
        edges = sorted(
            {
                tuple(sorted(rng.sample(range(4), 2)))
                for _ in range(rng.randint(1, 5))
            }
        )
        instances.append(Hypergraph(p, tuple(edges)))
    for h in instances:
        cnf = hypergraph_to_cnf(h)
        found_proper = False
        for coloring in all_colorings(h.params.num_vertices):
            proper = not has_monochromatic_edge(coloring, h.edges)
            found_proper |= proper
            assert proper == assignment_satisfies(cnf, coloring_to_assignment(coloring))
        assert found_proper == dpll_satisfiable(cnf).satisfiable
        assert found_proper == (find_proper_coloring(h) is not None)
