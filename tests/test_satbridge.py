import io
import random

import pytest

from helpers import all_colorings, has_monochromatic_edge, truth_table_satisfiable
from propb.construction import Hypergraph, build_full, dedup, edge_line, write_edge_list
from propb.params import validate_params
from propb.satbridge import (
    Cnf,
    DimacsError,
    assignment_satisfies,
    coloring_to_assignment,
    dpll_satisfiable,
    emit_dimacs,
    hypergraph_to_cnf,
    parse_dimacs,
    write_dual_dimacs,
)
from propb.witness import find_proper_coloring


def test_cnf_validation():
    Cnf(2, ((1, 2), (-1, -2)))
    with pytest.raises(ValueError):
        Cnf(2, ((1, 3),))  # literal out of range
    with pytest.raises(ValueError):
        Cnf(2, ((1, 0),))  # zero literal
    with pytest.raises(ValueError):
        Cnf(2, ((1, -1),))  # opposite literals in one clause
    with pytest.raises(ValueError):
        Cnf(-1, ())


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
    assert _streamed(write_dual_dimacs, h) == emit_dimacs(hypergraph_to_cnf(h))
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
        for coloring in all_colorings(h.vertex_count):
            proper = not has_monochromatic_edge(coloring, h.edges)
            found_proper |= proper
            assert proper == assignment_satisfies(cnf, coloring_to_assignment(coloring))
        assert found_proper == dpll_satisfiable(cnf).satisfiable
        assert found_proper == (find_proper_coloring(h) is not None)
