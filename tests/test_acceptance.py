"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; stated runtime budgets are asserted inside the tests.
"""

import gc
import itertools
import random
import time
from math import comb as binomial

from helpers import (
    aligned_positions,
    all_colorings,
    binomial_upper_bound,
    coloring_to_assignment,
    emit_dimacs,
    exhaustive_best_shifts,
    has_monochromatic_edge,
    max_aligned_by_enumeration,
    parse_dimacs,
    truth_table_satisfiable,
)
from propb import cli
from propb.construction import Hypergraph, build_full, dedup
from propb.counting import (
    divisors,
    edge_count,
    edge_count_upper_bound,
)
from propb.params import validate_params
from propb.satbridge import assignment_satisfies, dpll_satisfiable, hypergraph_to_cnf
from propb.witness import (
    derandomized_shifts,
    find_proper_coloring,
    majority_profile,
    monochromatic_witness,
    random_coloring,
    select_same_majority,
)


def _report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})", flush=True)


# Closed-form counts evaluated independently with big integers; these are
# the values the built multisets must match exactly.
EXPECTED_COUNTS = {
    (2, 1): 24,
    (3, 1): 120,
    (4, 1): 560,
    (2, 2): 192,
    (4, 2): 5376,
    (6, 2): 95_040,
    (3, 3): 40_960,
    (6, 3): 4_915_200,
}


def test_criterion_1_exact_edge_counts():
    start = time.monotonic()
    for (k, l), expected in sorted(EXPECTED_COUNTS.items()):
        params = validate_params(k, l)
        assert edge_count(params) == expected, (k, l)
        hypergraph = build_full(params)  # default cap 10^7 applies
        assert len(hypergraph.edges) == expected, (k, l)
        del hypergraph
        gc.collect()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _report("criterion 1 (exact edge counts)", f"8 pairs exact, {elapsed:.1f}s")


EXHAUSTIVE_PAIRS = [(2, 1), (3, 1), (2, 2)]


def test_criterion_2_exhaustive_non_2_colorability():
    start = time.monotonic()
    total = 0
    for k, l in EXHAUSTIVE_PAIRS:
        params = validate_params(k, l)
        hypergraph = build_full(params)
        for coloring in all_colorings(params.num_vertices):
            assert has_monochromatic_edge(coloring, hypergraph.edges), (k, l, coloring)
            total += 1
        assert find_proper_coloring(dedup(hypergraph)) is None
    elapsed = time.monotonic() - start
    assert total == 2**4 + 2**6 + 2**12
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.1f}s"
    _report("criterion 2 (exhaustive non-2-colorability)", f"{total} colorings, {elapsed:.1f}s")


def test_criterion_3_dual_cnf_unsatisfiable_by_dpll():
    start = time.monotonic()
    cnf = hypergraph_to_cnf(build_full(validate_params(4, 2)))
    assert cnf.variable_count == 24
    assert len(cnf.clauses) == 10_752
    result_42 = dpll_satisfiable(cnf)
    assert not result_42.satisfiable

    cnf = hypergraph_to_cnf(build_full(validate_params(4, 1)))
    assert cnf.variable_count == 8
    assert len(cnf.clauses) == 1120
    result_41 = dpll_satisfiable(cnf)
    assert not result_41.satisfiable
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s"
    _report(
        "criterion 3 (DPLL unsatisfiability)",
        f"(4,2) in {result_42.decisions} decisions, (4,1) in {result_41.decisions}, {elapsed:.1f}s",
    )


def test_criterion_4_witness_totality():
    start = time.monotonic()
    runs = 0
    for k, l in EXHAUSTIVE_PAIRS:
        params = validate_params(k, l)
        hypergraph = build_full(params)
        for coloring in all_colorings(params.num_vertices):
            witness = monochromatic_witness(params, hypergraph, coloring)
            assert all(coloring[v] == witness.color for v in witness.edge)
            runs += 1
    for k, l in [(4, 2), (6, 2)]:
        params = validate_params(k, l)
        hypergraph = build_full(params)
        rng = random.Random(1000 * k + l)
        for _ in range(10_000):
            coloring = random_coloring(params, rng)
            witness = monochromatic_witness(params, hypergraph, coloring)
            assert all(coloring[v] == witness.color for v in witness.edge)
            assert witness.edge in hypergraph.edge_set
            runs += 1
    elapsed = time.monotonic() - start
    assert runs == 2**4 + 2**6 + 2**12 + 20_000
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    _report("criterion 4 (witness totality)", f"{runs} witnessed colorings, {elapsed:.1f}s")


def test_criterion_5_derandomization_guarantee():
    # Greedy aligned count is at least block_size = k/l and at most the
    # exhaustive maximum; every instance here has seq_len^l <= 10^6.
    start = time.monotonic()
    sweeps = [
        ((2, 1), None),
        ((3, 1), None),
        ((2, 2), None),
        ((4, 2), 300),
        ((6, 2), 200),
        ((3, 3), 100),
        ((6, 3), 25),
    ]
    runs = 0
    for (k, l), samples in sweeps:
        params = validate_params(k, l)
        assert params.seq_len**l <= 10**6
        if samples is None:
            colorings = all_colorings(params.num_vertices)
        else:
            rng = random.Random(17 * k + l)
            colorings = (random_coloring(params, rng) for _ in range(samples))
        for coloring in colorings:
            color, chosen = select_same_majority(params, majority_profile(params, coloring))
            shifts, block = derandomized_shifts(params, coloring, color, chosen)
            greedy = len(aligned_positions(params, coloring, color, chosen, shifts))
            assert len(block) == params.block_size
            assert greedy >= params.block_size, (k, l, coloring)
            _, best = exhaustive_best_shifts(params, coloring, color, chosen)
            assert greedy <= best, (k, l, coloring)
            runs += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 5 (derandomization guarantee)",
        f"{runs} runs, greedy within [k/l, exhaustive max], {elapsed:.1f}s",
    )


def test_criterion_5_oracle_is_independent():
    # exhaustive_best_shifts itself agrees with a from-scratch enumeration
    params = validate_params(4, 2)
    rng = random.Random(3)
    for _ in range(20):
        coloring = random_coloring(params, rng)
        color, chosen = select_same_majority(params, majority_profile(params, coloring))
        _, best = exhaustive_best_shifts(params, coloring, color, chosen)
        assert best == max_aligned_by_enumeration(params, coloring, color, chosen)


def test_criterion_6_bound_inequalities():
    start = time.monotonic()
    pairs = 0
    for k in range(1, 21):
        for l in divisors(k):
            count = edge_count(validate_params(k, l))
            assert edge_count_upper_bound(k, l).certifies_at_most(count), (k, l)
            pairs += 1
    binomials = 0
    for n in range(1, 65):
        for r in range(1, n + 1):
            assert binomial_upper_bound(n, r).certifies_at_most(binomial(n, r)), (n, r)
            binomials += 1
    elapsed = time.monotonic() - start
    assert binomials == 64 * 65 // 2
    _report(
        "criterion 6 (bound inequalities)",
        f"{pairs} (k,l) pairs and {binomials} binomials, zero violations, {elapsed:.1f}s",
    )


def _duality_corpus():
    yield dedup(build_full(validate_params(2, 1)))
    yield dedup(build_full(validate_params(3, 1)))
    yield dedup(build_full(validate_params(2, 2)))  # 12 vertices, 48 edges
    p21 = validate_params(2, 1)
    yield Hypergraph(p21, ((0, 1),))
    yield Hypergraph(p21, ((0, 1), (1, 2), (2, 3), (0, 3)))
    p31 = validate_params(3, 1)
    yield Hypergraph(p31, ((0, 1, 2), (3, 4, 5), (0, 2, 4)))
    rng = random.Random(71)
    for _ in range(4):
        edges = sorted(
            {tuple(sorted(rng.sample(range(6), 3))) for _ in range(rng.randint(2, 8))}
        )
        yield Hypergraph(p31, tuple(edges))


def test_criterion_7_duality():
    start = time.monotonic()
    instances = saw_colorable = saw_uncolorable = 0
    for hypergraph in _duality_corpus():
        assert hypergraph.params.num_vertices <= 12
        cnf = hypergraph_to_cnf(hypergraph)
        proper_exists = False
        for coloring in all_colorings(hypergraph.params.num_vertices):
            proper = not has_monochromatic_edge(coloring, hypergraph.edges)
            satisfied = assignment_satisfies(cnf, coloring_to_assignment(coloring))
            assert proper == satisfied, coloring  # pointwise duality
            proper_exists |= proper
        # existence agreement across four independent deciders
        assert proper_exists == (truth_table_satisfiable(cnf.variable_count, cnf.clauses) is not None)
        assert proper_exists == dpll_satisfiable(cnf).satisfiable
        assert proper_exists == (find_proper_coloring(hypergraph) is not None)
        instances += 1
        saw_colorable += proper_exists
        saw_uncolorable += not proper_exists
    elapsed = time.monotonic() - start
    assert saw_colorable > 0 and saw_uncolorable > 0  # corpus covers both outcomes
    _report(
        "criterion 7 (duality)",
        f"{instances} hypergraphs, pointwise and existence equivalence, {elapsed:.1f}s",
    )


def test_criterion_8_determinism_and_round_trip(capsys):
    start = time.monotonic()
    for argv in [
        ["gen", "--k", "4", "--l", "2", "--format", "edges"],
        ["gen", "--k", "4", "--l", "2", "--format", "dimacs"],
        ["gen", "--k", "2", "--l", "2", "--format", "dimacs", "--dedup"],
    ]:
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second and first

    for k, l in [(2, 2), (4, 1)]:
        cnf = hypergraph_to_cnf(build_full(validate_params(k, l)))
        text = emit_dimacs(cnf)
        assert parse_dimacs(text) == cnf
        assert emit_dimacs(parse_dimacs(text)) == text

    # the gen stream and the in-memory dual emit identical DIMACS
    assert cli.main(["gen", "--k", "2", "--l", "2", "--format", "dimacs"]) == 0
    streamed = capsys.readouterr().out
    assert streamed == emit_dimacs(hypergraph_to_cnf(build_full(validate_params(2, 2))))
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report("criterion 8 (determinism and DIMACS round-trip)", f"{elapsed:.1f}s")
