import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import (
    aligned_positions,
    all_colorings,
    conditional_expectation,
    exhaustive_best_shifts,
    has_monochromatic_edge,
    max_aligned_by_enumeration,
)
from propb.construction import build_full, dedup, distinct_hypergraph, Hypergraph
from propb.params import ParameterError, validate_params
from propb.satbridge import dpll_satisfiable, hypergraph_to_cnf
from propb.witness import (
    BLUE,
    RED,
    MajorityProfile,
    Witness,
    derandomized_shifts,
    find_proper_coloring,
    find_witness,
    majority_profile,
    monochromatic_witness,
    parse_coloring,
    random_coloring,
    select_same_majority,
)


def test_coloring_validation():
    p = validate_params(2, 1)
    assert parse_coloring(p, "RRBB\n") == "RRBB"
    with pytest.raises(ParameterError, match="has 3 entries"):
        parse_coloring(p, "RRB")  # partial
    with pytest.raises(ParameterError, match="invalid colors"):
        parse_coloring(p, "RRBX")
    with pytest.raises(ParameterError, match="has 5 entries"):
        majority_profile(p, "RRBBB")


def test_majority_profile_all_red():
    p = validate_params(2, 2)
    prof = majority_profile(p, RED * 12)
    assert prof.red_counts == (4, 4, 4)
    assert prof.blue_counts == (0, 0, 0)
    assert prof.red_majority == (True, True, True)
    assert prof.blue_majority == (False, False, False)


def test_majority_profile_tie_sets_both_flags():
    p = validate_params(2, 1)  # one sequence of 4
    prof = majority_profile(p, "RRBB")
    assert prof.red_counts == (2,) and prof.blue_counts == (2,)
    assert prof.red_majority == (True,)
    assert prof.blue_majority == (True,)


def test_majority_profile_minority():
    p = validate_params(2, 1)
    prof = majority_profile(p, "RBBB")
    assert prof.red_majority == (False,)
    assert prof.blue_majority == (True,)


def test_majority_profile_invariants_on_random_colorings():
    p = validate_params(4, 2)
    rng = random.Random(31)
    for _ in range(100):
        prof = majority_profile(p, random_coloring(p, rng))
        for seq in range(p.num_sequences):
            red, blue = prof.red_counts[seq], prof.blue_counts[seq]
            assert red + blue == p.seq_len
            assert prof.red_majority[seq] or prof.blue_majority[seq]
            both = prof.red_majority[seq] and prof.blue_majority[seq]
            assert both == (red == blue)


def test_select_same_majority_forced_by_pigeonhole():
    p = validate_params(2, 2)  # l=2, three sequences
    prof = MajorityProfile(
        red_counts=(3, 1, 3),
        blue_counts=(1, 3, 1),
        red_majority=(True, False, True),
        blue_majority=(False, True, False),
    )
    assert select_same_majority(p, prof) == (RED, (0, 2))


def test_witness_and_majority_profile_fields_by_keyword():
    prof = MajorityProfile(red_counts=(3,), blue_counts=(1,), red_majority=(True,), blue_majority=(False,))
    assert prof == majority_profile(validate_params(2, 1), "RRBR")
    assert (prof.red_counts, prof.blue_majority) == ((3,), (False,))
    w = Witness(color=RED, chosen_seqs=(0, 2), shifts=(1, 0), positions=(0, 1), edge=(1, 2, 16, 17))
    assert (w.color, w.chosen_seqs, w.shifts, w.positions, w.edge) == (RED, (0, 2), (1, 0), (0, 1), (1, 2, 16, 17))
    assert w == Witness(RED, (0, 2), (1, 0), (0, 1), (1, 2, 16, 17))


def test_select_same_majority_single_sequence():
    p = validate_params(2, 1)
    prof = majority_profile(p, "BBBR")
    assert select_same_majority(p, prof) == (BLUE, (0,))


def test_select_same_majority_tie_breaks():
    p = validate_params(2, 2)
    # flags: sequence 0 ties (both colors), 1 and 2 are blue-only.
    prof = MajorityProfile(
        red_counts=(2, 1, 1),
        blue_counts=(2, 3, 3),
        red_majority=(True, False, False),
        blue_majority=(True, True, True),
    )
    assert select_same_majority(p, prof) == (BLUE, (0, 1))
    # equal flag counts prefer red
    prof = MajorityProfile(
        red_counts=(3, 1, 2),
        blue_counts=(1, 3, 2),
        red_majority=(True, False, True),
        blue_majority=(False, True, True),
    )
    assert select_same_majority(p, prof) == (RED, (0, 2))


def test_conditional_expectation_half_colored_start():
    # Every sequence exactly half red: the j=0 expectation is block_size.
    p = validate_params(4, 2)  # seq_len 8
    coloring = ("RRRRBBBB" * 3)
    value = conditional_expectation(p, coloring, RED, (0, 1), ())
    assert value == Fraction(p.seq_len, 2**p.l) == p.block_size


def test_conditional_expectation_all_same_color():
    p = validate_params(4, 2)
    assert conditional_expectation(p, RED * 24, RED, (0, 1), ()) == p.seq_len


def test_conditional_expectation_full_prefix_is_exact_count():
    p = validate_params(4, 2)
    rng = random.Random(7)
    for _ in range(25):
        coloring = random_coloring(p, rng)
        shifts = (rng.randrange(8), rng.randrange(8))
        value = conditional_expectation(p, coloring, BLUE, (0, 2), shifts)
        count = len(aligned_positions(p, coloring, BLUE, (0, 2), shifts))
        assert value == count


def test_conditional_expectation_input_checks():
    p = validate_params(2, 1)
    with pytest.raises(ValueError):
        conditional_expectation(p, "RRBB", "G", (0,), ())
    with pytest.raises(ValueError):
        conditional_expectation(p, "RRBB", RED, (0,), (0, 1))
    with pytest.raises(IndexError):
        conditional_expectation(p, "RRBB", RED, (0,), (7,))


def test_derandomized_shifts_all_same_color():
    p = validate_params(4, 2)
    shifts, block = derandomized_shifts(p, BLUE * 24, BLUE, (0, 1))
    assert shifts == (0, 0)
    assert block == (0, 1)


def test_derandomized_shifts_half_sequence():
    p = validate_params(2, 1)
    shifts, block = derandomized_shifts(p, "RRBB", RED, (0,))
    assert shifts == (0,)
    assert block == (0, 1)


def test_derandomized_shifts_requires_majority():
    p = validate_params(2, 1)
    with pytest.raises(ValueError, match="has only"):
        derandomized_shifts(p, "RBBB", RED, (0,))


def test_derandomized_shifts_rejects_negative_sequences():
    p = validate_params(2, 2)
    with pytest.raises(ValueError):
        derandomized_shifts(p, "BBBBRRRRBBBB", RED, (-2, 1))


def test_derandomized_shifts_rejects_repeated_sequences():
    p = validate_params(2, 2)
    with pytest.raises(ValueError):
        derandomized_shifts(p, "BBBBRRRRBBBB", RED, (1, 1))


@pytest.mark.parametrize("k,l", [(2, 1), (2, 2), (4, 2), (3, 3)])
def test_greedy_never_below_guarantee_and_never_above_oracle(k, l):
    p = validate_params(k, l)
    rng = random.Random(100 * k + l)
    tested = 0
    while tested < 40:
        coloring = random_coloring(p, rng)
        profile = majority_profile(p, coloring)
        color, chosen = select_same_majority(p, profile)
        shifts, block = derandomized_shifts(p, coloring, color, chosen)
        aligned = aligned_positions(p, coloring, color, chosen, shifts)
        assert block == aligned[: p.block_size]
        assert len(aligned) >= p.block_size
        best_shifts, best = exhaustive_best_shifts(p, coloring, color, chosen)
        assert len(aligned) <= best
        assert best == max_aligned_by_enumeration(p, coloring, color, chosen)
        assert len(aligned_positions(p, coloring, color, chosen, best_shifts)) == best
        tested += 1


@pytest.mark.parametrize("k,l", [(2, 2), (4, 2), (3, 3), (8, 2), (16, 4), (40, 2)])
def test_greedy_step_dominance(k, l):
    # Each greedy choice maximizes the exact conditional expectation, which
    # therefore never decreases along the prefix chain.
    p = validate_params(k, l)
    rng = random.Random(9 * k + l)
    for _ in range(15):
        coloring = random_coloring(p, rng)
        color, chosen = select_same_majority(p, majority_profile(p, coloring))
        shifts, _ = derandomized_shifts(p, coloring, color, chosen)
        previous = conditional_expectation(p, coloring, color, chosen, ())
        assert previous >= p.block_size
        for j in range(1, p.l + 1):
            prefix = shifts[:j]
            current = conditional_expectation(p, coloring, color, chosen, prefix)
            assert current >= previous
            candidates = [
                conditional_expectation(p, coloring, color, chosen, prefix[:-1] + (i,))
                for i in range(p.seq_len)
            ]
            assert current == max(candidates)
            assert prefix[-1] == candidates.index(max(candidates))  # smallest maximizer
            previous = current
        assert previous == len(aligned_positions(p, coloring, color, chosen, shifts))


def test_witness_all_red_small():
    p = validate_params(2, 1)
    h = build_full(p)
    w = monochromatic_witness(p, h, RED * 4)
    assert w.color == RED
    assert w.edge == (0, 1)
    assert w.chosen_seqs == (0,) and w.shifts == (0,) and w.positions == (0, 1)


def test_witness_crosses_the_majority_sequences():
    p = validate_params(2, 2)
    h = build_full(p)
    # sequences 0 and 2 strongly red, sequence 1 strongly blue
    coloring = "RRRR" + "BBBB" + "RRRR"
    w = monochromatic_witness(p, h, coloring)
    assert w.color == RED
    assert w.chosen_seqs == (0, 2)
    assert {v // p.seq_len for v in w.edge} == {0, 2}
    assert all(coloring[v] == RED for v in w.edge)


def test_witness_total_on_every_coloring_of_smallest_instance():
    p = validate_params(2, 1)
    h = build_full(p)
    for coloring in all_colorings(p.num_vertices):
        w = monochromatic_witness(p, h, coloring)
        assert all(coloring[v] == w.color for v in w.edge)
        assert w.edge in h.edge_set


def test_witness_random_sweep():
    p = validate_params(4, 2)
    h = build_full(p)
    rng = random.Random(424)
    for _ in range(300):
        coloring = random_coloring(p, rng)
        w = monochromatic_witness(p, h, coloring)
        assert all(coloring[v] == w.color for v in w.edge)


@pytest.mark.parametrize("k,l", [(2, 1), (4, 2), (3, 3), (6, 2), (64, 4)])
def test_witness_edge_is_cut_out_by_its_reported_ingredients(k, l):
    # `witness` prints the sequences, shifts and positions next to the edge,
    # and an outside checker rebuilds the edge from those three lines.
    p = validate_params(k, l)
    kp = p.seq_len
    rng = random.Random(70 * k + l)
    for _ in range(10):
        coloring = random_coloring(p, rng)
        w = find_witness(p, coloring)
        assert len(w.chosen_seqs) == l and list(w.chosen_seqs) == sorted(set(w.chosen_seqs))
        assert all(0 <= seq < p.num_sequences for seq in w.chosen_seqs)
        assert len(w.shifts) == l and all(0 <= shift < kp for shift in w.shifts)
        assert len(set(w.positions)) == p.block_size and all(0 <= r < kp for r in w.positions)
        vertices = set()
        for seq, shift in zip(w.chosen_seqs, w.shifts):
            vertices |= {seq * kp + (r + shift) % kp for r in w.positions}
        assert len(vertices) == k and w.edge == tuple(sorted(vertices))
        assert all(coloring[v] == w.color for v in w.edge)


def test_color_swap_symmetry():
    p = validate_params(4, 2)
    h = build_full(p)
    rng = random.Random(11)
    strict_seen = 0
    while strict_seen < 50:
        coloring = random_coloring(p, rng)
        profile = majority_profile(p, coloring)
        if sum(profile.red_majority) == sum(profile.blue_majority):
            # A perfect flag tie picks red for both the coloring and its
            # swap, so only strict profiles are swap-equivariant.
            continue
        strict_seen += 1
        w = monochromatic_witness(p, h, coloring)
        w_swapped = monochromatic_witness(p, h, coloring.translate(str.maketrans("RB", "BR")))
        assert w_swapped.color != w.color
        assert w_swapped.chosen_seqs == w.chosen_seqs
        assert w_swapped.shifts == w.shifts
        assert w_swapped.positions == w.positions
        assert w_swapped.edge == w.edge


def test_find_proper_coloring_on_colorable_hypergraph():
    p = validate_params(2, 1)
    single_edge = Hypergraph(p, ((0, 1),))
    coloring = find_proper_coloring(single_edge)
    assert coloring is not None
    assert not has_monochromatic_edge(coloring, single_edge.edges)


def test_find_proper_coloring_none_for_construction():
    for k, l in [(2, 1), (3, 1), (2, 2)]:
        p = validate_params(k, l)
        assert find_proper_coloring(dedup(build_full(p))) is None


def test_find_proper_coloring_respects_vertex_limit():
    p = validate_params(6, 2)  # 36 vertices
    with pytest.raises(ValueError):
        find_proper_coloring(Hypergraph(p, ()))


def test_find_proper_coloring_takes_each_edge_as_its_vertex_set():
    p = validate_params(1, 1)  # 2 vertices
    h = Hypergraph(p, ((0, 0, 1),))
    assert dpll_satisfiable(hypergraph_to_cnf(h)).satisfiable
    coloring = find_proper_coloring(h)
    assert coloring is not None and sorted(coloring) == [BLUE, RED]


@pytest.mark.parametrize("edge", [(0, 2), (-1, 1)])
def test_find_proper_coloring_rejects_vertices_outside_the_universe(edge):
    p = validate_params(1, 1)  # 2 vertices
    with pytest.raises(ValueError):
        find_proper_coloring(Hypergraph(p, (edge,)))


def test_find_proper_coloring_checks_every_vertex_before_an_empty_edge_decides():
    p = validate_params(1, 1)  # 2 vertices
    with pytest.raises(ValueError):
        find_proper_coloring(Hypergraph(p, ((), (0, 5))))


def _universe(n):
    # A Params holds no free vertex count; num_vertices is all find_proper_coloring reads.
    return SimpleNamespace(num_vertices=n)


def _proper_exists(n, edges):
    return any(not has_monochromatic_edge(coloring, edges) for coloring in all_colorings(n))


def test_find_proper_coloring_agrees_with_brute_force():
    rng = random.Random(2024)
    cases = [
        (0, ()),
        (0, ((),)),
        (3, ((0, 1), ())),
        (3, ((1,),)),
        (3, ((0, 1), (1, 2), (0, 2))),
        (4, ((0, 1), (1, 2), (0, 2))),
        (2, ((0, 0, 1),)),
        (2, ((1, 1),)),
        (5, ((0, 1, 2), (2, 3, 4), (0, 4))),
    ]
    for _ in range(300):
        n = rng.randint(1, 10)
        edges = tuple(
            tuple(rng.choices(range(n), k=rng.randint(1, 4))) for _ in range(rng.randint(0, 14))
        )
        cases.append((n, edges))
    outcomes = set()
    for n, edges in cases:
        exists = _proper_exists(n, edges)
        # Each hypergraph again, its edges shuffled and one repeated: the
        # search numbers the edges in any order.
        shuffled = [*edges, *rng.sample(edges, min(1, len(edges)))]
        rng.shuffle(shuffled)
        for given in edges, tuple(shuffled):
            coloring = find_proper_coloring(Hypergraph(_universe(n), given))
            assert (coloring is not None) == exists, (n, given, coloring)
            if coloring is not None:
                assert len(coloring) == n and set(coloring) <= {RED, BLUE}
                assert not has_monochromatic_edge(coloring, edges), (n, given, coloring)
        outcomes.add(exists)
    assert outcomes == {False, True}


def test_find_proper_coloring_confirms_3_3_and_6_2_without_dpll():
    start = time.monotonic()
    for k, l in [(3, 3), (6, 2)]:
        p = validate_params(k, l)  # 40 and 36 vertices
        assert find_proper_coloring(distinct_hypergraph(p), 40) is None
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"(3,3) and (6,2) took {elapsed:.1f}s"
