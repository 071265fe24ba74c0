import io
import itertools
import math
import random

import pytest

from helpers import naive_full_edges, naive_subset_edges
from propb.construction import (
    EdgeCapError,
    Hypergraph,
    build_full,
    dedup,
    distinct_hypergraph,
    edge_line,
    edge_list_header,
    is_edge,
    iter_distinct_edges,
    iter_edges,
    write_edge_list,
)
from propb.counting import distinct_edge_count, edge_count
from propb.params import validate_params


def subset_slices(p):
    """iter_edges cut into its per-subset runs: subset j of
    combinations(range(2l-1), l) is slice j, of length seq_len^l * C(seq_len, k/l)."""
    edges = list(iter_edges(p))
    size = p.seq_len**p.l * math.comb(p.seq_len, p.block_size)
    subsets = list(itertools.combinations(range(p.num_sequences), p.l))
    assert len(edges) == size * len(subsets)
    return {chosen: edges[j * size : (j + 1) * size] for j, chosen in enumerate(subsets)}


def test_edge_from_examples():
    # (k, l, chosen sequences, shifts, block, the edge they cut out)
    examples = [
        (2, 1, (0,), (0,), (0, 1), (0, 1)),
        # seq_len 4: sequence 0 at (2+1)%4=3, sequence 2 at (2+3)%4=1 -> vertices 3 and 2*4+1
        (2, 2, (0, 2), (1, 3), (2,), (3, 9)),
        # seq_len 8
        (4, 2, (0, 1), (0, 0), (0, 4), (0, 4, 8, 12)),
    ]
    for k, l, chosen, shifts, block, edge in examples:
        p = validate_params(k, l)
        assert is_edge(p, edge)
        # iter_edges lists each subset's edges shift tuple major, block minor,
        # so the edge sits exactly where its ingredients put it
        blocks = list(itertools.combinations(range(p.seq_len), p.block_size))
        shift_index = 0
        for shift in shifts:
            shift_index = shift_index * p.seq_len + shift
        assert subset_slices(p)[chosen][shift_index * len(blocks) + blocks.index(block)] == edge


SUBSET_CASES = [
    # (k, l, chosen, multiset size, distinct size)
    (2, 1, (0,), 24, 6),
    (2, 2, (0, 1), 64, 16),
    (4, 2, (0, 1), 1792, None),
    (3, 3, (0, 1, 2), 4096, 512),
]


@pytest.mark.parametrize("k,l,chosen,total,distinct", SUBSET_CASES)
def test_subset_hypergraph_against_naive_oracle(k, l, chosen, total, distinct):
    p = validate_params(k, l)
    got = subset_slices(p)[chosen]
    oracle = naive_subset_edges(p, chosen)
    assert got == oracle
    assert len(got) == total == p.seq_len**l * len(
        list(itertools.combinations(range(p.seq_len), p.block_size))
    )
    if distinct is not None:
        assert len(set(got)) == distinct


def test_subset_distinct_edges_cover_expected_sets():
    # (2,1): distinct edges are exactly the 2-subsets of the 4 positions.
    p = validate_params(2, 1)
    got = set(subset_slices(p)[(0,)])
    assert got == set(itertools.combinations(range(4), 2))

    # (2,2) on sequences 0 and 1: all cross pairs between the two sequences.
    p = validate_params(2, 2)
    got = set(subset_slices(p)[(0, 1)])
    assert got == {(a, b) for a in range(4) for b in range(4, 8)}


def test_subset_edges_touch_only_chosen_sequences():
    p = validate_params(4, 2)
    for chosen, edges in subset_slices(p).items():
        for edge in edges:
            seqs = {v // p.seq_len for v in edge}
            assert seqs <= set(chosen)
            assert len(seqs) <= p.l


FULL_CASES = [(2, 1), (3, 1), (2, 2), (4, 2), (3, 3)]


@pytest.mark.parametrize("k,l", FULL_CASES)
def test_build_full_matches_naive_oracle(k, l):
    p = validate_params(k, l)
    h = build_full(p)
    assert list(h.edges) == naive_full_edges(p)
    assert len(h.edges) == edge_count(p)
    assert h.vertex_count == p.num_vertices
    assert all(len(set(e)) == k for e in h.edges)  # k-uniform, no collisions
    assert all(0 <= v < p.num_vertices for e in h.edges for v in e)


def test_build_full_deterministic():
    p = validate_params(4, 2)
    assert build_full(p).edges == build_full(p).edges


def test_build_full_cap():
    p = validate_params(12, 1)  # 24 * C(24, 12) = 64,899,744 edges
    with pytest.raises(EdgeCapError) as info:
        build_full(p)
    assert info.value.expected == 24 * 2_704_156
    with pytest.raises(EdgeCapError):
        build_full(validate_params(4, 2), edge_cap=100)
    # the distinct build answers to the same multiset cap: (4,2) has 624
    # distinct edges but 5376 with multiplicity
    with pytest.raises(EdgeCapError):
        distinct_hypergraph(validate_params(4, 2), edge_cap=1000)
    assert len(distinct_hypergraph(validate_params(4, 2), edge_cap=5376).edges) == 624


def test_dedup_small_cases():
    p = validate_params(2, 1)
    d = dedup(build_full(p))
    assert set(d.edges) == set(itertools.combinations(range(4), 2))
    assert len(d.edges) == 6

    # (2,2): 48 distinct pairs = complete tripartite between the 3 sequences.
    p = validate_params(2, 2)
    d = dedup(build_full(p))
    groups = [range(s * 4, (s + 1) * 4) for s in range(3)]
    tripartite = {
        tuple(sorted((a, b)))
        for ga, gb in itertools.combinations(groups, 2)
        for a in ga
        for b in gb
    }
    assert set(d.edges) == tripartite
    assert len(d.edges) == 48


@pytest.mark.parametrize("k,l", [(2, 1), (3, 1), (2, 2), (4, 2), (6, 2), (3, 3), (6, 3)])
def test_distinct_edges_are_the_deduplicated_multiset(k, l):
    p = validate_params(k, l)
    expected = dedup(build_full(p, None)).edges
    assert tuple(sorted(iter_distinct_edges(p))) == expected
    assert len(expected) == distinct_edge_count(p)
    assert distinct_hypergraph(p).edges == expected


@pytest.mark.parametrize("k,l", [(2, 1), (3, 1), (2, 2), (4, 2), (3, 3)])
def test_is_edge_accepts_every_edge(k, l):
    p = validate_params(k, l)
    assert all(is_edge(p, edge) for edge in set(iter_edges(p)))


def test_is_edge_rejects_non_edges():
    p = validate_params(4, 2)  # seq_len 8, block 2
    assert is_edge(p, (0, 4, 8, 12))
    assert is_edge(p, (0, 1, 8, 15))  # {7, 0} is {0, 1} rotated by 7
    assert not is_edge(p, (0, 5, 8, 12))  # one vertex moved within sequence 0
    assert not is_edge(p, (0, 1, 8, 11))  # {0, 3} is no translate of {0, 1}
    assert not is_edge(p, (0, 4, 8, 16))  # three sequences
    assert not is_edge(p, (0, 1, 2, 3))  # one sequence
    assert not is_edge(p, (0, 1, 2, 8))  # 3 + 1 vertices per sequence
    assert not is_edge(p, (4, 0, 8, 12))  # not ascending
    assert not is_edge(p, (0, 4, 8))  # too short
    assert not is_edge(p, (0, 4, 8, 12, 16))  # too long
    assert not is_edge(p, (0, 0, 4, 8))  # repeated vertex
    assert not is_edge(p, (0, 4, 16, 24))  # vertex 24 is outside the universe
    assert not is_edge(p, (-8, -4, 0, 4))


# For l = 1 every k-subset of the single sequence is an edge, so only l >= 2
# has well-formed non-edges.
@pytest.mark.parametrize("k,l", [(2, 2), (4, 2), (6, 2), (3, 3)])
def test_is_edge_agrees_with_membership_on_random_tuples(k, l):
    p = validate_params(k, l)
    edges = set(iter_edges(p))
    rng = random.Random(50 * k + l)
    kp = p.seq_len
    samples = [tuple(sorted(rng.sample(range(p.num_vertices), k))) for _ in range(300)]
    for edge in rng.sample(sorted(edges), min(len(edges), 300)):
        # one vertex moved within its sequence, and one moved to another sequence
        v = rng.choice(edge)
        within = v - v % kp + (v + rng.randrange(1, kp)) % kp
        across = (v + kp * rng.randrange(1, p.num_sequences)) % p.num_vertices
        for moved in (within, across):
            if moved not in edge:
                samples.append(tuple(sorted(set(edge) - {v} | {moved})))
    assert any(x in edges for x in samples) and any(x not in edges for x in samples)
    for x in samples:
        assert is_edge(p, x) == (x in edges), x


def test_dedup_idempotent_and_sorted():
    p = validate_params(2, 2)
    d = dedup(build_full(p))
    assert dedup(d).edges == d.edges
    assert list(d.edges) == sorted(set(d.edges))


def test_dedup_empty():
    p = validate_params(2, 1)
    empty = Hypergraph(p, ())
    assert dedup(empty).edges == ()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_l1_degenerates_to_all_k_subsets(k):
    p = validate_params(k, 1)
    d = dedup(build_full(p))
    assert set(d.edges) == set(itertools.combinations(range(2 * k), k))


def test_edge_list_format():
    p = validate_params(2, 1)
    h = build_full(p)
    out = io.StringIO()
    write_edge_list(out, p, h.edges, len(h.edges))
    text = out.getvalue()
    lines = text.splitlines()
    assert lines[0] == edge_list_header(p, 24) == "p hyp 4 24 2"
    assert len(lines) == 25
    assert lines[1] == "1 2"  # first edge, 1-based
    assert text.endswith("\n")
    for line, edge in zip(lines[1:], h.edges):
        assert line == edge_line(edge) == " ".join(str(v + 1) for v in edge)


def test_build_subset_hypergraph_counts():
    p = validate_params(4, 2)
    edges = tuple(subset_slices(p)[(0, 2)])
    assert len(edges) == 1792
    assert Hypergraph(p, edges).vertex_count == 24  # full universe even for one subset
