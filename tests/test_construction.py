import collections
import io
import itertools
import math
import os
import platform
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_full_edges, naive_subset_edges
from propb import construction
from propb.construction import (
    Hypergraph,
    _incidence,
    build_full,
    dedup,
    distinct_hypergraph,
    dual_clause_parts,
    edge_line,
    edge_line_parts,
    edge_list_header,
    is_edge,
    iter_distinct_chunks,
    iter_distinct_edges,
    iter_edge_chunks,
    iter_edges,
    write_edge_list,
)
from propb.counting import EdgeCapError, distinct_edge_count, edge_count
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
    assert h.params.num_vertices == p.num_vertices
    assert all(len(set(e)) == k for e in h.edges)  # k-uniform, no collisions
    assert all(0 <= v < p.num_vertices for e in h.edges for v in e)


def test_build_full_deterministic():
    p = validate_params(4, 2)
    assert build_full(p).edges == build_full(p).edges


def test_build_full_cap():
    p = validate_params(12, 1)  # 24 * C(24, 12) = 64,899,744 edges
    with pytest.raises(EdgeCapError, match="would emit 64899744 edges,"):
        build_full(p)
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


# (7,1) has 3,432 distinct edges, so its groups of blocks end past the first
# thousand and one partial group closes the stream.
@pytest.mark.parametrize("k,l", [(2, 1), (3, 1), (7, 1), (2, 2), (4, 2), (6, 2), (3, 3), (6, 3)])
def test_distinct_edges_are_the_deduplicated_multiset(k, l):
    p = validate_params(k, l)
    expected = dedup(build_full(p, None)).edges
    assert tuple(iter_distinct_edges(p)) == expected
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
    assert Hypergraph(p, edges).params.num_vertices == 24  # full universe even for one subset


@pytest.mark.parametrize("k,l", [(2, 1), (4, 2), (3, 3), (6, 2)])
@pytest.mark.parametrize("render,lines_per_edge", [(edge_line_parts, 1), (dual_clause_parts, 2)])
def test_edge_chunks_hold_one_shift_tuple_each(k, l, render, lines_per_edge):
    # One chunk per (sequence subset, shift tuple), so only one chunk's text is held at a time.
    p = validate_params(k, l)
    chunks = list(iter_edge_chunks(p, render))
    assert len(chunks) == math.comb(2 * l - 1, l) * p.seq_len**l
    blocks = math.comb(p.seq_len, p.block_size)
    assert {chunk.count("\n") for chunk in chunks} == {lines_per_edge * blocks}


@pytest.mark.parametrize("k,l", [(2, 1), (7, 1), (4, 2), (3, 3), (6, 2)])
@pytest.mark.parametrize("render,lines_per_edge", [(edge_line_parts, 1), (dual_clause_parts, 2)])
def test_distinct_chunks_hold_one_lowest_sequence_and_block_each(k, l, render, lines_per_edge):
    # At l >= 2 one chunk per (lowest sequence, block): l lowest sequences of
    # 2l - 1 leave room for the l - 1 later ones.  At l = 1 every block is an
    # edge, 1024 to a chunk.
    p = validate_params(k, l)
    chunks = list(iter_distinct_chunks(p, render))
    blocks = math.comb(p.seq_len, p.block_size)
    assert len(chunks) == (l * blocks if l > 1 else -(-blocks // 1024))
    assert sum(chunk.count("\n") for chunk in chunks) == lines_per_edge * distinct_edge_count(p)


@pytest.mark.parametrize(
    "engine,k,l,held",
    [
        ("_groups", 8, 2, 2),
        ("_groups", 6, 3, 6),
        ("_groups", 4, 4, 9),
        ("_distinct_groups", 8, 2, 3),
        ("_distinct_groups", 6, 3, 7),
        ("_distinct_groups", 4, 4, 10),
    ],
)
def test_engines_render_each_table_once(engine, k, l, held, monkeypatch):
    # Each of the 2l - 1 sequences has an inner table, used where it is a
    # chosen sequence that another follows (all but the last sequence), and a
    # last table (all but the first l - 1): 3l - 2 tables of C(seq_len, k/l)
    # blocks.  Each engine renders each table once, when the first sequence
    # subset (multiset) or lowest sequence (distinct) that uses it starts, and
    # drops it after the last: at most `held` tables are alive at a time.  A
    # block comes as its edge_line, joined from names that edge_line renders
    # once per table.
    p = validate_params(k, l)
    calls, named, alive = [], [], []

    def render(line, last):
        calls.append((line, last))
        return ("\n",)

    def naming(vertices):
        named.append(tuple(vertices))
        return edge_line(vertices)

    def tables(*args):
        for phase in real_tables(*args):
            alive.append(len(phase))
            yield phase

    real_tables = construction._tables
    monkeypatch.setattr(construction, "edge_line", naming)
    monkeypatch.setattr(construction, "_tables", tables)
    collections.deque(getattr(construction, engine)(p, render), maxlen=0)
    n, kp = p.num_sequences, p.seq_len
    assert len(set(calls)) == len(calls) == {(8, 2): 7280, (6, 3): 840, (4, 4): 160}[k, l]
    rendered = collections.Counter(((int(line.split(" ")[0]) - 1) // kp, last) for line, last in calls)
    expected = [(seq, False) for seq in range(n - 1)] + [(seq, True) for seq in range(l - 1, n)]
    assert rendered == dict.fromkeys(expected, math.comb(kp, p.block_size))
    assert max(alive) == held
    assert sorted(named) == sorted(tuple(range(seq * kp, (seq + 1) * kp)) for seq, _ in expected)
    blocks = itertools.combinations(range(kp), p.block_size)
    lines = {edge_line([seq * kp + r for r in block]) for block in blocks for seq in range(n)}
    assert {line for line, _ in calls} == lines


@pytest.mark.parametrize("k,l,bound_mb", [(8, 1, 6.3), (8, 2, 2.0)])
def test_edge_chunks_drain_in_bounded_memory(k, l, bound_mb):
    # Held at a time: the part tables that the current or a later sequence
    # subset uses, one shift of the first chosen sequence and every shift of
    # the later ones.  That peaks at 4.7 and 1.5 MB (DIMACS, CPython 3.11);
    # every part table and every shift of each chosen sequence, held for a
    # whole subset, peak at 7.6 and 2.3 MB.
    p = validate_params(k, l)
    tracemalloc.start()
    try:
        collections.deque(iter_edge_chunks(p, dual_clause_parts), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


def test_a_chunk_too_large_to_hold_is_let_go_after_its_write():
    # The first (4,4) distinct groups are 81,920 edges, 2.5 MB of DIMACS text
    # each.  Written through a text layer, which encodes a copy, the stream
    # peaks at 16.5 MB (CPython 3.11); holding each chunk until the next is
    # joined, whatever its size, peaks at 19.2 MB.
    with io.TextIOWrapper(open(os.devnull, "wb")) as out:
        tracemalloc.start()
        try:
            out.writelines(iter_distinct_chunks(validate_params(4, 4), dual_clause_parts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 17.0e6


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="counts glibc's heap trimming on Linux"
)
def test_dimacs_chunks_do_not_fault_the_heap_in_again(tmp_path):
    # An (8,2) DIMACS chunk is about 104 KB.  Freed with its encoded copy
    # right after its write, the two leave a free block past glibc's 128 KB
    # trim threshold at the heap top, so the heap is trimmed and the next
    # chunk faults the same pages in again, 768 times: about 9,400 minor
    # faults more than a `count` child.  A chunk held until the next one is
    # joined leaves about 470 more.
    def minor_faults(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(construction.__file__).parents[1]))
        with open(tmp_path / "out", "wb") as out:
            args = [sys.executable, "-m", "propb.cli", *argv]
            pid = os.posix_spawn(sys.executable, args, env, file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1)])
            _, status, usage = os.wait4(pid, 0)
        assert status == 0
        return usage.ru_minflt

    gen = minor_faults("gen", "--k", "8", "--l", "2", "--format", "dimacs")
    assert gen - minor_faults("count", "--k", "4", "--l", "2") < 2000


@pytest.mark.parametrize("render", [edge_line_parts, dual_clause_parts])
def test_edge_chunks_at_l_4_equal_the_per_edge_rendering(render):
    # The chunks are joined from one buffer in which only the columns whose
    # shift changed are rewritten.  The first 70,000 of (4,4) (16 edges each)
    # span 4096 head shifts and cross into the second sequence subset, so
    # every one of the four columns changes; they are held, not streamed.
    p = validate_params(4, 4)
    chunks = list(itertools.islice(iter_edge_chunks(p, render), 70_000))
    texts = ("".join(render(edge_line(edge), True)) for edge in iter_edges(p))
    assert chunks == ["".join(itertools.islice(texts, 16)) for _ in chunks]
    # The distinct chunks come from the same writer.  At (4,4) the 16 blocks
    # are one orbit, so the first chunks (81,920 edges each) share their three
    # later columns, and only the head column is rewritten.
    assert_distinct_chunks_equal_the_per_edge_rendering(p, render, 3)


@pytest.mark.parametrize("render", [edge_line_parts, dual_clause_parts])
def test_distinct_chunks_at_8_2_equal_the_per_edge_rendering(render):
    # Groups of 32, 16, 8 and 4 edges: the writer's buffer is resized, and
    # the later column is kept across the blocks of an orbit.
    p = validate_params(8, 2)
    assert_distinct_chunks_equal_the_per_edge_rendering(p, render, None)


def assert_distinct_chunks_equal_the_per_edge_rendering(p, render, count):
    """The first `count` (None: all) chunks of iter_distinct_chunks against iter_distinct_edges, edge by edge."""
    lines_per_edge = len(render("", True))
    texts = ("".join(render(edge_line(edge), True)) for edge in iter_distinct_edges(p))
    chunks = 0
    for chunk in itertools.islice(iter_distinct_chunks(p, render), count):
        lines = chunk.splitlines(keepends=True)  # compared as lists: a short report on a mismatch
        assert lines == "".join(itertools.islice(texts, len(lines) // lines_per_edge)).splitlines(keepends=True)
        chunks += 1
    assert chunks == count or next(texts, None) is None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_incidence_sets_each_rows_bit_in_each_of_its_keys(data):
    # Both deciders' set-ups: bit spacing*i of key j is set exactly when row
    # i holds j, from rows read once as one-shot iterators.
    keys = data.draw(st.integers(1, 12))
    spacing = data.draw(st.sampled_from((1, 2)))
    rows = data.draw(st.lists(st.lists(st.integers(0, keys - 1), max_size=6), max_size=20))
    masks = _incidence(iter(map(iter, rows)), len(rows), keys, spacing)
    assert masks == [sum(1 << spacing * i for i, row in enumerate(rows) if j in row) for j in range(keys)]
    # A key repeated within a row sets its bit once.
    assert _incidence([row + row for row in rows], len(rows), keys, spacing) == masks
    # A negative key counts from the end, as a list index does: the Cnf set-up's -v.
    assert _incidence([[j - keys for j in row] for row in rows], len(rows), keys, spacing) == masks
    # A key at or above `keys`, in a row inserted anywhere, is refused.
    at, bad = data.draw(st.integers(0, len(rows))), data.draw(st.integers(keys, keys + 5))
    with pytest.raises(IndexError):
        _incidence([*rows[:at], [bad], *rows[at:]], len(rows) + 1, keys, spacing)
