"""Shift-based construction of k-uniform hypergraphs with no proper 2-coloring.

For l chosen sequences, an edge is cut out by a shift tuple (one cyclic
rotation per sequence) and a block S of block_size positions: it contains,
for every chosen sequence, the vertices at the shifted positions of S.
iter_edges streams, for each of the C(2l-1, l) sequence subsets in
lexicographic order, the edges of all seq_len^l shift tuples and all
C(seq_len, block_size) blocks: the counted multiset.

Rotating every shift by -s_0 and the block by +s_0 gives the same edge, so
the distinct edges are exactly the tuples with s_0 = 0 and every other shift
taken modulo the period of the block: iter_distinct_edges streams them, one
per edge, with no hashing.  Membership needs no hypergraph either: is_edge
decides it from the vertex tuple alone.

Edges are canonical sorted tuples of 0-based integer vertex encodings
(seq * seq_len + pos, see params).  Emission order is lexicographic over
(sequence subset, shift tuple, block), so builds are byte-reproducible;
build_full keeps duplicate edges (the counted multiset), dedup() removes them, and
distinct_hypergraph builds the distinct edges directly.

Edge-list text format: header line `p hyp <vertexCount> <edgeCount> <k>`,
then one edge per line as space-separated ascending 1-based vertex numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator, Sequence

from . import counting
from .params import Params

Edge = tuple[int, ...]

DEFAULT_EDGE_CAP = 10_000_000


class EdgeCapError(RuntimeError):
    """Refused to build: the edge multiset would exceed the configured cap."""

    def __init__(self, expected: int, cap: int):
        super().__init__(f"construction would emit {expected} edges, above the cap of {cap}")
        self.expected = expected
        self.cap = cap


@dataclass(frozen=True)
class Hypergraph:
    """An edge multiset over the fixed vertex universe of `params`.

    The universe is always all (2l-1)*seq_len vertices, even when the edges
    touch only a subset of the sequences, so vertex numbering is stable.
    """

    params: Params
    edges: tuple[Edge, ...]

    @property
    def vertex_count(self) -> int:
        return self.params.num_vertices

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


def _subset_edges(params: Params, chosen: tuple[int, ...]) -> Iterator[Edge]:
    """Edges of one ascending sequence subset, lexicographic: shift tuple major, block minor."""
    kp = params.seq_len
    combos = list(itertools.combinations(range(kp), params.block_size))

    # Per sequence and shift, the sorted vertex tuple of every block,
    # precomputed once; an edge is then just a concatenation.  The chosen
    # sequences ascend and have disjoint vertex ranges, so the concatenation
    # is already canonically sorted.
    pre = []
    for seq in chosen:
        base = seq * kp
        per_shift = []
        for shift in range(kp):
            row = [base + (r + shift) % kp for r in range(kp)]
            per_shift.append([tuple(sorted(row[r] for r in block)) for block in combos])
        pre.append(per_shift)

    *heads, last = pre
    for head_parts in itertools.product(*heads):
        prefix = [()] * len(combos)
        for part in head_parts:
            prefix = list(map(tuple.__add__, prefix, part))
        for part in last:
            yield from map(tuple.__add__, prefix, part)


def iter_edges(params: Params) -> Iterator[Edge]:
    """All edges of the full construction, streamed in canonical order."""
    # One generator per subset, so only one subset's tables are alive at a time.
    for chosen in itertools.combinations(range(params.num_sequences), params.l):
        yield from _subset_edges(params, chosen)


def check_edge_cap(params: Params, edge_cap: int | None) -> int:
    """edge_count(params), or EdgeCapError when it exceeds edge_cap (None: no cap)."""
    expected = counting.edge_count(params)
    if edge_cap is not None and expected > edge_cap:
        raise EdgeCapError(expected, edge_cap)
    return expected


def build_full(params: Params, edge_cap: int | None = DEFAULT_EDGE_CAP) -> Hypergraph:
    """The full edge multiset; its cardinality always equals edge_count(params).

    Refuses with EdgeCapError when that count exceeds edge_cap (pass None to
    disable the guard).
    """
    expected = check_edge_cap(params, edge_cap)
    edges = tuple(iter_edges(params))
    if len(edges) != expected:
        raise AssertionError(f"built {len(edges)} edges, formula says {expected}")
    return Hypergraph(params, edges)


def dedup(hypergraph: Hypergraph) -> Hypergraph:
    """Distinct edges in canonical sorted order.

    Dropping duplicate edges cannot make an improper coloring proper, so
    non-2-colorability carries over.
    """
    return Hypergraph(hypergraph.params, tuple(sorted(set(hypergraph.edges))))


def _rotations(block: tuple[int, ...], kp: int) -> list[tuple[int, ...]]:
    """The distinct sorted translates block + t, for t below the period of the block.

    The rotations fixing a block form a subgroup of Z_kp, so its period, the
    smallest one, divides kp.
    """
    members = set(block)
    period = next(p for p in counting.divisors(kp) if {(r + p) % kp for r in block} == members)
    return [tuple(sorted((r + shift) % kp for r in block)) for shift in range(period)]


def iter_distinct_edges(params: Params) -> Iterator[Edge]:
    """Every distinct edge of the construction exactly once, subset major, block minor.

    An edge with shifts (s_0, ..., s_{l-1}) and block S equals the one with
    shifts (0, s_1 - s_0, ...) and block S + s_0, and the shifts after the
    first matter only modulo the period of the block.  So per block the first
    chosen sequence takes shift 0 and every other one a shift below the
    period.  Each edge is a sorted tuple; the stream itself is block major
    and not sorted.
    """
    kp = params.seq_len
    subsets = list(itertools.combinations(range(params.num_sequences), params.l))
    for block in itertools.combinations(range(kp), params.block_size):
        # With l = 1 no sequence follows the first, so no translate is used.
        rotations = _rotations(block, kp) if params.l > 1 else []
        for first, *rest in subsets:
            edges = [tuple(first * kp + r for r in block)]
            for seq in rest:
                parts = [tuple(seq * kp + r for r in rot) for rot in rotations]
                edges = [edge + part for edge in edges for part in parts]
            yield from edges


def distinct_hypergraph(params: Params, edge_cap: int | None = DEFAULT_EDGE_CAP) -> Hypergraph:
    """The distinct edges in canonical sorted order: dedup(build_full(params)), built directly.

    Holds only the distinct edges, about 1/seq_len of the multiset, but
    refuses under the same multiset cap as build_full.  Its cardinality always
    equals distinct_edge_count(params).
    """
    check_edge_cap(params, edge_cap)
    edges = tuple(sorted(iter_distinct_edges(params)))
    expected = counting.distinct_edge_count(params)
    if len(edges) != expected:
        raise AssertionError(f"built {len(edges)} distinct edges, formula says {expected}")
    return Hypergraph(params, edges)


def is_edge(params: Params, edge: Sequence[int]) -> bool:
    """Whether `edge` belongs to the construction, decided arithmetically in O(k*seq_len).

    It does exactly when it is a strictly ascending tuple of k vertices that
    spans l sequences with block_size vertices in each, and every per-sequence
    position set is a cyclic translate of the first one.
    """
    kp = params.seq_len
    if len(edge) != params.k or list(edge) != sorted(set(edge)):
        return False
    if edge[0] < 0 or edge[-1] >= params.num_vertices:
        return False
    parts: dict[int, set[int]] = {}
    for v in edge:
        parts.setdefault(v // kp, set()).add(v % kp)
    if len(parts) != params.l or any(len(part) != params.block_size for part in parts.values()):
        return False
    first, *rest = parts.values()
    return all(any({(r + t) % kp for r in first} == part for t in range(kp)) for part in rest)


def edge_list_header(params: Params, num_edges: int) -> str:
    return f"p hyp {params.num_vertices} {num_edges} {params.k}"


def edge_line(edge: Edge) -> str:
    """An edge as text: space-separated ascending 1-based vertex numbers."""
    return " ".join([str(v + 1) for v in edge])


def write_edge_list(out: IO[str], params: Params, edges: Iterable[Edge], num_edges: int) -> None:
    """Stream the edge-list text format; `num_edges` must match the iterable."""
    out.write(edge_list_header(params, num_edges) + "\n")
    for edge in edges:
        out.write(edge_line(edge) + "\n")
