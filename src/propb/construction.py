"""Shift-based construction of k-uniform hypergraphs with no proper 2-coloring.

For l chosen sequences, an edge is cut out by a shift tuple (one cyclic
rotation per sequence) and a block S of block_size positions: it contains,
for every chosen sequence, the vertices at the shifted positions of S.
iter_edges streams, for each of the C(2l-1, l) sequence subsets in
lexicographic order, the edges of all seq_len^l shift tuples and all
C(seq_len, block_size) blocks: the counted multiset.

Rotating every shift by -s_0 and the block by +s_0 gives the same edge, so
a distinct edge is a block S on its lowest chosen sequence plus a distinct
translate of S on each later one: iter_distinct_edges streams them once
each, in sorted order, never holding the set.  Membership needs no hypergraph
either: is_edge decides it from the vertex tuple alone.  _incidence gives both
deciders' set-ups each key's bitmask of the rows (edges or clauses) holding it.

Edges are canonical sorted tuples of 0-based integer vertex encodings
(seq * seq_len + pos, see params).  Emission order is lexicographic over
(sequence subset, shift tuple, block), so builds are byte-reproducible;
build_full keeps duplicate edges (the counted multiset), dedup() removes them, and
distinct_hypergraph holds that stream, already in dedup()'s order.

Both engines yield groups of one shape: a list of part columns, column c
holding, edge by edge, the `render` parts of each edge's c-th chosen
sequence.  _tables renders each sequence's table once per run, in the role
of an inner or of the last chosen sequence, when the first sequence subset
(multiset) or lowest sequence (distinct) that uses it starts, and drops it
after the last.  A table joins its blocks from the sequence's vertex names
rendered once; a text render gets a block's edge_line and adds its tail
(and, for dual_clause_parts, a negated copy).  _join adds a
group's columns into edge tuples, for iter_edges and iter_distinct_edges;
_chunks, for both text streams, puts part i of each column in turn in one
buffer, rewriting only the columns that are not the objects it last took:
unchanged shifts, or an orbit's shared later columns.  The multiset engine,
_groups, yields one group per (sequence subset, shift tuple): a shifted
table per chosen sequence, the first one's made one shift at a time.  The
distinct engine, _distinct_groups, yields one per (lowest sequence, block):
the head's parts repeated, then the later columns, built once per
translation orbit of the block by one recursion.  At l = 1 a group is
_L1_GROUP_BLOCKS blocks, named as they stream; as edge tuples they are the
combinations themselves, since sequence 0's vertex numbers are its positions.

gen's text formats are each a header and a Render of a block's parts.  Edge
list: edge_list_header, `p hyp <vertexCount> <edgeCount> <k>`, then one edge
per line as space-separated ascending 1-based vertex numbers (edge_line_parts;
write_edge_list writes it from edge tuples).  DIMACS, the dual that satbridge
decides: dual_dimacs_header, `p cnf <vertexCount> <2 * edgeCount>`, then each
edge's clause of plain literals and its clause of negated ones (dual_clause_parts).
"""

from __future__ import annotations

import itertools
import operator
from functools import cache, cached_property
from typing import IO, Any, Callable, Iterable, Iterator, Sequence

from . import counting
from .params import Params

Edge = tuple[int, ...]
# render(block, last): a block's parts of an edge, the block named by _named.
Render = Callable[[Any, bool], tuple]

# Blocks per distinct group at l = 1: bounds a group's text, shares its write.
_L1_GROUP_BLOCKS = 1024


class Hypergraph:
    """An edge multiset over the fixed vertex universe of `params`.

    The universe is always all (2l-1)*seq_len vertices, even when the edges
    touch only a subset of the sequences, so vertex numbering is stable.
    """

    def __init__(self, params: Params, edges: tuple[Edge, ...]):
        self.params = params
        self.edges = edges

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


def _named(render: Render, seq: int, kp: int, blocks: Iterable[tuple[int, ...]]) -> Iterator:
    """The blocks of positions on seq as edge_lines joined from names made once (vertex tuples for _tuple_parts)."""
    vertices = range(seq * kp, (seq + 1) * kp)
    names, join = (vertices, tuple) if render is _tuple_parts else (edge_line(vertices).split(" "), " ".join)
    return map(join, map(map, itertools.repeat(names.__getitem__), blocks))


def _step(params: Params) -> list[int]:
    """Per block, in combinations order, the index of its translate by +1."""
    kp = params.seq_len
    blocks = list(itertools.combinations(range(kp), params.block_size))
    rank = {block: i for i, block in enumerate(blocks)}
    return [rank[tuple(sorted([(r + 1) % kp for r in block]))] for block in blocks]


def _tables(
    params: Params, render: Render, phases: list[list[tuple[int, ...]]]
) -> Iterator[dict[tuple[int, bool], list]]:
    """Per phase, one dict holding the part tables its sequence subsets use, by (seq, last).

    A subset's last sequence uses its last table, any other its inner one;
    chosen sequences ascend, so joined parts are sorted.
    A table holds every block's `render` parts in turn, blocks in
    combinations order, joined from the sequence's vertex names made once.
    It is rendered when the first phase that uses it starts and leaves the
    dict after the last one, freed then unless the caller still refers to it.
    """
    kp, l = params.seq_len, params.l
    uses = [dict.fromkeys((seq, j == l - 1) for chosen in phase for j, seq in enumerate(chosen)) for phase in phases]
    last_use = {key: i for i, keys in enumerate(uses) for key in keys}
    tables: dict[tuple[int, bool], list] = {}
    for i, keys in enumerate(uses):
        for seq, last in keys:
            if (seq, last) not in tables:
                blocks = _named(render, seq, kp, itertools.combinations(range(kp), params.block_size))
                tables[seq, last] = [part for block in blocks for part in render(block, last)]
        yield tables
        for key in keys:
            if last_use[key] == i:
                del tables[key]


def _tuple_parts(vertices: Edge, last: bool) -> tuple[Edge]:
    return (vertices,)


def _groups(params: Params, render: Render) -> Iterator[Sequence[list]]:
    """The multiset's edges in order, one group per (sequence subset, shift tuple).

    A group is one table per chosen sequence, every block an edge: subsets
    in lexicographic order, then shift tuple major, block minor.  A shift
    only permutes a sequence's blocks, so its table refers to the parts of
    the sequence's table.  The first chosen sequence's shifted tables are
    made one at a time; the later ones', which cycle under it, once per subset.
    """
    step = _step(params)
    # Translates a table of `width` parts per block by +1; built once per run.
    wide_step = cache(lambda width: operator.itemgetter(*[width * s + j for s in step for j in range(width)]))

    def shifted(table: list) -> Iterator[Sequence]:  # per shift s, table's blocks translated by s
        translate = wide_step(len(table) // len(step))
        return itertools.accumulate(range(params.seq_len - 1), lambda t, _: translate(t), initial=table)

    subsets = list(itertools.combinations(range(params.num_sequences), params.l))
    for chosen, tables in zip(subsets, _tables(params, render, [[chosen] for chosen in subsets])):
        head, *later = [tables[seq, seq == chosen[-1]] for seq in chosen]
        later_shifts = [list(shifted(table)) for table in later]
        for table in shifted(head):
            yield from itertools.product((table,), *later_shifts)
        del head, later, later_shifts, table  # dropped before the next subset's tables are rendered and shifted


def _join(columns: Sequence[list]) -> Iterable[Edge]:
    """A group's edges as tuples: the parts of its columns added edge by edge."""
    edges = columns[0]
    for column in columns[1:]:
        edges = map(operator.add, edges, column)
    return edges


def _chunks(groups: Iterable[Sequence[list]], l: int) -> Iterator[str]:
    """Each group's text: part i of every column in turn, for each i, joined once.

    With several parts per block (dual_clause_parts) that gives each edge's
    part-0 text, then its part-1 text.  A new group length renews the buffer and every column.
    """
    text, shown = [], [None] * l
    for columns in groups:
        if len(text) != l * len(columns[0]):
            text = [""] * (l * len(columns[0]))
        for c, column in enumerate(columns):
            if column is not shown[c]:
                text[c::l] = shown[c] = column
        yield "".join(text)


def iter_edges(params: Params) -> Iterator[Edge]:
    """All edges of the full construction, streamed in canonical order."""
    return itertools.chain.from_iterable(map(_join, _groups(params, _tuple_parts)))


def edge_line_parts(line: str, last: bool) -> tuple[str]:
    """A block's share of an edge_line, its line ending in a space or, if last, a newline."""
    return (line + ("\n" if last else " "),)


def dual_clause_parts(line: str, last: bool) -> tuple[str, str]:
    """A block's shares of its edge's plain, then negated, clause: edge_line_parts' share with ` 0` before a newline."""
    tail = " 0\n" if last else " "
    return line + tail, "-" + line.replace(" ", " -") + tail


def iter_edge_chunks(params: Params, render: Render) -> Iterator[str]:
    """The text of the edges of iter_edges, in order, C(seq_len, block_size) edges per chunk.

    A chunk is one (sequence subset, shift tuple) group.  Alive at a time
    are the part tables of the current subset (and of those a later subset
    still uses), one shifted table of its first sequence, every shifted
    table of its later ones, the buffer of _chunks and one chunk.
    """
    return _chunks(_groups(params, render), params.l)


def build_full(params: Params, edge_cap: int | None = counting.DEFAULT_EDGE_CAP) -> Hypergraph:
    """The full edge multiset; its cardinality always equals edge_count(params).

    Refuses with counting.EdgeCapError when that count exceeds edge_cap
    (pass None to disable the guard).
    """
    expected = counting.check_edge_cap(params, edge_cap)
    edges = tuple(list(iter_edges(params)))  # a list first: see distinct_hypergraph
    if len(edges) != expected:
        raise AssertionError(f"built {len(edges)} edges, formula says {expected}")
    return Hypergraph(params, edges)


def dedup(hypergraph: Hypergraph) -> Hypergraph:
    """Distinct edges in canonical sorted order.

    Dropping duplicate edges cannot make an improper coloring proper, so
    non-2-colorability carries over.
    """
    return Hypergraph(hypergraph.params, tuple(sorted(set(hypergraph.edges))))


def _orbits(step: list[int]) -> list[list[int]]:
    """Per block, the sorted indices of its translates: its orbit under step."""
    orbits: list[list[int]] = [[] for _ in step]
    for i, orbit in enumerate(orbits):
        if not orbit:  # i is the lowest block of its orbit
            orbit.append(i)
            j = step[i]
            while j != i:
                orbit.append(j)
                j = step[j]
            orbit.sort()
            for j in orbit:
                orbits[j] = orbit
    return orbits


def _distinct_groups(params: Params, render: Render) -> Iterator[list[list]]:
    """The distinct edges in sorted order, one group per (lowest sequence, block).

    Sorted, an edge is its block S on its lowest sequence, then each later
    (sequence, translate of S) in turn.  The translates of S are its orbit
    under step, whose index order is tuple order, so the blocks of one orbit
    share their later columns, which are kept until the lowest sequence
    changes.  At l = 1 every block is a whole edge, and a group holds up to
    _L1_GROUP_BLOCKS of them, rendered as they stream from combinations
    (for _tuple_parts, taken as they are).
    Raises AssertionError at exhaustion unless the groups held
    distinct_edge_count(params) edges.
    """
    n, l = params.num_sequences, params.l
    count = 0
    if l == 1:
        blocks = itertools.combinations(range(params.seq_len), params.block_size)
        tuples = render is _tuple_parts  # then the blocks are the edges: sequence 0's vertex numbers are its positions
        blocks = blocks if tuples else _named(render, 0, params.seq_len, blocks)
        while group := list(itertools.islice(blocks, _L1_GROUP_BLOCKS)):
            count += len(group)
            yield [group if tuples else [part for block in group for part in render(block, True)]]
    else:
        step = _step(params)
        orbits = _orbits(step)
        # Phase `first` holds every sequence subset whose lowest sequence is first.
        subsets = itertools.combinations(range(n), l)
        phases = [list(phase) for _, phase in itertools.groupby(subsets, operator.itemgetter(0))]

        def later(orbit: list[int], s: int, depth: int) -> list[list]:
            """The columns of the ways on past sequence s, `depth` sequences to go.

            Sorted, a way is a later sequence t, a translate of the head block
            (one of `orbit`), then a way on past t.
            """
            columns: list[list] = [[] for _ in range(depth)]
            for t in range(s + 1, n - depth + 1):
                rest = later(orbit, t, depth - 1) if depth > 1 else []
                ways = len(rest[0]) // width if rest else 1
                table = tables[t, depth == 1]
                columns[0] += [part for o in orbit for part in table[o * width : (o + 1) * width] * ways]
                for column, deeper in zip(columns[1:], rest):
                    column += deeper * len(orbit)
            return columns

        for first, tables in enumerate(_tables(params, render, phases)):
            head = tables[first, False]
            width = len(head) // len(step)
            later_of: dict[int, list[list]] = {}  # by the orbit's lowest block
            for i, orbit in enumerate(orbits):
                columns = later_of.get(orbit[0])
                if columns is None:
                    columns = later_of[orbit[0]] = later(orbit, first, l - 1)
                edges = len(columns[0]) // width
                count += edges
                yield [head[i * width : (i + 1) * width] * edges, *columns]
            del head, later_of, columns  # so _tables frees this phase's tables before it renders the next
    expected = counting.distinct_edge_count(params)
    if count != expected:
        raise AssertionError(f"built {count} distinct edges, formula says {expected}")


def iter_distinct_edges(params: Params) -> Iterator[Edge]:
    """Every distinct edge of the construction exactly once, in canonical sorted order.

    A distinct edge is a block S on its lowest chosen sequence plus one
    distinct translate of S on each later one.  Raises AssertionError at
    exhaustion unless it yielded distinct_edge_count(params) edges.
    """
    return itertools.chain.from_iterable(map(_join, _distinct_groups(params, _tuple_parts)))


def iter_distinct_chunks(params: Params, render: Render) -> Iterator[str]:
    """The text of iter_distinct_edges' edges, one chunk per (lowest sequence, block) group.

    An edge's text joins its blocks' `render` parts.  Raises like iter_distinct_edges.
    """
    return _chunks(_distinct_groups(params, render), params.l)


def distinct_hypergraph(params: Params, edge_cap: int | None = counting.DEFAULT_EDGE_CAP) -> Hypergraph:
    """The distinct edges in canonical sorted order: dedup(build_full(params)), built directly.

    Holds only the distinct edges, about 1/seq_len of the multiset, but
    refuses under the same multiset cap as build_full.  iter_distinct_edges
    checks the cardinality against distinct_edge_count(params).
    """
    counting.check_edge_cap(params, edge_cap)
    # tuple() of a generator re-tracks the growing tuple with the garbage
    # collector at every resize: 2.4x slower than a list first on (4,4), CPython 3.11.
    return Hypergraph(params, tuple(list(iter_distinct_edges(params))))


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


def _incidence(rows: Iterable[Iterable[int]], count: int, keys: int, spacing: int = 1) -> list[int]:
    """Per key 0..keys-1, the int with bit spacing*i set for each of `count` rows i holding it, rows read once."""
    bits = [bytearray((spacing * count + 7) >> 3) for _ in range(keys)]  # key >= keys: IndexError; -j: keys - j
    for at, row in zip(itertools.count(0, spacing), rows):
        byte, bit = at >> 3, 1 << (at & 7)
        for key in row:
            bits[key][byte] |= bit  # a repeated key sets its bit once
    return [int.from_bytes(b, "little") for b in bits]


def edge_list_header(params: Params, num_edges: int) -> str:
    return f"p hyp {params.num_vertices} {num_edges} {params.k}"


def dual_dimacs_header(params: Params, num_edges: int) -> str:
    """The DIMACS problem line of the dual of `num_edges` edges: two clauses per edge."""
    return f"p cnf {params.num_vertices} {2 * num_edges}"


def edge_line(edge: Sequence[int]) -> str:
    """An edge as text: space-separated ascending 1-based vertex numbers."""
    return " ".join([str(v + 1) for v in edge])


def write_edge_list(out: IO[str], params: Params, edges: Iterable[Edge], num_edges: int) -> None:
    """Stream the edge-list text format; `num_edges` must match the iterable."""
    out.write(edge_list_header(params, num_edges) + "\n")
    out.writelines(edge_line(edge) + "\n" for edge in edges)
