"""Constructive witnesses: a monochromatic edge for any total 2-coloring.

Pipeline: count colors per sequence (a tie counts as a majority for both
colors), pick by pigeonhole a color with a majority in at least l of the
2l-1 sequences, then fix the l cyclic shifts one at a time, each choice
maximizing the conditional expectation of the number of fully monochromatic
positions.  The expectation starts at >= seq_len / 2^l = block_size and
never drops, so at the end at least block_size positions are monochromatic
and the first block_size of them cut out a monochromatic edge.  Per step
the expectation is the number of still passing positions times a constant,
so the search holds those positions and each sequence's `color` positions
as one int each and counts the bits of their AND under every rotation.

find_witness checks the edge against the construction arithmetically
(is_edge), so it builds no hypergraph; monochromatic_witness also checks it
against a materialized one.  find_proper_coloring decides whether a proper
2-coloring exists by a depth-first search over the vertices that cuts a
branch as soon as an edge bitmask shows a monochromatic edge: the check of
non-2-colorability that does not go through the dual CNF.

Coloring representation: a string of 'R'/'B' of length num_vertices,
indexed by the integer vertex encoding.  The coloring file format is that
string on a single line; read_coloring reads it in bounded memory.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from .construction import Edge, Hypergraph, _incidence, is_edge
from .params import ParameterError, Params

RED = "R"
BLUE = "B"
COLORS = (RED, BLUE)

Coloring = str

# The default vertex limit of find_proper_coloring and verify-small's
# refusal threshold, whose line and exit code are CLI output.  The pruned
# search itself decides the 36- and 40-vertex (6,2) and (3,3) in about 0.5
# and 0.1 s on a 2-vCPU x86-64 VM.
MAX_EXHAUSTIVE_VERTICES = 26


def check_coloring(params: Params, coloring: Coloring) -> Coloring:
    if len(coloring) != params.num_vertices:
        raise ParameterError(f"coloring has {len(coloring)} entries, need {params.num_vertices}")
    bad = set(coloring) - set(COLORS)
    if bad:
        raise ParameterError(f"coloring contains invalid colors: {sorted(bad)}")
    return coloring


def parse_coloring(params: Params, text: str) -> Coloring:
    """Read the one-line coloring file format (trailing whitespace tolerated)."""
    return check_coloring(params, text.strip())


def read_coloring(params: Params, path: str) -> Coloring:
    """parse_coloring of the file at `path`, read in chunks; ParameterError if it cannot be read as ASCII."""
    n, text = params.num_vertices, ""
    try:
        with open(path, "r", encoding="ascii") as handle:
            # Past leading whitespace, n + 1 characters tell n entries from more.
            while chunk := handle.read(1 << 16):
                text = (text + chunk).lstrip()
                if len(text.rstrip()) > n:
                    raise ParameterError(f"coloring has more than {n} entries, need {n}")
                text = text[: n + 1]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read the coloring file: {exc}") from exc
    return parse_coloring(params, text)


def random_coloring(params: Params, rng: random.Random) -> Coloring:
    return "".join(rng.choice(COLORS) for _ in range(params.num_vertices))


class MajorityProfile(NamedTuple):
    """Per-sequence color counts; a flag is set when the count reaches half."""

    red_counts: tuple[int, ...]
    blue_counts: tuple[int, ...]
    red_majority: tuple[bool, ...]
    blue_majority: tuple[bool, ...]


def majority_profile(params: Params, coloring: Coloring) -> MajorityProfile:
    check_coloring(params, coloring)
    kp = params.seq_len
    red_counts = tuple(
        coloring.count(RED, seq * kp, (seq + 1) * kp) for seq in range(params.num_sequences)
    )
    blue_counts = tuple(kp - r for r in red_counts)
    return MajorityProfile(
        red_counts=red_counts,
        blue_counts=blue_counts,
        red_majority=tuple(2 * r >= kp for r in red_counts),
        blue_majority=tuple(2 * b >= kp for b in blue_counts),
    )


def select_same_majority(params: Params, profile: MajorityProfile) -> tuple[str, tuple[int, ...]]:
    """A color plus l sequences it has a majority in.

    Always possible: each of the 2l-1 sequences carries at least one of the
    two flags, so one flag occurs at least l times.  Ties prefer the color
    with more flagged sequences, then red; sequences are the smallest flagged
    indices.
    """
    n_red = sum(profile.red_majority)
    n_blue = sum(profile.blue_majority)
    if n_red + n_blue < params.num_sequences:
        raise AssertionError("majority profile misses a sequence")
    color = RED if n_red >= n_blue else BLUE
    flags = profile.red_majority if color == RED else profile.blue_majority
    chosen = tuple(seq for seq, flag in enumerate(flags) if flag)[: params.l]
    if len(chosen) < params.l:
        raise AssertionError(f"pigeonhole failure: only {len(chosen)} {color}-majority sequences")
    return color, chosen


def derandomized_shifts(
    params: Params,
    coloring: Coloring,
    color: str,
    chosen_seqs: Sequence[int],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy shift tuple plus the block of positions it makes monochromatic.

    Requires distinct chosen sequences of the construction and a `color`
    majority in each of them; ValueError otherwise.  Each shift is the
    smallest maximizer of the conditional expectation, which therefore never
    drops below its starting value of at least block_size; the returned
    block is the first block_size fully-`color` positions.
    """
    check_coloring(params, coloring)
    universe = range(params.num_sequences)
    if len(set(chosen_seqs).intersection(universe)) < len(chosen_seqs):
        raise ValueError(f"chosen sequences {tuple(chosen_seqs)} must be distinct and in {universe}")
    kp = params.seq_len
    digits = str.maketrans({c: "1" if c == color else "0" for c in COLORS})

    # The conditional expectation with shifts i_1..i_j fixed is
    # |passing| * prod(counts[j:]) / kp^(l-j); the tail factor is a positive
    # constant per step, so maximizing |passing| maximizes the expectation.
    # Bit r of `passing` is set while position r passes every fixed shift,
    # and bit r of a sequence's `mask` while its position r has `color`.
    shifts: list[int] = []
    passing = (1 << kp) - 1
    for seq in chosen_seqs:
        mask = int(coloring[seq * kp : (seq + 1) * kp][::-1].translate(digits), 2)
        count = mask.bit_count()
        if 2 * count < kp:
            raise ValueError(f"sequence {seq} has only {count}/{kp} vertices of color {color}")
        # Bit r of twice >> s is mask bit (r + s) mod kp: the sequence under shift s.
        twice = mask << kp | mask
        best = max(range(kp), key=lambda s: (passing & twice >> s).bit_count())
        shifts.append(best)
        passing &= twice >> best

    if passing.bit_count() < params.block_size:
        raise AssertionError(
            f"greedy alignment found {passing.bit_count()} positions, need {params.block_size}"
        )
    block = [r for r in range(kp) if passing >> r & 1][: params.block_size]
    return tuple(shifts), tuple(block)


class Witness(NamedTuple):
    """A verified monochromatic edge together with how it was found."""

    color: str
    chosen_seqs: tuple[int, ...]
    shifts: tuple[int, ...]
    positions: tuple[int, ...]
    edge: Edge


def find_witness(params: Params, coloring: Coloring) -> Witness:
    """A monochromatic edge of the full construction under any total coloring.

    Verifies, before returning, that the edge is monochromatic and that
    is_edge accepts it; a failure there is an implementation bug, not a
    property of the coloring.
    """
    profile = majority_profile(params, coloring)
    color, chosen = select_same_majority(params, profile)
    shifts, block = derandomized_shifts(params, coloring, color, chosen)
    kp = params.seq_len
    edge = tuple(sorted(seq * kp + (r + s) % kp for seq, s in zip(chosen, shifts) for r in block))
    if any(coloring[v] != color for v in edge):
        raise AssertionError(f"witness edge {edge} is not monochromatic in {color}")
    if not is_edge(params, edge):
        raise AssertionError(f"witness edge {edge} is not an edge of the construction")
    return Witness(color=color, chosen_seqs=chosen, shifts=shifts, positions=block, edge=edge)


def monochromatic_witness(params: Params, hypergraph: Hypergraph, coloring: Coloring) -> Witness:
    """find_witness, cross-checked against the materialized `hypergraph`."""
    witness = find_witness(params, coloring)
    if witness.edge not in hypergraph.edge_set:
        raise AssertionError(f"witness edge {witness.edge} missing from the hypergraph")
    return witness


def find_proper_coloring(
    hypergraph: Hypergraph, max_vertices: int = MAX_EXHAUSTIVE_VERTICES
) -> Coloring | None:
    """A proper 2-coloring of `hypergraph`, or None if it has none.

    Depth-first search that colors vertices 0, 1, 2, ... in order.  The
    distinct edges are numbered in any order that inc and closing share, and
    closing[v] holds the edges whose highest vertex is v.  inc[u] holds
    the edges that contain u, so an edge acts as its vertex set even where a
    vertex repeats.  A node carries the edges touched by a red vertex and
    those touched by a blue one.  Coloring v red makes an edge of
    closing[v] monochromatic exactly when no blue vertex touches it, since
    its other vertices are all colored already, and blue likewise; an edge
    with a higher top vertex still has an uncolored vertex.  So a branch is
    cut exactly when its colored prefix holds a monochromatic edge, every
    leaf is a proper coloring, and the search decides each of the 2^V
    colorings.  Vertex 0 is red: swapping the two colors keeps a coloring
    proper, so a proper coloring with vertex 0 blue exists only if one with
    vertex 0 red does.

    An empty edge is monochromatic under every coloring.  Raises ValueError
    above max_vertices or for a vertex outside the universe.
    """
    n = hypergraph.params.num_vertices
    if n > max_vertices:
        raise ValueError(f"{n} vertices exceed the exhaustive-search limit of {max_vertices}")
    edges = list(dict.fromkeys(hypergraph.edges))
    for edge in edges:
        if edge and (min(edge) < 0 or max(edge) >= n):
            raise ValueError(f"edge {edge} has a vertex outside range({n})")
    if not all(edges):
        return None
    inc = _incidence(edges, len(edges), n)
    closing = _incidence(zip(map(max, edges)), len(edges), n)

    # (next vertex, edges touched by red, edges touched by blue, blue vertices)
    stack = [(0, 0, 0, 0)]
    while stack:
        v, red, blue, blue_vertices = stack.pop()
        if v == n:
            return "".join(BLUE if blue_vertices >> u & 1 else RED for u in range(n))
        edges = closing[v]
        if v and not edges & ~red:
            stack.append((v + 1, red, blue | inc[v], blue_vertices | 1 << v))
        if not edges & ~blue:
            stack.append((v + 1, red | inc[v], blue, blue_vertices))
    return None
