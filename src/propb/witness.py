"""Constructive witnesses: a monochromatic edge for any total 2-coloring.

Pipeline: count colors per sequence (a tie counts as a majority for both
colors), pick by pigeonhole a color with a majority in at least l of the
2l-1 sequences, then fix the l cyclic shifts one at a time, each choice
maximizing the exact conditional expectation of the number of fully
monochromatic positions.  The expectation starts at >= seq_len / 2^l =
block_size and never drops, so at the end at least block_size positions are
monochromatic and the first block_size of them cut out a monochromatic edge.

find_witness checks the edge against the construction arithmetically
(is_edge), so it builds no hypergraph; monochromatic_witness also checks it
against a materialized one.  A bitmask search for a proper 2-coloring is
provided as an independent check of non-2-colorability.

Coloring representation: a string of 'R'/'B' of length num_vertices,
indexed by the integer vertex encoding.  The coloring file format is that
string on a single line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from .construction import Edge, Hypergraph, is_edge
from .params import Params

RED = "R"
BLUE = "B"
COLORS = (RED, BLUE)

Coloring = str

# find_proper_coloring checks all 2^V colorings: about 67M at this limit.
MAX_EXHAUSTIVE_VERTICES = 26


class ColoringError(ValueError):
    """Coloring is not a total map over the vertex universe."""


class MajorityError(ValueError):
    """A chosen sequence lacks the required majority of the target color."""


def check_coloring(params: Params, coloring: Coloring) -> Coloring:
    if len(coloring) != params.num_vertices:
        raise ColoringError(
            f"coloring has {len(coloring)} entries, need {params.num_vertices}"
        )
    bad = set(coloring) - set(COLORS)
    if bad:
        raise ColoringError(f"coloring contains invalid colors: {sorted(bad)}")
    return coloring


def parse_coloring(params: Params, text: str) -> Coloring:
    """Read the one-line coloring file format (trailing whitespace tolerated)."""
    return check_coloring(params, text.strip())


def random_coloring(params: Params, rng: random.Random) -> Coloring:
    return "".join(rng.choice(COLORS) for _ in range(params.num_vertices))


@dataclass(frozen=True)
class MajorityProfile:
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


def _color_counts(params: Params, coloring: Coloring, color: str, seqs: Sequence[int]) -> list[int]:
    kp = params.seq_len
    return [coloring.count(color, seq * kp, (seq + 1) * kp) for seq in seqs]


def conditional_expectation(
    params: Params,
    coloring: Coloring,
    color: str,
    chosen_seqs: Sequence[int],
    fixed_shifts: Sequence[int],
) -> Fraction:
    """Exact expected number of fully `color` positions, first shifts fixed.

    The remaining shifts are uniform and independent, so position r counts
    with weight prod(count_t / seq_len) over the unfixed sequences t,
    provided r passes every fixed shift.
    """
    check_coloring(params, coloring)
    if color not in COLORS:
        raise ValueError(f"unknown color {color!r}")
    chosen = tuple(chosen_seqs)
    j = len(fixed_shifts)
    if j > len(chosen):
        raise ValueError(f"{j} fixed shifts for {len(chosen)} chosen sequences")
    kp = params.seq_len
    for shift in fixed_shifts:
        if not (0 <= shift < kp):
            raise IndexError(f"shift {shift} out of range 0..{kp - 1}")

    fixed = list(zip(chosen, fixed_shifts))
    passing = sum(
        1
        for r in range(kp)
        if all(coloring[seq * kp + (r + shift) % kp] == color for seq, shift in fixed)
    )
    tail = prod(_color_counts(params, coloring, color, chosen[j:]))
    return Fraction(passing * tail, kp ** (len(chosen) - j))


def derandomized_shifts(
    params: Params,
    coloring: Coloring,
    color: str,
    chosen_seqs: Sequence[int],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy shift tuple plus the block of positions it makes monochromatic.

    Requires a `color` majority in every chosen sequence.  Each shift is the
    smallest maximizer of the conditional expectation, which therefore never
    drops below its starting value of at least block_size; the returned
    block is the first block_size fully-`color` positions.
    """
    check_coloring(params, coloring)
    chosen = tuple(chosen_seqs)
    kp = params.seq_len
    counts = _color_counts(params, coloring, color, chosen)
    for seq, count in zip(chosen, counts):
        if 2 * count < kp:
            raise MajorityError(
                f"sequence {seq} has only {count}/{kp} vertices of color {color}"
            )

    # The conditional expectation with shifts i_1..i_j fixed is
    # |passing| * prod(counts[j:]) / kp^(l-j); the tail factor is a positive
    # constant per step, so maximizing |passing| maximizes the expectation.
    shifts: list[int] = []
    passing = list(range(kp))
    for seq in chosen:
        base = seq * kp
        best_shift, best_passing = 0, -1
        for shift in range(kp):
            n = sum(1 for r in passing if coloring[base + (r + shift) % kp] == color)
            if n > best_passing:
                best_shift, best_passing = shift, n
        shifts.append(best_shift)
        passing = [r for r in passing if coloring[base + (r + best_shift) % kp] == color]

    if len(passing) < params.block_size:
        raise AssertionError(
            f"greedy alignment found {len(passing)} positions, need {params.block_size}"
        )
    return tuple(shifts), tuple(passing[: params.block_size])


@dataclass(frozen=True)
class Witness:
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
    """Exhaustive bitmask search for a proper 2-coloring; None if there is none.

    Checks all 2^V colorings, so it refuses universes above max_vertices.
    Bit v set means vertex v is blue.
    """
    n = hypergraph.vertex_count
    if n > max_vertices:
        raise ValueError(f"{n} vertices exceed the exhaustive-search limit of {max_vertices}")
    masks = sorted({sum(1 << v for v in edge) for edge in hypergraph.edges})
    for assignment in range(1 << n):
        for mask in masks:
            overlap = assignment & mask
            if overlap == 0 or overlap == mask:
                break
        else:
            return "".join(BLUE if assignment >> v & 1 else RED for v in range(n))
    return None
