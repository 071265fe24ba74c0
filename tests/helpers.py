"""Independent brute-force oracles used to check the package's fast paths.

Everything here is written straight from the definitions, with no shared
code or precomputation tricks, so a bug in an optimized implementation
cannot hide in its own oracle.  That includes a whole-text DIMACS writer
and the only DIMACS reader, which check the streamed `gen --format dimacs`.
binomial_upper_bound, the classical bound on C(n, r), lives here too: only
the tests use it.  So does Sha256Sink, the stdout through which the pinned
output tests hash what a command writes without holding it.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import math
from fractions import Fraction
from math import floor, log10, prod
from typing import Iterable, Iterator, Sequence

from propb.counting import BoundValue, e_enclosure
from propb.params import Params
from propb.satbridge import Clause, Cnf
from propb.witness import BLUE, COLORS, check_coloring


def naive_subset_edges(params: Params, chosen_seqs: Sequence[int]) -> list[tuple[int, ...]]:
    """Definitional per-subset edge multiset: loop shifts, blocks, sequences."""
    edges = []
    kp = params.seq_len
    for shifts in itertools.product(range(kp), repeat=params.l):
        for block in itertools.combinations(range(kp), params.block_size):
            vertices = set()
            for seq, shift in zip(chosen_seqs, shifts):
                for r in block:
                    vertices.add(seq * kp + (r + shift) % kp)
            edges.append(tuple(sorted(vertices)))
    return edges


def naive_full_edges(params: Params) -> list[tuple[int, ...]]:
    edges = []
    for chosen in itertools.combinations(range(params.num_sequences), params.l):
        edges.extend(naive_subset_edges(params, chosen))
    return edges


def log2_count_range_by_int(k: int, l: int) -> tuple[float, float]:
    """The log2 bracket of the edge count as first written, with seq_len = 2^l * k/l built as an int.

    C(2l-1, l) * n^l * C(n, r), with 2^(nH)/(n+1) <= C(n, r) <= 2^(nH) for
    nH = r*l + r*(2^l - 1)*log2(1/(1 - 2^-l)); only for moderate l.
    """
    r = k // l
    n = 2**l * r
    x = 2.0**-l
    factor = -math.log1p(-x) / x * (1 - x) if x else 1.0
    log_binomials = math.lgamma(2 * l) - math.lgamma(l + 1) - math.lgamma(l) + r * factor
    hi = log_binomials / math.log(2) + r * l + l * math.log2(n)
    margin = 4 + 1e-9 * hi
    return hi - math.log2(n + 1) - margin, hi + margin


def has_monochromatic_edge(coloring: str, edges: Iterable[tuple[int, ...]]) -> bool:
    for edge in edges:
        # An empty edge is monochromatic under every coloring.
        if not edge:
            return True
        first = coloring[edge[0]]
        if all(coloring[v] == first for v in edge[1:]):
            return True
    return False


def scientific_by_integers(value: Fraction) -> str:
    """`value` >= 1 in `.4e` notation, rounded half to even, by integer arithmetic alone."""
    # 10^exponent <= whole < 10^(exponent + 1), found without str(whole),
    # which CPython refuses for ints above 4300 digits.
    whole = floor(value)
    exponent = floor((whole.bit_length() - 1) * log10(2))
    while 10**exponent > whole:
        exponent -= 1
    while 10 ** (exponent + 1) <= whole:
        exponent += 1
    digits = round(value / Fraction(10) ** (exponent - 4))
    if digits == 10**5:
        digits, exponent = digits // 10, exponent + 1
    text = str(digits)
    return f"{text[0]}.{text[1:]}e{exponent:+03d}"


def binomial_upper_bound(n: int, r: int) -> BoundValue:
    """The classical bound (e*n/r)^r >= C(n, r), as a rational enclosure."""
    if not isinstance(n, int) or not isinstance(r, int) or n < 0 or r < 1:
        raise ValueError(f"need integers n >= 0 and r >= 1, got n={n!r}, r={r!r}")
    if r > n:
        raise ValueError(f"need r <= n, got n={n}, r={r}")
    lower, upper = e_enclosure()
    return BoundValue(lower=(lower * n / r) ** r, upper=(upper * n / r) ** r)


def all_colorings(num_vertices: int) -> Iterator[str]:
    for bits in itertools.product("RB", repeat=num_vertices):
        yield "".join(bits)


def truth_table_satisfiable(variable_count: int, clauses: Sequence[Sequence[int]]):
    """Exhaustive SAT decision; returns a model dict or None."""
    for bits in itertools.product((False, True), repeat=variable_count):
        assignment = {v + 1: bits[v] for v in range(variable_count)}
        if all(any(assignment[abs(lit)] == (lit > 0) for lit in cl) for cl in clauses):
            return assignment
    return None


def unit_propagation_closure(
    clauses: Sequence[Sequence[int]], assignment: dict[int, bool], lit: int
) -> dict[int, bool] | None:
    """Make lit true (none if 0), then close under unit clauses and pure literals, by definition.

    Open clauses are those with no true literal.  The first open clause, in
    clause order, with exactly one distinct unassigned literal makes that
    literal true.  With no such clause left, the lowest variable that has
    one sign only among the open clauses is made to satisfy them, and the
    closure repeats.  Returns the extended assignment, or None as soon as
    an open clause has no unassigned literal: a conflict.
    """
    assignment = dict(assignment)
    if lit:
        assignment[abs(lit)] = lit > 0
    while True:
        open_clauses = [c for c in clauses if not any(assignment.get(abs(u)) == (u > 0) for u in c)]
        unassigned = [{u for u in c if abs(u) not in assignment} for c in open_clauses]
        if set() in unassigned:
            return None
        unit = next((free for free in unassigned if len(free) == 1), None)
        if unit is None:
            literals = set().union(*unassigned)
            pure = [u for u in literals if -u not in literals]
            if not pure:
                return assignment
            unit = {min(pure, key=abs)}
        (u,) = unit
        assignment[abs(u)] = u > 0


def max_aligned_by_enumeration(
    params: Params, coloring: str, color: str, chosen_seqs: Sequence[int]
) -> int:
    """Largest number of fully `color` positions over every shift tuple."""
    kp = params.seq_len
    best = -1
    for shifts in itertools.product(range(kp), repeat=len(chosen_seqs)):
        n = 0
        for r in range(kp):
            if all(
                coloring[seq * kp + (r + shift) % kp] == color
                for seq, shift in zip(chosen_seqs, shifts)
            ):
                n += 1
        best = max(best, n)
    return best


def aligned_positions(
    params: Params,
    coloring: str,
    color: str,
    chosen_seqs: Sequence[int],
    shifts: Sequence[int],
) -> tuple[int, ...]:
    """All positions whose shifted vertices are `color` in every chosen sequence."""
    kp = params.seq_len
    pairs = list(zip(chosen_seqs, shifts))
    return tuple(
        r
        for r in range(kp)
        if all(coloring[seq * kp + (r + shift) % kp] == color for seq, shift in pairs)
    )


def exhaustive_best_shifts(
    params: Params,
    coloring: str,
    color: str,
    chosen_seqs: Sequence[int],
) -> tuple[tuple[int, ...], int]:
    """Brute force over all seq_len^l shift tuples: (first argmax, max count)."""
    check_coloring(params, coloring)
    best_shifts: tuple[int, ...] = ()
    best = -1
    for shifts in itertools.product(range(params.seq_len), repeat=len(tuple(chosen_seqs))):
        n = len(aligned_positions(params, coloring, color, chosen_seqs, shifts))
        if n > best:
            best_shifts, best = shifts, n
    return best_shifts, best


def conditional_expectation(
    params: Params,
    coloring: str,
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
    tail = prod(coloring.count(color, seq * kp, (seq + 1) * kp) for seq in chosen[j:])
    return Fraction(passing * tail, kp ** (len(chosen) - j))


def coloring_to_assignment(coloring: str) -> dict[int, bool]:
    """Variable i+1 is true iff vertex i is blue."""
    return {i + 1: c == BLUE for i, c in enumerate(coloring)}


def emit_dimacs(cnf: Cnf) -> str:
    """Standard DIMACS text, LF-terminated, clause order preserved."""
    lines = [f"p cnf {cnf.variable_count} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join([str(lit) for lit in clause] + ["0"]))
    return "\n".join(lines) + "\n"


class DimacsError(ValueError):
    """Malformed DIMACS text."""


def parse_dimacs(text: str) -> Cnf:
    """Read DIMACS CNF, tolerating comment lines and multi-line clauses.

    Refuses, as DimacsError, what is no clause set over the header's
    variables: a literal beyond them, or a literal and its negation in one
    clause.
    """
    header: tuple[int, int] | None = None
    clauses: list[Clause] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsError("duplicate header line")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"bad header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise DimacsError(f"bad header {line!r}") from exc
            continue
        if header is None:
            raise DimacsError(f"clause line before header: {line!r}")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError as exc:
                raise DimacsError(f"bad literal {token!r}") from exc
            if lit == 0:
                clauses.append(tuple(pending))
                pending.clear()
            else:
                pending.append(lit)
    if header is None:
        raise DimacsError("missing header line")
    if pending:
        raise DimacsError("unterminated clause at end of input")
    variable_count, clause_count = header
    if len(clauses) != clause_count:
        raise DimacsError(f"header promises {clause_count} clauses, found {len(clauses)}")
    if variable_count < 0:
        raise DimacsError(f"negative variable count {variable_count}")
    for clause in clauses:
        for lit in clause:
            if abs(lit) > variable_count:
                raise DimacsError(f"literal {lit} invalid for {variable_count} variables")
            if -lit in clause:
                raise DimacsError(f"clause {clause} contains both {lit} and {-lit}")
    return Cnf(variable_count, tuple(clauses))


class Sha256Sink(io.TextIOBase):
    """A stdout that keeps only the SHA-256 of what is written to it, as UTF-8 bytes."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())
        return len(text)

    def flush(self):
        pass
