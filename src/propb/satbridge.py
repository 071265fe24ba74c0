"""Hypergraph/CNF duality, a complete DPLL decider, and DIMACS round-tripping.

Every edge turns into two clauses over the 1-based vertex numbering: one
with all variables plain, one with all negated.  The resulting CNF is
monotone, and a 2-coloring is proper for the hypergraph exactly when the
assignment `variable true iff vertex blue` satisfies the CNF.

The embedded solver is plain DPLL (unit propagation, pure-literal
elimination, most-occurrences branching) with counter-based state and an
undo trail; no clause learning.  It is deterministic, complete at desk
scale, and verifies any model before reporting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

from .construction import Edge, Hypergraph, edge_line
from .params import Params
from .witness import BLUE, Coloring

Clause = tuple[int, ...]


class DimacsError(ValueError):
    """Malformed DIMACS text."""


@dataclass(frozen=True)
class Cnf:
    variable_count: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if self.variable_count < 0:
            raise ValueError(f"negative variable count {self.variable_count}")
        for clause in self.clauses:
            seen = set()
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ValueError(f"literal {lit} invalid for {self.variable_count} variables")
                if -lit in seen:
                    raise ValueError(f"clause {clause} contains both {lit} and {-lit}")
                seen.add(lit)


@dataclass(frozen=True)
class SolveResult:
    satisfiable: bool
    model: dict[int, bool] | None
    decisions: int


def hypergraph_to_cnf(hypergraph: Hypergraph) -> Cnf:
    """Two clauses per edge, in edge order: all-plain first, then all-negated."""
    clauses: list[Clause] = []
    for edge in hypergraph.edges:
        clauses.append(tuple(v + 1 for v in edge))
        clauses.append(tuple(-(v + 1) for v in edge))
    return Cnf(hypergraph.vertex_count, tuple(clauses))


def coloring_to_assignment(coloring: Coloring) -> dict[int, bool]:
    """Variable i+1 is true iff vertex i is blue."""
    return {i + 1: c == BLUE for i, c in enumerate(coloring)}


def assignment_satisfies(cnf: Cnf, assignment: dict[int, bool]) -> bool:
    return all(
        any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in cnf.clauses
    )


class _Dpll:
    def __init__(self, cnf: Cnf):
        # Duplicate clauses carry no information; solve the distinct set.
        seen: set[Clause] = set()
        clauses: list[Clause] = []
        for clause in cnf.clauses:
            key = tuple(sorted(clause))
            if key not in seen:
                seen.add(key)
                clauses.append(key)
        self.nvars = cnf.variable_count
        self.clauses = clauses
        self.decisions = 0

        self.occ: dict[int, list[int]] = {}
        for ci, clause in enumerate(clauses):
            for lit in clause:
                self.occ.setdefault(lit, []).append(ci)
        # Occurrences of each literal among not-yet-satisfied clauses.
        self.active_occ = {lit: len(indices) for lit, indices in self.occ.items()}
        self.n_free = [len(clause) for clause in clauses]
        self.n_sat = [0] * len(clauses)
        self.sat_clauses = 0
        self.assign = [0] * (self.nvars + 1)  # 0 free, +1 true, -1 false
        self.trail: list[int] = []

    def _set(self, lit: int, unit_queue: list[int]) -> bool:
        self.assign[abs(lit)] = 1 if lit > 0 else -1
        self.trail.append(lit)
        for ci in self.occ.get(lit, ()):
            self.n_sat[ci] += 1
            if self.n_sat[ci] == 1:
                self.sat_clauses += 1
                for other in self.clauses[ci]:
                    self.active_occ[other] -= 1
        ok = True
        for ci in self.occ.get(-lit, ()):
            self.n_free[ci] -= 1
            if self.n_sat[ci] == 0:
                if self.n_free[ci] == 0:
                    ok = False
                elif self.n_free[ci] == 1:
                    unit_queue.append(ci)
        return ok

    def _unset(self) -> None:
        lit = self.trail.pop()
        self.assign[abs(lit)] = 0
        for ci in self.occ.get(lit, ()):
            self.n_sat[ci] -= 1
            if self.n_sat[ci] == 0:
                self.sat_clauses -= 1
                for other in self.clauses[ci]:
                    self.active_occ[other] += 1
        for ci in self.occ.get(-lit, ()):
            self.n_free[ci] += 1

    def _find_pure(self) -> int | None:
        for v in range(1, self.nvars + 1):
            if self.assign[v] == 0:
                pos = self.active_occ.get(v, 0)
                neg = self.active_occ.get(-v, 0)
                if pos and not neg:
                    return v
                if neg and not pos:
                    return -v
        return None

    def _propagate(self, lit: int | None, unit_queue: list[int]) -> tuple[bool, int]:
        """Assign the free literal lit, if any, then units and pures to fixpoint; (ok, trail growth)."""
        mark = len(self.trail)
        ok = lit is None or self._set(lit, unit_queue)
        while ok:
            while ok and unit_queue:
                ci = unit_queue.pop()
                if self.n_sat[ci] > 0 or self.n_free[ci] != 1:
                    continue
                unit = next(lit for lit in self.clauses[ci] if self.assign[abs(lit)] == 0)
                ok = self._set(unit, unit_queue)
            if not ok:
                break
            pure = self._find_pure()
            if pure is None:
                break
            ok = self._set(pure, unit_queue)
        unit_queue.clear()
        return ok, len(self.trail) - mark

    def _undo(self, count: int) -> None:
        for _ in range(count):
            self._unset()

    def _pick(self) -> int:
        best, best_score = 0, 0
        for v in range(1, self.nvars + 1):
            if self.assign[v] == 0:
                score = self.active_occ.get(v, 0) + self.active_occ.get(-v, 0)
                if score > best_score:
                    best, best_score = v, score
        return best

    def _search(self) -> bool:
        """Depth-first over decisions, positive literal first, with an explicit stack.

        Each stack entry is one open decision: (variable, literal in force,
        trail growth of its propagation), so depth is bounded by the variable
        count, not by Python's recursion limit.
        """
        stack: list[tuple[int, int, int]] = []
        ok = True
        while True:
            if ok:
                if self.sat_clauses == len(self.clauses):
                    return True
                variable = self._pick()
                if variable:
                    self.decisions += 1
                    ok, grown = self._propagate(variable, [])
                    stack.append((variable, variable, grown))
                    continue
            # The branch on top failed: undo it and take the other literal,
            # or, when both have failed, backtrack into the decision below.
            while stack:
                variable, lit, grown = stack.pop()
                self._undo(grown)
                if lit == variable:
                    ok, grown = self._propagate(-variable, [])
                    stack.append((variable, -variable, grown))
                    break
            else:
                return False

    def solve(self) -> SolveResult:
        if any(n == 0 for n in self.n_free):  # empty clause
            return SolveResult(False, None, 0)
        ok, _ = self._propagate(None, [ci for ci, n in enumerate(self.n_free) if n == 1])
        if ok and self._search():
            model = {v: self.assign[v] > 0 for v in range(1, self.nvars + 1)}
            return SolveResult(True, model, self.decisions)
        return SolveResult(False, None, self.decisions)


def dpll_satisfiable(cnf: Cnf) -> SolveResult:
    """Complete satisfiability decision; models are verified before returning."""
    result = _Dpll(cnf).solve()
    if result.satisfiable:
        assert result.model is not None
        if not assignment_satisfies(cnf, result.model):
            raise AssertionError("solver produced a non-satisfying model")
    return result


def emit_dimacs(cnf: Cnf) -> str:
    """Standard DIMACS text, LF-terminated, clause order preserved."""
    lines = [f"p cnf {cnf.variable_count} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join([str(lit) for lit in clause] + ["0"]))
    return "\n".join(lines) + "\n"


def write_dual_dimacs_text(out: IO[str], params: Params, chunks: Iterable[str], num_edges: int) -> None:
    """Stream the dual CNF as DIMACS from chunks of newline-joined edge lines.

    Each chunk's negated clauses come from the chunk itself, by string
    replacement, and are interleaved with the plain ones, so each edge gives
    its all-plain clause, then its all-negated one.  Like
    write_edge_list_text, it holds one chunk's text at a time, so a caller
    streaming one edge_line per chunk holds one edge's.  `num_edges` must
    match the number of lines.
    """
    out.write(f"p cnf {params.num_vertices} {2 * num_edges}\n")
    for chunk in chunks:
        plain = chunk.split("\n")
        both = plain * 2
        both[::2] = plain
        both[1::2] = ("-" + chunk.replace(" ", " -").replace("\n", "\n-")).split("\n")
        out.write(" 0\n".join(both) + " 0\n")


def write_dual_dimacs(out: IO[str], params: Params, edges: Iterable[Edge], num_edges: int) -> None:
    """Stream the dual CNF as DIMACS; equals emit_dimacs(hypergraph_to_cnf(...)) of the same edges."""
    write_dual_dimacs_text(out, params, map(edge_line, edges), num_edges)


def parse_dimacs(text: str) -> Cnf:
    """Read DIMACS CNF, tolerating comment lines and multi-line clauses."""
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
    try:
        return Cnf(variable_count, tuple(clauses))
    except ValueError as exc:
        raise DimacsError(str(exc)) from exc
