"""Hypergraph/CNF duality and a complete DPLL decider.

Every edge turns into two clauses over the 1-based vertex numbering: one
with all variables plain, one with all negated.  The resulting CNF is
monotone, and a 2-coloring is proper for the hypergraph exactly when the
assignment `variable true iff vertex blue` satisfies the CNF.  gen prints
the same dual as DIMACS text through construction's renderers.

The embedded solver is plain DPLL (unit propagation, pure-literal
elimination, most-occurrences branching) with no clause learning.  Its
state is the variables' values and a few big ints over clause indices: the
unsatisfied clauses and, bit-sliced, each clause's count of literals not yet
false.  An assignment updates the ints with a handful of bitwise
operations, none making a negative int, and the count planes in place.  A
decision saves the whole state as one snapshot (the unsatisfied clauses by
reference, the plane list and the values as copies), and a backtrack
restores it.  Its state comes from the literal masks, which one of two
set-ups builds through _incidence.  From a Cnf, it is one pass over the
literal occurrences (two if a clause repeats a literal) and the one check of
the clause set.  From the distinct edge stream (dual_satisfiable, which
solve uses), it is one pass over the edges' vertices, with no Hypergraph or
Cnf held: each edge is one tuple of its variables, shared by its plain and
its negated clause, which a polarity byte tells apart, and the strictly
ascending sorted stream makes the clauses distinct without a dedup.  It is
deterministic, complete at desk scale, and verifies any model in _decide.
"""

from __future__ import annotations

import operator
from itertools import chain, compress, repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from .construction import Hypergraph, _incidence, iter_distinct_edges
from .params import Params

Clause = tuple[int, ...]


class Cnf(NamedTuple):
    """Clauses over variables 1..variable_count; dpll_satisfiable checks them."""

    variable_count: int
    clauses: tuple[Clause, ...]


class SolveResult(NamedTuple):
    satisfiable: bool
    model: dict[int, bool] | None
    decisions: int


def hypergraph_to_cnf(hypergraph: Hypergraph) -> Cnf:
    """Two clauses per edge, in edge order: all-plain first, then all-negated.

    Each literal is one int object, however many clauses hold it: vertex v
    is looked up in one table of plain and one of negated literals.
    """
    n, edges = hypergraph.params.num_vertices, hypergraph.edges
    vertices = set(chain.from_iterable(edges))  # a negative vertex would index the tables from the end
    if vertices and (min(vertices) < 0 or max(vertices) >= n):
        edge = next(e for e in edges if e and (min(e) < 0 or max(e) >= n))
        raise ValueError(f"edge {edge} has a vertex outside 0..{n - 1}")
    plain, negated = tuple(range(1, n + 1)), tuple(range(-1, -n - 1, -1))
    clauses: list[Clause] = [()] * (2 * len(edges))
    clauses[0::2] = map(tuple, map(map, repeat(plain.__getitem__), edges))
    clauses[1::2] = map(tuple, map(map, repeat(negated.__getitem__), edges))
    return Cnf(n, tuple(clauses))


def assignment_satisfies(cnf: Cnf, assignment: dict[int, bool]) -> bool:
    return all(
        any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in cnf.clauses
    )


def _vertices(variables: Clause) -> Clause:
    """An edge of 1-based variables as its 0-based vertices."""
    return tuple(v - 1 for v in variables)


class _Dpll:
    """DPLL over bitmasks of clause indices.

    Bit i of `pos[v]` (`neg[v]`) is set when clause i holds v (-v), never
    both: the Cnf set-up raises ValueError on a negative variable count, a
    literal 0 or beyond it, and a clause holding a literal and its negation,
    and `dual` on edges that do not make distinct k-wide clauses.  Clause
    i's unit literal is the free variable of `clauses[i]`, negated where
    `polarity[i]` is 1: never from a Cnf, whose clauses hold signed
    literals, and for each negated clause of `dual`.
    `unsat` holds the clauses with no true literal, and `planes[j]` holds bit
    j of each clause's count of literals not yet false, at first the
    bit-sliced sum of the literal masks.  Only unsatisfied clauses' counts
    are kept current; nothing reads the others.  No operation of the search
    makes a negative int.  A decision snapshots `unsat`, a copy of the
    `planes` list, updated in place between decisions, and the per-variable
    `value`, one byte a variable, so each copy is small.  Unit propagation
    reaches the same closure, or a conflict, whichever unit clause it takes
    first, so any unit clause will do; the highest-numbered is taken, as
    its index is the unit mask's bit length less one.
    """

    def __init__(self, cnf: Cnf):
        # Solve the distinct set, so each count starts at its clause's true width: sorted clauses,
        # or sorted sets once the masks show a repeated literal.  A clause already so is not copied.
        n = cnf.variable_count
        if n < 0:
            raise ValueError(f"negative variable count {n}")
        valid = set(range(-n, n + 1)) - {0}  # literal lit's mask is masks[lit], -v's counted from the end
        for canonical in map(sorted, cnf.clauses), map(sorted, map(set, cnf.clauses)):
            keys = map(tuple, canonical)
            clauses = list(dict.fromkeys(c if c == key else key for c, key in zip(cnf.clauses, keys)))
            if not valid.issuperset(chain.from_iterable(clauses)):
                bad = next(lit for lit in chain.from_iterable(clauses) if lit not in valid)
                raise ValueError(f"literal {bad} invalid for {n} variables")
            masks = _incidence(clauses, len(clauses), 2 * n + 1)
            if sum(map(len, clauses)) == sum(map(int.bit_count, masks)):
                break
        pos, neg = masks[: n + 1], [0, *masks[:n:-1]]  # index 0 unused
        for v in range(1, n + 1):
            if both := pos[v] & neg[v]:
                clause = clauses[(both ^ (both - 1)).bit_length() - 1]
                raise ValueError(f"clause {clause} contains both {v} and {-v}")
        self._start(clauses, bytes(len(clauses)), pos, neg)

    @classmethod
    def dual(cls, num_vertices: int, k: int, edges: Iterable[Sequence[int]]) -> _Dpll:
        """The solver of the dual of `edges`, each edge's variable tuple held once.

        Edge i, over 0-based vertices, gives clause 2i plain and clause 2i+1
        negated, both `clauses` entries the one tuple of its 1-based
        variables; only `polarity` tells them apart.  Raises ValueError
        unless the edges are strictly ascending, each one sorted, and every
        edge is k vertices of 0..num_vertices-1 with none repeated: then
        the clauses are distinct and canonical, as the Cnf path makes them.
        """
        variable = {v: v + 1 for v in range(num_vertices)}  # a KeyError for any other vertex
        try:
            variables = list(map(tuple, map(map, repeat(variable.__getitem__), edges)))
        except KeyError as exc:
            raise ValueError(f"vertex {exc.args[0]!r} is outside 0..{num_vertices - 1}") from None
        # The first edge not above the one before it, then the first unsorted edge.
        unordered = chain(
            compress(variables, map(operator.ge, chain(((),), variables), variables)),
            compress(variables, map(operator.ne, map(sorted, variables), map(list, variables))),
        )
        if (edge := next(unordered, None)) is not None:
            raise ValueError(f"edge {_vertices(edge)} is unsorted or not above the edge before it")
        if (edge := next(compress(variables, map(k.__ne__, map(len, variables))), None)) is not None:
            raise ValueError(f"edge {_vertices(edge)} does not have {k} vertices")
        pos = _incidence(variables, len(variables), num_vertices + 1, 2)  # v's plain clauses: 2i for each edge i holding v
        if sum(map(int.bit_count, pos)) != k * len(variables):
            raise ValueError(f"edge {_vertices(next(e for e in variables if len(set(e)) != k))} repeats a vertex")
        clauses: list[Clause] = [()] * (2 * len(variables))
        clauses[0::2] = clauses[1::2] = variables
        self = cls.__new__(cls)
        self._start(clauses, b"\0\1" * len(variables), pos, [p << 1 for p in pos])
        return self

    def _start(self, clauses: list[Clause], polarity: bytes, pos: list[int], neg: list[int]) -> None:
        """The search state of distinct clauses, from their literal masks by variable (index 0 unused)."""
        self.nvars = len(pos) - 1
        self.clauses, self.polarity, self.pos, self.neg = clauses, polarity, pos, neg
        self.decisions = 0
        # A variable's score never exceeds its static occurrence count.
        self.static = [(p | m).bit_count() for p, m in zip(pos, neg)]
        planes = [0]  # add the literal masks, carrying up: each clause's width
        for carry in chain(pos, neg):
            for j, plane in enumerate(planes):
                planes[j], carry = plane ^ carry, plane & carry
                if not carry:
                    break
            else:
                planes.append(carry)
        self.unsat, self.planes = (1 << len(clauses)) - 1, planes
        from array import array  # only the solver needs it
        self.value = array("b", bytes(self.nvars + 1))  # 0 free, +1 true, -1 false

    def _propagate(self, lit: int) -> int | None:
        """Make lit true (none if 0), then close under units and lowest pure literals.

        Any unit clause will do, and the highest-numbered is taken.  Pure
        literals are taken only once the unit closure is complete, the
        lowest variable first.  Returns None on a conflict, leaving the
        count planes for the caller to restore; otherwise the branching
        variable, with the most occurrences among unsatisfied clauses and
        the lowest number on a tie, or 0 when none is left.  The pass that
        finds no pure literal is the one that picks it.
        """
        value, pos, neg, static = self.value, self.pos, self.neg, self.static
        unsat, planes, clauses, polarity = self.unsat, self.planes, self.clauses, self.polarity
        while True:
            if lit:
                v = abs(lit)
                value[v] = 1 if lit > 0 else -1
                true, false = (pos[v], neg[v]) if lit > 0 else (neg[v], pos[v])
                unsat ^= unsat & true
                # Subtract one from the count of each unsatisfied clause
                # that lit falsifies, borrowing up through the planes where
                # the old bit was 0, so the new one is 1.
                borrow = false & unsat
                for j, plane in enumerate(planes):
                    if not borrow:
                        break
                    planes[j] = plane = plane ^ borrow
                    borrow &= plane
            high = 0
            for plane in planes[1:]:
                high |= plane
            at_most_one = unsat ^ (unsat & high)
            units = at_most_one & planes[0]
            if at_most_one != units:
                return None
            if units:
                ci = units.bit_length() - 1
                for lit in clauses[ci]:
                    if not value[abs(lit)]:
                        break
                if polarity[ci]:
                    lit = -lit
                continue
            lit = best = best_score = 0
            for v in range(1, self.nvars + 1):
                if value[v]:
                    continue
                plus, minus = pos[v] & unsat, neg[v] & unsat
                if plus and minus:
                    if static[v] > best_score:
                        score = (plus | minus).bit_count()
                        if score > best_score:
                            best, best_score = v, score
                elif plus or minus:
                    lit = v if plus else -v
                    break
            if not lit:
                self.unsat = unsat
                return best

    def _search(self) -> bool:
        """Depth-first over decisions, positive literal first, with an explicit stack.

        Each stack entry is one decision whose negative branch is untried:
        (that literal, and the unsat mask, count planes and values saved
        before the decision).  A conflict pops the newest entry, restores its
        snapshot, whose copies nothing else holds, and propagates its
        literal; a conflict on an empty stack means unsatisfiable.  Depth is
        bounded by the variable count, not by Python's recursion limit.
        """
        stack: list[tuple[int, int, list[int], Sequence[int]]] = []
        branch = self._propagate(0)
        while branch != 0:
            if branch is None:
                if not stack:
                    return False
                lit, self.unsat, self.planes, self.value = stack.pop()
                branch = self._propagate(lit)
            else:
                self.decisions += 1
                stack.append((-branch, self.unsat, self.planes[:], self.value[:]))
                branch = self._propagate(branch)
        return True


def _decide(solver: _Dpll, satisfies: Callable[[dict[int, bool]], bool]) -> SolveResult:
    """Run the search; a model, read from the values, is returned only if `satisfies` accepts it."""
    if not solver._search():
        return SolveResult(False, None, solver.decisions)
    model = {v: solver.value[v] > 0 for v in range(1, solver.nvars + 1)}
    if not satisfies(model):
        raise AssertionError("solver produced a non-satisfying model")
    return SolveResult(True, model, solver.decisions)


def dpll_satisfiable(cnf: Cnf) -> SolveResult:
    """Complete satisfiability decision; models are verified before returning."""
    return _decide(_Dpll(cnf), lambda model: assignment_satisfies(cnf, model))


def dual_satisfiable(params: Params) -> SolveResult:
    """dpll_satisfiable of the distinct edges' dual, set up from their stream; a model is checked on them streamed again."""
    solver = _Dpll.dual(params.num_vertices, params.k, iter_distinct_edges(params))
    return _decide(solver, lambda model: all(len({model[v + 1] for v in e}) == 2 for e in iter_distinct_edges(params)))
