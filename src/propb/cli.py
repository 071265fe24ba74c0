"""Command-line front end.

Commands: gen (edge list or DIMACS on stdout), count (exact edge count vs
analytic bound), bound (sweep over the valid l values of a k), witness
(monochromatic edge for a coloring), solve (DPLL on the dual CNF), and
verify-small (exhaustive non-2-colorability check).

witness builds no hypergraph: it checks its edge arithmetically, so it takes
no edge cap (nor does count, which uses the closed form).  It refuses
instances whose shift search, l * seq_len^2 steps, exceeds
WITNESS_MAX_SHIFT_STEPS.  gen --dedup, solve (with or without --dedup) and
verify-small build the distinct edges directly, in memory proportional to
their number, never the multiset; the edge cap still applies to the
multiset count.  solve --dedup reports the distinct clause count, solve
without it the multiset's; the verdict and decisions are the same.  count
and bound refuse, before printing anything, when an exact edge count they
would print has more than COUNT_MAX_BITS bits.  A count is at least
2^(l*l), so when l*l (for bound, k*k) reaches that limit they refuse
without computing any count; count without --l skips, in the same way,
every l whose count cannot be the smallest.

Exit codes: 0 success, also when the reader of stdout closes the pipe
early; 2 usage or parameter error, including a negative edge cap and an
unreadable coloring file; 3 size refusal (edge cap, exhaustive-search
limit, witness shift-search limit or exact-count printing limit); 4
verification failure, which would mean a bug in the construction.  The
default edge cap of gen, solve and verify-small can be overridden with
--edge-cap or the PROPB_EDGE_CAP environment variable.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import IO, Iterable, Sequence

from . import counting
from .construction import (
    DEFAULT_EDGE_CAP,
    Edge,
    EdgeCapError,
    check_edge_cap,
    distinct_hypergraph,
    edge_line,
    iter_edges,
    write_edge_list,
)
from .params import ParameterError, Params, validate_params
from .satbridge import dpll_satisfiable, hypergraph_to_cnf, write_dual_dimacs
from .witness import (
    MAX_EXHAUSTIVE_VERTICES,
    ColoringError,
    find_proper_coloring,
    find_witness,
    parse_coloring,
    random_coloring,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIZE = 3
EXIT_VERIFY = 4

# witness scans every shift of each chosen sequence against every still
# passing position: at most l * seq_len^2 steps, about 1.7 s at this limit
# (k = 1581, l = 1) on a 2-vCPU x86-64 VM.
WITNESS_MAX_SHIFT_STEPS = 10**7
# count and bound print exact edge counts in full.  Decimal conversion takes
# time quadratic in the length, and CPython refuses ints above 4300 digits
# (about 14,284 bits) by default; a fixed limit in bits keeps the output the
# same on every Python version.
COUNT_MAX_BITS = 14_000


def _default_edge_cap() -> int:
    raw = os.environ.get("PROPB_EDGE_CAP")
    if raw is None:
        return DEFAULT_EDGE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"PROPB_EDGE_CAP must be an integer, got {raw!r}")


def _resolve_params(args: argparse.Namespace) -> Params:
    l = args.l if args.l is not None else counting.best_l(args.k)
    return validate_params(args.k, l)


def cmd_gen(args: argparse.Namespace, out: IO[str]) -> int:
    params = _resolve_params(args)
    if args.dedup:
        edges: Iterable[Edge] = distinct_hypergraph(params, args.edge_cap).edges
        count = len(edges)
    else:
        count = check_edge_cap(params, args.edge_cap)
        edges = iter_edges(params)
    writer = write_edge_list if args.format == "edges" else write_dual_dimacs
    writer(out, params, edges, count)
    return EXIT_OK


def _refuse_count(out: IO[str], bits: str) -> int:
    out.write(
        f"refusing: the exact edge count has {bits} bits, above the printing "
        f"limit of {COUNT_MAX_BITS}\n"
    )
    return EXIT_SIZE


def cmd_count(args: argparse.Namespace, out: IO[str]) -> int:
    params = _resolve_params(args)
    # The count is at least seq_len^l >= 2^(l*l): refuse before computing it.
    if params.l * params.l >= COUNT_MAX_BITS:
        return _refuse_count(out, f"more than {params.l * params.l}")
    count = counting.edge_count(params)
    if count.bit_length() > COUNT_MAX_BITS:
        return _refuse_count(out, str(count.bit_length()))
    bound = counting.edge_count_upper_bound(params.k, params.l)
    verdict = "yes" if bound.certifies_at_most(count) else "NO"
    out.write(f"k = {params.k}, l = {params.l}, vertices = {params.num_vertices}\n")
    out.write(f"edge count = {count}\n")
    out.write(f"upper bound = {counting.scientific(bound.upper)}\n")
    out.write(f"count <= bound: {verdict}\n")
    return EXIT_OK if verdict == "yes" else EXIT_VERIFY


def cmd_bound(args: argparse.Namespace, out: IO[str]) -> int:
    k = args.k
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    # The l = k row's count is at least 2^(k*k), as in cmd_count.
    if k * k >= COUNT_MAX_BITS:
        return _refuse_count(out, f"more than {k * k}")
    rows = [validate_params(k, l) for l in counting.divisors(k)]
    counts = [counting.edge_count(params) for params in rows]
    longest = max(counts)
    if longest.bit_length() > COUNT_MAX_BITS:
        return _refuse_count(out, str(longest.bit_length()))
    out.write(f"{'l':>4} {'seq_len':>8} {'edge_count':>16} {'upper_bound':>13} {'ok':>3}\n")
    failures = 0
    for params, count in zip(rows, counts):
        bound = counting.edge_count_upper_bound(k, params.l)
        ok = bound.certifies_at_most(count)
        failures += 0 if ok else 1
        out.write(f"{params.l:>4} {params.seq_len:>8} {count:>16} {counting.scientific(bound.upper):>13} {'yes' if ok else 'NO':>3}\n")
    best_count, best = min(zip(counts, (params.l for params in rows)))
    out.write(f"best l = {best} (edge count {best_count})\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_witness(args: argparse.Namespace, out: IO[str]) -> int:
    params = _resolve_params(args)
    steps = params.l * params.seq_len**2
    if steps > WITNESS_MAX_SHIFT_STEPS:
        out.write(
            f"refusing: the shift search takes {steps} steps, above the witness limit "
            f"of {WITNESS_MAX_SHIFT_STEPS}\n"
        )
        return EXIT_SIZE
    if args.coloring is not None:
        try:
            with open(args.coloring, "r", encoding="ascii") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParameterError(f"cannot read the coloring file: {exc}") from exc
        coloring = parse_coloring(params, text)
    elif args.seed is not None:
        coloring = random_coloring(params, random.Random(args.seed))
    else:
        raise ParameterError("witness needs --coloring FILE or --seed N")
    witness = find_witness(params, coloring)
    out.write(f"color = {witness.color}\n")
    out.write(f"sequences = {' '.join(str(s) for s in witness.chosen_seqs)}\n")
    out.write(f"shifts = {' '.join(str(s) for s in witness.shifts)}\n")
    out.write(f"positions = {' '.join(str(r) for r in witness.positions)}\n")
    out.write(f"edge = {edge_line(witness.edge)}\n")
    out.write("verified: monochromatic and present in the construction\n")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace, out: IO[str]) -> int:
    params = _resolve_params(args)
    cnf = hypergraph_to_cnf(distinct_hypergraph(params, args.edge_cap))
    result = dpll_satisfiable(cnf)
    # The solver drops duplicate clauses, so the multiset dual is decided by
    # its distinct clauses; without --dedup it is still the one reported.
    clauses = len(cnf.clauses) if args.dedup else 2 * counting.edge_count(params)
    stats = f"variables = {cnf.variable_count}, clauses = {clauses}, decisions = {result.decisions}"
    if result.satisfiable:
        out.write(f"satisfiable ({stats})\n")
        out.write("ERROR: the dual CNF must be unsatisfiable; this is a bug\n")
        return EXIT_VERIFY
    out.write(f"unsatisfiable ({stats})\n")
    return EXIT_OK


def cmd_verify_small(args: argparse.Namespace, out: IO[str]) -> int:
    params = _resolve_params(args)
    if params.num_vertices > MAX_EXHAUSTIVE_VERTICES:
        out.write(
            f"refusing: {params.num_vertices} vertices exceed the exhaustive limit "
            f"of {MAX_EXHAUSTIVE_VERTICES}\n"
        )
        return EXIT_SIZE
    proper = find_proper_coloring(distinct_hypergraph(params, args.edge_cap))
    checked = 2**params.num_vertices
    if proper is None:
        out.write(f"non-2-colorable: confirmed ({checked} colorings checked)\n")
        return EXIT_OK
    out.write(f"ERROR: found a proper 2-coloring {proper}; this is a bug\n")
    return EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propb",
        description=(
            "Build k-uniform hypergraphs with no proper 2-coloring and their "
            "unsatisfiable monotone k-CNF duals; count, bound, witness, and verify."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_cap: bool = True) -> None:
        p.add_argument("--k", type=int, required=True, help="edge size")
        p.add_argument(
            "--l",
            type=int,
            default=None,
            help="grouping parameter (divisor of k); default: minimize the edge count",
        )
        if with_cap:
            p.add_argument(
                "--edge-cap",
                type=int,
                default=None,
                help=f"refuse constructions above this many edges (default {DEFAULT_EDGE_CAP} "
                "or PROPB_EDGE_CAP)",
            )

    p_gen = sub.add_parser("gen", help="emit the construction as an edge list or DIMACS CNF")
    add_common(p_gen)
    p_gen.add_argument("--format", choices=("edges", "dimacs"), default="edges")
    p_gen.add_argument("--dedup", action="store_true", help="emit distinct edges only")
    p_gen.set_defaults(func=cmd_gen)

    p_count = sub.add_parser("count", help="exact edge count and the analytic upper bound")
    add_common(p_count, with_cap=False)
    p_count.set_defaults(func=cmd_count)

    p_bound = sub.add_parser("bound", help="sweep the valid l values for a given k")
    p_bound.add_argument("--k", type=int, required=True, help="edge size")
    p_bound.set_defaults(func=cmd_bound)

    p_witness = sub.add_parser("witness", help="monochromatic edge for a 2-coloring")
    add_common(p_witness, with_cap=False)
    p_witness.add_argument("--coloring", type=str, default=None, help="coloring file (one line of R/B)")
    p_witness.add_argument("--seed", type=int, default=None, help="generate a random coloring instead")
    p_witness.set_defaults(func=cmd_witness)

    p_solve = sub.add_parser("solve", help="decide the dual CNF with the embedded DPLL")
    add_common(p_solve)
    p_solve.add_argument(
        "--dedup", action="store_true", help="report the distinct clause count, not the multiset's"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser(
        "verify-small", help="exhaustively check non-2-colorability (vertex count <= 26)"
    )
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify_small)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "edge_cap"):
            if args.edge_cap is None:
                args.edge_cap = _default_edge_cap()
            if args.edge_cap < 0:
                raise ParameterError(f"the edge cap must be non-negative, got {args.edge_cap}")
        return args.func(args, sys.stdout)
    except BrokenPipeError:
        # The reader left early (`propb gen | head`); send the rest of the
        # buffered output, including the flush at exit, to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ParameterError, ColoringError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EdgeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
