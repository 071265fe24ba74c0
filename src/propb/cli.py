"""Command-line front end.

Commands: gen (edge list or DIMACS on stdout), count (exact edge count vs
analytic bound), bound (sweep over the valid l values of a k), witness
(monochromatic edge for a coloring), solve (DPLL on the dual CNF), and
verify-small (exhaustive non-2-colorability check).

gen takes its renderer and header line, both from construction, from one
format table, FORMATS.  It writes the header (the multiset or, for --dedup,
the closed-form distinct count), then the chunks of iter_edge_chunks or
iter_distinct_chunks.  Beside one chunk and its buffer it holds only the
current sequence subset's (or, for --dedup, lowest sequence's) part tables
and their shifts or orbit columns, as those functions' docstrings tell.

witness builds no hypergraph: it checks its edge arithmetically, so it takes
no edge cap (nor does count, which uses the closed form).  It refuses
instances whose shift search, l * seq_len^2 steps, exceeds
WITNESS_MAX_SHIFT_STEPS.  gen --dedup streams the distinct edges and
verify-small holds them; solve (with or without --dedup) holds one tuple of
variables per distinct edge and the clause masks, but no hypergraph or CNF.
Both need memory proportional to the number of distinct edges.  None builds
the multiset, but the edge cap still applies to the multiset count.  solve
--dedup reports the distinct clause count, solve without it the
multiset's; the verdict and decisions are the same.  count
and bound refuse, before printing anything, when an exact edge count they
would print has more than COUNT_MAX_BITS bits, as counting.count_bits
tells them before any count is computed (bound asks about its l = k row).
Every size refusal is ruled on from k and l, which are all a Params holds,
before a number of about l bits is built.

Exit codes: 0 success, also when the reader of stdout closes the pipe
early; 2 usage or parameter error, including a negative edge cap, an
unreadable coloring file, and a closed or unwritable stdout; 3 size
refusal (edge cap, exhaustive-search limit, witness shift-search limit or
exact-count printing limit; an edge-cap refusal gives a count past that
limit in bits, and one past twice it as "more than 2^N", uncomputed;
witness and verify-small print their number in full below 10^4300, else as
"a N-bit number of", or as "more than 2^N" steps where seq_len is too long
to square; where k is past the float range, count says "more than N" bits
and an edge-cap refusal "more than 2^N", N = k + l*l; every such N is
stated by the same 10^4300 rule, counting.printable); 4 verification
failure, which would mean a bug in the construction.  SIGINT ends a
command by that signal, with no traceback.  The default edge cap of gen,
solve and verify-small can be overridden with --edge-cap or the
PROPB_EDGE_CAP environment variable.  The process (propb, python -m
propb.cli) ends in run(): main(), a flush of stdout and stderr, then
os._exit, skipping the teardown that only frees memory; an exception or a
failed flush takes the normal exit.  Called from Python, main() returns.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import IO, NoReturn, Sequence

from . import counting
from .construction import (
    DEFAULT_EDGE_CAP,
    EdgeCapError,
    check_edge_cap,
    distinct_hypergraph,
    dual_clause_parts,
    dual_dimacs_header,
    edge_line,
    edge_line_parts,
    edge_list_header,
    iter_distinct_chunks,
    iter_edge_chunks,
)
from .counting import COUNT_MAX_BITS
from .params import ParameterError, Params, validate_params
from .satbridge import dual_satisfiable
from .witness import (
    MAX_EXHAUSTIVE_VERTICES,
    find_proper_coloring,
    find_witness,
    random_coloring,
    read_coloring,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIZE = 3
EXIT_VERIFY = 4

# witness compares every shift of each chosen sequence with every still
# passing position, l * seq_len^2 steps, as l * seq_len ANDs of seq_len-bit
# ints: about 4 ms at this limit (k = 1581, l = 1) on a 2-vCPU x86-64 VM.
# The limit stays because its refusal line and exit code are CLI output,
# and because it bounds the coloring that --seed builds.
WITNESS_MAX_SHIFT_STEPS = 10**7
# gen's text formats: the renderer of a block's parts, and the header line for a number of edges.
FORMATS = {"edges": (edge_line_parts, edge_list_header), "dimacs": (dual_clause_parts, dual_dimacs_header)}


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
    count = check_edge_cap(params, args.edge_cap)
    render, header = FORMATS[args.format]
    if args.dedup:
        count = counting.distinct_edge_count(params)
        chunks = iter_distinct_chunks(params, render)
    else:
        chunks = iter_edge_chunks(params, render)
    out.write(header(params, count) + "\n")
    out.writelines(chunks)
    return EXIT_OK


def _refuse(out: IO[str], reason: str) -> int:
    out.write(f"refusing: {reason}\n")
    return EXIT_SIZE


def _too_long(bits: int | str) -> str:
    return f"the exact edge count has {bits} bits, above the printing limit of {COUNT_MAX_BITS}"


def cmd_count(args: argparse.Namespace, out: IO[str]) -> int:
    params = _resolve_params(args)
    bits = counting.count_bits(params.k, params.l)
    if isinstance(bits, str) or bits > COUNT_MAX_BITS:
        return _refuse(out, _too_long(bits))
    count = counting.edge_count(params)
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
    # The l = k row is the longest up to k = 118, and unprintable from 119 on.
    bits = counting.count_bits(k, k)
    if isinstance(bits, str) or bits > COUNT_MAX_BITS:
        return _refuse(out, _too_long(bits))
    rows = [validate_params(k, l) for l in counting.divisors(k)]
    counts = [counting.edge_count(params) for params in rows]
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
    # steps >= seq_len^2 >= 4^b, past 10^4300 from b = 7143 on: such a seq_len is not built.
    b = params.l + params.block_size.bit_length() - 1  # seq_len.bit_length() - 1
    steps = params.l * params.seq_len**2 if b < 7143 else None
    if steps is None or steps > WITNESS_MAX_SHIFT_STEPS:
        amount = f"more than 2^{counting.printable(2 * b - 1)}" if steps is None else counting.printable(steps)
        return _refuse(out, f"the shift search takes {amount} steps, above the witness limit of {WITNESS_MAX_SHIFT_STEPS}")
    if args.coloring is not None:
        coloring = read_coloring(params, args.coloring)
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
    count = check_edge_cap(params, args.edge_cap)
    result = dual_satisfiable(params)
    # Duplicate edges give duplicate clauses, so the multiset dual is decided
    # by its distinct clauses; without --dedup it is still the one reported.
    clauses = 2 * (counting.distinct_edge_count(params) if args.dedup else count)
    stats = f"variables = {params.num_vertices}, clauses = {clauses}, decisions = {result.decisions}"
    if result.satisfiable:
        out.write(f"satisfiable ({stats})\n")
        out.write("ERROR: the dual CNF must be unsatisfiable; this is a bug\n")
        return EXIT_VERIFY
    out.write(f"unsatisfiable ({stats})\n")
    return EXIT_OK


def cmd_verify_small(args: argparse.Namespace, out: IO[str]) -> int:
    params = _resolve_params(args)
    # (2l-1) * k/l * 2^l vertices, past the limit from 2^l on: then the count is not built.
    if params.l >= MAX_EXHAUSTIVE_VERTICES.bit_length() or params.num_vertices > MAX_EXHAUSTIVE_VERTICES:
        amount = counting.printable(params.num_sequences * params.block_size, params.l)
        return _refuse(out, f"{amount} vertices exceed the exhaustive limit of {MAX_EXHAUSTIVE_VERTICES}")
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
    p_gen.add_argument("--format", choices=FORMATS, default="edges")
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
        "verify-small", help=f"exhaustively check non-2-colorability (vertex count <= {MAX_EXHAUSTIVE_VERTICES})"
    )
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify_small)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if sys.stdout is None:  # started with fd 1 closed
        print("error: cannot write to stdout: it is closed", file=sys.stderr)
        return EXIT_USAGE
    try:
        if hasattr(args, "edge_cap"):
            if args.edge_cap is None:
                args.edge_cap = _default_edge_cap()
            if args.edge_cap < 0:
                raise ParameterError(f"the edge cap must be non-negative, got {args.edge_cap}")
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # a write error is raised here, not at interpreter exit
        return code
    except OSError as exc:
        # read_coloring turns its own OSError into ParameterError, so this is
        # stdout's.  Send the rest of the buffered output, including the flush
        # at exit, to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader left early (`propb gen | head`)
            return EXIT_OK
        print(f"error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EdgeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except KeyboardInterrupt:
        # Die by SIGINT itself, with no traceback, so the parent sees the interrupt.
        import signal

        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        return 128 + signal.SIGINT  # where SIGINT does not end the process


def run() -> NoReturn:
    """The process entry of `propb` and `python -m propb.cli`: main(), a flush, then os._exit."""
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None: started with the fd closed
            stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
