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
and bound refuse, before printing anything, with counting.count_refusal's
reason, told before any count is computed (bound asks about its l = k
row); gen, solve and verify-small refuse with counting.check_edge_cap's
EdgeCapError.  Every size refusal is ruled on from k and l, which are all
a Params holds, before a number of about l bits is built.

main reads the command line against one table, _GRAMMAR, which holds each
command's options with their dests, converters, defaults and help.  A line
in the plain grammar (the command, then `--option value` pairs and flags,
--k among them) is read from that table alone, and the handler is looked
up among the module's cmd_* functions when it is called.  Anything else
(--help, -h, --k=3, an abbreviation, a negative number, a value its
converter rejects, a missing --k) goes to build_parser, which builds the
argparse parser from the same table and imports argparse only then:
argparse alone writes help and usage errors.

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
stated by the same 10^4300 rule, params.printable); 4 verification
failure, which would mean a bug in the construction.  SIGINT ends a
command by that signal, with no traceback.  The default edge cap of gen,
solve and verify-small can be overridden with --edge-cap or the
PROPB_EDGE_CAP environment variable.  The process (propb, python -m
propb.cli) ends in run(): main(), a flush of stdout and stderr, then
os._exit, skipping the teardown that only frees memory; an exception or a
failed flush takes the normal exit.  Called from Python, main() returns.
"""

from __future__ import annotations

import os
import random
import sys
from types import SimpleNamespace
from typing import IO, TYPE_CHECKING, NoReturn, Sequence

from . import counting
from .construction import (
    distinct_hypergraph,
    dual_clause_parts,
    dual_dimacs_header,
    edge_line,
    edge_line_parts,
    edge_list_header,
    iter_distinct_chunks,
    iter_edge_chunks,
)
from .counting import DEFAULT_EDGE_CAP, EdgeCapError, check_edge_cap
from .params import ParameterError, Params, printable, validate_params
from .satbridge import dual_satisfiable
from .witness import (
    MAX_EXHAUSTIVE_VERTICES,
    find_proper_coloring,
    find_witness,
    random_coloring,
    read_coloring,
)

if TYPE_CHECKING:
    import argparse

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

# The command-line grammar, read by both parsers: each command's help line and
# options, an option as (option string, dest, converter, default, help).  A
# converter is int, str, a table of choices or _FLAG, a switch that takes no
# value.  --k, which every command has, is the one required option.
_FLAG = "flag"
_K = ("--k", "k", int, None, "edge size")
_L = ("--l", "l", int, None, "grouping parameter (divisor of k); default: minimize the edge count")
_EDGE_CAP = (
    "--edge-cap",
    "edge_cap",
    int,
    None,
    f"refuse constructions above this many edges (default {DEFAULT_EDGE_CAP} or PROPB_EDGE_CAP)",
)
_GRAMMAR = {
    "gen": (
        "emit the construction as an edge list or DIMACS CNF",
        (
            _K,
            _L,
            _EDGE_CAP,
            ("--format", "format", FORMATS, "edges", None),
            ("--dedup", "dedup", _FLAG, False, "emit distinct edges only"),
        ),
    ),
    "count": ("exact edge count and the analytic upper bound", (_K, _L)),
    "bound": ("sweep the valid l values for a given k", (_K,)),
    "witness": (
        "monochromatic edge for a 2-coloring",
        (
            _K,
            _L,
            ("--coloring", "coloring", str, None, "coloring file (one line of R/B)"),
            ("--seed", "seed", int, None, "generate a random coloring instead"),
        ),
    ),
    "solve": (
        "decide the dual CNF with the embedded DPLL",
        (
            _K,
            _L,
            _EDGE_CAP,
            ("--dedup", "dedup", _FLAG, False, "report the distinct clause count, not the multiset's"),
        ),
    ),
    "verify-small": (
        f"exhaustively check non-2-colorability (vertex count <= {MAX_EXHAUSTIVE_VERTICES})",
        (_K, _L, _EDGE_CAP),
    ),
}


def _default_edge_cap() -> int:
    raw = os.environ.get("PROPB_EDGE_CAP")
    if raw is None:
        return DEFAULT_EDGE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"PROPB_EDGE_CAP must be an integer, got {raw!r}")


def _resolve_params(args: SimpleNamespace) -> Params:
    l = args.l if args.l is not None else counting.best_l(args.k)
    return validate_params(args.k, l)


def cmd_gen(args: SimpleNamespace, out: IO[str]) -> int:
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


def cmd_count(args: SimpleNamespace, out: IO[str]) -> int:
    params = _resolve_params(args)
    if reason := counting.count_refusal(params.k, params.l):
        return _refuse(out, reason)
    count = counting.edge_count(params)
    bound = counting.edge_count_upper_bound(params.k, params.l)
    verdict = "yes" if bound.certifies_at_most(count) else "NO"
    out.write(f"k = {params.k}, l = {params.l}, vertices = {params.num_vertices}\n")
    out.write(f"edge count = {count}\n")
    out.write(f"upper bound = {counting.scientific(bound.upper)}\n")
    out.write(f"count <= bound: {verdict}\n")
    return EXIT_OK if verdict == "yes" else EXIT_VERIFY


def cmd_bound(args: SimpleNamespace, out: IO[str]) -> int:
    k = args.k
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    # The l = k row is the longest up to k = 118, and unprintable from 119 on.
    if reason := counting.count_refusal(k, k):
        return _refuse(out, reason)
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


def cmd_witness(args: SimpleNamespace, out: IO[str]) -> int:
    params = _resolve_params(args)
    # steps >= seq_len^2 >= 4^b, past 10^4300 from b = 7143 on: such a seq_len is not built.
    b = params.l + params.block_size.bit_length() - 1  # seq_len.bit_length() - 1
    steps = params.l * params.seq_len**2 if b < 7143 else None
    if steps is None or steps > WITNESS_MAX_SHIFT_STEPS:
        amount = f"more than 2^{printable(2 * b - 1)}" if steps is None else printable(steps)
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


def cmd_solve(args: SimpleNamespace, out: IO[str]) -> int:
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


def cmd_verify_small(args: SimpleNamespace, out: IO[str]) -> int:
    params = _resolve_params(args)
    # (2l-1) * k/l * 2^l vertices, past the limit from 2^l on: then the count is not built.
    if params.l >= MAX_EXHAUSTIVE_VERTICES.bit_length() or params.num_vertices > MAX_EXHAUSTIVE_VERTICES:
        amount = printable(params.num_sequences * params.block_size, params.l)
        return _refuse(out, f"{amount} vertices exceed the exhaustive limit of {MAX_EXHAUSTIVE_VERTICES}")
    proper = find_proper_coloring(distinct_hypergraph(params, args.edge_cap))
    checked = 2**params.num_vertices
    if proper is None:
        out.write(f"non-2-colorable: confirmed ({checked} colorings checked)\n")
        return EXIT_OK
    out.write(f"ERROR: found a proper 2-coloring {proper}; this is a bug\n")
    return EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of _GRAMMAR, the only writer of --help and usage errors."""
    import argparse  # here alone: a command line in the plain grammar never loads it

    parser = argparse.ArgumentParser(
        prog="propb",
        description=(
            "Build k-uniform hypergraphs with no proper 2-coloring and their "
            "unsatisfiable monotone k-CNF duals; count, bound, witness, and verify."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _GRAMMAR.items():
        p = sub.add_parser(command, help=summary)
        for option, dest, convert, default, text in options:
            if convert is _FLAG:
                p.add_argument(option, dest=dest, action="store_true", help=text)
            elif convert in (int, str):
                p.add_argument(option, dest=dest, type=convert, required=option == "--k", default=default, help=text)
            else:
                p.add_argument(option, dest=dest, choices=convert, default=default, help=text)
    return parser


def _read_plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """argv read against _GRAMMAR, with every dest its command has; None where argparse must rule.

    Only the plain grammar is read: a command, then its option strings, each
    but a flag followed by its value, with --k among them.  Any other token
    (-h, --k=3, an abbreviation, --), a missing value, a value that starts
    with "-" and one that its converter rejects all decline.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    options = {option: (dest, convert) for option, dest, convert, _, _ in _GRAMMAR[argv[0]][1]}
    values = {dest: default for _, dest, _, default, _ in _GRAMMAR[argv[0]][1]}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in options:
            return None
        dest, convert = options[token]
        if convert is _FLAG:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value declines as "-" does
        if value.startswith("-"):
            return None
        if convert is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif convert is not str and value not in convert:
            return None
        values[dest] = value
    if values["k"] is None:
        return None
    return SimpleNamespace(command=argv[0], **values)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _read_plain(argv) or SimpleNamespace(**vars(build_parser().parse_args(argv)))
        if sys.stdout is None:  # started with fd 1 closed
            print("error: cannot write to stdout: it is closed", file=sys.stderr)
            return EXIT_USAGE
        if hasattr(args, "edge_cap"):
            if args.edge_cap is None:
                args.edge_cap = _default_edge_cap()
            if args.edge_cap < 0:
                raise ParameterError(f"the edge cap must be non-negative, got {args.edge_cap}")
        # Looked up now, not when the grammar was built: a caller may have replaced a cmd_*.
        command = globals()["cmd_" + args.command.replace("-", "_")]
        code = command(args, sys.stdout)
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
    except (ParameterError, EdgeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ParameterError) else EXIT_SIZE
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
