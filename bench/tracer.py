"""Traced child process of the propb benchmark.

    python3 bench/tracer.py job SPANS_FILE CLI_ARGS...
        Runs one CLI job in-process with a span around every call into the
        public functions listed in TRACED; stdout is the CLI's own output.
    python3 bench/tracer.py layer NAME RESULT_FILE [COLORING_FILE]
        Runs one layer call from LAYERS on a fixed instance and records its
        per-layer metrics, so each layer's peak RSS comes from its own child.

Spans (name, start, end, parent span, trace id, counts) are kept in memory
and written as JSON to the given file when the child ends.  Text output goes
through a TextIOWrapper over a file, as the CLI's stdout does, never through
a Python object that drops writes.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import deque
from contextlib import contextmanager
from functools import cached_property

from checks import Shape

TRACED = {
    "cli": ("cmd_gen", "cmd_count", "cmd_witness", "cmd_solve", "cmd_verify_small"),
    "construction": ("build_full", "dedup", "write_edge_list"),
    "counting": ("edge_count",),
    "witness": (
        "parse_coloring",
        "majority_profile",
        "select_same_majority",
        "derandomized_shifts",
        "monochromatic_witness",
        "find_proper_coloring",
    ),
    "satbridge": ("hypergraph_to_cnf", "dpll_satisfiable"),
}


class Tracer:
    """Spans of one trace, kept in memory until `dump`."""

    def __init__(self, trace: str):
        self.trace = trace
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "trace": self.trace,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def instrument(tracer: Tracer) -> None:
    """Route every call of a TRACED function, from any propb module, through a span."""
    modules = [importlib.import_module(f"propb.{name}") for name in TRACED]
    for layer, names in TRACED.items():
        for name in names:
            original = getattr(importlib.import_module(f"propb.{layer}"), name)
            wrapped = tracer.wrap(f"{layer}.{name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    from propb.construction import Hypergraph

    # Only the witness reads edge_set, so its first access is a witness cost.
    prop = cached_property(tracer.wrap("witness.edge_set", Hypergraph.__dict__["edge_set"].func))
    prop.__set_name__(Hypergraph, "edge_set")
    Hypergraph.edge_set = prop


class _CountingDevnull(io.FileIO):
    def __init__(self):
        super().__init__(os.devnull, "w")
        self.written = 0

    def write(self, data) -> int:
        n = super().write(data)
        self.written += n
        return n


def text_sink() -> tuple[io.TextIOWrapper, _CountingDevnull]:
    """A text stream built like the CLI's stdout, over /dev/null, counting bytes."""
    raw = _CountingDevnull()
    buffered = io.BufferedWriter(raw, max(os.fstat(raw.fileno()).st_blksize, 1))
    return io.TextIOWrapper(buffered, encoding="utf-8"), raw


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def params(k: int, l: int):
    from propb.params import validate_params

    return validate_params(k, l)


def drain(tracer: Tracer, k: int, l: int) -> float:
    """Seconds to enumerate the (k, l) edge multiset with nothing consuming it."""
    from propb.construction import iter_edges

    with tracer.span("construction.iter_edges") as span:
        deque(iter_edges(params(k, l)), maxlen=0)
    span["edges"] = Shape(k, l).multiset_edges
    return duration(span)


def per_call(tracer: Tracer, name: str, fn, *args, batches: int = 5, batch_s: float = 0.02) -> float:
    """Median seconds per call over `batches` batches of at least `batch_s` each."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        if time.perf_counter() - start >= batch_s:
            break
        calls *= 2
    samples = []
    for _ in range(batches):
        with tracer.span(name) as span:
            for _ in range(calls):
                fn(*args)
        span["calls"] = calls
        samples.append(duration(span) / calls)
    return statistics.median(samples)


def layer_iter_edges(tracer: Tracer, coloring_path: str | None) -> dict:
    seconds = drain(tracer, 8, 2)
    return {
        "construction.iter_edges.s": seconds,
        "construction.iter_edges.edges_per_s": Shape(8, 2).multiset_edges / seconds,
    }


def layer_write_edge_list(tracer: Tracer, coloring_path: str | None) -> dict:
    from propb.construction import iter_edges, write_edge_list

    drained = drain(tracer, 8, 2)
    sink, raw = text_sink()
    p = params(8, 2)
    with tracer.span("construction.write_edge_list") as span:
        write_edge_list(sink, p, iter_edges(p), Shape(8, 2).multiset_edges)
        sink.flush()
    span["bytes"] = raw.written
    sink.close()
    self_s = duration(span) - drained
    return {
        "construction.write_edge_list.self_s": self_s,
        "construction.write_edge_list.bytes_per_s": raw.written / self_s,
    }


def layer_cmd_gen_dimacs(tracer: Tracer, coloring_path: str | None) -> dict:
    drained = drain(tracer, 8, 2)
    instrument(tracer)
    from propb import cli

    sink, raw = text_sink()
    stdout, sys.stdout = sys.stdout, sink
    try:
        code = cli.main(["gen", "--k", "8", "--l", "2", "--format", "dimacs"])
        sink.flush()
    finally:
        sys.stdout = stdout
    sink.close()
    if code != 0:
        raise SystemExit(f"gen --format dimacs exited {code}")
    span = next(s for s in tracer.spans if s["name"] == "cli.cmd_gen")
    span["bytes"] = raw.written
    return {"cli.cmd_gen.dimacs.self_s": duration(span) - drained}


def layer_build_full(tracer: Tracer, coloring_path: str | None) -> dict:
    from propb.construction import build_full

    p = params(6, 3)
    before = peak_rss_kb()
    with tracer.span("construction.build_full") as span:
        build_full(p, None)
    span["rss_kb"] = peak_rss_kb() - before
    return {
        "construction.build_full.s": duration(span),
        "construction.build_full.rss_mb": span["rss_kb"] / 1024,
    }


def layer_dedup(tracer: Tracer, coloring_path: str | None) -> dict:
    from propb.construction import build_full, dedup

    full = build_full(params(6, 3), None)
    with tracer.span("construction.dedup") as span:
        distinct = dedup(full)
    span["edges"] = len(full.edges)
    span["distinct"] = len(distinct.edges)
    return {
        "construction.dedup.s": duration(span),
        "construction.dedup.distinct_ratio": len(distinct.edges) / len(full.edges),
    }


def layer_witness(tracer: Tracer, coloring_path: str | None) -> dict:
    from propb.construction import build_full
    from propb.witness import (
        derandomized_shifts,
        majority_profile,
        monochromatic_witness,
        parse_coloring,
        select_same_majority,
    )

    p = params(6, 3)
    with open(coloring_path, encoding="ascii") as handle:
        coloring = parse_coloring(p, handle.read())
    hypergraph = build_full(p, None)
    before = peak_rss_kb()
    with tracer.span("witness.edge_set") as span:
        hypergraph.edge_set
    span["rss_kb"] = peak_rss_kb() - before
    color, chosen = select_same_majority(p, majority_profile(p, coloring))
    return {
        "witness.edge_set.s": duration(span),
        "witness.edge_set.rss_mb": span["rss_kb"] / 1024,
        "witness.majority_profile.s": per_call(tracer, "witness.majority_profile", majority_profile, p, coloring),
        "witness.derandomized_shifts.s": per_call(
            tracer, "witness.derandomized_shifts", derandomized_shifts, p, coloring, color, chosen
        ),
        "witness.monochromatic_witness.s": per_call(
            tracer, "witness.monochromatic_witness", monochromatic_witness, p, hypergraph, coloring
        ),
    }


def layer_find_proper_coloring(tracer: Tracer, coloring_path: str | None) -> dict:
    from propb.construction import build_full, dedup
    from propb.witness import find_proper_coloring

    hypergraph = dedup(build_full(params(8, 1), None))
    with tracer.span("witness.find_proper_coloring") as span:
        proper = find_proper_coloring(hypergraph, 26)
    if proper is not None:
        raise SystemExit(f"find_proper_coloring returned {proper} for a non-2-colorable hypergraph")
    colorings = 2 ** Shape(8, 1).vertices
    span["colorings"] = colorings
    return {
        "witness.find_proper_coloring.s": duration(span),
        "witness.find_proper_coloring.colorings_per_s": colorings / duration(span),
    }


SOLVE_SHAPES = ((3, 3), (4, 2), (7, 1))


def layer_satbridge(tracer: Tracer, coloring_path: str | None) -> dict:
    from propb.construction import build_full, dedup
    from propb.satbridge import dpll_satisfiable, hypergraph_to_cnf

    cnf_s = dpll_s = 0.0
    clauses = decisions = 0
    for k, l in SOLVE_SHAPES:
        hypergraph = dedup(build_full(params(k, l), None))
        with tracer.span("satbridge.hypergraph_to_cnf") as span:
            cnf = hypergraph_to_cnf(hypergraph)
        span["clauses"] = len(cnf.clauses)
        cnf_s += duration(span)
        clauses += len(cnf.clauses)
        with tracer.span("satbridge.dpll_satisfiable") as span:
            result = dpll_satisfiable(cnf)
        if result.satisfiable:
            raise SystemExit(f"DPLL found the ({k}, {l}) dual satisfiable")
        span["decisions"] = result.decisions
        dpll_s += duration(span)
        decisions += result.decisions
    return {
        "satbridge.hypergraph_to_cnf.s": cnf_s,
        "satbridge.cnf.clauses": clauses,
        "satbridge.dpll.s": dpll_s,
        "satbridge.dpll.decisions": decisions,
        "satbridge.dpll.us_per_decision": dpll_s / decisions * 1e6,
    }


def layer_edge_count(tracer: Tracer, coloring_path: str | None) -> dict:
    from propb.counting import edge_count

    p = params(6, 3)
    return {"counting.edge_count.s": per_call(tracer, "counting.edge_count", edge_count, p)}


LAYERS = {
    "iter_edges": layer_iter_edges,
    "write_edge_list": layer_write_edge_list,
    "cmd_gen_dimacs": layer_cmd_gen_dimacs,
    "build_full": layer_build_full,
    "dedup": layer_dedup,
    "witness": layer_witness,
    "find_proper_coloring": layer_find_proper_coloring,
    "satbridge": layer_satbridge,
    "edge_count": layer_edge_count,
}


def main(argv: list[str]) -> int:
    mode = argv[1] if len(argv) > 1 else None
    if mode == "job" and len(argv) > 3:
        spans_path, cli_args = argv[2], argv[3:]
        tracer = Tracer(" ".join(cli_args))
        instrument(tracer)
        from propb import cli

        code = cli.main(cli_args)
        sys.stdout.flush()
        tracer.dump(spans_path)
        return code
    if mode == "layer" and len(argv) in (4, 5) and argv[2] in LAYERS:
        name, result_path = argv[2], argv[3]
        tracer = Tracer(name)
        metrics = LAYERS[name](tracer, argv[4] if len(argv) == 5 else None)
        tracer.dump(result_path, metrics=metrics)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
