"""Output checks for the propb CLI that share no code with propb.

Counts come from the closed forms, witness edges are rebuilt from their
sequences, shifts and positions with this module's own arithmetic, and
verdict lines are parsed here, so a wrong answer from the program cannot
also fool its check.  Every check also has a deliberately corrupted variant
of a real output that it must reject (see `corruptions`).
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re
from dataclasses import dataclass, replace
from math import comb

# SHA-256 of the full stdout of these gen jobs, pinned from the code the
# benchmark was introduced on.  The roadmap keeps CLI stdout byte-identical.
GEN_DIGESTS = {
    ("gen", "--k", "8", "--l", "2"):
        "bae165ca4b77fdeb148b96773e53d9b64e94af7e2d39382368220f55b574b916",
    ("gen", "--k", "8", "--l", "2", "--format", "dimacs"):
        "4e972906dcc8631058e03a1033f4921e26782f47bf5db4231a894aaa1de3c0f8",
    ("gen", "--k", "8", "--l", "2", "--dedup"):
        "fd1b5e35180023b9804051056dc13d93de528e8ac4e6a0ab3e31c9bcd5363b58",
}

COLORING_CASES = ("uniform", "tie", "mono")
HEAD_BYTES = 1 << 16


@dataclass(frozen=True)
class Output:
    """A child's stdout as the checks see it.

    `head` holds the first HEAD_BYTES bytes, so all of a short output; a long
    one is known by its size, newline count, last byte and SHA-256, so the
    benchmark never holds it in memory.
    """

    head: bytes
    size: int
    lines: int
    ends_in_newline: bool
    sha256: str

    @classmethod
    def of(cls, data: bytes) -> Output:
        reader = OutputReader()
        reader.feed(data)
        return reader.output()

    def text(self) -> str:
        if self.size > len(self.head):
            raise ValueError(f"{self.size} bytes of output where a few lines were expected")
        return self.head.decode("ascii")


class OutputReader:
    """Builds an Output from a stream, chunk by chunk."""

    def __init__(self):
        self.head = bytearray()
        self.size = 0
        self.lines = 0
        self.last = b""
        self.digest = hashlib.sha256()

    def feed(self, chunk: bytes) -> None:
        if len(self.head) < HEAD_BYTES:
            self.head += chunk[: HEAD_BYTES - len(self.head)]
        self.size += len(chunk)
        self.lines += chunk.count(b"\n")
        self.digest.update(chunk)
        if chunk:
            self.last = chunk[-1:]

    def output(self) -> Output:
        return Output(bytes(self.head), self.size, self.lines, self.last == b"\n", self.digest.hexdigest())


class FlippedReader(OutputReader):
    """The Output of the same stream with the byte at offset `at` flipped."""

    def __init__(self, at: int):
        super().__init__()
        self.at = at

    def feed(self, chunk: bytes) -> None:
        i = self.at - self.size
        if 0 <= i < len(chunk):
            chunk = chunk[:i] + bytes([chunk[i] ^ 1]) + chunk[i + 1:]
        super().feed(chunk)


@dataclass(frozen=True)
class Shape:
    """Sizes of the (k, l) instance: 2l-1 sequences of seq_len vertices."""

    k: int
    l: int

    @property
    def block(self) -> int:
        return self.k // self.l

    @property
    def seq_len(self) -> int:
        return 2**self.l * self.block

    @property
    def vertices(self) -> int:
        return (2 * self.l - 1) * self.seq_len

    @property
    def multiset_edges(self) -> int:
        return comb(2 * self.l - 1, self.l) * self.seq_len**self.l * comb(self.seq_len, self.block)

    @property
    def distinct_edges(self) -> int:
        """C(2l-1, l) * sum over blocks S of period(S)^(l-1).

        Rotating every shift of an edge by one common amount and its block by
        the opposite amount gives the same edge, so each block S contributes
        one distinct edge per shift tuple modulo the rotations that fix S.
        """
        n = self.seq_len
        total = 0
        for block in itertools.combinations(range(n), self.block):
            members = set(block)
            period = next(p for p in range(1, n + 1) if {(r + p) % n for r in members} == members)
            total += period ** (self.l - 1)
        return comb(2 * self.l - 1, self.l) * total


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its check needs to know."""

    command: str
    k: int
    l: int
    fmt: str = "edges"
    dedup: bool = False
    coloring: str | None = None
    coloring_path: str | None = None

    @property
    def shape(self) -> Shape:
        return Shape(self.k, self.l)

    @property
    def argv(self) -> tuple[str, ...]:
        args = [self.command]
        if self.command == "solve" and self.dedup:
            args.append("--dedup")
        args += ["--k", str(self.k), "--l", str(self.l)]
        if self.command == "gen":
            if self.fmt != "edges":
                args += ["--format", self.fmt]
            if self.dedup:
                args.append("--dedup")
        if self.coloring_path is not None:
            args += ["--coloring", self.coloring_path]
        return tuple(args)

    @property
    def label(self) -> str:
        args = self.argv
        if self.coloring_path is not None:
            args = args[:-1] + (self.coloring_path.rsplit("/", 1)[-1],)
        return " ".join(args)

    @property
    def edges(self) -> int:
        """Multiset edges the job enumerates (gen) or constructs (the others)."""
        return self.shape.multiset_edges


def make_coloring(shape: Shape, case: str, rng: random.Random) -> str:
    """A one-line R/B coloring of every vertex of `shape`.

    uniform: independent fair colors.  tie: exactly half of each sequence
    red, which sends the witness down its red-on-tie branch.  mono: every
    vertex the same color.
    """
    if case == "uniform":
        return "".join(rng.choice("RB") for _ in range(shape.vertices))
    if case == "tie":
        half = shape.seq_len // 2
        parts = []
        for _ in range(2 * shape.l - 1):
            seq = ["R"] * half + ["B"] * half
            rng.shuffle(seq)
            parts.append("".join(seq))
        return "".join(parts)
    if case == "mono":
        return rng.choice("RB") * shape.vertices
    raise ValueError(f"unknown coloring case {case!r}")


def check_output(job: Job, out: Output, code: int) -> str | None:
    """None if `out` and `code` are a correct answer to `job`, else the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[job.command](job, out)
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return f"malformed output: {exc}"


def _check_gen(job: Job, out: Output) -> str | None:
    shape = job.shape
    edges = shape.distinct_edges if job.dedup else shape.multiset_edges
    if job.fmt == "edges":
        header, lines = f"p hyp {shape.vertices} {edges} {shape.k}", 1 + edges
    else:
        header, lines = f"p cnf {shape.vertices} {2 * edges}", 1 + 2 * edges
    got = out.head[: out.head.find(b"\n")].decode("ascii")
    if got != header:
        return f"header {got!r}, expected {header!r}"
    if not out.ends_in_newline or out.lines != lines:
        return f"{out.lines} lines, expected {lines}"
    pinned = GEN_DIGESTS.get(job.argv)
    if pinned is None:
        return "no pinned digest for this job"
    if out.sha256 != pinned:
        return "stdout digest differs from the pinned one"
    return None


def _check_count(job: Job, out: Output) -> str | None:
    shape = job.shape
    lines = out.text().splitlines()
    expected = [f"k = {shape.k}, l = {shape.l}, vertices = {shape.vertices}",
                f"edge count = {shape.multiset_edges}"]
    if len(lines) != 4 or lines[:2] != expected or lines[3] != "count <= bound: yes":
        return f"unexpected count output {lines!r}"
    return None


def _check_witness(job: Job, out: Output) -> str | None:
    shape = job.shape
    lines = out.text().splitlines()
    if len(lines) != 6 or lines[5] != "verified: monochromatic and present in the construction":
        return f"unexpected witness output {lines!r}"
    fields = {}
    for line, key in zip(lines, ("color", "sequences", "shifts", "positions", "edge")):
        name, sep, value = line.partition(" = ")
        if name != key or not sep:
            return f"expected a {key} line, got {line!r}"
        fields[key] = value
    color = fields["color"]
    seqs, shifts, positions, edge = (
        [int(x) for x in fields[key].split()] for key in ("sequences", "shifts", "positions", "edge")
    )
    n = shape.seq_len
    if color not in ("R", "B"):
        return f"unknown color {color!r}"
    if len(seqs) != shape.l or len(set(seqs)) != shape.l or not all(0 <= s < 2 * shape.l - 1 for s in seqs):
        return f"need {shape.l} distinct sequences, got {seqs}"
    if len(shifts) != shape.l or not all(0 <= t < n for t in shifts):
        return f"need {shape.l} shifts in 0..{n - 1}, got {shifts}"
    if len(positions) != shape.block or len(set(positions)) != shape.block or not all(0 <= r < n for r in positions):
        return f"need {shape.block} distinct positions in 0..{n - 1}, got {positions}"
    rebuilt = sorted(s * n + (r + t) % n + 1 for s, t in zip(seqs, shifts) for r in positions)
    if rebuilt != edge:
        return f"edge {edge} is not the one its parts cut out, {rebuilt}"
    off = [v for v in rebuilt if job.coloring[v - 1] != color]
    if off:
        return f"vertices {off} are not colored {color}"
    return None


_SOLVE = re.compile(r"unsatisfiable \(variables = (\d+), clauses = \d+, decisions = \d+\)\n")
_VERIFY_SMALL = re.compile(r"non-2-colorable: confirmed \((\d+) colorings checked\)\n")


def _check_solve(job: Job, out: Output) -> str | None:
    match = _SOLVE.fullmatch(out.text())
    if match is None or int(match.group(1)) != job.shape.vertices:
        return f"unexpected solve verdict {out.head[:200]!r}"
    return None


def _check_verify_small(job: Job, out: Output) -> str | None:
    match = _VERIFY_SMALL.fullmatch(out.text())
    if match is None or int(match.group(1)) != 2**job.shape.vertices:
        return f"unexpected verify-small verdict {out.head[:200]!r}"
    return None


_CHECKS = {
    "gen": _check_gen,
    "count": _check_count,
    "witness": _check_witness,
    "solve": _check_solve,
    "verify-small": _check_verify_small,
}


def corruptions(
    job: Job, out: Output, rng: random.Random, flipped: list[FlippedReader]
) -> list[tuple[str, Job, Output]]:
    """Wrong variants of a correct output that `check_output` must reject.

    A gen output is too long to keep, so its flipped-byte variants are the
    FlippedReaders that read the same stream.
    """
    if job.command == "gen":
        return [(f"byte {reader.at} flipped", job, reader.output()) for reader in flipped]
    if job.command == "witness":
        edge_line = out.text().splitlines()[4]
        vertex = rng.choice(edge_line.split()[2:])
        at = int(vertex) - 1
        recolored = job.coloring[:at] + ("B" if job.coloring[at] == "R" else "R") + job.coloring[at + 1:]
        return [(f"witness vertex {vertex} off-color", replace(job, coloring=recolored), out)]
    if job.command == "solve":
        return [("satisfiable verdict", job, Output.of(out.head.replace(b"unsatisfiable", b"satisfiable", 1)))]
    if job.command == "verify-small":
        return [("satisfiable verdict", job, Output.of(b"satisfiable\n"))]
    return []
