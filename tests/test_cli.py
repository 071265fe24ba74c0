import contextlib
import hashlib
import io
import itertools
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import Sha256Sink, emit_dimacs, parse_dimacs
from test_golden import GOLDEN
from propb import cli, construction, counting, satbridge
from propb.params import validate_params
from propb.satbridge import hypergraph_to_cnf
from propb.witness import random_coloring


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_edges_small(capsys):
    code, out, _ = run(capsys, "gen", "--k", "2", "--l", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p hyp 4 24 2"
    assert len(lines) == 25
    assert lines[1] == "1 2"


def test_gen_dimacs_header(capsys):
    code, out, _ = run(capsys, "gen", "--k", "2", "--l", "1", "--format", "dimacs")
    assert code == 0
    assert out.startswith("p cnf 4 48\n")
    cnf = parse_dimacs(out)
    assert cnf.variable_count == 4
    assert len(cnf.clauses) == 48


def test_gen_dedup(capsys):
    code, out, _ = run(capsys, "gen", "--k", "2", "--l", "1", "--dedup")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p hyp 4 6 2"
    assert len(lines) == 7


def test_gen_deterministic(capsys):
    args = ("gen", "--k", "2", "--l", "2", "--format", "dimacs")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_default_l_minimizes(capsys):
    code, out, _ = run(capsys, "gen", "--k", "2")
    assert code == 0
    assert out.splitlines()[0] == "p hyp 4 24 2"  # best l for k=2 is 1


def test_gen_divisibility_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--k", "3", "--l", "2")
    assert code == 2
    assert "divide" in err


def test_gen_cap_refusal(capsys):
    code, _, err = run(capsys, "gen", "--k", "12", "--l", "1")
    assert code == 3
    assert "cap" in err


def test_gen_cap_flag(capsys):
    code, _, err = run(capsys, "gen", "--k", "2", "--l", "1", "--edge-cap", "5")
    assert code == 3
    code, out, err = run(capsys, "gen", "--k", "2", "--l", "1", "--edge-cap", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "non-negative" in err


@pytest.mark.parametrize("command", ["gen", "solve"])
def test_an_edge_cap_refusal_past_the_printing_limit_gives_the_bit_count(capsys, command):
    # C(14400, 7200) * 14400 edges has more than 4300 decimal digits.
    code, out, err = run(capsys, command, "--k", "7200", "--l", "1", "--edge-cap", "10000000")
    assert (code, out) == (3, "")
    assert err == "error: construction would emit a 14407-bit number of edges, above the cap of 10000000\n"


@pytest.mark.parametrize("command", ["gen", "solve"])
def test_a_hopeless_edge_cap_refusal_computes_no_count(capsys, command):
    # About 3.2 million bits: the exact count alone would take minutes.
    start = time.monotonic()
    code, out, err = run(capsys, command, "--k", "1600000", "--l", "1")
    assert time.monotonic() - start < 5
    assert (code, out) == (3, "")
    assert err == "error: construction would emit more than 2^3199995 edges, above the cap of 10000000\n"


def test_edge_cap_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("PROPB_EDGE_CAP", "5")
    code, _, _ = run(capsys, "gen", "--k", "2", "--l", "1")
    assert code == 3
    monkeypatch.setenv("PROPB_EDGE_CAP", "not-a-number")
    code, _, err = run(capsys, "gen", "--k", "2", "--l", "1")
    assert code == 2
    assert "PROPB_EDGE_CAP" in err
    monkeypatch.setenv("PROPB_EDGE_CAP", "-5")
    code, out, err = run(capsys, "gen", "--k", "2", "--l", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "non-negative" in err


@pytest.mark.parametrize("k,l", [(2, 1), (3, 1), (2, 2), (4, 2), (3, 3), (6, 2)])
def test_gen_stdout_equals_the_per_edge_rendering(capsys, k, l):
    # gen renders each part once per run and prints whole groups at a time; its
    # text must still be that of each edge rendered on its own, including
    # at group boundaries, at the end and for l = 1, where no head part exists.
    p = validate_params(k, l)
    lines = [construction.edge_list_header(p, counting.edge_count(p))]
    lines += map(construction.edge_line, construction.iter_edges(p))
    code, out, _ = run(capsys, "gen", "--k", str(k), "--l", str(l))
    assert code == 0 and out == "\n".join(lines) + "\n"
    code, out, _ = run(capsys, "gen", "--k", str(k), "--l", str(l), "--format", "dimacs")
    assert code == 0 and out == emit_dimacs(hypergraph_to_cnf(construction.build_full(p)))


@pytest.mark.parametrize("k,l", [(2, 1), (3, 1), (2, 2), (4, 2), (3, 3), (6, 2)])
def test_gen_dedup_stdout_equals_the_per_edge_rendering(capsys, k, l):
    # gen --dedup prints one chunk per (lowest sequence, block) group, from
    # parts shared across a translation orbit; its text must still be that of
    # each distinct edge rendered on its own, across group boundaries and for l = 1.
    p = validate_params(k, l)
    lines = [construction.edge_list_header(p, counting.distinct_edge_count(p))]
    lines += map(construction.edge_line, construction.iter_distinct_edges(p))
    code, out, _ = run(capsys, "gen", "--dedup", "--k", str(k), "--l", str(l))
    assert code == 0 and out == "\n".join(lines) + "\n"
    code, out, _ = run(capsys, "gen", "--dedup", "--k", str(k), "--l", str(l), "--format", "dimacs")
    assert code == 0 and out == emit_dimacs(hypergraph_to_cnf(construction.distinct_hypergraph(p)))


@pytest.mark.parametrize(
    "extra,digest",
    [
        ((), "aba993bc94cec3db68a269c6711711ac8a9a138209c8c4dae0f171268001f39d"),
        (("--format", "dimacs"), "b3088f77727a990b61e9f74b505f1b1d86bec2c8276b5506c6cd14c08821575a"),
    ],
    ids=["edges", "dimacs"],
)
def test_gen_dedup_4_4_stdout_is_pinned(extra, digest):
    # Tails four sequences deep: 2.3M distinct edges, 33 MB and 74 MB of text,
    # hashed as it is written.  The digests were taken from the per-edge
    # rendering of gen --dedup, before it printed one chunk per group.
    sink = Sha256Sink()
    with contextlib.redirect_stdout(sink):
        assert cli.main(["gen", "--dedup", "--k", "4", "--l", "4", "--edge-cap", "36700160", *extra]) == 0
    assert sink.hash.hexdigest() == digest


def test_distinct_edge_tuples_at_l_4_match_gen_dedup():
    # The tuple view adds each edge's four columns with `+`, gen interleaves
    # them as text; the first 200,000 edges span three groups, whose later
    # columns are three sequences deep.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["gen", "--dedup", "--k", "4", "--l", "4", "--edge-cap", "36700160"]) == 0
    lines = out.getvalue().split("\n", 200_001)[1:200_001]
    edges = itertools.islice(construction.iter_distinct_edges(validate_params(4, 4)), 200_000)
    assert list(map(construction.edge_line, edges)) == lines


@pytest.mark.parametrize(
    "extra,digest",
    [
        ((), "bae165ca4b77fdeb148b96773e53d9b64e94af7e2d39382368220f55b574b916"),
        (("--format", "dimacs"), "4e972906dcc8631058e03a1033f4921e26782f47bf5db4231a894aaa1de3c0f8"),
        (("--dedup",), "fd1b5e35180023b9804051056dc13d93de528e8ac4e6a0ab3e31c9bcd5363b58"),
        (
            ("--dedup", "--format", "dimacs"),
            "08a0261bf0d37a19052a17c71695a4df97a73a104059f2d363e53268b50781ef",
        ),
    ],
    ids=["edges", "dimacs", "dedup-edges", "dedup-dimacs"],
)
def test_gen_8_2_stdout_is_pinned(extra, digest):
    # 31 MB and 80 MB of text for the multiset, hashed as it is written
    sink = Sha256Sink()
    with contextlib.redirect_stdout(sink):
        assert cli.main(["gen", "--k", "8", "--l", "2", *extra]) == 0
    assert sink.hash.hexdigest() == digest


@pytest.mark.parametrize(
    "extra,digest",
    [
        ((), "5b3f836d997b9929a7c8ae2d7f259c761beb5a72e7fe1a4990e16c1e3022bdb9"),
        (("--format", "dimacs"), "ef00fc8ade07421d4d6268f97a3183b17ad52badfe05c5d8b1ae84d808331281"),
    ],
    ids=["edges", "dimacs"],
)
def test_gen_8_1_stdout_is_pinned(extra, digest):
    # A multiset group is all C(16, 8) = 12,870 blocks of one shift: 12,870
    # parts as an edge list and 25,740 as DIMACS, both past the bound up to
    # which a chunk is held after its write.
    sink = Sha256Sink()
    with contextlib.redirect_stdout(sink):
        assert cli.main(["gen", "--k", "8", "--l", "1", *extra]) == 0
    assert sink.hash.hexdigest() == digest


@pytest.mark.parametrize(
    "extra,digest",
    [
        ((), "0cda213893b338421ebc220ae71fb246e789a310963cab19b2c198910012181f"),
        (("--format", "dimacs"), "a95574518ab21f0929b14664194cc3818e1cf97c7508699875bb6fb4b79a70f2"),
        (("--dedup",), "3ed6d5d50bb9d7ab3ee39127bb97d20cc290d0b188c38db7d3fbe7b7300ba24e"),
        (
            ("--dedup", "--format", "dimacs"),
            "fe64306ad747e9d5b46889ab90f0dd54c281223418d897a887d007662e7801a5",
        ),
    ],
    ids=["edges", "dimacs", "dedup-edges", "dedup-dimacs"],
)
def test_gen_6_3_stdout_is_pinned(extra, digest):
    # Three sequences per edge, so each chunk interleaves three parts tables.
    # The digests were taken when every edge's text was built by `+` of its
    # parts, a path that shares no joining code with the interleave.  With
    # --dedup the later columns are two sequences deep and the orbits have
    # two sizes, 16 and 8.
    sink = Sha256Sink()
    with contextlib.redirect_stdout(sink):
        assert cli.main(["gen", "--k", "6", "--l", "3", *extra]) == 0
    assert sink.hash.hexdigest() == digest


@pytest.mark.parametrize(
    "extra,digest",
    [
        ((), "970254cff3df78d230d7557f50f0ec3c45967b577b2c656e467d3e33d5bceaf0"),
        (("--format", "dimacs"), "cc655c34c0a1b066001cd3b780d44e880319e1a11bb763260983bb03bb39218f"),
        (("--dedup",), "e2302c46e33bd4312e1992a6d2a74076b6394f6dfb66479b3ed151d8c0591d3c"),
        (
            ("--dedup", "--format", "dimacs"),
            "c473762cfbf5e85ec0a0a1a9a4176117b9cfb11dcb865a3e1bba0ccc4793bb42",
        ),
    ],
    ids=["edges", "dimacs", "dedup-edges", "dedup-dimacs"],
)
def test_gen_7_1_stdout_is_pinned(extra, digest):
    # One sequence: the multiset is one table per shift, the distinct edges
    # are its 3,432 blocks in groups of a fixed number of blocks, the last
    # group partial.
    sink = Sha256Sink()
    with contextlib.redirect_stdout(sink):
        assert cli.main(["gen", "--k", "7", "--l", "1", *extra]) == 0
    assert sink.hash.hexdigest() == digest


@pytest.mark.parametrize(
    "extra,header",
    [
        ((), b"p hyp 36 95040 6\n"),
        (("--dedup",), b"p hyp 36 7824 6\n"),
        (("--format", "dimacs"), b"p cnf 36 190080\n"),
        (("--dedup", "--format", "dimacs"), b"p cnf 36 15648\n"),
    ],
    ids=["multiset", "dedup", "dimacs", "dedup-dimacs"],
)
def test_gen_into_a_pipe_closed_early_exits_cleanly(extra, header):
    # `propb gen | head -1`: the reader leaves after one line of a 1.5 MB
    # (--dedup: 120 kB; --format dimacs: 4.1 MB; both: 330 kB) stream
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "propb.cli", "gen", "--k", "6", "--l", "2", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == header
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.skipif(os.name != "posix", reason="sends SIGINT")
def test_an_interrupt_ends_solve_by_sigint_without_a_traceback():
    # DPLL on the (8,2) dual runs for minutes, so the signal lands in the search.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "propb.cli", "solve", "--k", "8", "--l", "2"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        try:
            time.sleep(1)
            proc.send_signal(signal.SIGINT)
            err = proc.communicate(timeout=60)[1]
        finally:
            proc.kill()
    assert proc.returncode == -signal.SIGINT, err
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv,redirect",
    [
        (("count", "--k", "4", "--l", "2"), "> /dev/full"),
        (("gen", "--k", "8", "--l", "2", "--format", "dimacs"), "> /dev/full"),
        (("count", "--k", "200", "--l", "200"), "> /dev/full"),
        (("count", "--k", "4", "--l", "2"), ">&-"),
    ],
    ids=["count-full", "gen-dimacs-full", "refusal-full", "count-closed"],
)
def test_an_unwritable_stdout_is_a_usage_error(argv, redirect):
    # Block buffered, as a shell runs it: a small output is held back until
    # exit unless main flushes it, and a failed flush at exit is no exit code.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    proc = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "propb.cli", *argv],
        stderr=subprocess.PIPE,
        env=env,
        timeout=60,
    )
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_gen_dedup_streams_without_a_hypergraph(capsys, monkeypatch):
    args = ("gen", "--dedup", "--k", "4", "--l", "2")
    _, expected, _ = run(capsys, *args)

    def refuse(*_):
        raise RuntimeError("gen --dedup must not build the distinct hypergraph")

    monkeypatch.setattr(cli, "distinct_hypergraph", refuse)
    assert run(capsys, *args) == (0, expected, "")


def test_a_distinct_edge_count_mismatch_is_a_verification_failure(capsys, monkeypatch):
    true_count = counting.distinct_edge_count
    monkeypatch.setattr(counting, "distinct_edge_count", lambda p: true_count(p) + 1)
    with pytest.raises(AssertionError):
        construction.distinct_hypergraph(validate_params(4, 2))
    code, _, err = run(capsys, "gen", "--dedup", "--k", "4", "--l", "2")
    assert code == 4
    assert "verification failure" in err


def test_count_output(capsys):
    code, out, _ = run(capsys, "count", "--k", "4", "--l", "2")
    assert code == 0
    assert "edge count = 5376" in out
    assert "4.84" in out  # bound ~ 4.84e5
    assert "count <= bound: yes" in out


def test_bound_sweep(capsys):
    code, out, _ = run(capsys, "bound", "--k", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5  # header + l in {1, 2, 4} + best line
    assert "best l = 1" in lines[-1]
    assert all("yes" in line for line in lines[1:4])


def test_bound_output_unchanged_where_floats_sufficed(capsys):
    # SHA-256 of the concatenated `bound --k N` stdout for N = 1..28, as the
    # float-formatting code printed it; from N = 29 on that code raised
    # OverflowError, and every N up to 40 now succeeds.
    digest = hashlib.sha256()
    for n in range(1, 41):
        code, out, err = run(capsys, "bound", "--k", str(n))
        assert code == 0 and err == "", n
        if n <= 28:
            digest.update(out.encode())
    assert digest.hexdigest() == "a7fc1e39e67d6b51a3cee76d36d59a6b1202dd8e1b54ed9ccc5b6c48e3af5ceb"


def test_bounds_past_the_float_range(capsys):
    code, out, _ = run(capsys, "bound", "--k", "30")
    assert code == 0
    assert "5.8564e+342 yes" in out.splitlines()[-2]  # the l = 30 row
    code, out, _ = run(capsys, "count", "--k", "700", "--l", "1")
    assert code == 0
    assert "upper bound = 2.9876e+518\n" in out
    assert out.endswith("count <= bound: yes\n")


def test_bound_refuses_a_row_too_long_to_print_below_the_k_squared_shortcut(capsys):
    # 118 * 118 = 13,924 bits is under the limit, the l = 118 count is not.
    code, out, err = run(capsys, "bound", "--k", "118")
    assert (code, err) == (3, "")
    assert out == "refusing: the exact edge count has 14273 bits, above the printing limit of 14000\n"


@pytest.mark.parametrize("k", ["0", "-200"])
def test_bound_rejects_a_k_below_one_before_the_k_squared_shortcut(capsys, k):
    code, out, err = run(capsys, "bound", "--k", k)
    assert (code, out) == (2, "")
    assert err == f"error: k must be positive, got {k}\n"


def test_counts_too_long_to_print_are_refused(capsys, monkeypatch):
    # count --k 128 --l 128 has 16,763 bits, bound --k 4096 16,789,497
    for argv in (("count", "--k", "128", "--l", "128"), ("bound", "--k", "4096")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and err == ""
        assert out.startswith("refusing:") and out.count("\n") == 1
    # (5000, 1): 10,007 bits
    monkeypatch.setattr(counting, "COUNT_MAX_BITS", 10_007)
    assert run(capsys, "count", "--k", "5000", "--l", "1")[0] == 0
    monkeypatch.setattr(counting, "COUNT_MAX_BITS", 10_006)
    code, out, _ = run(capsys, "count", "--k", "5000", "--l", "1")
    assert code == 3
    assert "10007 bits" in out


def run_limited(*argv):
    """A fresh `python -m propb.cli` under a 1 GB address-space limit: exit code, stdout, stderr, seconds."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(cli.__file__).parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "propb.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=limit,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def test_count_past_the_binomial_limit_is_refused_in_start_up_time():
    # A block of 10^20 vertices is beyond math.comb (sys.maxsize), which
    # once ended this in an OverflowError traceback.
    code, out, err, seconds = run_limited("count", "--k", str(10**20), "--l", "1")
    bits = int(counting._log2_count_range(10**20, 1)[0])
    assert (code, err) == (3, "")
    assert out == f"refusing: {counting.count_refusal(10**20, 1)}\n"
    assert bits > 2 * 10**20 - 10**12
    assert seconds < 1


def test_count_states_a_long_count_by_its_bit_length_in_start_up_time():
    # The 600,010-bit count took 5 s to compute before it was refused.
    code, out, err, seconds = run_limited("count", "--k", "300000", "--l", "1")
    assert (code, err) == (3, "")
    assert out == "refusing: the exact edge count has 600010 bits, above the printing limit of 14000\n"
    assert seconds < 1


@pytest.mark.parametrize("k,l,bits", [(769911, 3, 1116047), (205887, 1, 411783), (938640, 8, 1107782)])
def test_count_settles_a_bit_length_near_an_integer_in_start_up_time(k, l, bits):
    # Each bracket once straddled an integer, and the exact count took 1-3 s.
    code, out, err, seconds = run_limited("count", "--k", str(k), "--l", str(l))
    assert (code, err) == (3, "")
    assert out == f"refusing: the exact edge count has {bits} bits, above the printing limit of 14000\n"
    assert seconds < 1


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--k", "300000", "--l", "1"),
        ("count", "--k", "100000", "--l", "40"),
        ("count", "--k", str(10**20), "--l", "1"),
        ("bound", "--k", "119"),
    ],
)
def test_count_and_bound_decide_a_refusal_before_computing_any_count(capsys, monkeypatch, argv):
    def refuse(params):
        raise AssertionError(f"computed the count of ({params.k}, {params.l})")

    monkeypatch.setattr(counting, "edge_count", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, "")
    assert out.startswith("refusing: the exact edge count has ") and out.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--k", str(10**10)),
        ("solve", "--k", str(10**10)),
        ("gen", "--k", str(10**12)),
        ("count", "--k", str(10**12)),
        # divisors once scanned to sqrt(k) whatever k's factors: 6-7 s at 10^16,
        # 2^32 steps at 2^64, and at 10^20 best_l then computed three counts
        # of about 10^20 bits.
        ("gen", "--k", str(10**16)),
        ("solve", "--k", str(10**16)),
        ("gen", "--k", str(2**64)),
        ("count", "--k", str(10**20)),
    ],
)
def test_a_huge_k_without_l_is_refused_in_start_up_time(argv):
    # best_l brackets every divisor's count, the divisor l = k too: the
    # bracket once built 2^l * k/l as an int, and these ran for minutes.
    code, out, err, seconds = run_limited(*argv)
    line = out if argv[0] == "count" else err  # count refuses on stdout, like its other refusals
    assert (code, out + err) == (3, line)
    assert line.count("\n") == 1 and line.startswith(("refusing:", "error: construction would emit"))
    assert seconds < 1


def test_a_refusal_at_l_of_a_billion_comes_in_start_up_time():
    # 2^l as a power took 5 s at l = 10^9 before the refusal was printed.
    code, out, err, seconds = run_limited("gen", "--k", str(10**9), "--l", str(10**9))
    assert (code, out) == (3, "")
    assert err == "error: construction would emit more than 2^1000000001000000000 edges, above the cap of 10000000\n"
    assert seconds < 1


STEPS = "refusing: the shift search takes {} steps, above the witness limit of 10000000\n"
BILLIONS = ("--k", str(8 * 10**9), "--l", str(8 * 10**9))
HUGE = ("--k", str(9 * 10**4299), "--l", str(9 * 10**4299))
CAP = "error: construction would emit more than 2^{} edges, above the cap of 10000000\n"
TOO_LONG = "refusing: the exact edge count has more than {} bits, above the printing limit of 14000\n"
VERTICES = "refusing: {} vertices exceed the exhaustive limit of 26\n"
HUGE_PROBES = [
    # Params once held seq_len, an int of l bits: a MemoryError here.
    (("gen", *BILLIONS), CAP.format(63999999951999991808)),
    (("solve", *BILLIONS), CAP.format(63999999951999991808)),
    (("count", *BILLIONS), TOO_LONG.format(64 * 10**18)),
    (("witness", *BILLIONS, "--seed", "1"), STEPS.format("more than 2^15999999999")),
    (("verify-small", *BILLIONS), VERTICES.format("a 8000000034-bit number of")),
    # A k past the float range: an OverflowError in the count's log2
    # bracket.  Every count is at least 2^(k + l*l).
    (("count", "--k", str(10**400), "--l", "1"), TOO_LONG.format(10**400 + 1)),
    (("gen", "--k", str(10**400), "--l", "1"), CAP.format(10**400 + 1)),
    (("solve", "--k", str(10**400), "--l", "1"), CAP.format(10**400 + 1)),
    (("gen", "--k", str(10**400), "--l", str(10**400)), CAP.format(10**800 + 10**400)),
    # A refusal's number past 4300 digits: k*k, l*l, 2b - 1 and the vertex count.
    (("bound", "--k", str(10**3000)), TOO_LONG.format("a 19932-bit number of")),
    (("count", "--k", str(10**3000), "--l", str(10**3000)), TOO_LONG.format("a 19932-bit number of")),
    (("witness", *HUGE, "--seed", "1"), STEPS.format("more than 2^a 14286-bit number of")),
    (("verify-small", *HUGE), VERTICES.format(f"a {9 * 10**4299 + 14286}-bit number of")),
]


@pytest.mark.parametrize(
    "argv, line",
    HUGE_PROBES,
    ids=[" ".join(f"<{len(a)} digits>" if len(a) > 12 else a for a in argv) for argv, _ in HUGE_PROBES],
)
def test_a_huge_k_and_l_are_refused_from_k_and_l_in_start_up_time(argv, line):
    code, out, err, seconds = run_limited(*argv)
    assert (code, out + err) == (3, line)
    assert seconds < 1


@pytest.mark.parametrize(
    "argv, line",
    [
        (("witness", "--k", "20000", "--l", "20000", "--seed", "1"), STEPS.format("more than 2^39999")),
        (("witness", "--k", "1000000", "--l", "1000000", "--seed", "1"), STEPS.format("more than 2^1999999")),
        (("witness", "--k", str(10**12), "--seed", "1"), STEPS.format("more than 2^20051")),
        (
            ("verify-small", "--k", "20000", "--l", "20000"),
            "refusing: a 20016-bit number of vertices exceed the exhaustive limit of 26\n",
        ),
    ],
    ids=["witness-l-20000", "witness-l-1000000", "witness-k-10e12", "verify-small-l-20000"],
)
def test_a_refusal_number_past_4300_digits_is_stated_by_its_size(argv, line):
    # Each once printed its number in full: a ValueError traceback on Python 3.11.
    code, out, err, seconds = run_limited(*argv)
    assert (code, out, err) == (3, line, "")
    assert seconds < 1


def test_a_refusal_number_is_printed_in_full_below_4300_digits(capsys):
    code, out, err = run(capsys, "witness", "--k", "3000", "--l", "3000", "--seed", "1")
    assert (code, err) == (3, "")
    assert out == STEPS.format(3000 * 4**3000)
    # 7140 * 4^7140 is squared, but has 4302 digits.
    code, out, err = run(capsys, "witness", "--k", "7140", "--l", "7140", "--seed", "1")
    assert (code, err) == (3, "")
    assert out == STEPS.format("a 14293-bit number of")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_an_endless_coloring_file_is_refused_in_bounded_memory():
    code, out, err, seconds = run_limited("witness", "--k", "8", "--l", "2", "--coloring", "/dev/zero")
    assert (code, out) == (2, "")
    assert err == "error: coloring has more than 48 entries, need 48\n"
    assert seconds < 1


def test_witness_reads_a_coloring_across_chunks(capsys, tmp_path):
    coloring, path = "RRRRBBBBRRRR", tmp_path / "coloring.txt"
    path.write_text(coloring + "\n")
    expected = run(capsys, "witness", "--k", "2", "--l", "2", "--coloring", str(path))
    assert expected[0] == 0
    # Whitespace around the entries is free, however much of it there is.
    path.write_text(" \n" * 70_000 + coloring + "\n" * 200_000)
    assert run(capsys, "witness", "--k", "2", "--l", "2", "--coloring", str(path)) == expected
    # One entry too many, after whitespace that fills more than a chunk, or
    # after a single space.
    for tail in ("\n" * 100_000 + "R", " B"):
        path.write_text(coloring + tail)
        code, out, err = run(capsys, "witness", "--k", "2", "--l", "2", "--coloring", str(path))
        assert (code, out, err) == (2, "", "error: coloring has more than 12 entries, need 12\n")
    # Short colorings keep their exact entry count, inner whitespace included.
    path.write_text("RR" + " " * 5 + "B\n")
    assert run(capsys, "witness", "--k", "2", "--l", "2", "--coloring", str(path))[2] == (
        "error: coloring has 8 entries, need 12\n"
    )


def test_count_and_bound_compute_no_count_they_can_rule_out(capsys, monkeypatch):
    # Every count is at least 2^(l*l), so no count with l*l >= COUNT_MAX_BITS
    # can be printed, nor be the smallest for best_l; none is computed.
    computed = []
    edge_count = counting.edge_count

    def recording(params):
        computed.append(params.l)
        return edge_count(params)

    monkeypatch.setattr(counting, "edge_count", recording)
    code, out, err = run(capsys, "count", "--k", "6000")
    assert code == 0 and err == ""
    assert out.startswith("k = 6000, l = 15, vertices = 380108800\n")
    # stdout as printed when every divisor's count was computed
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "51ead6fb8a98bdec3326560db62b187ebbec3bdce9b3c1022602b310bce60adb"
    )
    for argv in (("bound", "--k", "6000"), ("count", "--k", "100000", "--l", "100000")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and err == ""
        l = int(argv[-1])
        assert out == (
            f"refusing: the exact edge count has more than {l * l} bits, above the printing "
            "limit of 14000\n"
        )
    assert computed and max(l * l for l in computed) < counting.COUNT_MAX_BITS


def test_count_without_l_computes_only_the_counts_that_could_win(capsys, monkeypatch):
    # Each divisor's log2 count is bracketed first; for k = 100000 only l = 40
    # can be the smallest, and count_bits refuses its 105,727-bit count
    # without computing it.
    computed = []
    edge_count = counting.edge_count

    def recording(params):
        computed.append(params.l)
        return edge_count(params)

    monkeypatch.setattr(counting, "edge_count", recording)
    code, out, err = run(capsys, "count", "--k", "100000")
    assert code == 3 and err == ""
    assert out == "refusing: the exact edge count has 105727 bits, above the printing limit of 14000\n"
    assert computed == []


def test_witness_from_file(capsys, tmp_path):
    path = tmp_path / "coloring.txt"
    path.write_text("RRRRBBBBRRRR\n")
    code, out, _ = run(capsys, "witness", "--k", "2", "--l", "2", "--coloring", str(path))
    assert code == 0
    assert "color = R" in out
    assert "sequences = 0 2" in out
    assert "verified" in out


def test_witness_seeded_is_deterministic(capsys):
    args = ("witness", "--k", "4", "--l", "2", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "verified" in out1


def test_witness_needs_a_coloring_source(capsys):
    code, _, err = run(capsys, "witness", "--k", "2", "--l", "1")
    assert code == 2
    assert "coloring" in err


def test_witness_missing_file(capsys, tmp_path):
    code, _, _ = run(
        capsys, "witness", "--k", "2", "--l", "1", "--coloring", str(tmp_path / "nope")
    )
    assert code == 2


def test_witness_unreadable_coloring_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "accented.txt"
    path.write_text("RRBÉ\n", encoding="utf-8")
    for source in (path, tmp_path):  # non-ASCII bytes, then a directory
        code, out, err = run(capsys, "witness", "--k", "2", "--l", "1", "--coloring", str(source))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_witness_builds_nothing_for_a_large_multiset(capsys):
    # (10,2) has 18,604,800 edges with multiplicity, above the default edge cap
    code, out, _ = run(capsys, "witness", "--k", "10", "--l", "2", "--seed", "1")
    assert code == 0
    fields = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    edge = [int(v) - 1 for v in fields["edge"].split()]
    coloring = random_coloring(validate_params(10, 2), random.Random(1))
    assert len(set(edge)) == 10
    assert all(coloring[v] == fields["color"] for v in edge)
    assert out.endswith("verified: monochromatic and present in the construction\n")


def test_witness_refuses_a_long_shift_search(capsys, monkeypatch):
    code, out, err = run(capsys, "witness", "--k", "40", "--l", "40", "--seed", "1")
    assert code == 3
    assert out.startswith("refusing:") and err == ""
    # (8,2): l * seq_len^2 = 2 * 16^2 = 512 steps
    monkeypatch.setattr(cli, "WITNESS_MAX_SHIFT_STEPS", 512)
    code, _, _ = run(capsys, "witness", "--k", "8", "--l", "2", "--seed", "1")
    assert code == 0
    monkeypatch.setattr(cli, "WITNESS_MAX_SHIFT_STEPS", 511)
    code, out, _ = run(capsys, "witness", "--k", "8", "--l", "2", "--seed", "1")
    assert code == 3
    assert "512 steps" in out


def test_witness_at_the_real_shift_limit(capsys):
    # (1581,1): 1 * 3162^2 = 9,998,244 steps, the largest k with l = 1 below the limit
    code, out, err = run(capsys, "witness", "--k", "1581", "--l", "1", "--seed", "1")
    assert code == 0 and err == ""
    assert out.endswith("verified: monochromatic and present in the construction\n")
    code, out, err = run(capsys, "witness", "--k", "1582", "--l", "1", "--seed", "1")
    assert code == 3 and err == ""
    assert out == (
        "refusing: the shift search takes 10010896 steps, above the witness limit of 10000000\n"
    )


def test_witness_and_count_take_no_edge_cap(capsys, monkeypatch):
    monkeypatch.setenv("PROPB_EDGE_CAP", "not-a-number")
    assert run(capsys, "witness", "--k", "2", "--l", "1", "--seed", "1")[0] == 0
    assert run(capsys, "count", "--k", "4", "--l", "2")[0] == 0
    monkeypatch.delenv("PROPB_EDGE_CAP")
    for argv in (("witness", "--k", "2", "--l", "1", "--seed", "1"), ("count", "--k", "4", "--l", "2")):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--edge-cap", "5"])
        assert exc.value.code == 2


def test_witness_bad_coloring_length(capsys, tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("RB\n")
    code, _, err = run(capsys, "witness", "--k", "2", "--l", "1", "--coloring", str(path))
    assert code == 2


@pytest.mark.parametrize("k,l", [(2, 1), (3, 1), (2, 2)])
def test_gen_then_solve_pipeline(capsys, k, l):
    # the streamed DIMACS, fed back through the reader, is unsatisfiable
    from propb.satbridge import dpll_satisfiable

    code, out, _ = run(capsys, "gen", "--k", str(k), "--l", str(l), "--format", "dimacs")
    assert code == 0
    assert not dpll_satisfiable(parse_dimacs(out)).satisfiable


def test_solve_reports_unsatisfiable(capsys):
    code, out, _ = run(capsys, "solve", "--k", "2", "--l", "2")
    assert code == 0
    assert out.startswith("unsatisfiable")
    assert "clauses = 384" in out


def test_solve_dedup(capsys):
    code, out, _ = run(capsys, "solve", "--k", "2", "--l", "2", "--dedup")
    assert code == 0
    assert "clauses = 96" in out


# Printed when solve without --dedup still built the whole multiset; the
# decisions match because the solver only ever saw its distinct clauses.
SOLVE_LINES = [
    (2, 1, "4, clauses = 48, decisions = 1", "4, clauses = 12, decisions = 1"),
    (3, 1, "6, clauses = 240, decisions = 5", "6, clauses = 40, decisions = 5"),
    (2, 2, "12, clauses = 384, decisions = 1", "12, clauses = 96, decisions = 1"),
    (4, 2, "24, clauses = 10752, decisions = 87", "24, clauses = 1248, decisions = 87"),
    (3, 3, "40, clauses = 81920, decisions = 527", "40, clauses = 10240, decisions = 527"),
    (7, 1, "14, clauses = 96096, decisions = 923", "14, clauses = 6864, decisions = 923"),
]


@pytest.mark.parametrize("k,l,multiset,distinct", SOLVE_LINES, ids=[f"{k}-{l}" for k, l, *_ in SOLVE_LINES])
def test_solve_output_pinned(capsys, k, l, multiset, distinct):
    for flags, stats in (((), multiset), (("--dedup",), distinct)):
        code, out, err = run(capsys, "solve", "--k", str(k), "--l", str(l), *flags)
        assert (code, err) == (0, "")
        assert out == f"unsatisfiable (variables = {stats})\n"


def test_solve_dedup_6_2_within_budget(capsys):
    # The largest dual the solver decides in the suite: 8861 decisions.
    start = time.monotonic()
    code, out, err = run(capsys, "solve", "--dedup", "--k", "6", "--l", "2")
    elapsed = time.monotonic() - start
    assert (code, err) == (0, "")
    assert out == "unsatisfiable (variables = 36, clauses = 15648, decisions = 8861)\n"
    assert elapsed < 30.0, f"solve --dedup --k 6 --l 2 took {elapsed:.1f}s"


def test_solve_builds_no_multiset(capsys, monkeypatch):
    def refuse(params):
        raise RuntimeError("solve enumerated the edge multiset")

    monkeypatch.setattr(construction, "iter_edges", refuse)
    code, out, _ = run(capsys, "solve", "--k", "4", "--l", "2")
    assert code == 0
    assert out == "unsatisfiable (variables = 24, clauses = 10752, decisions = 87)\n"


def test_solve_builds_no_hypergraph_or_cnf(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("solve built a Hypergraph or a Cnf")

    for module, name in ((construction, "distinct_hypergraph"), (satbridge, "hypergraph_to_cnf")):
        monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(cli, name, refuse, raising=False)
    for k, l, multiset, distinct in SOLVE_LINES:
        for flags, stats in (((), multiset), (("--dedup",), distinct)):
            assert run(capsys, "solve", "--k", str(k), "--l", str(l), *flags) == (
                0,
                f"unsatisfiable (variables = {stats})\n",
                "",
            )


def test_solve_refuses_a_claimed_model_that_colors_an_edge_one_way(capsys, monkeypatch):
    # A search that claims SAT with every variable unset: the model check, not
    # the search, decides, so solve exits 4 with one line and no traceback.
    monkeypatch.setattr(satbridge._Dpll, "_search", lambda self: True)
    assert run(capsys, "solve", "--k", "3", "--l", "3") == (
        4,
        "",
        "verification failure: solver produced a non-satisfying model\n",
    )


def test_verify_small_confirms(capsys):
    code, out, _ = run(capsys, "verify-small", "--k", "2", "--l", "2")
    assert code == 0
    assert out == "non-2-colorable: confirmed (4096 colorings checked)\n"


def test_verify_small_output_pinned_up_to_24_vertices(capsys):
    # 2^24 colorings: only a pruned search decides (4,2) within the budget.
    start = time.monotonic()
    results = [
        run(capsys, "verify-small", "--k", "8", "--l", "1"),
        run(capsys, "verify-small", "--k", "4", "--l", "2"),
    ]
    elapsed = time.monotonic() - start
    assert results == [
        (0, "non-2-colorable: confirmed (65536 colorings checked)\n", ""),
        (0, "non-2-colorable: confirmed (16777216 colorings checked)\n", ""),
    ]
    assert elapsed < 10.0, f"verify-small (8,1) and (4,2) took {elapsed:.1f}s"


def test_verify_small_refuses_large(capsys):
    code, out, _ = run(capsys, "verify-small", "--k", "6", "--l", "2")
    assert code == 3
    assert "refusing" in out


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def argparse_reading(argv):
    """vars() of argparse's reading of argv, or None where it exits (a usage error or --help)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


OPTIONS_OF = {
    "gen": ["--k", "--l", "--edge-cap", "--format", "--dedup"],
    "count": ["--k", "--l"],
    "bound": ["--k"],
    "witness": ["--k", "--l", "--coloring", "--seed"],
    "solve": ["--k", "--l", "--edge-cap", "--dedup"],
    "verify-small": ["--k", "--l", "--edge-cap"],
}
TOKENS = ["--k", "--l", "--edge-cap", "--format", "--dedup", "--coloring", "--seed", "-h", "--help", "--", "--ed", "--k=3"]
# The values an option takes where it takes no int.
FITTING = {"--format": ["edges", "dimacs"], "--coloring": ["abc", "", "7"]}
VALUES = ["7", " 7", "+3", "-1", "\u0663", "", "abc", "1.5", "0x10", "edges", "dimacs", "xml", "-", "--k"]


@st.composite
def parser_argv(draw):
    """A command line that is, about half the time, in the plain grammar."""
    command = draw(st.sampled_from([*OPTIONS_OF, "frobnicate"]))
    argv = [command]
    if draw(st.booleans()):  # a well-formed line, but for at most one token
        options = OPTIONS_OF.get(command, TOKENS)
        for option in ["--k", *draw(st.lists(st.sampled_from(options), max_size=4))]:
            argv.append(option)
            if option != "--dedup":
                argv.append(draw(st.sampled_from(FITTING.get(option, ["7", " 7", "+3", "\u0663"]))))
        if draw(st.booleans()):
            argv[draw(st.integers(1, len(argv) - 1))] = draw(st.sampled_from([*TOKENS, *VALUES]))
    else:
        for token, value in draw(st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from([None, *VALUES])), max_size=5)):
            argv += [token] if value is None else [token, value]
    return argv


@settings(max_examples=400, deadline=None)
@given(parser_argv())
@example(["gen", "--k", "\u0663", "--format", "dimacs", "--dedup", "--dedup", "--format", "edges"])
@example(["witness", "--k", " 7", "--coloring", "", "--seed", "+3", "--seed", "7"])
@example(["count", "--l", "7", "--k", "7"])
@example(["bound", "--k", "7"])
@example(["solve", "--dedup", "--k", "7", "--edge-cap", "\u0663"])
@example(["verify-small", "--k", "7", "--l", "7", "--edge-cap", "7"])
# Each declined: a choice that is not one, a missing --k, an option string as a value.
@example(["gen", "--k", "7", "--format", "xml"])
@example(["gen", "--l", "7"])
@example(["witness", "--k", "7", "--coloring", "--k"])
def test_a_line_the_table_reads_is_read_the_same_by_argparse(argv):
    args = cli._read_plain(argv)
    if args is not None:
        assert vars(args) == argparse_reading(argv)


# The benchmark's jobs, as bench/checks.py's Job.argv renders them, and its set-up probe.
BENCH_JOBS = [
    ["gen", "--k", "8", "--l", "2"],
    ["gen", "--k", "8", "--l", "2", "--format", "dimacs"],
    ["gen", "--k", "8", "--l", "2", "--dedup"],
    ["witness", "--k", "8", "--l", "2", "--coloring", "bench/.work/coloring-8-2-tie-1.txt"],
    ["solve", "--dedup", "--k", "3", "--l", "3"],
    ["solve", "--dedup", "--k", "4", "--l", "2"],
    ["solve", "--dedup", "--k", "7", "--l", "1"],
    ["verify-small", "--k", "7", "--l", "1"],
    ["count", "--k", "4", "--l", "2"],
]


def ci_command_lines():
    """The propb command lines of the CI step that runs the installed script, up to a quote, pipe or redirect."""
    text = (Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = text[text.index("- name: Packaged console script") :]
    return [line.split() for line in re.findall(r"\bpropb((?: [\w.=/-]+)+)", step)]


def test_every_pinned_command_line_is_read_from_the_table():
    lines = [argv.split() for argv, *_ in GOLDEN] + BENCH_JOBS + ci_command_lines()
    assert len(lines) > len(GOLDEN) + len(BENCH_JOBS) + 40
    for argv in lines:
        expected = argparse_reading(argv)
        args = cli._read_plain(argv)
        if args is not None:
            assert vars(args) == expected, argv
        else:
            # Declined: a usage error or --help, or a negative number, which argparse reads.
            assert expected is None or any(token[:1] == "-" and token[1:].isdigit() for token in argv), argv


@pytest.mark.parametrize(
    "argv",
    [["gen", "--k", "4", "--l", "2"], ["gen", "--k=4", "--l", "2"], ["witness", "--k", "2", "--l", "1", "--seed", "1"]],
    ids=["gen", "gen-through-argparse", "witness"],
)
def test_main_calls_the_handler_the_module_holds_when_it_is_called(monkeypatch, argv):
    monkeypatch.delenv("PROPB_EDGE_CAP", raising=False)
    calls = []

    def record(args, out):
        calls.append(vars(args))
        return cli.EXIT_VERIFY

    monkeypatch.setattr(cli, "cmd_gen", record)
    monkeypatch.setattr(cli, "cmd_witness", record)
    assert cli.main(argv) == cli.EXIT_VERIFY
    assert [args["command"] for args in calls] == [argv[0]]
    if argv[0] == "gen":
        assert calls[0]["k"] == 4 and calls[0]["edge_cap"] == counting.DEFAULT_EDGE_CAP


# Cheap instances only: k <= 12 keeps count, bound and witness fast, and gen,
# solve and verify-small always get an edge cap of at most 2000 (solve then
# sees at most (4, 1), verify-small at most 12 vertices).
NUMBERS = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(["abc", "", "1.5", "0x10"]))
OPTIONS = {
    "--k": NUMBERS,
    "--l": NUMBERS,
    "--edge-cap": st.one_of(st.integers(-2, 2000).map(str), st.sampled_from(["abc", ""])),
    "--seed": st.one_of(st.integers(-5, 10**6).map(str), st.just("seed")),
    "--format": st.sampled_from(["edges", "dimacs", "xml"]),
    "--dedup": st.none(),
    "--coloring": st.sampled_from(["random bytes", "directory", "missing", "/dev/zero"]),
}
CAPPED = ("gen", "solve", "verify-small")


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["gen", "count", "bound", "witness", "solve", "verify-small"]))
    flags = draw(st.lists(st.sampled_from(sorted(OPTIONS)), unique=True))
    if command in CAPPED and "--edge-cap" not in flags:
        flags.append("--edge-cap")
    argv = [command]
    for flag in flags:
        value = draw(OPTIONS[flag])
        argv += [flag] if value is None else [flag, value]
    return argv, draw(st.binary(max_size=40))


@settings(max_examples=150, deadline=None)
@given(fuzz_argv())
# Counts past CPython's 4300-digit int-to-str limit, in the exact count or in
# the bound's exponent: each used to end in a ValueError traceback.
@example((["count", "--k", "6000", "--l", "1"], b""))
@example((["bound", "--k", "6000"], b""))
@example((["count", "--k", "128", "--l", "128"], b""))
@example((["bound", "--k", "4096"], b""))
# best_l must reject a non-positive k before it computes the l = 1 count.
@example((["count", "--k", "-3"], b""))
# An edge-cap refusal whose multiset count is past the 4300-digit limit.
@example((["gen", "--k", "7200", "--l", "1"], b""))
@example((["solve", "--k", "7200", "--l", "1"], b""))
# A refusal number past that limit: witness's shift steps, verify-small's vertex count.
@example((["witness", "--k", "20000", "--l", "20000", "--seed", "1"], b""))
@example((["verify-small", "--k", "20000", "--l", "20000"], b""))
# A k past the float range, and a refusal's k*k past 4300 digits.
@example((["count", "--k", str(10**400), "--l", "1"], b""))
@example((["gen", "--k", str(10**400), "--l", "1"], b""))
@example((["bound", "--k", str(10**3000)], b""))
@example((["witness", "--k", "2", "--l", "1", "--coloring", "random bytes"], "RRBÉ".encode()))
@example((["witness", "--k", "2", "--l", "1", "--coloring", "directory"], b""))
def test_cli_fuzz_exit_codes(case):
    argv, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "coloring.txt")
        path.write_bytes(data)
        files = {"random bytes": str(path), "directory": tmp, "missing": str(Path(tmp, "absent"))}
        argv = [files.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
