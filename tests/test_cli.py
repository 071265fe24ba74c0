import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propb import cli, construction, counting
from propb.params import validate_params
from propb.satbridge import parse_dimacs
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


def test_gen_into_a_pipe_closed_early_exits_cleanly():
    # `propb gen | head -1`: the reader leaves after one line of a 1.5 MB stream
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "propb.cli", "gen", "--k", "6", "--l", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"p hyp 36 95040 6\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


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


def test_counts_too_long_to_print_are_refused(capsys, monkeypatch):
    # count --k 128 --l 128 has 16,763 bits, bound --k 4096 16,789,497
    for argv in (("count", "--k", "128", "--l", "128"), ("bound", "--k", "4096")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and err == ""
        assert out.startswith("refusing:") and out.count("\n") == 1
    # (5000, 1): 10,007 bits
    monkeypatch.setattr(cli, "COUNT_MAX_BITS", 10_007)
    assert run(capsys, "count", "--k", "5000", "--l", "1")[0] == 0
    monkeypatch.setattr(cli, "COUNT_MAX_BITS", 10_006)
    code, out, _ = run(capsys, "count", "--k", "5000", "--l", "1")
    assert code == 3
    assert "10007 bits" in out


def test_count_and_bound_compute_no_count_they_can_rule_out(capsys, monkeypatch):
    # Every count is at least 2^(l*l), so no count with l*l >= COUNT_MAX_BITS
    # can be printed, nor be the smallest for best_l; none is computed.
    computed = []
    edge_count = counting._edge_count

    def recording(k, l):
        computed.append(l)
        return edge_count(k, l)

    monkeypatch.setattr(counting, "_edge_count", recording)
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
    assert computed and max(l * l for l in computed) < cli.COUNT_MAX_BITS


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


def test_solve_builds_no_multiset(capsys, monkeypatch):
    def refuse(params):
        raise RuntimeError("solve enumerated the edge multiset")

    monkeypatch.setattr(construction, "iter_edges", refuse)
    code, out, _ = run(capsys, "solve", "--k", "4", "--l", "2")
    assert code == 0
    assert out == "unsatisfiable (variables = 24, clauses = 10752, decisions = 87)\n"


def test_verify_small_confirms(capsys):
    code, out, _ = run(capsys, "verify-small", "--k", "2", "--l", "2")
    assert code == 0
    assert out == "non-2-colorable: confirmed (4096 colorings checked)\n"


def test_verify_small_refuses_large(capsys):
    code, out, _ = run(capsys, "verify-small", "--k", "6", "--l", "2")
    assert code == 3
    assert "refusing" in out


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


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
    "--coloring": st.sampled_from(["random bytes", "directory", "missing"]),
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
