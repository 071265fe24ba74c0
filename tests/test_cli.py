import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from propb import cli
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
