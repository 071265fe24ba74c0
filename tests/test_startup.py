"""What a fresh interpreter loads to run the CLI, and how the process ends.

Most CLI jobs do less work than interpreter start-up, so no propb module
imports dataclasses (which pulls in inspect, ast, dis and tokenize), and only
the calls that compute a bound load fractions (and the decimal it imports).
A command line in the plain grammar is read from cli's own table, so only
--help and usage errors load argparse (and the gettext and locale it
imports).  Each check runs in a new interpreter started with -S, so no
site-packages hook has loaded anything before propb does.

The process ends through cli.run: main(), a flush of stdout and stderr, then
os._exit, with no interpreter teardown, so no atexit handler runs; the
output must still arrive whole.  An interrupt ends it by SIGINT, also while
the command line is parsed.
"""

import ast
import hashlib
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from propb import cli

ARGPARSE = {"argparse", "gettext", "locale"}
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", *ARGPARSE}
SRC = str(Path(cli.__file__).parents[1])


def run_fresh(script: str) -> tuple[set[str], str]:
    """The HEAVY modules loaded once `script` has run in a new interpreter, and its stdout."""
    probe = f"\nimport sys\nprint(*set(sys.modules) & {HEAVY!r}, file=sys.stderr)\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script + probe],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split()), proc.stdout


@pytest.mark.parametrize("module", ["cli", "construction", "satbridge", "witness", "params"])
def test_importing_loads_neither_dataclasses_nor_fractions(module):
    assert run_fresh(f"import propb.{module}") == (set(), "")


def test_only_a_bound_loads_fractions():
    commands = [
        ["gen", "--k", "2", "--l", "1"],
        ["gen", "--dedup", "--k", "2", "--l", "2", "--format", "dimacs"],
        ["witness", "--k", "2", "--l", "2", "--seed", "1"],
        ["solve", "--k", "2", "--l", "1"],
        ["verify-small", "--k", "2", "--l", "1"],
    ]
    loaded, out = run_fresh(f"from propb import cli\nfor argv in {commands!r}:\n    assert cli.main(argv) == 0")
    assert loaded == set() and out

    loaded, out = run_fresh("from propb import cli\nassert cli.main(['count', '--k', '4', '--l', '2']) == 0")
    assert "fractions" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", *ARGPARSE}
    assert out == "k = 4, l = 2, vertices = 24\nedge count = 5376\nupper bound = 4.8425e+05\ncount <= bound: yes\n"


def test_only_a_line_outside_the_plain_grammar_loads_argparse():
    # ["gen"] lacks --k: the table declines it, and argparse writes the usage error.
    script = (
        "import contextlib, io\n"
        "from propb import cli\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        "    try:\n"
        "        cli.main(['gen'])\n"
        "    except SystemExit as exc:\n"
        "        print(exc.code)\n"
        "print(err.getvalue(), end='')"
    )
    loaded, out = run_fresh(script)
    assert loaded == ARGPARSE
    assert out.startswith("2\nusage: propb gen [-h] --k K")
    assert out.endswith("\npropb gen: error: the following arguments are required: --k\n")


def run_module(prelude: str, argv: list[str], stdout) -> subprocess.CompletedProcess:
    """`python -m propb.cli *argv` after `prelude`, block buffered as a shell runs it."""
    script = f"{prelude}\nimport runpy, sys\nsys.argv = ['propb', *{argv!r}]\nrunpy.run_module('propb.cli', run_name='__main__')\n"
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", script], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["gen", "--dedup", "--k", "4", "--l", "2", "--format", "dimacs"], 0),
        (["count", "--k", "4", "--l", "2"], 0),
        (["gen", "--k", "3", "--l", "2"], 2),
        (["count", "--k", "8000", "--l", "1"], 3),
        (["gen", "--k", "12", "--l", "1"], 3),
    ],
)
@pytest.mark.parametrize("into", ["pipe", "file"])
def test_the_process_ends_without_teardown_and_its_output_whole(tmp_path, capsys, argv, code, into):
    assert cli.main(argv) == code
    expected = capsys.readouterr()
    prelude = "import atexit, os\natexit.register(os.write, 2, b'teardown ran\\n')"
    if into == "pipe":
        proc = run_module(prelude, argv, subprocess.PIPE)
        out = proc.stdout
    else:
        with open(tmp_path / "out", "wb") as stdout:
            proc = run_module(prelude, argv, stdout)
        out = (tmp_path / "out").read_bytes()
    assert proc.returncode == code, proc.stderr
    assert out == expected.out.encode()
    assert proc.stderr == expected.err.encode()  # no "teardown ran"


def test_a_verification_failure_mid_stream_still_writes_the_stream():
    # The distinct-count check raises only once every chunk is written: the
    # whole (4,2) stream is in the buffer when main returns 4.
    prelude = (
        "from propb import counting\n"
        "true_count = counting.distinct_edge_count\n"
        "counting.distinct_edge_count = lambda params: true_count(params) + 1"
    )
    proc = run_module(prelude, ["gen", "--dedup", "--k", "4", "--l", "2"], subprocess.PIPE)
    assert proc.returncode == 4
    assert proc.stderr == b"verification failure: built 624 distinct edges, formula says 625\n"
    assert proc.stdout.startswith(b"p hyp 24 625 4\n1 2 9 10\n")
    digest = "3dccf03fb242ec771e794971f26bbc5ee30ea85d3d31a5f9b91789bc1ed90e62"
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_an_interrupt_while_parsing_ends_by_sigint_without_a_traceback():
    # ["gen"] lacks --k, so argparse parses it, and is interrupted doing so.
    prelude = (
        "import argparse\n"
        "def interrupt(*args, **kwargs):\n"
        "    raise KeyboardInterrupt\n"
        "argparse.ArgumentParser.parse_args = interrupt"
    )
    proc = run_module(prelude, ["gen"], subprocess.PIPE)
    assert proc.returncode == -signal.SIGINT, proc.stderr
    assert proc.stderr == b""


def test_the_console_script_and_python_m_share_one_entry():
    root = Path(SRC).parent
    # Read as text: Python 3.10 has no tomllib.
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", (root / "pyproject.toml").read_text(), re.M | re.S)
    assert scripts is not None
    entry = re.search(r'^propb\s*=\s*"propb\.cli:(\w+)"\s*$', scripts.group(1), re.M)
    assert entry is not None, scripts.group(1)
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("__name__ == '__main__'", "'__main__' == __name__")
    ]
    assert [ast.unparse(statement) for statement in block.body] == [f"{entry.group(1)}()"]
    assert callable(getattr(cli, entry.group(1)))
