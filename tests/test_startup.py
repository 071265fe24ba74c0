"""What a fresh interpreter loads to run the CLI.

Most CLI jobs do less work than interpreter start-up, so no propb module
imports dataclasses (which pulls in inspect, ast, dis and tokenize), and only
the calls that compute a bound load fractions (and the decimal it imports).
Each check runs in a new interpreter started with -S, so no site-packages
hook has loaded anything before propb does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from propb import cli

HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal"}
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
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert out == "k = 4, l = 2, vertices = 24\nedge count = 5376\nupper bound = 4.8425e+05\ncount <= bound: yes\n"
