"""Every source and test file parses as Python 3.10, the oldest version supported.

ast.parse with feature_version refuses grammar newer than 3.10 (such as
`except*`), so this holds on whichever interpreter runs the suite.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
FILES = sorted([*ROOT.glob("src/propb/*.py"), *ROOT.glob("tests/*.py")])


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
