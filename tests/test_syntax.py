"""Every source and test file parses as Python 3.10, the oldest version supported.

ast.parse with feature_version refuses grammar newer than 3.10 (such as
`except*`), so this holds on whichever interpreter runs the suite.  Library
names are not grammar: a short list of those added in 3.11-3.13 is refused
by walking each file's imports, module attributes and builtin names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
FILES = sorted([*ROOT.glob("src/propb/*.py"), *ROOT.glob("tests/*.py")])


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# Modules and names new in Python 3.11-3.13, by module; "builtins" for bare names.
NEWER_MODULES = {"tomllib"}
NEWER_NAMES = {
    "typing": {
        "Self", "Never", "LiteralString", "assert_never", "reveal_type", "Required", "NotRequired",
        "override", "TypeIs", "ReadOnly",
    },
    "enum": {"StrEnum"},
    "itertools": {"batched"},
    "math": {"sumprod", "exp2", "cbrt", "fma"},
    "random": {"binomialvariate"},
    "copy": {"replace"},
    "warnings": {"deprecated"},
    "os": {"process_cpu_count"},
    "operator": {"call"},
    "hashlib": {"file_digest"},
    "contextlib": {"chdir"},
    "asyncio": {"TaskGroup"},
    "datetime": {"UTC"},
    "sys": {"exception"},
    "builtins": {"ExceptionGroup", "BaseExceptionGroup"},
}


def newer_library_names(source):
    """The uses in `source` of NEWER_MODULES and NEWER_NAMES, as dotted names."""
    tree = ast.parse(source)
    modules = {}  # local name -> module, from `import m` and `import m as local`
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] in NEWER_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            if node.module.split(".")[0] in NEWER_MODULES:
                found.append(node.module)
            found += [f"{node.module}.{a.name}" for a in node.names if a.name in NEWER_NAMES.get(node.module, ())]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id, node.value.id)
            if node.attr in NEWER_NAMES.get(module, ()):
                found.append(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in NEWER_NAMES["builtins"]:
            found.append(f"builtins.{node.id}")
    return found


def test_newer_library_names_are_found():
    source = (
        "import tomllib\n"
        "import itertools as it, math, os\n"
        "from typing import Self, Sequence\n"
        "from contextlib import chdir\n"
        "it.batched(range(4), 2)\n"
        "math.cbrt(8.0) + math.sqrt(4.0)\n"
        "os.process_cpu_count()\n"
        "raise ExceptionGroup('', [])\n"
    )
    assert sorted(newer_library_names(source)) == sorted(
        [
            "tomllib",
            "typing.Self",
            "contextlib.chdir",
            "itertools.batched",
            "math.cbrt",
            "os.process_cpu_count",
            "builtins.ExceptionGroup",
        ]
    )


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_uses_no_library_name_newer_than_3_10(path):
    assert newer_library_names(path.read_text(encoding="utf-8")) == []
