import ast
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from propb import params
from propb.params import ParameterError, Params, validate_params


def test_k2_l1():
    p = validate_params(2, 1)
    assert p == Params(k=2, l=1)
    assert p.seq_len == 4
    assert p.block_size == 2
    assert p.num_sequences == 1
    assert p.num_vertices == 4


def test_k4_l2():
    p = validate_params(4, 2)
    assert p.seq_len == 8
    assert p.block_size == 2
    assert p.num_sequences == 3
    assert p.num_vertices == 24


def test_divisibility_rejected():
    with pytest.raises(ParameterError, match="l must divide k"):
        validate_params(3, 2)


@pytest.mark.parametrize("k,l", [(2, 3), (0, 1), (1, 0), (-2, 1)])
def test_bad_pairs_rejected(k, l):
    with pytest.raises(ParameterError):
        validate_params(k, l)


def test_non_integer_rejected():
    with pytest.raises(ParameterError):
        validate_params(4.0, 2)


@given(st.integers(1, 12), st.integers(1, 12))
def test_derived_fields(k, l):
    if l > k or k % l:
        with pytest.raises(ParameterError):
            validate_params(k, l)
        return
    p = validate_params(k, l)
    assert p.seq_len == 2**l * k // l
    assert p.block_size * l == k
    assert p.seq_len >= p.block_size


def test_params_hold_k_and_l_alone_so_any_size_validates_at_once():
    start = time.perf_counter()
    p = validate_params(10**400, 10**400)
    assert time.perf_counter() - start < 0.1
    assert Params._fields == ("k", "l")
    assert p == Params(k=10**400, l=10**400)
    assert (p.block_size, p.num_sequences) == (1, 2 * 10**400 - 1)


def test_params_hash_and_compare_by_value():
    p = validate_params(4, 2)
    assert p == validate_params(4, 2) and hash(p) == hash(validate_params(4, 2))
    assert p != validate_params(4, 1)
    assert len({p, validate_params(4, 2), validate_params(4, 1)}) == 2


def constructor_calls(node: ast.AST) -> int:
    """Calls in `node` of Params, of an attribute named Params, or of any _make or _replace."""
    return sum(
        isinstance(call, ast.Call)
        and (
            getattr(call.func, "id", None) == "Params"
            or getattr(call.func, "attr", None) in ("Params", "_make", "_replace")
            or getattr(getattr(call.func, "value", None), "id", None) == "Params"
        )
        for call in ast.walk(node)
    )


def test_validate_params_is_the_only_constructor_in_src():
    total = inside = 0
    for path in sorted(Path(params.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += constructor_calls(tree)
        if path.name == "params.py":
            (validate,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "validate_params"]
            inside = constructor_calls(validate)
    assert total == inside == 1


def test_parameter_and_edge_cap_errors_are_the_only_exception_classes_in_src():
    # main maps ParameterError to exit 2 and EdgeCapError to 3; no subclass
    # of either, nor another error class, is told apart by any caller.
    defined = set()
    for path in sorted(Path(params.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = [getattr(base, "id", None) or getattr(base, "attr", "") for base in node.bases]
                if any(base.endswith(("Error", "Exception")) for base in bases):
                    defined.add(node.name)
    assert defined == {"ParameterError", "EdgeCapError"}
