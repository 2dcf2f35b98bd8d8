"""No new `assert` in the library: checks must survive `python -O`.

Every `assert` statement under src/tqdstab is located by (module, innermost
enclosing function) and compared with the allowlist below. A new assert
fails this test; so does an allowlist entry whose assert is gone, so the
list only shrinks as the remaining ones become typed errors.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tqdstab"

ALLOWED = Counter({
    ("anyon", "lagrangian_subgroups"): 1,
    ("anyon", "fusion_group"): 1,
    ("anyon", "_invariants_from_order_census"): 1,
    ("circuitmap", "domain_wall_count"): 1,
})


def _asserts(tree, module):
    found = []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found.append((module, func))
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)
            walk(child, inner)

    walk(tree, "<module>")
    return found


def library_asserts():
    found = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(_asserts(tree, path.stem))
    return found


def test_asserts_match_allowlist():
    found = library_asserts()
    assert found - ALLOWED == Counter(), "new assert in the library"
    assert ALLOWED - found == Counter(), "allowlisted assert is gone"


def test_locator_finds_function_asserts():
    tree = ast.parse("def f():\n    def g():\n        assert 1\n"
                     "    assert 2\nassert 3\n")
    assert _asserts(tree, "m") == [("m", "g"), ("m", "f"),
                                   ("m", "<module>")]
