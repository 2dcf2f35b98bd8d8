"""No new `assert` in the library: checks must survive `python -O`.

Every `assert` statement under src/tqdstab is located by (module, innermost
enclosing function) and compared with the allowlist below, which is empty:
every check in the library raises a typed error. A new assert fails this
test; so would an allowlist entry whose assert is gone.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tqdstab"

ALLOWED = Counter()


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


# Four consistency checks of anyon and circuitmap, each reached with its input
# broken by monkeypatching (for the cocycle route, by invariant factors whose
# product is not |G|^2); each must raise a VerificationError with asserts
# stripped.
CHECKS_UNDER_O = (
    "from tqdstab import anyon, circuitmap\n"
    "from tqdstab.lattice import DS_PARAMS\n"
    "from tqdstab.stabilizer import VerificationError\n"
    "assert False, 'asserts must be stripped under -O'\n"
    "def rejected(call, owner=None, name=None, value=None):\n"
    "    if owner is not None:\n"
    "        saved = getattr(owner, name)\n"
    "        setattr(owner, name, value)\n"
    "    try:\n"
    "        call()\n"
    "    except VerificationError as exc:\n"
    "        print(type(exc).__name__)\n"
    "    finally:\n"
    "        if owner is not None:\n"
    "            setattr(owner, name, saved)\n"
    "tc = anyon.zn_tc_theory(2)\n"
    "rejected(lambda: anyon.lagrangian_subgroups(tc),\n"
    "         anyon.AnyonTheory, 'size', property(lambda self: 3))\n"
    "rejected(lambda: anyon.fusion_group(DS_PARAMS),\n"
    "         anyon, 'invariant_factors', lambda A: [1, 2, 0])\n"
    "rejected(lambda: anyon.fusion_group_from_cocycle(DS_PARAMS),\n"
    "         anyon, 'invariant_factors', lambda A: [1, 2])\n"
    "tri = circuitmap.TriangularLattice(3)\n"
    "edge = next(iter(tri.edges()))\n"
    "rejected(lambda: circuitmap.domain_wall_count(tri, {}),\n"
    "         circuitmap, 'coboundary',\n"
    "         lambda c: circuitmap.Cochain(tri, 1, 2, {edge: 1}))\n")


def test_consistency_checks_raise_under_optimize():
    src = PACKAGE.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", CHECKS_UNDER_O],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["TheoryCheckError"] * 3 + [
        "DomainWallError"]
