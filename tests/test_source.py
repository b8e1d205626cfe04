"""Checks on the library source itself.

Internal invariants are either proven or reported as a documented
``ToricalcError``; an ``assert`` would surface to a caller as a bare
``AssertionError`` (or vanish under ``python -O``). The lattice algebra
and the semigroup algorithms work in integers only, so they never use
``fractions.Fraction``.
"""

import ast
from pathlib import Path

import toricalc

SOURCES = sorted(Path(toricalc.__file__).parent.glob("*.py"))


def assertion_sites(path):
    """Line numbers of assert statements and raises of AssertionError."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return lines


def fraction_sites(path):
    """Line numbers of imports from ``fractions`` and of uses of the name
    ``Fraction``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "Fraction":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "Fraction":
            lines.append(node.lineno)
    return lines


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"lattice.py", "polyhedra.py", "semigroups.py", "actions.py"}


def test_no_assertions_in_library():
    found = {p.name: assertion_sites(p) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_integer_only_modules_never_use_fraction():
    found = {p.name: fraction_sites(p) for p in SOURCES if p.name in ("lattice.py", "semigroups.py")}
    assert found == {"lattice.py": [], "semigroups.py": []}
