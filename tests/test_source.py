"""Checks on the library source itself.

Internal invariants are either proven or reported as a documented
``ToricalcError``; an ``assert`` would surface to a caller as a bare
``AssertionError`` (or vanish under ``python -O``). The lattice algebra
and the semigroup algorithms work in integers only, so they never use
``fractions.Fraction``. Integer input is checked by ``lattice.as_int``
alone, since a bare ``int()`` truncates 0.5 to 0 without a word; only
the command line, which parses argv text, calls ``int`` itself. The
package exports each public name it imports, and no submodule.
"""

import ast
from pathlib import Path
from types import ModuleType

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


def int_call_sites(path):
    """Line numbers where the builtin ``int`` is called or passed to a
    call (as in ``map(int, xs)``), outside the body of ``as_int``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "as_int" and path.name == "lattice.py":
            allowed.update(id(n) for n in ast.walk(node))
    is_int = lambda n: isinstance(n, ast.Name) and n.id == "int"
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            passed = node.args + [k.value for k in node.keywords]
            if is_int(node.func) or any(is_int(a) for a in passed):
                lines.append(node.lineno)
    return sorted(lines)


# The package's public API.
PUBLIC_NAMES = {
    "AllZero", "Cone", "EmptyPolyhedron", "Face", "GradedPoint", "InputError",
    "IntMatrix", "LinealityPresent", "LinearizedAction", "NonSpanning",
    "NormalForm", "NotInSemigroup", "NotPointed", "NotSimple", "Polyhedron",
    "QuotientData", "RingPresentation", "TorsionQuotient", "ToricalcError",
    "Unbounded", "VRepresentation", "betti", "delta", "dilate",
    "evaluate_invariants", "f_vector", "face", "graded_generators",
    "group_from_delta", "hilbert_basis", "hilbert_function", "hnf", "homogenize",
    "integer_kernel_basis", "interval", "invariant_monomial", "is_bounded",
    "is_empty", "is_semistable", "lattice_points", "linearized_action",
    "minimal_unstable_supports", "orbit_census", "polyhedron", "positive_orthant",
    "product", "proj_equal", "quotient_projection", "relation_space", "snf",
    "standard_simplex", "unit_cube", "vrep",
}


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"lattice.py", "polyhedra.py", "semigroups.py", "actions.py"}


def test_no_assertions_in_library():
    found = {p.name: assertion_sites(p) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_integer_only_modules_never_use_fraction():
    found = {p.name: fraction_sites(p) for p in SOURCES if p.name in ("lattice.py", "semigroups.py")}
    assert found == {"lattice.py": [], "semigroups.py": []}


def test_integers_converted_only_by_as_int():
    found = {p.name: int_call_sites(p) for p in SOURCES if p.name != "cli.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_int_check_sees_calls_and_arguments(tmp_path):
    path = tmp_path / "lattice.py"
    path.write_text("def as_int(x):\n    return int(x)\n\ny = int(2)\nz = list(map(int, 'ab'))\n")
    assert int_call_sites(path) == [4, 5]


def test_exports_every_public_name():
    assert len(toricalc.__all__) == len(set(toricalc.__all__))
    assert set(toricalc.__all__) == PUBLIC_NAMES
    for name in toricalc.__all__:
        assert not isinstance(getattr(toricalc, name), ModuleType), name
