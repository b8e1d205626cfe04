"""Checks on the library source itself.

Internal invariants are either proven or reported as a documented
``ToricalcError``; an ``assert`` would surface to a caller as a bare
``AssertionError`` (or vanish under ``python -O``). The lattice algebra
and the semigroup algorithms work in integers only, so they never use
``fractions.Fraction``. Integer input is checked by ``lattice.as_int``
alone, since a bare ``int()`` truncates 0.5 to 0 without a word; only
the command line, which parses argv text, calls ``int`` itself. A row
goes through ``lattice._as_ints``, which skips the call for an exact
``int``, not through ``map(as_int, ...)``. The
package exports each public name it imports, and no submodule. Every
other module uses each name it imports, so no import outlives the code
that needed it. Every public function, class and method of the library,
the scripts and the benchmark harness has a reference outside its own
definition there, tests aside, or is one of the few names the README
keeps without a caller and says why. Only ``polyhedra`` reads a
polyhedron's homogenization cone, its pass, its vertex-mask index and its
face counts, so their layout stays that module's decision.
"""

import ast
import re
from pathlib import Path
from types import ModuleType

import toricalc

SOURCES = sorted(Path(toricalc.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
# The code that may call the library: the library itself (its re-exports
# in __init__ aside), the scripts and the benchmark harness.
CALLER_SOURCES = (
    [p for p in SOURCES if p.name != "__init__.py"]
    + sorted((ROOT / "scripts").glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
)
# Public names with no caller in CALLER_SOURCES, each kept for the reason
# the README's list gives.
JUSTIFIED = {"lattice_points"}
README_LIST = "### Public names kept without a library caller"
# The private attributes of a polyhedron and its cone that only
# polyhedra.py may read.
PASS_ATTRIBUTES = {"_cone", "_pass", "_vertex_masks", "_f_vector"}


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


def map_as_int_sites(path):
    """Line numbers of calls ``map(as_int, ...)`` outside the body of
    ``lattice._as_ints``, the one place that converts a row."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_as_ints" and path.name == "lattice.py":
            allowed.update(id(n) for n in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            if isinstance(node.func, ast.Name) and node.func.id == "map" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Name) and first.id == "as_int":
                    lines.append(node.lineno)
    return sorted(lines)


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


def pass_attribute_sites(path):
    """(line, name) of each read of an attribute in ``PASS_ATTRIBUTES``,
    as ``x._pass`` or as a string equal to the name (``getattr(x, "_pass")``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PASS_ATTRIBUTES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and node.value in PASS_ATTRIBUTES:
            found.append((node.lineno, node.value))
    return sorted(found)


def unused_imports(path):
    """Names bound by an import (``from __future__`` aside) that no other
    node of the module reads, with the import's line number."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported if name not in used)


def public_definitions(tree):
    """(name, node) of each public top-level function or class of a
    module, and of each public method of such a class as "Class.method"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def uncalled_names(paths):
    """Public names defined in ``paths`` that no node of ``paths`` outside
    their own definition refers to: as an attribute, as a string equal to
    the name (``vars(cls)["method"]``) or, for a top-level name only, as a
    bare name. A method counts as referred to when any attribute has its
    name, whatever the object; a local variable of that name does not."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    bare, members = {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bare.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                members.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                members.setdefault(node.value, []).append(node)
    found = []
    for tree in trees:
        for name, node in public_definitions(tree):
            owner, _, attr = name.rpartition(".")
            refs = members.get(attr, []) + ([] if owner else bare.get(attr, []))
            own = {id(n) for n in ast.walk(node)}
            if all(id(r) in own for r in refs):
                found.append(name)
    return sorted(found)


def readme_justified_names():
    """The names in backticks in the README's list of public names kept
    without a library caller."""
    text = (ROOT / "README.md").read_text()
    section = text.split(README_LIST, 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"`([A-Za-z_][\w.]*)`", section))


# The package's public API.
PUBLIC_NAMES = {
    "AllZero", "Cone", "EmptyPolyhedron", "Face", "GradedPoint", "InputError",
    "IntMatrix", "LinealityPresent", "LinearizedAction", "NonSpanning",
    "NormalForm", "NotInSemigroup", "NotPointed", "NotSimple", "Polyhedron",
    "RingPresentation", "TorsionQuotient", "ToricalcError",
    "Unbounded", "VRepresentation", "betti", "delta", "dilate",
    "evaluate_invariants", "f_vector", "face", "graded_generators",
    "group_from_delta", "hilbert_basis", "hilbert_function", "homogenize",
    "interval", "invariant_monomial", "is_bounded", "is_empty", "is_semistable",
    "lattice_points", "linearized_action", "minimal_unstable_supports",
    "orbit_census", "polyhedron", "product", "proj_equal",
    "relation_space", "snf", "standard_simplex", "unit_cube", "vrep",
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


def test_rows_converted_only_by_as_ints():
    found = {p.name: map_as_int_sites(p) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_map_check_sees_calls_outside_as_ints(tmp_path):
    path = tmp_path / "lattice.py"
    path.write_text(
        "def _as_ints(row):\n    return tuple(map(as_int, row))\n\n"
        "y = tuple(map(as_int, (1,)))\nz = set(map(abs, (1,)))\n"
    )
    assert map_as_int_sites(path) == [4]


def test_only_polyhedra_reads_the_pass():
    found = {p.name: pass_attribute_sites(p) for p in SOURCES if p.name != "polyhedra.py"}
    assert {name: sites for name, sites in found.items() if sites} == {}


def test_pass_check_sees_attributes_and_names(tmp_path):
    path = tmp_path / "actions.py"
    path.write_text(
        "rays, lin = delta(a)._cone._pass\nmasks = getattr(p, '_vertex_masks')\n"
        "counts = p._f_vector\ncone = p.cone\n"
    )
    assert pass_attribute_sites(path) == [(1, "_cone"), (1, "_pass"), (2, "_vertex_masks"), (3, "_f_vector")]


def test_submodules_use_every_import():
    found = {p.name: unused_imports(p) for p in SOURCES if p.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_import_check_sees_unused_names(tmp_path):
    path = tmp_path / "semigroups.py"
    path.write_text(
        "from __future__ import annotations\nimport math\nimport os.path\n"
        "from .polyhedra import dilate, lattice_points as lp, vrep\n\n"
        "def f(p) -> math.inf:\n    return vrep(p)\n"
    )
    assert unused_imports(path) == [(3, "os"), (4, "dilate"), (4, "lp")]


def test_exports_every_public_name():
    assert len(toricalc.__all__) == len(set(toricalc.__all__))
    assert set(toricalc.__all__) == PUBLIC_NAMES
    for name in toricalc.__all__:
        assert not isinstance(getattr(toricalc, name), ModuleType), name


def test_every_public_name_has_a_caller():
    assert {p.parent.name for p in CALLER_SOURCES} == {"toricalc", "scripts", "perfbench"}
    assert uncalled_names(CALLER_SOURCES) == sorted(JUSTIFIED)
    assert JUSTIFIED <= readme_justified_names()


def test_caller_check_sees_unreferenced_names(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "def _private():\n    pass\n\n"
        "class Box:\n"
        "    def kept(self):\n        return used()\n\n"
        "    def looked_up(self):\n        pass\n\n"
        "    def dropped(self):\n        return self.dropped\n\n"
        "    def row(self):\n        pass\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "class Unused:\n    pass\n"
    )
    user = tmp_path / "user.py"
    user.write_text(
        "import lib\n\nlib.Box().kept()\nhook = vars(lib.Box)['looked_up']\n"
        "# A loop variable named like a method does not call it.\nfor row in [()]:\n    print(row)\n"
    )
    assert uncalled_names([lib, user]) == ["Box.dropped", "Box.row", "Unused", "recursive"]
