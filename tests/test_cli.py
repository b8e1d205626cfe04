"""Command-line behavior: golden outputs, exit codes, error discipline."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import toricalc
from toricalc.cli import execute
from toricalc.jsonio import action_from_json, polyhedron_from_json

SQUARE_POLY = {
    "dim": 2,
    "inequalities": [
        {"a": [1, 0], "b": 0},
        {"a": [-1, 0], "b": -1},
        {"a": [0, 1], "b": 0},
        {"a": [0, -1], "b": -1},
    ],
}
INTERVAL_POLY = {
    "dim": 1,
    "inequalities": [{"a": [1], "b": 0}, {"a": [-1], "b": -1}],
}
ORTHANT_POLY = {"dim": 1, "inequalities": [{"a": [1], "b": 0}]}
# An unbounded polyhedron with a redundant inequality that is tight on a ray only.
REDUNDANT_RAY_POLY = {
    "dim": 2,
    "inequalities": [{"a": [1, 0], "b": -2}, {"a": [1, 0], "b": -1}, {"a": [0, 1], "b": 1}],
}
EMPTY_POLY = {"dim": 1, "inequalities": [{"a": [1], "b": 1}, {"a": [-1], "b": 0}]}
# Empty, but its cone {a . x >= 0} has the ray (0, 1), a generator of degree 0.
EMPTY_WITH_RAY_POLY = {
    "dim": 2,
    "inequalities": [{"a": [1, 0], "b": 1}, {"a": [-1, 0], "b": 0}, {"a": [0, 1], "b": 0}],
}
PYRAMID_POLY = {
    "dim": 3,
    "inequalities": [
        {"a": [0, 0, 1], "b": 0},
        {"a": [-1, 0, -1], "b": -1},
        {"a": [1, 0, -1], "b": -1},
        {"a": [0, -1, -1], "b": -1},
        {"a": [0, 1, -1], "b": -1},
    ],
}
CP1_ACTION = {"n": 2, "weights": [[1, 1]], "linearization": [-1, 0]}
SQUARE_ACTION = {
    "n": 4,
    "weights": [[1, 1, 0, 0], [0, 0, 1, 1]],
    "linearization": [-1, 0, -1, 0],
}


def jfile(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestGoldenOutputs:
    def test_generators(self, tmp_path):
        f = jfile(tmp_path, "square.json", SQUARE_POLY)
        code, out, err = execute(["generators", "--polytope", f])
        assert (code, err) == (0, "")
        assert out == (
            '{"generators":[{"degree":1,"point":[0,0]},{"degree":1,"point":[0,1]},'
            '{"degree":1,"point":[1,0]},{"degree":1,"point":[1,1]}]}\n'
        )

    def test_dependent_weight_rows(self, tmp_path):
        # A multiple of CP1's row adds nothing to the group it generates.
        dep = dict(CP1_ACTION, weights=[[1, 1], [2, 2]])
        want = '{"dim":1,"inequalities":[{"a":[-1],"b":-1},{"a":[1],"b":0}]}\n'
        for action in (CP1_ACTION, dep):
            assert execute(["delta", "--action", jfile(tmp_path, "a.json", action)]) == (0, want, "")

    def test_betti(self, tmp_path):
        f = jfile(tmp_path, "square.json", SQUARE_POLY)
        assert execute(["betti", "--polytope", f])[1] == '{"betti":[1,2,1],"bounded":true}\n'

    def test_betti_flags_unbounded(self, tmp_path):
        f = jfile(tmp_path, "orthant.json", ORTHANT_POLY)
        code, out, _ = execute(["betti", "--polytope", f])
        assert code == 0
        assert json.loads(out) == {"betti": [0, 1], "bounded": False}

    def test_semistable(self, tmp_path):
        f = jfile(tmp_path, "cp1.json", CP1_ACTION)
        code, out, err = execute(["semistable", "--action", f, "--support", "1,2"])
        assert (code, out) == (0, '{"semistable":false}\n')
        code, out, err = execute(["semistable", "--action", f, "--support", "1"])
        assert (code, out) == (0, '{"semistable":true}\n')
        code, out, err = execute(["semistable", "--action", f])
        assert (code, out) == (0, '{"semistable":true}\n')

    def test_hilbert(self, tmp_path):
        f = jfile(tmp_path, "square.json", SQUARE_POLY)
        code, out, _ = execute(["hilbert", "--polytope", f, "--degree", "2"])
        assert (code, out) == (0, '{"count":9,"degree":2}\n')

    def test_delta(self, tmp_path):
        f = jfile(tmp_path, "cp1.json", CP1_ACTION)
        code, out, _ = execute(["delta", "--action", f])
        assert code == 0
        assert out == '{"dim":1,"inequalities":[{"a":[-1],"b":-1},{"a":[1],"b":0}]}\n'

    def test_group(self, tmp_path):
        f = jfile(tmp_path, "square.json", SQUARE_POLY)
        code, out, _ = execute(["group", "--polytope", f])
        assert code == 0
        assert out == '{"linearization":[0,-1,0,-1],"n":4,"weights":[[1,1,0,0],[0,0,1,1]]}\n'

    def test_unstable(self, tmp_path):
        f = jfile(tmp_path, "sq_action.json", SQUARE_ACTION)
        code, out, _ = execute(["unstable", "--action", f])
        assert (code, out) == (0, '{"supports":[[1,2],[3,4]]}\n')

    def test_fvector(self, tmp_path):
        f = jfile(tmp_path, "square.json", SQUARE_POLY)
        assert execute(["fvector", "--polytope", f])[1] == '{"f_vector":[4,4,1],"simple":true}\n'

    def test_census(self, tmp_path):
        f = jfile(tmp_path, "square.json", SQUARE_POLY)
        assert execute(["census", "--polytope", f])[1] == '{"orbits":{"0":4,"1":4,"2":1}}\n'

    @pytest.mark.parametrize(
        "verb,expected",
        [
            ("fvector", '{"f_vector":[1,2,1],"simple":true}\n'),
            ("betti", '{"betti":[0,0,1],"bounded":false}\n'),
            ("census", '{"orbits":{"0":1,"1":2,"2":1}}\n'),
        ],
    )
    def test_face_counts_redundant_unbounded(self, tmp_path, verb, expected):
        f = jfile(tmp_path, "redundant.json", REDUNDANT_RAY_POLY)
        assert execute([verb, "--polytope", f]) == (0, expected, "")

    def test_evaluate(self, tmp_path):
        f = jfile(tmp_path, "sq_action.json", SQUARE_ACTION)
        code, out, _ = execute(
            ["evaluate", "--action", f, "--point", "1,2,3,4", "--bound", "1"]
        )
        assert code == 0
        assert out == (
            '{"values":[{"degree":1,"value":"3"},{"degree":1,"value":"4"},'
            '{"degree":1,"value":"6"},{"degree":1,"value":"8"}]}\n'
        )

    def test_evaluate_fractions(self, tmp_path):
        f = jfile(tmp_path, "sq_action.json", SQUARE_ACTION)
        code, out, _ = execute(
            ["evaluate", "--action", f, "--point", "1/2,1,1,1", "--bound", "1"]
        )
        assert code == 0
        assert json.loads(out)["values"][0] == {"degree": 1, "value": "1/2"}

    def test_evaluate_empty_point(self, tmp_path):
        # On C^0 the point is empty; the one generator is t itself.
        f = jfile(tmp_path, "c0.json", {"n": 0, "weights": [], "linearization": []})
        code, out, err = execute(["evaluate", "--action", f, "--point", "", "--bound", "1"])
        assert (code, out, err) == (0, '{"values":[{"degree":1,"value":"1"}]}\n', "")

    def test_relations(self, tmp_path):
        f = jfile(tmp_path, "interval.json", INTERVAL_POLY)
        code, out, _ = execute(["relations", "--polytope", f, "--bound", "2"])
        assert code == 0
        assert out == (
            '{"generators":[{"degree":1,"point":[0]},{"degree":1,"point":[1]}],'
            '"relations":[{"binomials":[],"degree":1,"kernel_dim":0},'
            '{"binomials":[],"degree":2,"kernel_dim":0}]}\n'
        )

    def test_relations_square_binomial(self, tmp_path):
        f = jfile(tmp_path, "square.json", SQUARE_POLY)
        code, out, _ = execute(["relations", "--polytope", f, "--bound", "2"])
        data = json.loads(out)
        assert data["relations"][1] == {
            "degree": 2,
            "kernel_dim": 1,
            "binomials": [[[0, 1, 1, 0], [1, 0, 0, 1]]],
        }

    def test_relations_on_more_generators_than_the_recursion_limit(self):
        # The triangle (0,0), (44,0), (0,44) has 1035 generators, all of
        # degree 1. Bound 1 only: degree 2 alone has 536,130 monomials.
        tri = {"dim": 2, "inequalities": [{"a": [1, 0], "b": 0}, {"a": [0, 1], "b": 0}, {"a": [-1, -1], "b": -44}]}
        code, out, err = execute(["relations", "--polytope", "-", "--bound", "1"], stdin=json.dumps(tri))
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert len(data["generators"]) == 1035
        assert data["relations"] == [{"binomials": [], "degree": 1, "kernel_dim": 0}]

    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["generators", "--polytope"],
            ["betti", "--polytope"],
            ["fvector", "--polytope"],
            ["census", "--polytope"],
        ],
    )
    def test_byte_stable(self, tmp_path, argv_tail):
        f = jfile(tmp_path, "square.json", SQUARE_POLY)
        argv = argv_tail + [f]
        assert execute(argv) == execute(argv)


class TestStdinAndPipes:
    def test_stdin_input(self):
        code, out, _ = execute(["delta", "--action", "-"], stdin=json.dumps(CP1_ACTION))
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_delta_group_round_trip(self, tmp_path):
        f = jfile(tmp_path, "sq_action.json", SQUARE_ACTION)
        _, poly_out, _ = execute(["delta", "--action", f])
        _, action_out, _ = execute(["group", "--polytope", "-"], stdin=poly_out)
        _, poly2_out, _ = execute(["delta", "--action", "-"], stdin=action_out)
        for r in range(4):
            counts = [
                execute(["hilbert", "--polytope", "-", "--degree", str(r)], stdin=doc)
                for doc in (poly_out, poly2_out)
            ]
            assert counts[0] == counts[1]
            assert counts[0][0] == 0


class TestErrorDiscipline:
    @pytest.mark.parametrize(
        "argv_builder,error",
        [
            (lambda t: ["betti", "--polytope", jfile(t, "p.json", PYRAMID_POLY)], "NotSimple"),
            (lambda t: ["betti", "--polytope", jfile(t, "e.json", EMPTY_POLY)], "EmptyPolyhedron"),
            (lambda t: ["hilbert", "--polytope", jfile(t, "o.json", ORTHANT_POLY), "--degree", "1"], "Unbounded"),
            (lambda t: ["relations", "--polytope", jfile(t, "o.json", ORTHANT_POLY), "--bound", "2"], "Unbounded"),
            (
                lambda t: ["relations", "--polytope", jfile(t, "er.json", EMPTY_WITH_RAY_POLY), "--bound", "2"],
                "Unbounded:",
            ),
            (
                lambda t: ["delta", "--action", jfile(t, "a.json", {"n": 1, "weights": [[2]], "linearization": [0]})],
                "TorsionQuotient",
            ),
            (
                lambda t: [
                    "group",
                    "--polytope",
                    jfile(t, "ns.json", {"dim": 2, "inequalities": [{"a": [2, 0], "b": 0}, {"a": [0, 1], "b": 0}]}),
                ],
                "NonSpanning",
            ),
        ],
    )
    def test_domain_errors_exit_1(self, tmp_path, argv_builder, error):
        code, out, err = execute(argv_builder(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith(error)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv_builder",
        [
            lambda t: ["delta", "--action", jfile(t, "list.json", [1, 2, 3])],
            lambda t: ["betti", "--polytope", str(t / "nope.json")],
            lambda t: ["delta", "--action", jfile(t, "trunc.json", {"n": 2})],
            lambda t: ["generators", "--polytope", jfile(t, "extra.json", dict(SQUARE_POLY, name="sq"))],
            lambda t: ["semistable", "--action", jfile(t, "cp1.json", CP1_ACTION), "--support", "a,b"],
            lambda t: ["semistable", "--action", jfile(t, "cp1.json", CP1_ACTION), "--support", "5"],
            lambda t: ["evaluate", "--action", jfile(t, "cp1.json", CP1_ACTION), "--point", "1", "--bound", "1"],
            lambda t: [
                "delta",
                "--action",
                jfile(t, "long.json", {"n": 2, "weights": [[1, 1, 1]], "linearization": [0, 0]}),
            ],
        ],
    )
    def test_malformed_input_exits_2(self, tmp_path, argv_builder):
        code, out, err = execute(argv_builder(tmp_path))
        assert code == 2
        assert out == ""
        assert err != ""
        assert "Traceback" not in err

    def test_invalid_json_text(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = execute(["betti", "--polytope", str(path)])
        assert code == 2
        assert "broken.json" in err

    def test_undecodable_file_is_input_error(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff{}")
        code, out, err = execute(["delta", "--action", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"InputError: cannot read {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("depth, closed", [(1000, True), (100000, True), (100000, False)])
    def test_deeply_nested_json_is_input_error(self, tmp_path, depth, closed):
        # json.loads raises RecursionError past the interpreter's nesting
        # limit: about 1000 up to Python 3.11, and the C recursion limit
        # (1500 to about 10,000) from 3.12 on. 100,000 is past every one of
        # them; 1000 closed parses from 3.12 on, and is then not an action.
        text = "[" * depth + "]" * depth * closed
        path = tmp_path / "deep.json"
        path.write_text(text)
        for name, stdin in (("-", text), (str(path), None)):
            code, out, err = execute(["delta", "--action", name], stdin=stdin)
            assert (code, out) == (2, "")
            if depth > 10000:
                assert err.startswith(f"InputError: invalid JSON in {name}: ")
            else:
                assert err.startswith("InputError: ")
            assert "Traceback" not in err

    def test_usage_errors_exit_2(self, tmp_path):
        assert execute(["frobnicate"])[0] == 2
        assert execute(["betti"])[0] == 2
        assert execute([])[0] == 2
        f = jfile(tmp_path, "square.json", SQUARE_POLY)
        assert execute(["hilbert", "--polytope", f, "--degree", "-1"])[0] == 2
        assert execute(["hilbert", "--polytope", f, "--degree", "x"])[0] == 2

    def test_help_exits_0(self):
        code, out, _ = execute(["--help"])
        assert code == 0
        assert "VERB" in out


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_verb_table() -> dict[str, set[str]]:
    """verb -> flags named in the input column of README's verb table."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, re.MULTILINE)
    return {verb: set(re.findall(r"--\w+", flags)) for verb, flags in rows}


class TestReadmeVerbTable:
    def test_rows_match_parser(self):
        table = readme_verb_table()
        _, top_help, _ = execute(["--help"])
        assert set(table) == set(re.findall(r"^ {4}(\w+)", top_help, re.MULTILINE))
        for verb, flags in table.items():
            code, out, err = execute([verb, "--help"])
            assert (code, err) == (0, ""), verb
            usage = out.split("\n\n", 1)[0]
            assert set(re.findall(r"--\w+", usage)) == flags, verb


def child_env():
    """Environment for a child interpreter that imports the same package
    this test imported."""
    src = str(Path(toricalc.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        f = jfile(tmp_path, "square.json", SQUARE_POLY)
        proc = subprocess.run(
            [sys.executable, "-m", "toricalc", "betti", "--polytope", f],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == '{"betti":[1,2,1],"bounded":true}\n'


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DATA = Path(__file__).resolve().parent / "data"


class TestScripts:
    """The scripts run on the public API alone, so a deleted helper that
    one of them still needs fails here."""

    def run_script(self, name, *args):
        return subprocess.run(
            [sys.executable, str(SCRIPTS / name), *args],
            capture_output=True,
            text=True,
            env=child_env(),
        )

    def test_worked_examples(self):
        # The output is deterministic, so it is pinned byte for byte.
        proc = self.run_script("worked_examples.py")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (DATA / "worked_examples.txt").read_text()

    def test_make_inputs_writes_parseable_files(self, tmp_path):
        proc = self.run_script("make_inputs.py", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        files = sorted(tmp_path.glob("*.json"))
        assert files
        for f in files:
            doc = json.loads(f.read_text())
            parse = polyhedron_from_json if "dim" in doc else action_from_json
            parse(doc)
