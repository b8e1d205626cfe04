"""Serialization round-trips and strict decoding."""

from fractions import Fraction

import pytest

from toricalc.errors import InputError
from toricalc.jsonio import (
    action_from_json,
    action_to_json,
    dump_canonical,
    parse_fraction,
    polyhedron_from_json,
    polyhedron_to_json,
)
from toricalc.actions import linearized_action
from toricalc.polyhedra import unit_cube


class TestPolyhedronSchema:
    def test_round_trip(self):
        p = unit_cube(2)
        assert polyhedron_from_json(polyhedron_to_json(p)) == p

    def test_strict_keys(self):
        doc = polyhedron_to_json(unit_cube(1))
        with pytest.raises(InputError):
            polyhedron_from_json({**doc, "comment": "hi"})
        with pytest.raises(InputError):
            polyhedron_from_json({"dim": 1})

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            polyhedron_from_json({"dim": 2, "inequalities": [{"a": [1], "b": 0}]})

    def test_type_checks(self):
        with pytest.raises(InputError):
            polyhedron_from_json({"dim": 1, "inequalities": [{"a": [True], "b": 0}]})
        with pytest.raises(InputError):
            polyhedron_from_json({"dim": 1, "inequalities": [{"a": ["1"], "b": 0}]})
        with pytest.raises(InputError):
            polyhedron_from_json({"dim": -1, "inequalities": []})


class TestActionSchema:
    def test_round_trip(self):
        act = linearized_action([[1, 1, 0], [0, 1, 1]], (-1, 0, 2))
        assert action_from_json(action_to_json(act)) == act

    def test_bad_shapes(self):
        with pytest.raises(InputError):
            action_from_json({"n": 2, "weights": [[1]], "linearization": [0, 0]})
        with pytest.raises(InputError):
            action_from_json({"n": 2, "weights": [], "linearization": [0]})


class TestHelpers:
    def test_dump_canonical_sorted_and_compact(self):
        assert dump_canonical({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_parse_fraction(self):
        assert parse_fraction("3/2") == Fraction(3, 2)
        assert parse_fraction("-7") == Fraction(-7)
        for bad in ["1/0", "x", "", "1.5.2"]:
            with pytest.raises(InputError):
                parse_fraction(bad)
