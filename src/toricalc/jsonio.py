"""JSON interchange for polyhedra, actions, and presentations.

Encodings are canonical: sorted object keys, compact separators, exact
integers, and fractions rendered as "num/den" strings. Decoding is
strict — unknown keys or mistyped fields raise InputError rather than
guessing.
"""

import json
from fractions import Fraction
from typing import Iterable

from .actions import LinearizedAction, linearized_action
from .errors import InputError
from .polyhedra import Polyhedron, polyhedron
from .semigroups import GradedPoint, RingPresentation


def dump_canonical(obj) -> str:
    """Serialize to the canonical single-line JSON form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse_fraction(text: str) -> Fraction:
    if not isinstance(text, str):
        raise InputError(f"expected a fraction string, got {text!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a fraction: {text!r}") from None
    return value


def polyhedron_to_json(p: Polyhedron) -> dict:
    return {
        "dim": p.dim,
        "inequalities": [{"a": list(a), "b": b} for a, b in p.inequalities],
    }


def polyhedron_from_json(data) -> Polyhedron:
    obj = _object(data, {"dim", "inequalities"}, "polyhedron")
    dim = _int(obj["dim"], "dim")
    if dim < 0:
        raise InputError("dim must be nonnegative")
    rows = []
    for item in _list(obj["inequalities"], "inequalities"):
        ineq = _object(item, {"a", "b"}, "inequality")
        a = _int_list(ineq["a"], "a")
        if len(a) != dim:
            raise InputError(f"normal {a} does not have length {dim}")
        rows.append((tuple(a), _int(ineq["b"], "b")))
    return polyhedron(dim, rows)


def action_to_json(action: LinearizedAction) -> dict:
    return {
        "n": action.n,
        "weights": [list(row) for row in action.weights.entries],
        "linearization": list(action.alpha),
    }


def action_from_json(data) -> LinearizedAction:
    obj = _object(data, {"n", "weights", "linearization"}, "action")
    n = _int(obj["n"], "n")
    if n < 0:
        raise InputError("n must be nonnegative")
    alpha = _int_list(obj["linearization"], "linearization")
    if len(alpha) != n:
        raise InputError(f"linearization must have length {n}")
    rows = []
    for row in _list(obj["weights"], "weights"):
        entries = _int_list(row, "weight row")
        if len(entries) != n:
            raise InputError(f"weight row {entries} does not have length {n}")
        rows.append(entries)
    return linearized_action(rows, alpha)


def generators_to_json(gens: Iterable[GradedPoint]) -> list[dict]:
    return [{"degree": g.degree, "point": list(g.point)} for g in gens]


def presentation_to_json(pres: RingPresentation) -> dict:
    relations = []
    for degree in sorted(pres.relations_by_degree):
        rel = pres.relations_by_degree[degree]
        relations.append(
            {
                "degree": degree,
                "kernel_dim": rel.kernel_dim,
                "binomials": [[list(lhs), list(rhs)] for lhs, rhs in rel.binomials],
            }
        )
    return {"generators": generators_to_json(pres.generators), "relations": relations}


def _object(data, keys: set[str], what: str) -> dict:
    if not isinstance(data, dict):
        raise InputError(f"expected a JSON object for {what}")
    if set(data) != keys:
        raise InputError(f"{what} must have exactly the keys {sorted(keys)}")
    return data


def _list(data, what: str) -> list:
    if not isinstance(data, list):
        raise InputError(f"expected a JSON array for {what}")
    return data


def _int(x, what: str) -> int:
    if type(x) is not int:
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


def _int_list(data, what: str) -> list[int]:
    return [_int(x, what) for x in _list(data, what)]
