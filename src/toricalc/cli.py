"""Command-line front end: JSON in, canonical JSON out.

Every verb is one row of ``VERBS``: its help text, the flag naming its
input (a polyhedron or an action, read from a JSON file; ``-`` reads
standard input), its extra flags from ``FLAGS``, and the library call
that turns the decoded input into one canonical JSON document.  Exit
codes: 0 on success, 1 when a domain error stops the computation (its
class name appears verbatim on stderr), 2 on malformed input or usage.
No math happens in this module.
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from .actions import (
    betti,
    delta,
    evaluate_invariants,
    group_from_delta,
    is_semistable,
    minimal_unstable_supports,
    orbit_census,
)
from .errors import InputError, ToricalcError
from .jsonio import (
    action_from_json,
    action_to_json,
    dump_canonical,
    generators_to_json,
    parse_fraction,
    polyhedron_from_json,
    polyhedron_to_json,
    presentation_to_json,
)
from .polyhedra import f_vector, is_bounded
from .semigroups import graded_generators, hilbert_function, relation_space


def execute(argv, stdin: str | None = None) -> tuple[int, str, str]:
    """Run one command, capturing (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _run(argv, stdin)
    return code, out.getvalue(), err.getvalue()


def entry() -> None:
    code, out, err = execute(sys.argv[1:])
    sys.stdout.write(out)
    sys.stderr.write(err)
    raise SystemExit(code)


def _run(argv, stdin: str | None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    _, source, _, compute = VERBS[args.verb]
    decode = polyhedron_from_json if source == "polytope" else action_from_json
    try:
        result = compute(decode(_load_json(getattr(args, source), stdin)), args)
    except (ToricalcError, InputError, ValueError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1 if isinstance(e, ToricalcError) else 2
    print(dump_canonical(result))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricalc",
        description="Projective quotients of affine space by subtorus actions, "
        "computed exactly through lattice polyhedra.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    for name, (summary, source, flags, _) in VERBS.items():
        sub = verbs.add_parser(name, help=summary)
        for flag in (source, *flags):
            sub.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


# argparse keyword arguments of each ``--flag``, input flags included.
FLAGS = {
    "polytope": dict(required=True, metavar="FILE", help="polyhedron JSON file, or - for stdin"),
    "action": dict(required=True, metavar="FILE", help="action JSON file, or - for stdin"),
    "degree": dict(required=True, type=_nonneg, metavar="R", help="grading degree"),
    "bound": dict(required=True, type=_nonneg, metavar="D", help="degree bound"),
    "support": dict(default="", metavar="CSV", help="1-based coordinate indices, e.g. 1,2"),
    "point": dict(required=True, metavar="CSV", help="rational coordinates, e.g. 1,2,3/2"),
}

# verb -> (help, input flag, extra flags, compute(decoded input, args) -> JSON result)
VERBS = {
    "delta": ("polyhedron of a linearized action", "action", (),
              lambda action, args: polyhedron_to_json(delta(action))),
    "group": ("recover an action from its polyhedron", "polytope", (),
              lambda p, args: action_to_json(group_from_delta(p))),
    "generators": ("graded semigroup generators", "polytope", (),
                   lambda p, args: {"generators": generators_to_json(graded_generators(p))}),
    "hilbert": ("lattice points of the r-th dilate", "polytope", ("degree",),
                lambda p, args: {"degree": args.degree, "count": hilbert_function(p, args.degree)}),
    "relations": ("generators and binomial relations", "polytope", ("bound",),
                  lambda p, args: presentation_to_json(relation_space(p, args.bound))),
    "semistable": ("test a coordinate support", "action", ("support",),
                   lambda action, args: {"semistable": is_semistable(action, _parse_support(args.support))}),
    "unstable": ("minimal unstable supports", "action", (),
                 lambda action, args: {"supports": minimal_unstable_supports(action)}),
    "fvector": ("face counts by dimension", "polytope", (),
                lambda p, args: dict(zip(("f_vector", "simple"), f_vector(p)))),
    "betti": ("even Betti numbers of the quotient", "polytope", (),
              lambda p, args: {"betti": betti(p), "bounded": is_bounded(p)}),
    "census": ("torus orbits by dimension", "polytope", (),
               lambda p, args: {"orbits": {str(i): c for i, c in orbit_census(p).items()}}),
    "evaluate": ("invariant generators at a point", "action", ("point", "bound"),
                 lambda action, args: {"values": [
                     {"degree": d, "value": str(v)}
                     for v, d in evaluate_invariants(action, _parse_point(args.point), args.bound)]}),
}


def _load_json(path: str, stdin: str | None):
    if path == "-":
        text = stdin if stdin is not None else sys.stdin.read()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read {path}: {e}") from None
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise InputError(f"invalid JSON in {path}: {e}") from None


def _parse_support(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"support must be comma-separated integers: {text!r}") from None


def _parse_point(text: str) -> tuple[Fraction, ...]:
    if not text.strip():
        return ()
    return tuple(parse_fraction(part.strip()) for part in text.split(","))
