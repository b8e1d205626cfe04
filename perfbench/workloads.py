"""Seeded inputs and jobs for the three benchmark workloads.

Every workload is a stream of jobs drawn from ``random.Random(seed)``,
generated a chunk at a time while no clock runs. A job calls the library
through module attributes (``api.f(...)``, ``tcli.execute(...)``) so that
the tracer's patched wrappers are picked up at call time. The library only ever sees the
generated ``Polyhedron``, ``LinearizedAction`` or JSON text.

Each job also carries what is needed to judge its outcome outside the
timed region: the documented errors it may raise, a canonical form of
its output for the reference digest, and an invariant taken from an
independent route.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import toricalc as api
from toricalc import cli as tcli
from toricalc.jsonio import dump_canonical

# Jobs generated per chunk. A run starts with one chunk and generates the
# next one, with the clock stopped, whenever it has used them all, so no
# input repeats within a run however fast the program gets.
CHUNK = {"ring": 100, "semistability": 400, "cli": 800}

# Jobs the traced run replays, first untraced and then traced. Fixed, so
# that the per-layer counts of a seed repeat exactly; sized so that both
# passes take about 20 s at the seed commit.
TRACE_JOBS = {"ring": 160, "semistability": 1800, "cli": 3000}

DET_1521_TRIANGLE = api.polyhedron(2, [((3, 1), -1), ((-2, -3), -1), ((-2, 2), -3)])

# A known defect the workloads stay clear of, since no job of a workload may
# fail: on this unbounded polyhedron the face walk reaches a set made only of
# rays, and f_vector (so betti, orbit_census and the cli verbs fvector,
# betti, census) raises a bare IndexError in polyhedra._face_dim. Face counts
# are therefore asked only of bounded or empty polyhedra; each run probes
# this input outside the timed region and reports whether it still fails.
KNOWN_DEFECT = ("f_vector", lambda: api.f_vector(api.polyhedron(2, [((1, 0), -2), ((1, 0), -1), ((0, 1), 1)])))


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    # Documented errors that are a correct outcome for this input.
    expected: tuple = ()
    canon: Callable[[object], object] = lambda out: out
    # (output, outcomes of the last few jobs by index) -> message on violation, else None.
    check: Callable | None = None


class JobStream:
    """The jobs of one workload and seed, generated chunk by chunk.

    ``jobs`` only grows (a runner may set entries it is done with to None);
    job i is the same for a given seed however many chunks have been made.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in BLOCKS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.jobs: list[Job] = ANCHORS.get(workload, list)()
        self.blocks = 0
        self.grow()

    def grow(self) -> None:
        """Append at least one chunk of jobs."""
        target = len(self.jobs) + CHUNK[self.workload]
        while len(self.jobs) < target:
            self.jobs.extend(BLOCKS[self.workload](self.rng, self.blocks, len(self.jobs)))
            self.blocks += 1


# ---------------------------------------------------------------- geometry
# Polyhedra are generated as plain (dim, [(normal, b), ...]) data, so the
# command-line inputs can be written without calling the library.


def _int(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi]; several times cheaper than randint."""
    return lo + int(rng.random() * (hi - lo + 1))


def _primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _triangle(rng: random.Random, box: int):
    """A lattice triangle with vertices in [0, box]^2.

    Collinear vertex triples are redrawn: they are not triangles.
    """
    while True:
        v = [(_int(rng, 0, box), _int(rng, 0, box)) for _ in range(3)]
        if (v[1][0] - v[0][0]) * (v[2][1] - v[0][1]) != (v[1][1] - v[0][1]) * (v[2][0] - v[0][0]):
            break
    ineqs = []
    for i in range(3):
        a, b, c = v[i], v[(i + 1) % 3], v[(i + 2) % 3]
        n = _primitive((a[1] - b[1], b[0] - a[0]))
        if n[0] * (c[0] - a[0]) + n[1] * (c[1] - a[1]) < 0:
            n = (-n[0], -n[1])
        ineqs.append((n, n[0] * a[0] + n[1] * a[1]))
    return 2, ineqs


def _row_ops(rng: random.Random, rows: list[list[int]], steps: int) -> list[list[int]]:
    """Apply ``steps`` random elementary operations row_i += +-row_j (unimodular)."""
    k = len(rows)
    for _ in range(steps):
        i = rng.randrange(k)
        j = (i + 1 + rng.randrange(k - 1)) % k
        c = 1 if rng.random() < 0.5 else -1
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


def _unimodular(rng: random.Random, d: int, steps: int) -> list[list[int]]:
    return _row_ops(rng, [[int(i == j) for j in range(d)] for i in range(d)], steps)


def _transform(p, m, t):
    """Image of p under x -> m^-1 x + t, for unimodular m (None: identity)."""
    d, ineqs = p
    out = []
    for a, b in ineqs:
        if m is not None:
            a = tuple(sum(m[i][j] * a[i] for i in range(d)) for j in range(d))
        out.append((a, b + sum(x * y for x, y in zip(a, t))))
    return d, out


def _plain(p: api.Polyhedron):
    return p.dim, list(p.inequalities)


def _interval(lo: int, hi: int):
    return 1, [((1,), lo), ((-1,), -hi)]


SHAPES = {
    2: [_plain(api.unit_cube(2)), _plain(api.product(api.interval(0, 1), api.interval(0, 2)))]
    + [_plain(api.dilate(api.standard_simplex(2), m)) for m in (1, 2, 3)],
    3: [_plain(api.standard_simplex(3)), _plain(api.dilate(api.standard_simplex(3), 2)),
        _plain(api.product(api.standard_simplex(2), api.interval(0, 1)))],
}
SMALL_SHAPES = [_plain(api.unit_cube(2)), _plain(api.standard_simplex(2))] + [_interval(0, m) for m in (1, 2, 3)]


def _sheared(rng: random.Random, dim: int, k: int):
    """Shape k (cube, prism or dilated simplex) under a random unimodular
    shear of 1 + k % 3 steps and a random translation."""
    return _transform(SHAPES[dim][k % len(SHAPES[dim])], _unimodular(rng, dim, 1 + k % 3),
                      [_int(rng, -2, 2) for _ in range(dim)])


def _reflected(rng: random.Random, dim: int, k: int):
    """Shape k under a random signed permutation of the coordinates, with
    its inequalities shuffled. Unlike a translation, this keeps the cost of
    a 3-D generator call within about 20% of the untransformed shape."""
    perm = list(range(dim))
    rng.shuffle(perm)
    m = [[(1 if rng.random() < 0.5 else -1) * int(perm[i] == j) for j in range(dim)] for i in range(dim)]
    d, ineqs = _transform(SHAPES[dim][k % len(SHAPES[dim])], m, [0] * dim)
    rng.shuffle(ineqs)
    return d, ineqs


def _poly(p) -> api.Polyhedron:
    return api.polyhedron(*p)


# (block sizes, dilations) of the products of projective spaces, cycled.
EVAL_CASES = [((2,), (1,)), ((2,), (3,)), ((3,), (1,)), ((3,), (2,)),
              ((2, 2), (1, 1)), ((2, 2), (1, 2)), ((2, 3), (1, 1))]


def _blocks_action(blocks, dilations, perm=None):
    """Product of projective spaces P^(s-1) for the block sizes s: block rows
    of ones, so delta is a product of simplices dilated by ``dilations``.
    ``perm`` reorders the coordinates."""
    n = sum(blocks)
    perm = perm or list(range(n))
    rows, alpha, start = [], [0] * n, 0
    for size, m in zip(blocks, dilations):
        rows.append([int(start <= perm[j] < start + size) for j in range(n)])
        alpha[perm.index(start)] = -m
        start += size
    return api.linearized_action(rows, alpha)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * _int(rng, 1, 9), _int(rng, 1, 5))


def _random_action(rng: random.Random, n: int, d: int, alpha_hi: int = 1, shape: str = "any"):
    """(weights, alpha) with W = [I_k | B], columns permuted and rows mixed
    by a unimodular matrix, so the row lattice stays saturated (the
    quotient is torsion-free by construction).

    B has entries in [-1, 2]. For ``shape`` "bounded", B >= 0 with a
    positive entry in every column, so the row space holds a positive
    vector and delta is bounded; for "unbounded", the first column of B is
    <= 0, so it holds none and delta is unbounded or empty.
    """
    k = n - d
    b = [[_int(rng, -1, 2) for _ in range(d)] for _ in range(k)]
    if shape == "bounded":
        b = [[abs(x) for x in row] for row in b]
        for j in range(d):
            if not any(row[j] for row in b):
                b[_int(rng, 0, k - 1)][j] = 1
    elif shape == "unbounded":
        for row in b:
            row[0] = -abs(row[0]) // 2
    w = [[int(i == j) for j in range(k)] + b[i] for i in range(k)]
    perm = list(range(n))
    rng.shuffle(perm)
    w = [[row[p] for p in perm] for row in w]
    if k > 1:
        _row_ops(rng, w, 2 * k)
    return w, [_int(rng, -2, alpha_hi) for _ in range(n)]


# ---------------------------------------------------------------- canonical forms


def canon_generators(gens):
    return [[g.degree, list(g.point)] for g in gens]


def canon_presentation(pres):
    return {
        "generators": canon_generators(pres.generators),
        "relations": [
            [r, pres.relations_by_degree[r].kernel_dim, [[list(x), list(y)] for x, y in pres.relations_by_degree[r].binomials]]
            for r in sorted(pres.relations_by_degree)
        ],
    }


def canon_evaluation(out):
    v, w, eq = out
    return {"v": [[str(x), d] for x, d in v], "w": [[str(x), d] for x, d in w], "equal": eq}


def canon_f_vector(out):
    counts, simple = out
    return [list(counts), simple]


def canon_census(out):
    return {str(k): v for k, v in sorted(out.items())}


def canon_supports(out):
    return [list(s) for s in out]


# ---------------------------------------------------------------- ring


def _ring_anchors() -> list[Job]:
    """ROADMAP baseline rows of at most about 3 s, first in every run."""
    cube3 = _blocks_action((2, 2, 2), (1, 1, 1))
    return [
        _gg_job(api.unit_cube(3)),
        _gg_job(DET_1521_TRIANGLE),
        _hf_job(api.standard_simplex(3), 30),
        Job("evaluate_invariants", lambda: api.evaluate_invariants(cube3, range(1, 7), 1),
            canon=lambda vals: [[str(v), d] for v, d in vals], check=_evaluation_count_check(cube3)),
    ]


def _degree_one_check(p):
    """Independent route: degree-1 generators are the lattice points of p."""

    def check(gens, _outcomes):
        ones = sum(1 for g in gens if g.degree == 1)
        count = api.hilbert_function(p, 1)
        return None if ones == count else f"{ones} degree-1 generators but hilbert_function(p, 1) = {count}"

    return check


def _gg_job(p) -> Job:
    return Job("graded_generators", lambda: api.graded_generators(p), (api.NotPointed,),
               canon_generators, _degree_one_check(p))


def _hf_job(p, r) -> Job:
    return Job("hilbert_function", lambda: api.hilbert_function(p, r), (api.Unbounded,))


def _rel_job(p, bound) -> Job:
    inner = _degree_one_check(p)
    return Job("relation_space", lambda: api.relation_space(p, bound), (api.Unbounded,),
               canon_presentation, lambda pres, o: inner(pres.generators, o))


def _evaluation_count_check(action):
    def check(values, _outcomes):
        # Independent route: one degree-1 generator per lattice point of delta.
        ones = sum(1 for _, d in values if d == 1)
        count = api.hilbert_function(api.delta(action), 1)
        return None if ones == count else f"{ones} degree-1 values but hilbert_function(delta, 1) = {count}"

    return check


def _eval_job(rng, case) -> Job:
    blocks, dilations = case
    perm = list(range(sum(blocks)))
    rng.shuffle(perm)
    action = _blocks_action(blocks, dilations, perm)
    x = [_rational(rng) for _ in perm]
    # The group element scales the coordinates of each block by one factor.
    scale = [_rational(rng) for _ in blocks]
    starts = [sum(blocks[:i]) for i in range(len(blocks))]
    block_of = [max(i for i, s in enumerate(starts) if s <= p) for p in perm]
    moved = [c * scale[block_of[j]] for j, c in enumerate(x)]

    def run():
        v = api.evaluate_invariants(action, x, 1)
        w = api.evaluate_invariants(action, moved, 1)
        return v, w, api.proj_equal(v, w)

    def check(out, _outcomes):
        # Independent route: a point and its image under the group are the
        # same point of the quotient.
        return None if out[2] else "a point and its group translate evaluate to different points"

    return Job("evaluate+proj_equal", run, (api.AllZero,), canon_evaluation, check)


def _ring_block(rng: random.Random, b: int, first: int) -> list[Job]:
    """Ten jobs. The choices that set a job's cost (triangle box, degree,
    shape, shear depth, product of projective spaces) cycle with the block
    number, so every seed gets the same mix; the seed draws the rest.
    Sheared or translated 3-D shapes only feed hilbert_function: their
    generator calls take 0.1-3 s each and would swamp the run."""
    return [
        _gg_job(_poly(_triangle(rng, 3 + b % 3))),
        _hf_job(_poly(_triangle(rng, 3 + (b + 1) % 3)), 5 * (1 + b % 4)),
        _gg_job(_poly(_sheared(rng, 2, b))),
        _hf_job(_poly(_sheared(rng, 2, b + 1)), 5 * (1 + (b + 2) % 4)),
        _rel_job(_poly(_triangle(rng, 2 + b % 3)), 2 + b % 2),
        _eval_job(rng, EVAL_CASES[b % len(EVAL_CASES)]),
        _gg_job(_poly(_reflected(rng, 3, b))),
        _hf_job(_poly(_sheared(rng, 3, b)), 2 * (1 + b % 4)),
        _rel_job(_poly(_sheared(rng, 2, b + 2)), 2 + (b + 1) % 2),
        _gg_job(_poly(_triangle(rng, 3 + (b + 2) % 3))),
    ]


# ---------------------------------------------------------------- semistability

# (n, dim delta, largest alpha entry, shape of delta), one action per
# block, cycled. Dim 4 only where n is small enough that the support
# enumeration stays under 0.1 s. alpha <= 0 keeps 0 in delta; with entries
# up to 1, delta is often empty. Only the actions whose delta is bounded by
# construction get the face-count jobs: on an unbounded delta, f_vector hits
# the known defect (KNOWN_DEFECT below), and a workload must not fail.
SEMISTABILITY_SHAPES = [
    (6, 2, 0, "bounded"), (6, 3, 0, "unbounded"), (6, 4, 0, "bounded"), (7, 3, 0, "bounded"),
    (7, 4, 0, "unbounded"), (8, 2, 0, "bounded"), (8, 3, 0, "unbounded"), (9, 3, 0, "bounded"),
    (10, 2, 0, "unbounded"), (8, 3, 1, "any"), (10, 3, 1, "any"),
]
SUPPORTS_PER_ACTION = 4


def _semistability_anchors() -> list[Job]:
    """ROADMAP baseline rows: unstable supports of cube 5 and cube 6 (n = 10
    and 12), and the f-vector of the 6-cube."""
    return [_unstable_job(api.group_from_delta(api.unit_cube(k))) for k in (5, 6)] + [
        Job("f_vector", lambda: api.f_vector(api.unit_cube(6)), canon=canon_f_vector,
            check=_euler_check(lambda: True))]


def _unstable_job(action) -> Job:
    return Job("minimal_unstable_supports", lambda: api.minimal_unstable_supports(action),
               canon=canon_supports, check=_unstable_check(action))


def _semistability_jobs(rng: random.Random, action, first: int, bounded: bool) -> list[Job]:
    """Jobs for one action; ``first`` is the index its unstable-supports job
    gets. Face counts only where delta is ``bounded`` by construction."""
    n = action.n
    jobs = [_unstable_job(action)]
    for _ in range(SUPPORTS_PER_ACTION):
        support = tuple(sorted(rng.sample(range(1, n + 1), _int(rng, 1, n - 1))))
        jobs.append(Job("is_semistable", lambda s=support: api.is_semistable(action, s),
                        check=_semistable_check(support, first)))
    if not bounded:
        return jobs
    shape_errors = (api.EmptyPolyhedron, api.LinealityPresent)
    jobs.append(Job("f_vector", lambda: api.f_vector(api.delta(action)), shape_errors,
                    canon_f_vector, _euler_check(lambda: api.is_bounded(api.delta(action)))))
    jobs.append(Job("betti", lambda: api.betti(api.delta(action)), shape_errors + (api.NotSimple,), list))
    jobs.append(Job("orbit_census", lambda: api.orbit_census(api.delta(action)), shape_errors, canon_census))
    return jobs


def _unstable_check(action):
    def check(supports, _outcomes):
        # Independent route: each returned support has an empty face.
        p = api.delta(action)
        bad = [s for s in supports if api.face(p, s) is not None]
        return f"supports {bad} have nonempty faces" if bad else None

    return check


def _semistable_check(support, unstable_index):
    def check(stable, outcomes):
        # Independent route: monotonicity, against the same action's
        # minimal unstable supports.
        status, supports = outcomes[unstable_index]
        if status != "ok":
            return None
        expected = not any(set(m) <= set(support) for m in supports)
        return None if stable == expected else (
            f"is_semistable({support}) = {stable} but minimal unstable supports {supports} imply {expected}")

    return check


def _euler_check(bounded):
    def check(out, _outcomes):
        counts, _ = out
        if not bounded():
            return None
        euler = sum((-1) ** i * f for i, f in enumerate(counts))
        return None if euler == 1 else f"bounded f-vector {counts} breaks Euler's relation"

    return check


def _semistability_block(rng: random.Random, b: int, first: int) -> list[Job]:
    n, d, alpha_hi, shape = SEMISTABILITY_SHAPES[b % len(SEMISTABILITY_SHAPES)]
    action = api.linearized_action(*_random_action(rng, n, d, alpha_hi, shape))
    return _semistability_jobs(rng, action, first, shape == "bounded")


# ---------------------------------------------------------------- cli


def _poly_json(p) -> str:
    d, ineqs = p
    return json.dumps({"dim": d, "inequalities": [{"a": list(a), "b": b} for a, b in ineqs]})


def _action_json(a) -> str:
    w, alpha = a
    return json.dumps({"n": len(alpha), "weights": w, "linearization": alpha})


def _small_polytope(rng: random.Random):
    if rng.random() < 0.5:
        return _triangle(rng, 2)
    p = rng.choice(SMALL_SHAPES)
    return _transform(p, None, [_int(rng, -1, 1) for _ in range(p[0])])


def _small_action(rng: random.Random):
    n = _int(rng, 3, 5)
    return _random_action(rng, n, _int(rng, 1, 2))


NORMALS_2D = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]


BOX_2D = [((1, 0), -3), ((-1, 0), -3), ((0, 1), -3), ((0, -1), -3)]


def _random_polyhedron(rng: random.Random):
    """Three or four random half-planes inside the box [-3, 3]^2: bounded or
    empty, never unbounded (see KNOWN_DEFECT)."""
    return 2, [(rng.choice(NORMALS_2D), _int(rng, -2, 1)) for _ in range(_int(rng, 3, 4))] + BOX_2D


def _cli_job(kind, argv, stdin, expected_code=None, expected_error=None) -> Job:
    """One in-process command. ``expected_code`` None means 0 or a documented
    domain error (exit 1) are both correct outcomes; a usage error (exit 2)
    on a well-formed input is not."""

    def run():
        return tcli.execute(list(argv), stdin)

    def check(out, _outcomes):
        code, stdout, stderr = out
        if code != expected_code and (expected_code is not None or code not in (0, 1)):
            return f"exit {code}, expected {expected_code or '0 or 1'}: {stderr.strip()[-120:]}"
        if code == 0 and stdout != dump_canonical(json.loads(stdout)) + "\n":
            return "stdout is not canonical JSON"
        if code == 1 and not _documented(stderr, expected_error):
            return f"exit 1 without a documented error: {stderr.strip()[:120]}"
        return None

    return Job(f"cli.{kind}", run, canon=_canon_cli, check=check)


def _documented(stderr: str, expected_error) -> bool:
    name = stderr.split(":", 1)[0]
    cls = getattr(api, name, None)
    ok = isinstance(cls, type) and issubclass(cls, api.ToricalcError)
    return ok and (expected_error is None or name == expected_error)


def _canon_cli(out):
    code, stdout, stderr = out
    error = stderr.split(":", 1)[0] if code == 1 else None
    return [code, stdout, error]


def _chain_job(p, r) -> Job:
    """README pipeline group | delta | hilbert, stdout fed to stdin."""

    def run():
        steps = [["group", "--polytope", "-"], ["delta", "--action", "-"], ["hilbert", "--polytope", "-", "--degree", str(r)]]
        text, code, out, err = _poly_json(p), 0, "", ""
        for argv in steps:
            code, out, err = tcli.execute(argv, text)
            if code != 0:
                break
            text = out
        return code, out, err

    def check(out, _outcomes):
        code, stdout, stderr = out
        if code == 0:
            # Independent route: delta(group(p)) is p up to a unimodular map.
            count = json.loads(stdout)["count"]
            want = api.hilbert_function(_poly(p), r)
            return None if count == want else f"chain counts {count}, hilbert_function gives {want}"
        return None if code == 1 and _documented(stderr, None) else f"chain exit {code}: {stderr.strip()[:120]}"

    return Job("cli.chain", run, canon=_canon_cli, check=check)


def _malformed_job(rng: random.Random) -> Job:
    case = rng.randrange(8)
    if case < 4:
        p = _poly_json(_small_polytope(rng))
        if case == 0:
            return _cli_job("malformed", ["fvector", "--polytope", "-"], p[: _int(rng, 1, len(p) - 1)], 2)
        if case == 1:
            return _cli_job("malformed", ["generators", "--polytope", "-"], p.replace('"inequalities"', '"ineqs"'), 2)
        if case == 2:
            return _cli_job("malformed", ["betti", "--polytope", "-"], p.replace("]", ", 1.5]", 1), 2)
        return _cli_job("malformed", ["hilbert", "--polytope", "-", "--degree", str(-_int(rng, 1, 9))], p, 2)
    w, alpha = _small_action(rng)
    a = _action_json((w, alpha))
    if case == 4:
        return _cli_job("malformed", ["semistable", "--action", "-", "--support", f"1,x{_int(rng, 0, 9)}"], a, 2)
    if case == 5:
        return _cli_job("malformed", ["semistable", "--action", "-", "--support", str(_int(rng, 6, 20))], a, 2)
    if case == 6:
        point = ",".join(["1/0"] * len(alpha))
        return _cli_job("malformed", ["evaluate", "--action", "-", "--point", point, "--bound", "1"], a, 2)
    return _cli_job("malformed", ["delta", "--action", "-"], a.replace('"n": ', '"n": 1'), 2)


def _domain_error_job(rng: random.Random) -> Job:
    case = rng.randrange(6)
    m = _int(rng, 2, 5)
    if case == 0:
        a = json.dumps({"n": 2, "weights": [[m, m]], "linearization": [-1, 0]})
        return _cli_job("domain", ["delta", "--action", "-"], a, 1, "TorsionQuotient")
    if case == 1:
        p = 2, [((m, 0), 0), ((-m, 0), -m), ((0, 1), 0), ((0, -1), -1)]
        return _cli_job("domain", ["group", "--polytope", "-"], _poly_json(p), 1, "NonSpanning")
    if case == 2:
        p = 2, [((1, 0), 0), ((0, 1), -m)]
        return _cli_job("domain", ["hilbert", "--polytope", "-", "--degree", str(m)], _poly_json(p), 1, "Unbounded")
    if case == 3:
        pyramid = 3, [((0, 0, 1), 0), ((-1, 0, -1), -m), ((1, 0, -1), -m), ((0, -1, -1), -m), ((0, 1, -1), -m)]
        return _cli_job("domain", ["betti", "--polytope", "-"], _poly_json(pyramid), 1, "NotSimple")
    if case == 4:
        return _cli_job("domain", ["fvector", "--polytope", "-"], _poly_json(_interval(m, 1)), 1, "EmptyPolyhedron")
    p = 2, [((1, 0), -m)]
    return _cli_job("domain", ["generators", "--polytope", "-"], _poly_json(p), 1, "NotPointed")


def _cli_block(rng: random.Random, b: int, first: int) -> list[Job]:
    def poly():
        return _poly_json(_small_polytope(rng))

    def action():
        return _action_json(_small_action(rng))

    def face_poly():
        # Half of the face-count inputs are random half-plane systems, which
        # may be empty.
        return _poly_json(_random_polyhedron(rng) if rng.random() < 0.5 else _small_polytope(rng))

    interval_action = [[1, 1]], [-_int(rng, 1, 2), 0]
    point = ",".join(str(_rational(rng)) for _ in range(2))
    small_action = _small_action(rng)
    n = len(small_action[1])
    support = ",".join(str(i) for i in sorted(rng.sample(range(1, n + 1), _int(rng, 1, n - 1))))
    return [
        _cli_job("delta", ["delta", "--action", "-"], action()),
        _cli_job("group", ["group", "--polytope", "-"], poly()),
        _cli_job("generators", ["generators", "--polytope", "-"], poly()),
        _cli_job("hilbert", ["hilbert", "--polytope", "-", "--degree", str(_int(rng, 0, 6))], poly()),
        _cli_job("relations", ["relations", "--polytope", "-", "--bound", str(_int(rng, 1, 2))],
                 _poly_json(_interval(0, _int(rng, 1, 3)))),
        _cli_job("semistable", ["semistable", "--action", "-", "--support", support], _action_json(small_action)),
        _cli_job("unstable", ["unstable", "--action", "-"], action()),
        _cli_job("fvector", ["fvector", "--polytope", "-"], face_poly()),
        _cli_job("betti", ["betti", "--polytope", "-"], face_poly()),
        _cli_job("census", ["census", "--polytope", "-"], face_poly()),
        # "--point=" keeps a leading minus sign from reading as an option.
        _cli_job("evaluate", ["evaluate", "--action", "-", f"--point={point}", "--bound", "1"], _action_json(interval_action)),
        _chain_job(_small_polytope(rng), _int(rng, 1, 4)),
        _malformed_job(rng),
        _malformed_job(rng),
        _domain_error_job(rng),
        _domain_error_job(rng),
    ]


BLOCKS = {"ring": _ring_block, "semistability": _semistability_block, "cli": _cli_block}
ANCHORS = {"ring": _ring_anchors, "semistability": _semistability_anchors}
