"""H-to-V conversion, faces, f-vectors, lattice points.

Derived expectations are computed by small independent oracles inside
this file (pairwise vertex solving, box scans, Fourier-Motzkin face
feasibility), the full-pass face route of ``oracles.py``, and frozen
literals.
"""

import copy
import json
import math
import pickle
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, product as iproduct

import pytest

from toricalc import polyhedra, semigroups
from toricalc.actions import (
    betti,
    delta,
    evaluate_invariants,
    is_semistable,
    linearized_action,
    orbit_census,
    proj_equal,
)
from toricalc.cli import execute
from toricalc.errors import EmptyPolyhedron, LinealityPresent, NotPointed, Unbounded
from toricalc.lattice import _inverse, primitive
from toricalc.polyhedra import (
    Cone,
    Face,
    Polyhedron,
    VRepresentation,
    _dd_pair,
    _dot,
    _face_nonempty,
    _held_face_nonempty,
    _rank,
    dilate,
    f_vector,
    face,
    homogenize,
    interval,
    is_bounded,
    is_empty,
    lattice_points,
    polyhedron,
    product,
    standard_simplex,
    unit_cube,
    vrep,
)
from toricalc.semigroups import graded_generators, hilbert_basis, hilbert_function, relation_space

from oracles import (
    dd_pair_by_projection,
    face_from_full_pass,
    face_nonempty_from_full_pass,
    homogenized_rows,
    positive_orthant,
    rational_det,
    rational_rank,
)

SQUARE = unit_cube(2)


def frac(x):
    return tuple(Fraction(v) for v in x)


def oracle_vertices_2d(p):
    """Independent vertex oracle for 2D: solve all inequality pairs by
    Cramer's rule and keep feasible solutions that are actual vertices."""
    verts = set()
    ineqs = p.inequalities
    for (a1, b1), (a2, b2) in combinations(ineqs, 2):
        den = a1[0] * a2[1] - a1[1] * a2[0]
        if den == 0:
            continue
        x = Fraction(b1 * a2[1] - b2 * a1[1], den)
        y = Fraction(a1[0] * b2 - a2[0] * b1, den)
        if all(a[0] * x + a[1] * y >= b for a, b in ineqs):
            verts.add((x, y))
    return verts


def fm_feasible(rows, dim):
    """Fourier-Motzkin feasibility for integer rows (a_0..a_{dim-1}, b)
    read as a . x >= b. Exact, with duplicate and tautology pruning."""
    cur = set()
    for row in rows:
        row = primitive(row)
        if not any(row[:dim]):
            if row[dim] > 0:
                return False
            continue
        cur.add(row)
    for var in range(dim):
        plus = [r for r in cur if r[var] > 0]
        minus = [r for r in cur if r[var] < 0]
        keep = {r for r in cur if r[var] == 0}
        for rp in plus:
            for rm in minus:
                cp, cm = rp[var], rm[var]
                new = primitive(tuple(cp * x - cm * y for x, y in zip(rm, rp)))
                if not any(new[:dim]):
                    if new[dim] > 0:
                        return False
                    continue
                keep.add(new)
        cur = keep
    return True


def reference_face(p, s):
    """The face by the earlier route: Fourier-Motzkin decides emptiness,
    then a second double description pass, on ``p`` with the inequalities
    in ``s`` reversed, gives its points; active set, dimension and witness
    come from Fraction dot products and a Fraction rank."""
    rows = []
    for i, (a, b) in enumerate(p.inequalities, start=1):
        rows.append(a + (b,))
        if i in s:
            rows.append(tuple(-x for x in a) + (-b,))
    if not fm_feasible(rows, p.dim):
        return None
    q = p
    for i in sorted(s):
        a, b = p.inequalities[i - 1]
        q = polyhedron(q.dim, q.inequalities + ((tuple(-x for x in a), -b),))
    v = vrep(q)
    assert v.vertices, "feasible face produced no points"
    n = len(v.vertices)
    witness = [Fraction(0)] * p.dim
    for vt in v.vertices:
        for j, x in enumerate(vt):
            witness[j] += Fraction(x, n)
    for r in v.rays:
        for j, x in enumerate(r):
            witness[j] += x
    dot = lambda a, x: sum(ai * xi for ai, xi in zip(a, x))
    active = frozenset(
        i
        for i, (a, b) in enumerate(p.inequalities, start=1)
        if all(dot(a, vt) == b for vt in v.vertices)
        and all(dot(a, r) == 0 for r in v.rays + v.lineality)
    )
    base = v.vertices[0]
    spanning = [tuple(x - y for x, y in zip(vt, base)) for vt in v.vertices[1:]]
    return Face(active, rational_rank(spanning + list(v.rays) + list(v.lineality)), tuple(witness))


def reference_vrep(p):
    """The V-representation by the earlier route: the double description
    pass takes the height row first, then the rows (a, -b). A generator x
    of height h > 0 gives the vertex x / h, one of height 0 the ray x, and
    a lineality vector its first coordinates, scaled so that the first
    nonzero one is positive."""
    rows = [tuple(0 for _ in range(p.dim)) + (1,)] + [a + (-b,) for a, b in p.inequalities]
    gens, lin = _dd_pair(rows, p.dim + 1)
    vertices = {tuple(Fraction(x, g.vec[-1]) for x in g.vec[:-1]) for g in gens if g.vec[-1] > 0}
    if not vertices:
        return VRepresentation((), (), ())
    rays = {primitive(g.vec[:-1]) for g in gens if g.vec[-1] == 0}
    lineality = set()
    for l in lin:
        v = primitive(l[:-1])
        lineality.add(v if next(x for x in v if x) > 0 else tuple(-x for x in v))
    return VRepresentation(tuple(sorted(vertices)), tuple(sorted(rays)), tuple(sorted(lineality)))


def seeded_polyhedron(seed):
    """Random small polyhedron in dims 1-4. Seeds 5-7 modulo 8 leave the
    last coordinate free, so those have lineality whenever nonempty."""
    rng = random.Random(seed)
    d = 1 + seed % 4
    m = rng.randint(2, 6)
    ineqs = [(tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-4, 2)) for _ in range(m)]
    if seed % 8 >= 5:
        ineqs = [(a[:-1] + (0,), b) for a, b in ineqs]
    return polyhedron(d, ineqs)


FACE_SEEDS = range(48)


def skewed_polyhedron(seed):
    """Random polyhedron in dims 2-4 whose normals lie in a proper
    sublattice: they vanish on the last one or two coordinates, and then
    a unimodular map mixes all coordinates, so a nonempty one has
    lineality, in general along a skewed direction."""
    rng = random.Random(f"skewed:{seed}")
    d = 2 + seed % 3
    free = 1 + seed % 2 if d > 2 else 1
    m = rng.randint(2, 6)
    normals = [[rng.randint(-3, 3) for _ in range(d - free)] + [0] * free for _ in range(m)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        for a in normals:
            a[j] += c * a[i]
    return polyhedron(d, [(tuple(a), rng.randint(-4, 2)) for a in normals])


SKEWED_SEEDS = range(40)
HELD_CORPUS = [("plain", seed) for seed in FACE_SEEDS] + [("skewed", seed) for seed in SKEWED_SEEDS]


def held_corpus_polyhedron(kind, seed):
    return seeded_polyhedron(seed) if kind == "plain" else skewed_polyhedron(seed)


class TestVrep:
    def test_unit_square_vertices(self):
        v = vrep(SQUARE)
        expected = {frac((0, 0)), frac((0, 1)), frac((1, 0)), frac((1, 1))}
        assert set(v.vertices) == expected
        assert set(v.vertices) == oracle_vertices_2d(SQUARE)
        assert v.rays == () and v.lineality == ()

    def test_quadrant(self):
        v = vrep(positive_orthant(2))
        assert v.vertices == (frac((0, 0)),)
        assert set(v.rays) == {(0, 1), (1, 0)}
        assert v.lineality == ()

    def test_fractional_vertex(self):
        # {2x >= 1, -x >= -1} is [1/2, 1].
        p = polyhedron(1, [((2,), 1), ((-1,), -1)])
        v = vrep(p)
        assert v.vertices == ((Fraction(1, 2),), (Fraction(1),))

    def test_empty(self):
        p = polyhedron(1, [((1,), 1), ((-1,), 0)])
        assert vrep(p) == VRepresentation((), (), ())
        assert is_empty(p)

    def test_lineality_strip(self):
        # {0 <= x <= 1} in the plane: a strip with vertical lineality.
        p = polyhedron(2, [((1, 0), 0), ((-1, 0), -1)])
        v = vrep(p)
        assert v.lineality == ((0, 1),)
        assert v.rays == ()
        assert len(v.vertices) == 2

    def test_whole_space(self):
        p = Polyhedron(2, ())
        v = vrep(p)
        assert v.vertices == (frac((0, 0)),)
        assert set(v.lineality) == {(0, 1), (1, 0)}

    def test_triangle_with_redundant_inequality(self):
        t = standard_simplex(2)
        r = polyhedron(t.dim, t.inequalities + (((1, 1), -5),))
        assert set(vrep(t).vertices) == set(vrep(r).vertices)

    def test_vertices_satisfy_inequalities(self):
        p = polyhedron(2, [((1, 2), -2), ((-3, 1), -6), ((0, -1), -4), ((1, 0), -3)])
        v = vrep(p)
        for vt in v.vertices:
            assert all(sum(ai * xi for ai, xi in zip(a, vt)) >= b for a, b in p.inequalities)
        for r in v.rays:
            assert all(sum(ai * xi for ai, xi in zip(a, r)) >= 0 for a, b in p.inequalities)
        assert set(v.vertices) == oracle_vertices_2d(p)

    def test_zero_dim_point(self):
        p = Polyhedron(0, (((), 0),))
        v = vrep(p)
        assert v.vertices == ((),)

    def test_zero_dim_empty(self):
        p = Polyhedron(0, (((), 1),))
        assert vrep(p) == VRepresentation((), (), ())
        assert is_empty(p)

    def test_deterministic(self):
        p = polyhedron(2, [((1, 2), -2), ((-3, 1), -6), ((0, -1), -4)])
        assert vrep(p) == vrep(p)

    @pytest.mark.parametrize("seed", FACE_SEEDS)
    def test_matches_height_first(self, seed):
        p = seeded_polyhedron(seed)
        assert vrep(p) == reference_vrep(p)


def seeded_system(seed):
    """(rows, ambient): a random cone system in ambient dimension 0-5 with
    0-9 rows, entries in [-4, 4]. About one row in ten repeats an earlier
    one, one in ten negates the row before it, and one in fourteen is zero,
    so many heads are singular."""
    rng = random.Random(f"system:{seed}")
    ambient = seed % 6
    rows = []
    for _ in range(rng.randint(0, 9)):
        u = rng.random()
        if rows and u < 0.1:
            rows.append(rng.choice(rows))
        elif rows and u < 0.2:
            rows.append(tuple(-x for x in rows[-1]))
        elif u < 0.27:
            rows.append((0,) * ambient)
        else:
            rows.append(tuple(rng.randint(-4, 4) for _ in range(ambient)))
    return rows, ambient


# Each held row goes in as c, -c; a zero row and a repeated row anywhere.
START_CASES = [
    ([(1, 2), (-1, -2), (1, 0)], 2),
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
    ([(1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1)], 3),
    ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 0), (0, 0, 0, 1), (-1, -1, -1, -1)], 4),
    ([(2, 1, 0, 0), (0, 3, 1, 0), (0, 0, 1, 5), (1, 0, 0, 1), (-1, -1, -1, -1)], 4),
    ([(3,), (-3,), (0,)], 1),
    ([(), ()], 0),
    ([(1, 0, 0, 0, 0)] * 2 + [tuple(int(i == j) for j in range(5)) for i in range(5)], 5),
]
START_SYSTEMS = START_CASES + [seeded_system(seed) for seed in range(3000)]


class TestStartStep:
    """``_dd_pair`` starts from the adjugate of a square nonsingular head;
    the projection route of ``oracles.py`` builds the same rays one row at
    a time."""

    def test_matches_projection_route(self):
        for rows, ambient in START_SYSTEMS:
            rays, lin = _dd_pair(rows, ambient)
            ref, ref_lin = dd_pair_by_projection(rows, ambient)
            assert [(r.vec, r.tight) for r in rays] == [(r.vec, r.tight) for r in ref], (rows, ambient)
            assert list(lin) == list(ref_lin), (rows, ambient)

    def test_corpus_coverage(self):
        kinds = set()
        for rows, ambient in START_SYSTEMS:
            kinds.add(("ambient", ambient))
            if 2 <= ambient <= 4 and len(rows) >= ambient:
                kinds.add(("head", _inverse(rows[:ambient]) is not None))
            if any(not any(row) for row in rows):
                kinds.add("zero row")
            if len(set(rows)) < len(rows):
                kinds.add("repeated row")
            if any(b == tuple(-x for x in a) and any(a) for a, b in zip(rows, rows[1:])):
                kinds.add("c then -c")
        assert kinds == {("ambient", a) for a in range(6)} | {
            ("head", True), ("head", False), "zero row", "repeated row", "c then -c"
        }


class TestFace:
    def test_square_vertex(self):
        f = face(SQUARE, {1, 3})
        assert f is not None
        assert f.active == frozenset({1, 3})
        assert f.dim == 0
        assert f.witness == frac((0, 0))

    def test_square_edge(self):
        f = face(SQUARE, {1})
        assert f.dim == 1
        assert f.active == frozenset({1})
        assert f.witness[0] == 0
        assert 0 < f.witness[1] < 1

    def test_square_whole(self):
        f = face(SQUARE, set())
        assert f.dim == 2 and f.active == frozenset()
        assert all(0 < c < 1 for c in f.witness)

    def test_square_empty_pair(self):
        assert face(SQUARE, {1, 2}) is None

    def test_closure_adds_implied_equalities(self):
        # Tightening x >= 0 on the triangle x, y >= 0, x + y <= 0
        # forces y = 0 as well: the closed active set is everything.
        p = polyhedron(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 0)])
        f = face(p, {1})
        assert f is not None
        assert f.active == frozenset({1, 2, 3})
        assert f.dim == 0

    def test_monotone_empty(self):
        # Supersets of an infeasible tight set stay infeasible.
        for extra in ({1, 2}, {1, 2, 3}, {1, 2, 4}, {1, 2, 3, 4}):
            assert face(SQUARE, extra) is None

    def test_witness_strictness(self):
        t = standard_simplex(2)
        f = face(t, {3})
        assert f.active == frozenset({3})
        a, b = t.inequalities[0]
        assert sum(x * w for x, w in zip(a, f.witness)) > b

    def test_unbounded_face(self):
        q = positive_orthant(2)
        f = face(q, {1})
        assert f.dim == 1
        assert f.active == frozenset({1})

    def test_bad_index(self):
        with pytest.raises(ValueError):
            face(SQUARE, {0})
        with pytest.raises(ValueError):
            face(SQUARE, {5})

    @pytest.mark.parametrize("seed", FACE_SEEDS)
    def test_matches_reference(self, seed):
        p = seeded_polyhedron(seed)
        m = p.n_inequalities
        for k in range(min(m, 3) + 1):
            for s in combinations(range(1, m + 1), k):
                assert face(p, s) == reference_face(p, set(s)), s

    @pytest.mark.parametrize("kind, seed", HELD_CORPUS)
    def test_held_equalities_match_full_pass(self, kind, seed):
        # The pass over a face's own system, its rows held as pairs of
        # opposite inequalities, answers as the vertex-mask index does on
        # every mask, the height row's bit included.
        p = held_corpus_polyhedron(kind, seed)
        m = p.n_inequalities
        for mask in range(1 << (m + 1)):
            assert _held_face_nonempty(p, mask) == _face_nonempty(p, mask), mask
        for k in range(m + 1):
            for s in combinations(range(1, m + 1), k):
                assert face(p, s) == face_from_full_pass(p, s), s

    @pytest.mark.parametrize(
        "p, mask, nonempty",
        [
            # x >= 0 twice in the unit square, both held.
            (polyhedron(2, [((1, 0), 0), ((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]), 0b11, True),
            # x >= 1 and -x >= -1 on the strip 0 <= y <= 1: one row is the
            # other's negative, so holding either leaves the whole segment.
            (polyhedron(2, [((1, 0), 1), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]), 0b01, True),
            # x = 0 and x = 1 at once: the face is empty.
            (SQUARE, 0b0011, False),
            # x = 0 and x = 1 again, from two parallel rows x >= 0, x >= 1.
            (polyhedron(2, [((1, 0), 0), ((1, 0), 1), ((0, 1), 0)]), 0b011, False),
        ],
    )
    def test_held_pairs(self, p, mask, nonempty):
        assert _held_face_nonempty(p, mask) is nonempty
        for want in range(1 << p.n_inequalities):
            expected = face_nonempty_from_full_pass(p, want)
            assert _held_face_nonempty(p, want) == _face_nonempty(p, want) == expected, want

    def test_held_corpus_covers_empty_faces_and_cut_lineality(self):
        seen = set()
        for kind, seed in HELD_CORPUS:
            p = held_corpus_polyhedron(kind, seed)
            v = vrep(p)
            if is_empty(p):
                continue
            if any(sum(1 for x in l if x) > 1 for l in v.lineality):
                seen.add("skewed lineality")
            m = p.n_inequalities
            # Row k cuts the lineality space of the rows before it when it
            # raises their rank.
            rows = homogenized_rows(p)
            cuts = [rational_rank(rows[: k + 1]) > rational_rank(rows[:k]) for k in range(m)]
            for k in range(m + 1):
                for s in combinations(range(1, m + 1), k):
                    if face(p, s) is None:
                        seen.add("empty face")
                    # A held row that cuts the lineality space after a row
                    # that is not held: the face's own system moves the
                    # held row ahead of it.
                    if any(cuts[i - 1] and any(cuts[j] for j in range(i - 1) if j + 1 not in s) for i in s):
                        seen.add("held row cuts lineality")
        assert seen == {"skewed lineality", "empty face", "held row cuts lineality"}

    def test_reference_corpus_covers_empty_and_lineality(self):
        kinds = set()
        for seed in FACE_SEEDS:
            p = seeded_polyhedron(seed)
            kinds.add("empty" if is_empty(p) else "lineality" if vrep(p).lineality else "pointed")
        dims = {seeded_polyhedron(seed).dim for seed in FACE_SEEDS}
        assert kinds == {"empty", "lineality", "pointed"}
        assert dims == {1, 2, 3, 4}


def seeded_vectors(seed):
    """Seeded integer vectors of length 0-5: up to 7 of them, some rows
    zero, and on odd seeds all drawn from the span of at most 2 vectors."""
    rng = random.Random(seed)
    n = seed % 6
    basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 2))]
    vectors = []
    for _ in range(rng.randint(0, 7)):
        if rng.random() < 0.2:
            vectors.append((0,) * n)
        elif seed % 2:
            coeffs = [rng.randint(-3, 3) for _ in basis]
            vectors.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)))
        else:
            vectors.append(tuple(rng.randint(-4, 4) for _ in range(n)))
    return vectors


def seeded_square(seed):
    """A seeded n x n integer matrix, n = 1-5. Seeds 1 mod 4 give a product
    of elementary row operations (determinant +-1); seeds 3 mod 4 make the
    last row a combination of the others, so the matrix is singular."""
    rng = random.Random(seed)
    n = 1 + seed % 5
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    if seed % 4 == 1:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(2 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            rows[i] = [a + rng.choice([-1, 1]) * b for a, b in zip(rows[i], rows[j])]
    elif seed % 4 == 3:
        coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
        rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
    return [tuple(r) for r in rows]


class TestRank:
    def test_matches_rational_rank(self):
        kinds = set()
        for seed in range(400):
            vectors = seeded_vectors(seed)
            rank = _rank(vectors)
            assert rank == rational_rank(vectors), vectors
            if any(not any(v) for v in vectors):
                kinds.add("zero row")
            if 0 < rank < min(len(vectors), seed % 6):
                kinds.add("proper subspace")
        assert kinds == {"zero row", "proper subspace"}

    def test_square_matrices_match_rational_det(self):
        # A square matrix, unimodular, singular or neither, has full rank,
        # as many nonzero Hermite rows as rows, exactly when its
        # determinant over Fraction is nonzero.
        kinds = set()
        for seed in range(300):
            rows = seeded_square(seed)
            det = abs(rational_det(rows))
            assert (_rank(rows) == len(rows)) == (det != 0), rows
            kinds.add((len(rows), "singular" if det == 0 else "unimodular" if det == 1 else "other"))
        assert {k for _, k in kinds} == {"singular", "unimodular", "other"}
        assert {n for n, k in kinds if k == "singular"} == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("seed", FACE_SEEDS)
    def test_generator_sets_of_seeded_polyhedra(self, seed):
        # What face ranks: the homogenized generators of the pass, lineality
        # included.
        rays, lin = seeded_polyhedron(seed)._cone._pass
        vectors = [r.vec for r in rays] + list(lin)
        assert _rank(vectors) == rational_rank(vectors)

    @pytest.mark.parametrize("d", range(4, 9))
    def test_generator_sets_of_cubes(self, d):
        rays, lin = unit_cube(d)._cone._pass
        vectors = [r.vec for r in rays] + list(lin)
        assert len(vectors) == 2**d
        assert _rank(vectors) == rational_rank(vectors) == d + 1


def kernel_vectors(seed):
    """Two seeded integer vectors of one length 0-5 for the integer
    kernels: entries 0, small of either sign, or beyond 2^64, the first
    scaled by a common factor (1, 6 or 2^65 + 3) so its gcd is not 1."""
    rng = random.Random(f"kernel:{seed}")
    n = seed % 6

    def entry():
        kind = rng.randrange(4)
        if kind == 3:
            return rng.choice((-1, 1)) * (2**64 + rng.randrange(2**70))
        return 0 if kind == 0 else rng.randint(-9, 9)

    scale = rng.choice((1, 6, 2**65 + 3))
    first = tuple(scale * entry() for _ in range(n))
    return (first if seed % 7 else (0,) * n), tuple(entry() for _ in range(n))


KERNEL_SEEDS = range(300)


class TestIntegerKernels:
    # _dot and primitive run on builtins (sum over map, one gcd call);
    # here they are checked against their definitions, written out.
    def test_dot_is_the_sum_of_products(self):
        for seed in KERNEL_SEEDS:
            a, b = kernel_vectors(seed)
            total = 0
            for i in range(len(a)):
                total += a[i] * b[i]
            assert _dot(a, b) == total and type(_dot(a, b)) is int, (a, b)

    def test_primitive_divides_by_the_gcd(self):
        for seed in KERNEL_SEEDS:
            for v in kernel_vectors(seed):
                p = primitive(v)
                if not any(v):
                    assert p == v
                    continue
                g = next(x // y for x, y in zip(v, p) if y)
                assert g >= 1 and v == tuple(g * y for y in p), v
                assert reduce(math.gcd, p, 0) == 1, v

    def test_corpus_covers_empty_zero_negative_and_wide(self):
        vectors = [v for seed in KERNEL_SEEDS for v in kernel_vectors(seed)]
        assert () in vectors and (0, 0, 0) in vectors
        assert any(x < -(2**64) for v in vectors for x in v)
        assert any(primitive(v) != v and max(map(abs, v)) > 2**64 for v in vectors)


class TestFVector:
    def test_square(self):
        f, simple = f_vector(SQUARE)
        assert f == (4, 4, 1)
        assert simple

    def test_cube(self):
        f, simple = f_vector(unit_cube(3))
        assert f == (8, 12, 6, 1)
        assert simple

    def test_simplex(self):
        f, simple = f_vector(standard_simplex(2))
        assert f == (3, 3, 1)
        assert simple

    def test_half_line(self):
        f, simple = f_vector(positive_orthant(1))
        assert f == (1, 1)
        assert simple

    def test_quadrant(self):
        f, simple = f_vector(positive_orthant(2))
        assert f == (1, 2, 1)
        assert simple

    def test_point(self):
        f, simple = f_vector(Polyhedron(0, (((), 0),)))
        assert f == (1,)
        assert simple

    def test_square_pyramid_not_simple(self):
        # conv{(+-1, +-1, 0), (0, 0, 1)}: the apex meets 4 facets in R^3.
        pyr = polyhedron(
            3,
            [
                ((0, 0, 1), 0),
                ((-1, 0, -1), -1),
                ((1, 0, -1), -1),
                ((0, -1, -1), -1),
                ((0, 1, -1), -1),
            ],
        )
        f, simple = f_vector(pyr)
        assert f == (5, 8, 5, 1)
        assert not simple

    def test_euler_relation(self):
        for p in [SQUARE, unit_cube(3), standard_simplex(3), product(standard_simplex(2), interval(0, 1))]:
            f, _ = f_vector(p)
            assert sum((-1) ** i * c for i, c in enumerate(f)) == 1

    def test_redundant_inequality_invariant(self):
        f1 = f_vector(SQUARE)
        f2 = f_vector(polyhedron(SQUARE.dim, SQUARE.inequalities + (((1, 0), -7),)))
        assert f1 == f2

    def test_redundant_inequality_tight_on_rays_only(self):
        # x >= -2 is tight on the ray (0, 1) but on no vertex, so the walk
        # meets a set of rays alone, which is no face.
        p = polyhedron(2, [((1, 0), -2), ((1, 0), -1), ((0, 1), 1)])
        assert f_vector(p) == ((1, 2, 1), True)

    @pytest.mark.parametrize("seed", FACE_SEEDS)
    def test_matches_faces_over_all_supports(self, seed):
        # Faces are the distinct closed active sets of the nonempty faces
        # over all supports; a vertex lies on a facet when its active set
        # contains the facet's.
        p = seeded_polyhedron(seed)
        v = vrep(p)
        if is_empty(p) or v.lineality:
            with pytest.raises(EmptyPolyhedron if is_empty(p) else LinealityPresent):
                f_vector(p)
            return
        faces = {}
        for k in range(p.n_inequalities + 1):
            for s in combinations(range(1, p.n_inequalities + 1), k):
                f = face(p, s)
                if f is not None:
                    faces[f.active] = f.dim
        d = max(faces.values())
        counts = tuple(sum(1 for fd in faces.values() if fd == i) for i in range(d + 1))
        facets = [a for a, fd in faces.items() if fd == d - 1]
        simple = all(
            sum(1 for fa in facets if fa <= a) == d for a, fd in faces.items() if fd == 0
        )
        assert f_vector(p) == (counts, simple)

    def test_empty_raises(self):
        with pytest.raises(EmptyPolyhedron):
            f_vector(polyhedron(1, [((1,), 1), ((-1,), 0)]))

    def test_lineality_raises(self):
        with pytest.raises(LinealityPresent):
            f_vector(polyhedron(2, [((1, 0), 0)]))


class TestLatticePoints:
    def test_square(self):
        assert lattice_points(SQUARE) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_dilated_square_count(self):
        for m in range(1, 5):
            assert len(lattice_points(dilate(SQUARE, m))) == (m + 1) ** 2

    def test_box_oracle(self):
        p = polyhedron(2, [((1, 0), -1), ((-1, 0), -2), ((0, 1), 0), ((0, -1), -2), ((1, 1), 0)])
        expected = [
            pt
            for pt in iproduct(range(-5, 6), repeat=2)
            if all(sum(ai * xi for ai, xi in zip(a, pt)) >= b for a, b in p.inequalities)
        ]
        assert lattice_points(p) == sorted(expected)

    def test_fractional_interval(self):
        # [1/2, 5/2] contains 1 and 2.
        p = polyhedron(1, [((2,), 1), ((-2,), -5)])
        assert lattice_points(p) == [(1,), (2,)]

    def test_empty(self):
        assert lattice_points(polyhedron(1, [((1,), 1), ((-1,), 0)])) == []

    def test_unbounded_raises(self):
        with pytest.raises(Unbounded):
            lattice_points(positive_orthant(1))

    def test_sorted_lex(self):
        pts = lattice_points(dilate(SQUARE, 2))
        assert pts == sorted(pts)


class TestIntegerRule:
    def test_non_integers_rejected(self):
        # Each of these used to be truncated or to raise a bare TypeError.
        cases = {
            "b": lambda: polyhedron(1, [((1,), 0.5), ((-1,), -2)]),
            "normal": lambda: polyhedron(1, [((Fraction(1, 2),), 0)]),
            "dim": lambda: polyhedron(1.5, []),
            "cone row": lambda: Cone(2, [(1, 0.5)]),
            "bare cone row": lambda: Cone(2, (5,)),
            "cone ambient": lambda: Cone(2.5, []),
            "support": lambda: face(SQUARE, [1.9]),
            "bare support": lambda: face(SQUARE, 1),
            "dilation": lambda: dilate(SQUARE, 1.5),
            "cube": lambda: unit_cube(1.5),
            "simplex": lambda: standard_simplex(1.5),
            "negative dim": lambda: polyhedron(-1, []),
            "negative cone ambient": lambda: Cone(-1, ()),
            "negative cube": lambda: unit_cube(-2),
            "negative simplex": lambda: standard_simplex(-1),
            # These raised a bare TypeError.
            "none inequalities": lambda: polyhedron(1, None),
            "bare inequality": lambda: polyhedron(1, [5]),
            "none Polyhedron inequalities": lambda: Polyhedron(1, None),
            "none cone rows": lambda: Cone(1, None),
        }
        for name, call in cases.items():
            with pytest.raises(ValueError):
                call()
                pytest.fail(name)
        # These raised ValueError with CPython's unpacking text.
        named = {
            "long inequality": (lambda: polyhedron(1, [((1,), 0, 0)]), r"^expected an inequality \(a, b\), got \(\(1,\), 0, 0\)$"),
            "short inequality": (lambda: polyhedron(1, [((1,),)]), r"^expected an inequality \(a, b\), got "),
        }
        for name, (call, match) in named.items():
            with pytest.raises(ValueError, match=match):
                call()
                pytest.fail(name)

    def test_integral_values_accepted(self):
        # Compared by repr, so that a float field equal to an int fails.
        same = lambda x, y: repr(x) == repr(y)
        assert same(polyhedron(1, [((1,), Fraction(4, 2))]), polyhedron(1, [((1,), 2)]))
        assert same(polyhedron(2.0, [((1.0, True), -1)]), polyhedron(2, [((1, 1), -1)]))
        assert same(Cone(2.0, [(1, 0.0)]), Cone(2, [(1, 0)]))
        assert same(face(SQUARE, [1.0, True]), face(SQUARE, [1]))
        assert same(face(SQUARE, (True,)), face(SQUARE, (1,)))
        assert same(face(SQUARE, (2.0,)), face(SQUARE, (2,)))
        assert same(face(SQUARE, (i for i in (1, 3))), face(SQUARE, (1, 3)))
        assert same(face(SQUARE, [3, 1, 3]), face(SQUARE, (1, 3)))
        assert same(dilate(SQUARE, 2.0), dilate(SQUARE, 2))
        assert same(unit_cube(2.0), SQUARE)
        assert same(standard_simplex(Fraction(2)), standard_simplex(2))
        assert same(unit_cube(0), Polyhedron(0, ()))
        assert same(standard_simplex(0), polyhedron(0, [((), -1)]))

    def test_cone_point_must_have_the_ambient_length(self):
        # zip used to cut a long or a short point to the ambient length.
        c = homogenize(unit_cube(2))
        assert c.contains((0, 0, 1)) and not c.contains((2, 0, 1))
        assert c.contains(x for x in (1, 1, 1)) and not c.contains(x for x in (0, 2, 1))
        for x in [(0, 0, 1, 99), (0, 0), (), 5]:
            with pytest.raises(ValueError):
                c.contains(x)
                pytest.fail(repr(x))


class TestTransforms:
    def test_dilate(self):
        assert dilate(interval(0, 1), 3).inequalities == (((1,), 0), ((-1,), -3))
        with pytest.raises(ValueError):
            dilate(interval(0, 1), 0)

    def test_product_order(self):
        sq = product(interval(0, 1), interval(0, 1))
        assert sq.inequalities == (
            ((1, 0), 0),
            ((-1, 0), -1),
            ((0, 1), 0),
            ((0, -1), -1),
        )

    def test_product_with_point(self):
        pt = Polyhedron(0, ())
        p = product(interval(0, 1), pt)
        assert p.dim == 1
        assert p.inequalities == interval(0, 1).inequalities

    def test_boundedness(self):
        assert is_bounded(SQUARE)
        assert not is_bounded(positive_orthant(1))
        assert is_bounded(polyhedron(1, [((1,), 1), ((-1,), 0)]))


def prism():
    """The triangle times a segment: bounded and simple."""
    return product(standard_simplex(2), interval(0, 1))


@pytest.fixture
def passes(monkeypatch):
    """Records the constraint rows of every double description pass."""
    calls = []
    run = polyhedra._dd_pair

    def counting(constraints, ambient):
        calls.append(tuple(constraints))
        return run(constraints, ambient)

    monkeypatch.setattr(polyhedra, "_dd_pair", counting)
    return calls


@pytest.fixture
def ranks(monkeypatch):
    """Records the vectors of every ``_rank`` call."""
    calls = []
    run = polyhedra._rank

    def counting(vectors):
        calls.append(tuple(vectors))
        return run(vectors)

    monkeypatch.setattr(polyhedra, "_rank", counting)
    return calls


class TestGradedWalks:
    """The face walks read dimensions off the grading of the face lattice:
    the face counts rank no face, and the pulling triangulation ranks the
    whole cone once."""

    def test_face_counts_rank_no_face(self, ranks):
        pyramid = polyhedron(
            3, [((0, 0, 1), 0), ((-1, 0, -1), -1), ((1, 0, -1), -1), ((0, -1, -1), -1), ((0, 1, -1), -1)]
        )
        counts = [polyhedra._face_counts(p) for p in (prism(), unit_cube(6), positive_orthant(3), pyramid)]
        assert counts == [
            ((6, 9, 5, 1), True),
            ((64, 192, 240, 160, 60, 12, 1), True),
            ((1, 3, 3, 1), True),
            ((5, 8, 5, 1), False),
        ]
        assert ranks == []

    def test_triangulation_ranks_the_cone_once(self, ranks):
        # The cone's rank is its ambient dimension less the rank of its
        # implicit equalities: none for a full-dimensional cone, and the
        # pair y >= 0, -y >= 0 for the cone over a segment on the x-axis.
        segment = polyhedron(2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), 0)])
        cones = [homogenize(unit_cube(6)), homogenize(positive_orthant(3)), Cone(2, ((0, 1), (2, -1)))]
        assert [len(polyhedra._triangulation(c)[1][0]) for c in cones] == [7, 4, 2]
        assert ranks == [(), (), ()]
        assert polyhedra._triangulation(homogenize(segment))[1] == [(0, 1)]
        assert ranks[3] == ((0, 1, 0), (0, -1, 0))
        # The zero cone has no ray to rank.
        assert polyhedra._triangulation(Cone(0, ())) == ((), [])
        assert len(ranks) == 4

    def test_graded_generators_rank_once(self, ranks):
        assert len(graded_generators(unit_cube(6))) == 64
        assert len(ranks) == 1


class TestPassCache:
    """Each polyhedron runs its plain double description pass once and
    counts its faces once; the answers are not shared mutable objects and
    the errors are not kept."""

    QUERIES = {
        "vrep": vrep,
        "is_bounded": is_bounded,
        "is_empty": is_empty,
        "lattice_points": lattice_points,
        "f_vector": f_vector,
        "betti": betti,
        "orbit_census": orbit_census,
        "graded_generators": graded_generators,
        "hilbert_basis": lambda p: hilbert_basis(homogenize(p)),
        "relation_space": lambda p: relation_space(p, 2),
        "hilbert_function 0": lambda p: hilbert_function(p, 0),
        "hilbert_function 1": lambda p: hilbert_function(p, 1),
        "hilbert_function 3": lambda p: hilbert_function(p, 3),
        "face {1}": lambda p: face(p, {1}),
        "face {1, 4}": lambda p: face(p, {1, 4}),
    }

    def test_one_pass_across_every_query(self, passes):
        p = prism()
        first = {name: query(p) for name, query in self.QUERIES.items()}
        again = {name: query(p) for name, query in self.QUERIES.items()}
        assert passes == [tuple(homogenized_rows(p))]
        assert again == first
        assert first["f_vector"] == ((6, 9, 5, 1), True)
        assert [first[f"hilbert_function {r}"] for r in (0, 1, 3)] == [1, 6, 40]

    def test_one_pass_for_the_delta_of_an_action(self, passes):
        act = linearized_action([[1, 1, 0, 0], [0, 0, 1, 1]], (-1, 0, -1, 0))
        assert f_vector(delta(act)) == ((4, 4, 1), True)
        assert betti(delta(act)) == (1, 2, 1)
        assert orbit_census(delta(act)) == {0: 4, 1: 4, 2: 1}
        assert is_bounded(delta(act))
        assert len(passes) == 1

    def test_face_counts_kept(self, monkeypatch):
        p = prism()
        counted = []
        count = polyhedra._face_counts

        def counting(q):
            counted.append(q)
            return count(q)

        monkeypatch.setattr(polyhedra, "_face_counts", counting)
        assert betti(p) == (1, 2, 2, 1)
        assert orbit_census(p) == {0: 6, 1: 9, 2: 5, 3: 1}
        assert f_vector(p) == ((6, 9, 5, 1), True)
        assert counted == [p]

    def test_hilbert_basis_kept(self, monkeypatch):
        # Two evaluations on one action, then the relations and generators
        # of its delta, triangulate and reduce the cone over delta once.
        act = linearized_action([[1, 1, 0, 0], [0, 0, 1, 1]], (-1, 0, -1, 0))
        built = []
        triangulate = semigroups._triangulation

        def counting(c):
            built.append(c)
            return triangulate(c)

        monkeypatch.setattr(semigroups, "_triangulation", counting)
        v = evaluate_invariants(act, (1, 2, 3, 4), 1)
        w = evaluate_invariants(act, (2, 4, 3, 4), 1)
        assert proj_equal(v, w)
        assert relation_space(delta(act), 2).relations_by_degree[2].kernel_dim == 1
        assert len(graded_generators(delta(act))) == 4
        assert len(built) == 1 and built[0] is homogenize(delta(act))

    def test_cli_betti_runs_one_pass(self, passes):
        poly = {"dim": 2, "inequalities": [{"a": a, "b": b} for a, b in unit_cube(2).inequalities]}
        code, out, err = execute(["betti", "--polytope", "-"], stdin=json.dumps(poly))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"betti": [1, 2, 1], "bounded": True}
        assert len(passes) == 1

    def test_cli_hilbert_runs_one_pass(self, passes):
        poly = {"dim": 2, "inequalities": [{"a": a, "b": b} for a, b in unit_cube(2).inequalities]}
        code, out, err = execute(["hilbert", "--polytope", "-", "--degree", "2"], stdin=json.dumps(poly))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"count": 9, "degree": 2}
        assert len(passes) == 1

    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_hilbert_function_runs_one_pass(self, passes, r):
        p = prism()
        first = hilbert_function(p, r)
        assert passes == [tuple(homogenized_rows(p))]
        assert hilbert_function(p, r) == first
        assert len(passes) == 1

    def test_face_queries_read_the_cached_pass(self, passes):
        # A face's generators are the cached pass's rays whose tight mask
        # holds the support, so a warm polyhedron runs no pass for any
        # support, empty or not.
        p = prism()
        vrep(p)
        supports = [s for k in range(3) for s in combinations(range(1, p.n_inequalities + 1), k)]
        faces = {s: face(p, s) for s in supports}
        assert passes == [tuple(homogenized_rows(p))]
        assert [faces[s].dim for s in ((), (1,), (1, 4))] == [3, 2, 1]
        assert faces[(4, 5)] is None

    def test_semistability_runs_one_pass(self, passes):
        act = linearized_action([[1, 1, 0, 0], [0, 0, 1, 1]], (-1, 0, -1, 0))
        p = delta(act)
        assert [is_semistable(act, s) for s in ((), (1,), (1, 2), (1, 3))] == [True, True, False, True]
        assert passes == [tuple(homogenized_rows(p))]

    def test_nothing_computed_at_construction(self, passes):
        p = prism()
        dilate(p, 2)
        product(p, p)
        assert passes == []
        assert not {"_cone", "_f_vector"} & set(vars(p))
        assert "_hilbert_basis" not in vars(homogenize(p))
        assert "_hilbert_basis" not in vars(Cone(2, ((1, 0), (0, 1))))
        assert passes == []

    def test_cache_is_not_a_field(self):
        warm, fresh = prism(), prism()
        f_vector(warm)
        graded_generators(warm)
        assert {"_cone", "_f_vector"} <= set(vars(warm))
        assert {"_pass", "_hilbert_basis"} <= set(vars(homogenize(warm)))
        assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
        assert homogenize(warm) is homogenize(warm)
        assert homogenize(warm) == homogenize(fresh)

    @pytest.mark.parametrize("p", [prism(), unit_cube(2), interval(-1, 2), Polyhedron(0, ())], ids=str)
    def test_cone_equals_the_checked_constructor(self, p):
        # The cone is built from the polyhedron's rows, checked already,
        # without a second check; it is the checked constructor's value.
        rows = [a + (-b,) for a, b in p.inequalities] + [(0,) * p.dim + (1,)]
        checked = Cone(p.dim + 1, rows)
        c = homogenize(p)
        assert c == checked and hash(c) == hash(checked) and repr(c) == repr(checked)
        assert type(c.inequalities) is tuple and all(type(row) is tuple for row in c.inequalities)
        assert pickle.loads(pickle.dumps(c)) == c and copy.deepcopy(c) == c

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize(
        "roundtrip",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_answer_the_same(self, roundtrip, warm):
        p = prism()
        if warm:
            for query in self.QUERIES.values():
                query(p)
        q = roundtrip(p)
        assert q == p and hash(q) == hash(p)
        for name, query in self.QUERIES.items():
            assert query(q) == query(p), name

    def test_returned_containers_are_fresh(self):
        p = prism()
        points = lattice_points(p)
        points.clear()
        gens = graded_generators(p)
        gens.clear()
        basis = hilbert_basis(homogenize(p))
        basis.clear()
        census = orbit_census(p)
        census[0] = -1
        pres = relation_space(p, 2)
        pres.relations_by_degree.clear()
        assert len(lattice_points(p)) == 6
        assert len(graded_generators(p)) == 6
        assert len(hilbert_basis(homogenize(p))) == 6
        assert orbit_census(p)[0] == 6
        assert sorted(relation_space(p, 2).relations_by_degree) == [1, 2]

    @pytest.mark.parametrize(
        "p, queries, error",
        [
            (polyhedron(1, [((1,), 1), ((-1,), 0)]), [f_vector, betti, orbit_census], EmptyPolyhedron),
            (polyhedron(2, [((1, 0), 0)]), [f_vector, betti, orbit_census], LinealityPresent),
            (positive_orthant(2),
             [lattice_points, lambda p: relation_space(p, 1), lambda p: hilbert_function(p, 0),
              lambda p: hilbert_function(p, 2)],
             Unbounded),
            # Empty, but the cone {a . x >= 0} of its rows holds a line.
            (polyhedron(2, [((1, 0), 1), ((-1, 0), 0)]),
             [graded_generators, lambda p: hilbert_basis(homogenize(p)), lambda p: relation_space(p, 1)],
             NotPointed),
        ],
        ids=["empty", "lineality", "unbounded", "not-pointed"],
    )
    def test_errors_raised_on_every_call(self, passes, p, queries, error):
        for _ in range(3):
            for query in queries:
                with pytest.raises(error):
                    query(p)
        assert "_f_vector" not in vars(p)
        assert "_hilbert_basis" not in vars(homogenize(p))
        assert len(passes) == 1
