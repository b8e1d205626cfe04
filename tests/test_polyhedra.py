"""H-to-V conversion, faces, f-vectors, lattice points.

Derived expectations are computed by small independent oracles inside
this file (pairwise vertex solving, box scans, Fourier-Motzkin face
feasibility) and frozen literals.
"""

import random
from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest

from toricalc.errors import EmptyPolyhedron, LinealityPresent, Unbounded
from toricalc.lattice import primitive
from toricalc.polyhedra import (
    Cone,
    Face,
    Polyhedron,
    VRepresentation,
    _dd_pair,
    _split_generators,
    dilate,
    f_vector,
    face,
    interval,
    is_bounded,
    is_empty,
    lattice_points,
    polyhedron,
    positive_orthant,
    product,
    standard_simplex,
    unit_cube,
    vrep,
)

from oracles import rational_rank

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
    pass takes the height row first, then the rows (a, -b)."""
    rows = [tuple(0 for _ in range(p.dim)) + (1,)] + [a + (-b,) for a, b in p.inequalities]
    vertices, rays, lineality = _split_generators(*_dd_pair(rows, p.dim + 1))
    if not vertices:
        return VRepresentation((), (), ())
    return VRepresentation(
        tuple(sorted(set(vertices))), tuple(sorted(set(rays))), tuple(sorted(set(lineality)))
    )


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
        assert vrep(p).is_empty
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
        assert vrep(p).is_empty

    def test_deterministic(self):
        p = polyhedron(2, [((1, 2), -2), ((-3, 1), -6), ((0, -1), -4)])
        assert vrep(p) == vrep(p)

    @pytest.mark.parametrize("seed", FACE_SEEDS)
    def test_matches_height_first(self, seed):
        p = seeded_polyhedron(seed)
        assert vrep(p) == reference_vrep(p)


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

    def test_reference_corpus_covers_empty_and_lineality(self):
        kinds = set()
        for seed in FACE_SEEDS:
            v = vrep(seeded_polyhedron(seed))
            kinds.add("empty" if v.is_empty else "lineality" if v.lineality else "pointed")
        dims = {seeded_polyhedron(seed).dim for seed in FACE_SEEDS}
        assert kinds == {"empty", "lineality", "pointed"}
        assert dims == {1, 2, 3, 4}


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
        if v.is_empty or v.lineality:
            with pytest.raises(EmptyPolyhedron if v.is_empty else LinealityPresent):
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
            "cone ambient": lambda: Cone(2.5, []),
            "support": lambda: face(SQUARE, [1.9]),
            "dilation": lambda: dilate(SQUARE, 1.5),
            "cube": lambda: unit_cube(1.5),
            "simplex": lambda: standard_simplex(1.5),
            "orthant": lambda: positive_orthant("2"),
        }
        for name, call in cases.items():
            with pytest.raises(ValueError):
                call()
                pytest.fail(name)

    def test_integral_values_accepted(self):
        # Compared by repr, so that a float field equal to an int fails.
        same = lambda x, y: repr(x) == repr(y)
        assert same(polyhedron(1, [((1,), Fraction(4, 2))]), polyhedron(1, [((1,), 2)]))
        assert same(polyhedron(2.0, [((1.0, True), -1)]), polyhedron(2, [((1, 1), -1)]))
        assert same(Cone(2.0, [(1, 0.0)]), Cone(2, [(1, 0)]))
        assert same(face(SQUARE, [1.0, True]), face(SQUARE, [1]))
        assert same(dilate(SQUARE, 2.0), dilate(SQUARE, 2))
        assert same(unit_cube(2.0), SQUARE)
        assert same(standard_simplex(Fraction(2)), standard_simplex(2))
        assert same(positive_orthant(2.0), positive_orthant(2))


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
