"""H-to-V conversion, faces, f-vectors, lattice points.

Derived expectations are computed by small independent oracles inside
this file (pairwise vertex solving, box scans) and frozen literals.
"""

from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest

from toricalc.errors import EmptyPolyhedron, LinealityPresent, Unbounded
from toricalc.polyhedra import (
    Polyhedron,
    dilate,
    f_vector,
    face,
    half_line,
    interval,
    is_bounded,
    is_empty,
    lattice_points,
    polyhedron,
    positive_orthant,
    product,
    recession_cone,
    standard_simplex,
    unit_cube,
    vrep,
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
        r = t.with_inequality((1, 1), -5)
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
        f, simple = f_vector(half_line())
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
        f2 = f_vector(SQUARE.with_inequality((1, 0), -7))
        assert f1 == f2

    def test_redundant_inequality_tight_on_rays_only(self):
        # x >= -2 is tight on the ray (0, 1) but on no vertex, so the walk
        # meets a set of rays alone, which is no face.
        p = polyhedron(2, [((1, 0), -2), ((1, 0), -1), ((0, 1), 1)])
        assert f_vector(p) == ((1, 2, 1), True)

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
            lattice_points(half_line())

    def test_sorted_lex(self):
        pts = lattice_points(dilate(SQUARE, 2))
        assert pts == sorted(pts)


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

    def test_recession_cone(self):
        rc = recession_cone(polyhedron(1, [((1,), -5)]))
        assert rc.inequalities == (((1,), 0),)
        with pytest.raises(EmptyPolyhedron):
            recession_cone(polyhedron(1, [((1,), 1), ((-1,), 0)]))

    def test_boundedness(self):
        assert is_bounded(SQUARE)
        assert not is_bounded(half_line())
        assert is_bounded(polyhedron(1, [((1,), 1), ((-1,), 0)]))
