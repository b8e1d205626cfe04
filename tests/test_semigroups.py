"""Cones over polyhedra, Hilbert bases, Hilbert functions, relations.

The decomposition oracle used here is an exhaustive bounded search that
never consults the triangulation machinery it is checking.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import prod

import pytest

from toricalc.errors import NotPointed, Unbounded
from toricalc.lattice import (
    IntMatrix,
    integer_kernel_basis,
    invariant_factors,
)
from toricalc.polyhedra import (
    Polyhedron,
    dilate,
    interval,
    lattice_points,
    polyhedron,
    positive_orthant,
    product,
    standard_simplex,
    unit_cube,
)
from toricalc.polyhedra import extreme_rays, vrep
from toricalc.semigroups import (
    Cone,
    GradedPoint,
    _parallelepiped_points,
    _placing_triangulation,
    graded_generators,
    hilbert_basis,
    hilbert_function,
    homogenize,
    relation_space,
)

from oracles import rational_rank, solve_rational
from test_acceptance import HILBERT_CONES

SQUARE = unit_cube(2)


def decomposes(x, basis, cone):
    """Oracle: can x be written as a nonnegative integer combination of
    basis elements? Exhaustive search, exponential and tiny."""
    if all(v == 0 for v in x):
        return True
    for b in basis:
        rest = tuple(a - c for a, c in zip(x, b))
        if cone.contains(rest) and decomposes(rest, basis, cone):
            return True
    return False


def box_scan(rays):
    """Reference: lattice points of the half-open parallelepiped, by
    testing every point of its bounding box with a rational solve."""
    ambient = len(rays[0])
    ranges = [
        range(sum(min(r[j], 0) for r in rays), sum(max(r[j], 0) for r in rays) + 1)
        for j in range(ambient)
    ]
    columns = [[r[j] for r in rays] for j in range(ambient)]
    out = []
    for x in iproduct(*ranges):
        t = solve_rational(columns, x)
        if t is not None and all(0 <= ti < 1 for ti in t):
            out.append(x)
    return out


def seeded_rays(seed, k, ambient, lo, hi, accept):
    """The first k independent integer vectors in [lo, hi]^ambient, drawn
    from a seeded stream, that ``accept`` takes."""
    rng = random.Random(seed)
    while True:
        rays = [tuple(rng.randint(lo, hi) for _ in range(ambient)) for _ in range(k)]
        if rational_rank(rays) == k and accept(rays):
            return rays


def unimodular_rays(seed, dim):
    """Rows of a seeded product of elementary integer row operations."""
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.sample(range(dim), 2)
        q = rng.choice([-1, 1])
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return [tuple(r) for r in rows]


def index(rays):
    return prod(invariant_factors(IntMatrix.from_rows(rays)))


def det2(rays):
    (a, b), (c, d) = rays
    return abs(a * d - b * c)


PARALLELEPIPED_CASES = (
    [unimodular_rays(seed, dim) for seed, dim in [(1, 2), (2, 3), (3, 3), (4, 4)]]
    + [seeded_rays(seed, 3, 3, -3, 3, lambda r: True) for seed in (5, 6)]
    # det in the thousands, with a bounding box not much larger than det.
    + [
        seeded_rays(seed, 2, 2, -4, 45, lambda r: r[0][0] > 30 and r[1][1] > 30 and det2(r) >= 1000)
        for seed in (7, 8)
    ]
    # rays spanning a proper subspace of the ambient space.
    + [seeded_rays(9, 1, 3, -3, 3, lambda r: True)]
    + [seeded_rays(seed, 2, n, -3, 3, lambda r: index(r) > 1) for seed, n in [(10, 3), (11, 4)]]
)


class TestParallelepipedPoints:
    @pytest.mark.parametrize("rays", PARALLELEPIPED_CASES)
    def test_matches_box_scan(self, rays):
        points = _parallelepiped_points(rays)
        assert len(points) == len(set(points))
        assert sorted(points) == box_scan(rays)
        assert len(points) == index(rays)


def reference_extreme_rays(c):
    """Extreme rays and lineality by the earlier route: the cone as a
    polyhedron with every b = 0, which ``vrep`` homogenizes again."""
    v = vrep(Polyhedron(c.ambient, tuple((row, 0) for row in c.inequalities)))
    return v.rays, v.lineality


def seeded_cone(seed):
    """Random cone in ambient dimension 1-4 with 0-6 rows. Many are not
    pointed; seeds 3 modulo 8 add the rows +-e_i, giving the zero cone."""
    rng = random.Random(seed)
    d = 1 + seed % 4
    rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(0, 6))]
    if seed % 8 == 3:
        for i in range(d):
            e = tuple(1 if j == i else 0 for j in range(d))
            rows += [e, tuple(-x for x in e)]
    return Cone(d, tuple(rows))


EXTREME_RAY_CONES = HILBERT_CONES + [Cone(0, ())] + [seeded_cone(seed) for seed in range(60)]


class TestExtremeRays:
    @pytest.mark.parametrize("c", EXTREME_RAY_CONES)
    def test_matches_polyhedron_route(self, c):
        assert extreme_rays(c) == reference_extreme_rays(c)

    def test_corpus_covers_zero_and_non_pointed(self):
        kinds = set()
        for c in EXTREME_RAY_CONES:
            rays, lineality = extreme_rays(c)
            kinds.add("non-pointed" if lineality else "pointed" if rays else "zero")
        assert kinds == {"zero", "pointed", "non-pointed"}


def reference_triangulation(rays):
    """The earlier placing triangulation: a ray extends the span when it
    raises the rational rank, and otherwise is attached over each
    boundary facet whose normal, taken within the span and pointing to
    the opposite ray of its simplex, is negative on it."""
    simplices, span_basis = [], []
    for i, r in enumerate(rays):
        if not span_basis:
            simplices = [(i,)]
            span_basis.append(r)
        elif rational_rank(span_basis + [r]) > len(span_basis):
            simplices = [s + (i,) for s in simplices]
            span_basis.append(r)
        else:
            k = len(simplices[0])
            facet_count = Counter(f for s in simplices for f in combinations(s, k - 1))
            attached = []
            for s in simplices:
                for f in combinations(s, k - 1):
                    if facet_count[f] != 1:
                        continue
                    opp = next(j for j in s if j not in f)
                    normal = facet_normal([rays[j] for j in f], span_basis, rays[opp])
                    if sum(n * x for n, x in zip(normal, r)) < 0:
                        attached.append(f + (i,))
            simplices.extend(sorted(set(attached)))
    return simplices


def facet_normal(facet_rays, span_basis, inside_ray):
    """Normal of the hyperplane spanned by ``facet_rays`` within
    span(span_basis): sum z_t b_t for z in the kernel of the matrix of
    products <b_t, f>, oriented so ``inside_ray`` is on its positive side."""
    k = len(span_basis)
    rows = [[sum(b * f for b, f in zip(basis_vec, fr)) for basis_vec in span_basis] for fr in facet_rays]
    z = integer_kernel_basis(IntMatrix.from_rows(rows, k)).row(0)
    normal = tuple(sum(z[t] * span_basis[t][j] for t in range(k)) for j in range(len(inside_ray)))
    side = sum(n * x for n, x in zip(normal, inside_ray))
    assert side != 0, "degenerate simplex"
    return normal if side > 0 else tuple(-n for n in normal)


def seeded_pointed_rays(seed, d=None):
    """Extreme rays of the cone over a seeded polyhedron in dimension d
    (1-4 by the seed when not given), in the order ``hilbert_basis``
    places them, or None when that cone is zero or not pointed. Seeds
    divisible by 3 add an equality, so the cone spans a proper subspace."""
    rng = random.Random(seed)
    d = 1 + seed % 4 if d is None else d
    rows = [
        (tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-3, 3))
        for _ in range(rng.randint(d + 1, d + 4))
    ]
    if seed % 3 == 0:
        a, b = tuple(rng.randint(-2, 2) for _ in range(d)), rng.randint(-2, 2)
        rows += [(a, b), (tuple(-x for x in a), -b)]
    rays, lineality = extreme_rays(homogenize(Polyhedron(d, tuple(rows))))
    return list(rays) if rays and not lineality else None


def span_steps(rays):
    """For each ray after the first, whether it raises the rational rank."""
    ranks = [rational_rank(rays[: i + 1]) for i in range(len(rays))]
    return [ranks[i] > ranks[i - 1] for i in range(1, len(rays))]


def span_grows_after_a_ray_inside(rays):
    steps = span_steps(rays)
    return any(not a and b for i, a in enumerate(steps) for b in steps[i + 1 :])


def sees_a_ridge_from_both_sides(rays):
    """Whether some ray inside the span is attached, by the reference
    placing, over two boundary facets that share a ridge: two of the
    simplices it adds then share a facet."""
    before = reference_triangulation(rays[:1])
    for i in range(1, len(rays)):
        after = reference_triangulation(rays[: i + 1])
        if len(after[0]) == len(before[0]):
            added = after[len(before) :]
            if any(len(set(a) & set(b)) == len(a) - 1 for a, b in combinations(added, 2)):
                return True
        before = after
    return False


# Cones of dimension 5 over seeded 4-polytopes whose span grows again
# after a ray that lies inside it.
DIM5_RAYS = [
    rays
    for rays in (seeded_pointed_rays(seed, 4) for seed in range(200, 240))
    if rays is not None and rational_rank(rays) == 5 and span_grows_after_a_ray_inside(rays)
][:4]

TRIANGULATION_RAYS = (
    [list(extreme_rays(c)[0]) for c in HILBERT_CONES]
    + [
        list(extreme_rays(homogenize(p))[0])
        for p in (unit_cube(3), unit_cube(4), standard_simplex(3), standard_simplex(4))
    ]
    + DIM5_RAYS
    + [rays for rays in map(seeded_pointed_rays, range(170)) if rays is not None]
)


class TestPlacingTriangulation:
    @pytest.mark.parametrize("rays", TRIANGULATION_RAYS)
    def test_matches_facet_normal_placing(self, rays):
        assert _placing_triangulation(rays) == reference_triangulation(rays)

    def test_corpus_covers_subspaces_and_rays_inside_the_span(self):
        kinds = set()
        for rays in TRIANGULATION_RAYS:
            if rational_rank(rays) < len(rays[0]):
                kinds.add("proper subspace")
            if not all(span_steps(rays)):
                kinds.add("ray inside the span")
            if span_grows_after_a_ray_inside(rays):
                kinds.add("span grows after a ray inside it")
        assert kinds == {"proper subspace", "ray inside the span", "span grows after a ray inside it"}
        assert any(map(sees_a_ridge_from_both_sides, TRIANGULATION_RAYS))
        assert len(DIM5_RAYS) == 4
        assert len(TRIANGULATION_RAYS) >= 100


class TestHomogenize:
    def test_unit_interval(self):
        c = homogenize(interval(0, 1))
        assert c.ambient == 2
        assert c.inequalities == ((1, 0), (-1, 1), (0, 1))

    def test_empty_interval_pins_height(self):
        # {p >= 1, p <= 0} homogenizes to the origin cone.
        c = homogenize(polyhedron(1, [((1,), 1), ((-1,), 0)]))
        assert c.inequalities == ((1, -1), (-1, 0), (0, 1))
        assert hilbert_basis(c) == []


class TestHilbertBasis:
    def test_first_quadrant(self):
        c = Cone(2, ((1, 0), (0, 1)))
        assert hilbert_basis(c) == [(0, 1), (1, 0)]

    def test_cone_over_unit_interval(self):
        c = homogenize(interval(0, 1))
        assert hilbert_basis(c) == [(0, 1), (1, 1)]

    def test_cone_over_two_interval(self):
        c = homogenize(interval(0, 2))
        assert hilbert_basis(c) == [(0, 1), (1, 1), (2, 1)]

    def test_nonunimodular_plane_cone(self):
        # cone((1,0),(1,2)) needs the interior vector (1,1).
        c = Cone(2, ((0, 1), (2, -1)))
        assert hilbert_basis(c) == [(1, 0), (1, 1), (1, 2)]

    def test_whole_plane_not_pointed(self):
        with pytest.raises(NotPointed):
            hilbert_basis(Cone(2, ()))

    def test_halfplane_not_pointed(self):
        with pytest.raises(NotPointed):
            hilbert_basis(Cone(2, ((1, 0),)))

    def test_zero_cone(self):
        c = Cone(2, ((1, 0), (-1, 0), (0, 1), (0, -1)))
        assert hilbert_basis(c) == []

    @pytest.mark.parametrize(
        "ineqs",
        [
            ((1, 0), (0, 1)),
            ((0, 1), (2, -1)),
            ((0, 1), (3, -1)),
            ((1, 0), (-1, 3)),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 3)),
        ],
    )
    def test_generates_and_minimal(self, ineqs):
        dim = len(ineqs[0])
        c = Cone(dim, ineqs)
        basis = hilbert_basis(c)
        # Completeness: every cone lattice point in a small box decomposes.
        span = range(-4, 5)
        for x in iproduct(*[span] * dim):
            if c.contains(x):
                assert decomposes(x, basis, c), x
        # Minimality: no element remains in the cone after removing another.
        for g in basis:
            assert not any(
                h != g and c.contains(tuple(a - b for a, b in zip(g, h)))
                for h in basis
            )

    def test_deterministic(self):
        c = Cone(3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 3)))
        assert hilbert_basis(c) == hilbert_basis(c)


class TestGradedGenerators:
    def test_unit_cube_4(self):
        gens = graded_generators(unit_cube(4))
        assert gens == [GradedPoint(v, 1) for v in iproduct((0, 1), repeat=4)]

    def test_unit_cube_6_against_its_lattice_points(self):
        gens = graded_generators(unit_cube(6))
        assert len(gens) == 64
        assert {g.degree for g in gens} == {1}
        assert [g.point for g in gens] == lattice_points(unit_cube(6))

    def test_det_1521_triangle(self):
        p = polyhedron(2, [((3, 1), -1), ((-2, -3), -1), ((-2, 2), -3)])
        expected = [
            ((0, -1), 1), ((0, 0), 1), ((-1, 1), 2), ((1, -2), 2), ((1, -1), 2), ((1, 0), 2),
            ((2, -1), 2), ((0, 1), 3), ((3, -1), 3), ((-1, 2), 4), ((1, -5), 4), ((-2, 3), 5),
            ((-3, 4), 6), ((1, -8), 6), ((-4, 5), 7), ((1, -11), 8), ((11, -4), 10),
        ]
        assert graded_generators(p) == [GradedPoint(v, d) for v, d in expected]

    def test_half_line(self):
        gens = graded_generators(positive_orthant(1))
        assert gens == [GradedPoint((1,), 0), GradedPoint((0,), 1)]

    def test_orthants(self):
        for d in (1, 2, 3):
            gens = graded_generators(positive_orthant(d))
            by_degree = {}
            for g in gens:
                by_degree.setdefault(g.degree, []).append(g.point)
            assert len(by_degree[0]) == d
            assert by_degree[1] == [tuple(0 for _ in range(d))]

    def test_unit_interval(self):
        gens = graded_generators(interval(0, 1))
        assert gens == [GradedPoint((0,), 1), GradedPoint((1,), 1)]

    def test_square(self):
        gens = graded_generators(SQUARE)
        assert [g.degree for g in gens] == [1, 1, 1, 1]
        assert [g.point for g in gens] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_empty_polyhedron(self):
        gens = graded_generators(polyhedron(1, [((1,), 1), ((-1,), 0)]))
        assert gens == []

    def test_point_in_zero_dims(self):
        gens = graded_generators(Polyhedron(0, (((), 0),)))
        assert gens == [GradedPoint((), 1)]


class TestHilbertFunction:
    def test_unit_interval(self):
        for r in range(6):
            assert hilbert_function(interval(0, 1), r) == r + 1

    def test_square(self):
        for r in range(5):
            assert hilbert_function(SQUARE, r) == (r + 1) ** 2

    def test_dilation_law(self):
        for m in range(1, 5):
            for r in range(5):
                assert hilbert_function(dilate(interval(0, 1), m), r) == m * r + 1
                assert hilbert_function(dilate(interval(0, 1), m), r) == hilbert_function(interval(0, 1), m * r)

    def test_product_law(self):
        p, q = interval(0, 2), standard_simplex(2)
        for r in range(4):
            assert hilbert_function(product(p, q), r) == hilbert_function(p, r) * hilbert_function(q, r)

    def test_degree_zero(self):
        assert hilbert_function(SQUARE, 0) == 1
        assert hilbert_function(polyhedron(1, [((1,), 1), ((-1,), 0)]), 0) == 1

    def test_empty_positive_degrees(self):
        p = polyhedron(1, [((1,), 1), ((-1,), 0)])
        assert hilbert_function(p, 1) == 0
        assert hilbert_function(p, 3) == 0

    def test_unbounded_raises(self):
        with pytest.raises(Unbounded):
            hilbert_function(positive_orthant(1), 1)
        with pytest.raises(Unbounded):
            hilbert_function(positive_orthant(1), 0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hilbert_function(SQUARE, -1)


class TestIntegerRule:
    def test_non_integers_rejected(self):
        # Each of these used to be truncated or to raise a bare TypeError.
        cases = {
            "degree": lambda: hilbert_function(standard_simplex(2), 1.5),
            "degree text": lambda: hilbert_function(SQUARE, "2"),
            "bound": lambda: relation_space(SQUARE, 1.5),
            "bound fraction": lambda: relation_space(SQUARE, Fraction(5, 2)),
        }
        for name, call in cases.items():
            with pytest.raises(ValueError):
                call()
                pytest.fail(name)

    def test_integral_values_accepted(self):
        p = standard_simplex(2)
        assert hilbert_function(p, 2.0) == hilbert_function(p, 2) == 6
        assert hilbert_function(p, Fraction(0)) == hilbert_function(p, 0)
        assert relation_space(p, 2.0) == relation_space(p, 2)


class TestRelationSpace:
    def test_unit_interval_no_relations(self):
        pres = relation_space(interval(0, 1), 4)
        assert [g.point for g in pres.generators] == [(0,), (1,)]
        for r in range(1, 5):
            assert pres.relations_by_degree[r].kernel_dim == 0
            assert pres.relations_by_degree[r].binomials == ()

    def test_square_degree_two(self):
        pres = relation_space(SQUARE, 2)
        assert pres.relations_by_degree[1].kernel_dim == 0
        rel = pres.relations_by_degree[2]
        assert rel.kernel_dim == 1
        assert len(rel.binomials) == 1
        left, right = rel.binomials[0]
        gens = pres.generators
        # Both sides are squarefree quadratic monomials with equal image.
        for e in (left, right):
            assert sum(e) == 2
        img = lambda e: tuple(
            sum(ei * g.point[j] for ei, g in zip(e, gens)) for j in range(2)
        )
        assert img(left) == img(right)
        assert left != right
        # The paired generators are the two diagonals of the square; the
        # lex-first exponent vector is the reference side.
        pair = lambda e: {gens[i].point for i, ei in enumerate(e) if ei}
        assert pair(left) == {(0, 1), (1, 0)}
        assert pair(right) == {(0, 0), (1, 1)}

    def test_binomial_count_matches_kernel_dim(self):
        # Generators of the doubled interval satisfy one quadric.
        pres = relation_space(interval(0, 2), 2)
        rel = pres.relations_by_degree[2]
        assert rel.kernel_dim == 1
        assert len(rel.binomials) == 1

    def test_two_simplex_dilated(self):
        pres = relation_space(dilate(standard_simplex(2), 2), 2)
        assert len(pres.generators) == 6
        assert all(g.degree == 1 for g in pres.generators)
        rel = pres.relations_by_degree[2]
        assert rel.kernel_dim == len(rel.binomials) == 21 - 15

    def test_unbounded_raises(self):
        with pytest.raises(Unbounded):
            relation_space(positive_orthant(2), 2)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            relation_space(SQUARE, 0)

    def test_empty_with_degree_zero_generators_raises(self):
        # Delta is empty, but the cone {a . x >= 0} holds the ray (0, 1).
        p = polyhedron(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 0)])
        assert graded_generators(p) == [GradedPoint((0, 1), 0)]
        with pytest.raises(Unbounded):
            relation_space(p, 2)

    def test_empty_with_line_in_cone_not_pointed(self):
        p = polyhedron(2, [((1, 0), 1), ((-1, 0), 0)])
        with pytest.raises(NotPointed):
            relation_space(p, 2)
