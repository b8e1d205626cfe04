"""Cones over polyhedra, Hilbert bases, Hilbert functions, relations.

The decomposition oracle used here is an exhaustive bounded search that
never consults the triangulation machinery it is checking.
"""

import gc
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import factorial, gcd, prod
from operator import mul
from pathlib import Path

import pytest

from toricalc.errors import NotPointed, Unbounded
from toricalc.jsonio import dump_canonical, generators_to_json, polyhedron_to_json, presentation_to_json
from toricalc.lattice import IntMatrix, _left_kernel, invariant_factors_from, snf
from toricalc.polyhedra import (
    Polyhedron,
    dilate,
    interval,
    lattice_points,
    polyhedron,
    product,
    standard_simplex,
    unit_cube,
)
from toricalc import polyhedra, semigroups
from toricalc.polyhedra import _triangulation, is_bounded, is_empty, vrep
from toricalc.semigroups import (
    Cone,
    GradedPoint,
    _monomials,
    _packing,
    _parallelepiped_points,
    graded_generators,
    hilbert_basis,
    hilbert_function,
    homogenize,
    relation_space,
)

from oracles import extreme_rays, positive_orthant, rational_det, rational_rank, solve_rational, transpose
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
    return prod(invariant_factors_from(snf(IntMatrix(rays))))


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


# Square ray matrices of size 2 to 4 with index above 1, whose points
# come from the adjugate.
SQUARE_CASES = [seeded_rays(40 + 4 * k + j, k, k, -3, 3, lambda r: index(r) > 1) for k in (2, 3, 4) for j in range(4)]


class TestParallelepipedPoints:
    @pytest.mark.parametrize("rays", PARALLELEPIPED_CASES)
    def test_matches_box_scan(self, rays):
        points = _parallelepiped_points(rays)
        assert len(points) == len(set(points))
        assert sorted(points) == box_scan(rays)
        assert len(points) == index(rays)

    @pytest.mark.parametrize("rays", SQUARE_CASES)
    def test_adjugate_matches_smith_form(self, rays):
        # A zero coordinate appended to every ray leaves the points as they
        # are, but the matrix is no longer square, so its points come from
        # the Smith form instead of the adjugate.
        points = _parallelepiped_points(rays)
        padded = _parallelepiped_points([r + (0,) for r in rays])
        assert sorted(points) == sorted(x[:-1] for x in padded)
        assert len(points) == len(set(points)) == index(rays)


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
    z = _left_kernel(transpose(IntMatrix(rows, k)))[1].entries[0]
    normal = tuple(sum(z[t] * span_basis[t][j] for t in range(k)) for j in range(len(inside_ray)))
    side = sum(n * x for n, x in zip(normal, inside_ray))
    assert side != 0, "degenerate simplex"
    return normal if side > 0 else tuple(-n for n in normal)


def seeded_pointed_cone(seed, d=None):
    """The cone over a seeded polyhedron in dimension d (1-4 by the seed
    when not given), or None when that cone is zero or not pointed. Seeds
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
    c = homogenize(Polyhedron(d, tuple(rows)))
    rays, lineality = extreme_rays(c)
    return c if rays and not lineality else None


def sorted_rays(c):
    """The extreme rays of a cone, in the order ``hilbert_basis`` numbers them."""
    return list(extreme_rays(c)[0])


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
DIM5_CONES = [
    c
    for c in (seeded_pointed_cone(seed, 4) for seed in range(200, 240))
    if c is not None and rational_rank(sorted_rays(c)) == 5 and span_grows_after_a_ray_inside(sorted_rays(c))
][:4]

TRIANGULATION_CONES = (
    list(HILBERT_CONES)
    + [homogenize(p) for p in (unit_cube(3), unit_cube(4), standard_simplex(3), standard_simplex(4))]
    + DIM5_CONES
    + [c for c in map(seeded_pointed_cone, range(170)) if c is not None]
)
TRIANGULATION_RAYS = [sorted_rays(c) for c in TRIANGULATION_CONES]
# One case per cone, named after its entry of TRIANGULATION_RAYS.
TRIANGULATION_CASES = [pytest.param(c, id=f"rays{i}") for i, c in enumerate(TRIANGULATION_CONES)]


def normalized_volume(c, rays, simplices):
    """Sum over the simplices of prod d_i / prod g(r_i), where prod d_i is
    the simplex's lattice index and g the grading of ``hilbert_basis`` (the
    sum of the inequality rows). This is the normalized volume of the
    cone's slice at g = 1, so every triangulation of the cone gives it."""
    grading = [sum(col) for col in zip(*c.inequalities)]
    g = lambda r: sum(w * x for w, x in zip(grading, r))
    return sum(Fraction(index([rays[i] for i in s]), prod(g(rays[i]) for i in s)) for s in simplices)


class TestPlacingTriangulation:
    """The pulling triangulation against the facet-normal placing of
    ``reference_triangulation``: two triangulations of one cone cover it
    with the same normalized volume."""

    @pytest.mark.parametrize("c", TRIANGULATION_CASES)
    def test_matches_facet_normal_placing(self, c):
        rays, simplices = _triangulation(c)
        assert list(rays) == sorted_rays(c)
        reference = reference_triangulation(list(rays))
        assert normalized_volume(c, rays, simplices) == normalized_volume(c, rays, reference)

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
        assert len(DIM5_CONES) == 4
        assert len(TRIANGULATION_RAYS) >= 100


class TestPullingTriangulation:
    @pytest.mark.parametrize("c", TRIANGULATION_CASES)
    def test_simplices_are_independent(self, c):
        rays, simplices = _triangulation(c)
        assert simplices
        for s in simplices:
            assert list(s) == sorted(set(s))
            assert rational_rank([rays[i] for i in s]) == len(s)
        assert len(set(simplices)) == len(simplices)

    @pytest.mark.parametrize("c", TRIANGULATION_CASES)
    def test_covers_seeded_combinations(self, c):
        rays, simplices = _triangulation(c)
        rng = random.Random(len(rays))
        for _ in range(10):
            x = [0] * c.ambient
            for r in rays:
                k = rng.randint(0, 3)
                x = [a + k * b for a, b in zip(x, r)]
            solutions = (
                solve_rational([[rays[i][j] for i in s] for j in range(c.ambient)], x) for s in simplices
            )
            assert any(t is not None and min(t) >= 0 for t in solutions), x

    def test_simplicial_cone_lists_no_facets(self, monkeypatch):
        # A cone whose ray count equals its rank is its own triangulation,
        # so its tight sets are never built.
        calls = []
        tight_sets = polyhedra._tight_sets
        monkeypatch.setattr(polyhedra, "_tight_sets", lambda *a: calls.append(a) or tight_sets(*a))
        flat_triangle = polyhedron(3, [((0, 0, 1), 0), ((0, 0, -1), 0), ((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), -2)])
        for p in (reeve(3), standard_simplex(3), interval(0, 4), flat_triangle):
            rays, simplices = _triangulation(homogenize(p))
            assert simplices == [tuple(range(len(rays)))]
        assert calls == []
        rays, simplices = _triangulation(homogenize(SQUARE))
        assert len(simplices) == 2 and len(calls) == 1

    @pytest.mark.parametrize("k", range(1, 6))
    def test_unit_cube_unimodular(self, k):
        # The cube is compressed, so every pulling triangulation of it is
        # unimodular (Sullivant, Tohoku Math. J. 58 (2006)): k! simplices
        # of normalized volume 1.
        rays, simplices = _triangulation(homogenize(unit_cube(k)))
        assert len(simplices) == factorial(k)
        assert all(index([rays[i] for i in s]) == 1 for s in simplices)


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
    @pytest.mark.parametrize("p", [unit_cube(2), unit_cube(3), dilate(standard_simplex(2), 3)], ids=str)
    def test_no_reference_cycle_left(self, p):
        # The pulling triangulation of a non-simplicial cone recurses
        # through a plain function, so nothing is left for the cycle
        # collector; the fresh copy has no cached pass.
        p = polyhedron(p.dim, p.inequalities)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            graded_generators(p)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

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

    def test_lattice_triangle_89_97(self):
        # A lattice polygon is normal, so the cone over it is generated in
        # degree 1 by its lattice points; Pick's theorem counts them as
        # area + boundary / 2 + 1 = 8633 / 2 + 187 / 2 + 1.
        p = polygon([(0, 0), (89, 0), (0, 97)])
        gens = graded_generators(p)
        assert len(gens) == 4411 == (89 * 97 + 89 + 97 + gcd(89, 97)) // 2 + 1
        assert {g.degree for g in gens} == {1}
        assert [g.point for g in gens] == lattice_points(p)

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

    def test_kept_with_the_cone_and_returned_as_a_new_list(self):
        p = polyhedron(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -3)])
        first = graded_generators(p)
        assert "_graded_generators" in vars(homogenize(p))
        expected = list(first)
        first.clear()
        second = graded_generators(p)
        assert second == expected and second is not first
        second.append(GradedPoint((9, 9), 9))
        second.reverse()
        assert graded_generators(p) == expected


def seeded_unbounded_polyhedra(count):
    """The first ``count`` nonempty, unbounded, pointed polyhedra drawn
    from ``random.Random(11)``: dims 1-3, 1-5 inequalities, coefficients
    in [-3, 3]."""
    rng = random.Random(11)
    out = []
    while len(out) < count:
        d = rng.randint(1, 3)
        rows = [(tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
        p = polyhedron(d, rows)
        v = vrep(p)
        if not is_empty(p) and v.rays and not v.lineality:
            out.append(p)
    return out


BASE_RING_CASES = [pytest.param(p, id=f"unbounded{i}") for i, p in enumerate(seeded_unbounded_polyhedra(200))]


class TestBaseRing:
    # The height-0 part of the cone over p is a face of it, the recession
    # cone {a . x >= 0}, and a face's Hilbert basis is the cone's basis
    # elements that lie in it. So the degree-0 graded generators generate
    # the base ring R_0. The triangulation here runs on cones with rays of
    # height 0.
    @pytest.mark.parametrize("p", BASE_RING_CASES)
    def test_recession_basis_is_the_degree_zero_part(self, p):
        recession = Cone(p.dim, tuple(a for a, _ in p.inequalities))
        assert hilbert_basis(recession) == [g.point for g in graded_generators(p) if g.degree == 0]

    def test_corpus_covers_every_dimension(self):
        assert {p.values[0].dim for p in BASE_RING_CASES} == {1, 2, 3}


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

    def test_scan_tests_only_rows_the_box_can_violate(self, monkeypatch):
        # The box of 10 * standard_simplex(3) is [0, 10]^3, which satisfies
        # the three rows x_j >= 0, so only x_1 + x_2 + x_3 <= 10 is tested,
        # once per box point.
        p = standard_simplex(3)
        hilbert_function(p, 1)
        calls = []
        dot = polyhedra._dot
        monkeypatch.setattr(polyhedra, "_dot", lambda a, x: calls.append(a) or dot(a, x))
        assert hilbert_function(p, 10) == 286
        assert len(calls) == 11**3
        assert set(calls) == {(-1, -1, -1)}


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

    def test_degree_two_generators_with_negative_coordinates(self):
        # The fibers are keyed by packed images, shifted by the degree times
        # an offset: a fixed offset per generator would split fibers here,
        # where the degrees differ and every coordinate goes negative.
        p = moved(reeve(2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], (-3, -1, -2))
        pres = relation_space(p, 4)
        assert {g.degree for g in pres.generators} == {1, 2}
        assert all(min(g.point) < 0 for g in pres.generators)
        monomials = [1] + [0] * 4
        for g in pres.generators:
            for r in range(g.degree, 5):
                monomials[r] += monomials[r - g.degree]
        kernels = [pres.relations_by_degree[r].kernel_dim for r in range(1, 5)]
        assert kernels == [monomials[r] - hilbert_function(p, r) for r in range(1, 5)]
        # The one relation: the degree-2 generator squared is the product
        # of the four vertices, two monomials of different generator degrees.
        assert kernels == [0, 0, 0, 1]

    def test_degree_one_builds_no_monomials(self, monkeypatch):
        # Each degree-1 monomial is one generator, and the generators are
        # distinct, so degree 1 has no relations and needs no keys.
        p = dilate(standard_simplex(2), 44)
        graded_generators(p)

        def refuse(*args):
            raise AssertionError("built at bound 1")

        monkeypatch.setattr(semigroups, "_monomials", refuse)
        monkeypatch.setattr(semigroups, "_packing", refuse)
        pres = relation_space(p, 1)
        assert len(pres.generators) == 1035
        assert pres.relations_by_degree == {1: semigroups.DegreeRelations(0, ())}

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

    def test_degree_zero_generators_name_the_cone_of_the_inequalities(self):
        # is_bounded holds, since Delta is empty; what fails is that the
        # cone {a . x >= 0} is not {0}, which the message must say.
        p = polyhedron(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 0)])
        assert is_bounded(p)
        with pytest.raises(Unbounded, match=r"cone \{a \. x >= 0\} of the inequality system to be \{0\}"):
            relation_space(p, 2)
        with pytest.raises(Unbounded, match="bounded polyhedron"):
            relation_space(positive_orthant(2), 2)

    def test_empty_with_line_in_cone_not_pointed(self):
        # Delta is empty, and the cone {a . x >= 0} holds the line x_1 = 0.
        p = polyhedron(2, [((1, 0), 1), ((-1, 0), 0)])
        assert is_empty(p)
        for bound in (1, 2):
            with pytest.raises(NotPointed):
                relation_space(p, bound)


def polygon(vertices):
    """The lattice polygon with the given vertices, listed in cyclic order:
    one primitive inequality per edge, oriented towards the vertex that
    follows the edge."""
    ineqs = []
    for i, (a, b) in enumerate(zip(vertices, vertices[1:] + vertices[:1])):
        c = vertices[(i + 2) % len(vertices)]
        g = gcd(a[1] - b[1], b[0] - a[0])
        n = ((a[1] - b[1]) // g, (b[0] - a[0]) // g)
        if n[0] * (c[0] - a[0]) + n[1] * (c[1] - a[1]) < 0:
            n = (-n[0], -n[1])
        ineqs.append((n, n[0] * a[0] + n[1] * a[1]))
    return polyhedron(2, ineqs)


def moved(p, m, t, rng=None):
    """The image of p under x -> m^-1 x + t for unimodular m, with its
    inequalities shuffled by ``rng`` when one is given."""
    ineqs = []
    for a, b in p.inequalities:
        a = tuple(sum(m[i][j] * a[i] for i in range(p.dim)) for j in range(p.dim))
        ineqs.append((a, b + sum(x * y for x, y in zip(a, t))))
    if rng is not None:
        rng.shuffle(ineqs)
    return polyhedron(p.dim, ineqs)


def reeve(r):
    """The tetrahedron (0,0,0), (1,0,0), (0,1,0), (1,1,r): its cone is one
    simplex of determinant r, with no lattice point but its vertices."""
    return polyhedron(3, [((0, 0, 1), 0), ((0, r, -1), 0), ((r, 0, -1), 0), ((-r, -r, 1), -r)])


SMALL_POLYGONS = [
    unit_cube(2),
    product(interval(0, 1), interval(0, 2)),
    dilate(standard_simplex(2), 2),
    dilate(standard_simplex(2), 3),
    polygon([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]),
    polygon([(0, 0), (2, 1), (1, 2)]),
]
SMALL_SOLIDS = [
    unit_cube(3),
    product(standard_simplex(2), interval(0, 1)),
    dilate(standard_simplex(3), 2),
    reeve(2),
    reeve(3),
]


def small_cone_corpus(seed=28):
    """About 100 small polyhedra like those of the benchmark's ring jobs:
    lattice triangles in [0, b]^2 for b = 2..5, unimodular images of small
    polygons, and 3-D cubes, prisms, dilated simplices and tetrahedra with
    a non-unimodular simplex under signed permutations of the coordinates."""
    rng = random.Random(seed)
    out = []
    for b in (2, 3, 4, 5):
        while len(out) < 12 * (b - 1):
            v = [(rng.randint(0, b), rng.randint(0, b)) for _ in range(3)]
            if (v[1][0] - v[0][0]) * (v[2][1] - v[0][1]) != (v[1][1] - v[0][1]) * (v[2][0] - v[0][0]):
                out.append(polygon(v))
    for k in range(24):
        out.append(moved(SMALL_POLYGONS[k % len(SMALL_POLYGONS)], unimodular_rays(100 + k, 2),
                         [rng.randint(-2, 2) for _ in range(2)], rng))
    for k in range(30):
        perm = rng.sample(range(3), 3)
        m = [[rng.choice((-1, 1)) * int(perm[i] == j) for j in range(3)] for i in range(3)]
        out.append(moved(SMALL_SOLIDS[k % len(SMALL_SOLIDS)], m, [0, 0, 0], rng))
    return out


SMALL_CONE_CORPUS = small_cone_corpus()
SMALL_CONE_GOLDEN = Path(__file__).resolve().parent / "data" / "small_cone_corpus.json"


def small_cone_corpus_text():
    """For every corpus polyhedron p, one line of canonical JSON: p, then
    ``graded_generators(p)`` and ``relation_space(p, 3)`` as the CLI
    writes them."""
    lines = []
    for p in SMALL_CONE_CORPUS:
        entry = {
            "polytope": polyhedron_to_json(p),
            "generators": generators_to_json(graded_generators(p)),
            "relations": presentation_to_json(relation_space(p, 3)),
        }
        lines.append(dump_canonical(entry))
    return "[\n" + ",\n".join(lines) + "\n]\n"


class TestSmallConeCorpus:
    def test_matches_golden_file(self):
        assert small_cone_corpus_text() == SMALL_CONE_GOLDEN.read_text()

    def test_corpus_coverage(self):
        dets = []
        for p in SMALL_CONE_CORPUS:
            rays, simplices = _triangulation(homogenize(p))
            dets.append(max(index([rays[i] for i in s]) for s in simplices))
        assert 90 <= len(SMALL_CONE_CORPUS) <= 110
        assert {p.dim for p in SMALL_CONE_CORPUS} == {2, 3}
        assert any(d > 1 for p, d in zip(SMALL_CONE_CORPUS, dets) if p.dim == 3)
        assert any(d == 1 for p, d in zip(SMALL_CONE_CORPUS, dets) if p.dim == 3)
        assert any(d > 1 for p, d in zip(SMALL_CONE_CORPUS, dets) if p.dim == 2)
        assert any(g.degree > 1 for p in SMALL_CONE_CORPUS for g in graded_generators(p))

    def test_ray_only_basis_exactly_when_every_simplex_has_index_one(self, monkeypatch):
        # The basis is the rays exactly when every simplex has index 1.
        # Every corpus polyhedron is a lattice polytope, whose basis lies in
        # degrees up to max(1, dim - 1), so a polygon's basis is its degree-1
        # points and is never reduced; a solid is reduced exactly when some
        # simplex has index above 1.
        reduced = []
        reduce = semigroups._reduced
        monkeypatch.setattr(semigroups, "_reduced", lambda *a: reduced.append(a) or reduce(*a))
        outcomes = set()
        for p in SMALL_CONE_CORPUS:
            c = homogenize(polyhedron(p.dim, p.inequalities))
            rays, simplices = _triangulation(c)
            assert all(r[-1] == 1 for r in rays)
            unimodular = all(index([rays[i] for i in s]) == 1 for s in simplices)
            before = len(reduced)
            basis = hilbert_basis(c)
            assert unimodular == (basis == list(rays))
            assert (len(reduced) > before) == (not unimodular and p.dim == 3)
            outcomes.add((unimodular, p.dim))
        assert outcomes == {(True, 2), (False, 2), (True, 3), (False, 3)}


def relation_corpus(seed=32):
    """64 bounded polytopes of dimension 1 to 3 with negative coordinates:
    {q_i x_i >= -b_i for each i, s . x <= c} for small q_i >= 1, b_i >= 0,
    s_i >= 1 and c >= 0, kept when nonempty with at most 7 generators, so
    that ``relation_space(p, 3)`` stays small. A q_i > 1 gives rational
    vertices, and so generators of degree 2 and more."""
    rng = random.Random(seed)
    out = []
    for dim, count in ((1, 16), (2, 24), (3, 24)):
        top = 3 if dim < 3 else 1
        kept = 0
        while kept < count:
            ineqs = [(tuple(rng.randint(1, top + 1) * (i == j) for j in range(dim)), -rng.randint(0, top))
                     for i in range(dim)]
            ineqs.append((tuple(-rng.randint(1, 2) for _ in range(dim)), -rng.randint(0, top)))
            rng.shuffle(ineqs)
            p = polyhedron(dim, ineqs)
            if not is_empty(p) and len(graded_generators(p)) <= 7:
                out.append(p)
                kept += 1
    return out


RELATION_CORPUS = relation_corpus()
RELATION_GOLDEN = Path(__file__).resolve().parent / "data" / "relation_corpus.json"


def relation_corpus_text():
    """For every corpus polytope p, one line of canonical JSON: p, then
    ``relation_space(p, 3)`` as the CLI writes it, computed on a fresh
    copy of p."""
    lines = []
    for p in RELATION_CORPUS:
        fresh = polyhedron(p.dim, p.inequalities)
        entry = {"polytope": polyhedron_to_json(p), "relations": presentation_to_json(relation_space(fresh, 3))}
        lines.append(dump_canonical(entry))
    return "[\n" + ",\n".join(lines) + "\n]\n"


class TestRelationCorpus:
    def test_matches_golden_file(self):
        assert relation_corpus_text() == RELATION_GOLDEN.read_text()

    def test_corpus_coverage(self):
        assert {p.dim for p in RELATION_CORPUS} == {1, 2, 3}
        assert 60 <= len(RELATION_CORPUS) <= 80
        assert RELATION_GOLDEN.stat().st_size <= 200_000
        # A generator of degree 2 or more with a negative coordinate, and
        # some relations to key.
        assert any(g.degree >= 2 and min(g.point) < 0 for p in RELATION_CORPUS for g in graded_generators(p))
        assert any(relation_space(p, 3).relations_by_degree[3].kernel_dim for p in RELATION_CORPUS)

    def test_more_generators_than_the_recursion_limit(self):
        # Bound 1 only: degree 2 alone has 536,130 monomials of 1035 entries.
        pres = relation_space(dilate(standard_simplex(2), 44), 1)
        assert len(pres.generators) == 1035
        assert pres.relations_by_degree[1] == semigroups.DegreeRelations(0, ())


def brute_monomials(gens, total):
    """Every exponent vector over ``gens`` with degree ``total``, by a
    scan of the whole box [0, total]^n, with its image."""
    dim = len(gens[0].point)
    out = []
    for e in iproduct(range(total + 1), repeat=len(gens)):
        if sum(k * g.degree for k, g in zip(e, gens)) == total:
            out.append((e, tuple(sum(k * g.point[j] for k, g in zip(e, gens)) for j in range(dim))))
    return out


def offset_rows(gens):
    """Rows of a cone that holds every (point, degree) of ``gens``: for
    each coordinate j, x_j - L_j * degree >= 0 with L_j the least
    floor(x_j / degree), then degree >= 0; and the offsets L."""
    dim = len(gens[0].point)
    offset = [min(g.point[j] // g.degree for g in gens) for j in range(dim)]
    rows = [tuple(int(i == j) for i in range(dim)) + (-offset[j],) for j in range(dim)]
    return rows + [(0,) * dim + (1,)], offset


class TestMonomials:
    @staticmethod
    def check_layers(gens, bound):
        """Every layer of ``_monomials`` up to ``bound`` against the brute
        force, with each field of the packed image decoded."""
        rows, offset = offset_rows(gens)
        vectors = [g.point + (g.degree,) for g in gens]
        w, columns = _packing(rows, vectors, bound)
        keys = [(sum(map(mul, columns, v)), g.degree) for v, g in zip(vectors, gens)]
        layers = list(_monomials(keys, bound))
        assert len(layers) == bound
        for total, layer in enumerate(layers, 1):
            got = []
            for e, image in layer:
                fields = [image >> (i * w) & ((1 << w) - 1) for i in range(len(rows))]
                assert fields[-1] == total
                got.append((e, tuple(x + total * o for x, o in zip(fields, offset))))
            assert got == brute_monomials(gens, total)
            assert [e for e, _ in got] == sorted({e for e, _ in got})

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 3)
        gens = [GradedPoint(tuple(rng.randint(-3, 3) for _ in range(dim)), rng.choice((1, 1, 2, 3)))
                for _ in range(rng.randint(1, 5))]
        gens[rng.randrange(len(gens))] = GradedPoint(gens[0].point, 2 + seed % 2)
        self.check_layers(gens, 4)

    @pytest.mark.parametrize("degrees", [(1, 3), (2, 3), (3, 1, 3), (3, 2, 2)])
    def test_layers_dropped_while_a_later_one_reads_three_back(self, degrees):
        # Only the last 3 layers are kept, and degree r still reads r - 3.
        rng = random.Random(str(degrees))
        gens = [GradedPoint((rng.randint(-3, 3), rng.randint(-3, 3)), d) for d in degrees]
        self.check_layers(gens, 9)

    def test_no_generators(self):
        assert list(_monomials([], 5)) == [[]] * 5

    def test_more_generators_than_the_recursion_limit(self):
        n = 1100
        got = next(_monomials([(i, 1) for i in range(n)], 1))
        assert got == [(tuple(int(i == j) for i in range(n)), j) for j in reversed(range(n))]

    def test_two_generators_to_a_high_total(self):
        *_, got = _monomials([(1, 1), (1000, 1)], 1500)
        assert got == [((k, 1500 - k), k + 1000 * (1500 - k)) for k in range(1501)]
