"""End-to-end acceptance checks, one test per criterion.

Each test is a single pass/fail line under -v.  Everything is exact:
integer and rational equality only, no tolerances.  The brute-force
oracles used in the later criteria scan monomial exponents directly
against the weight rows and never touch the polyhedral machinery they
are checking.
"""

from fractions import Fraction
from itertools import combinations, product as iproduct

from toricalc.actions import (
    betti,
    delta,
    evaluate_invariants,
    group_from_delta,
    is_semistable,
    linearized_action,
    minimal_unstable_supports,
    proj_equal,
)
from toricalc.polyhedra import (
    dilate,
    f_vector,
    interval,
    polyhedron,
    product,
    standard_simplex,
    unit_cube,
    vrep,
)
from toricalc.semigroups import (
    Cone,
    graded_generators,
    hilbert_basis,
    hilbert_function,
    homogenize,
    relation_space,
)

from oracles import polytope_invariant_count, positive_orthant, scan_invariant_count

SQUARE_ACTION = linearized_action([[1, 1, 0, 0], [0, 0, 1, 1]], (-1, 0, -1, 0))

# Deterministic action corpus for the oracle-equivalence criteria:
# n <= 4, weight and linearization entries bounded by 2.
CORPUS = [
    linearized_action(w, a)
    for w, a in [
        ([], (0,)),
        ([], (0, 0)),
        ([[1, 1]], (-1, 0)),
        ([[1, 1]], (0, 0)),
        ([[1, 1]], (1, 0)),
        ([[1, -1]], (0, 0)),
        ([[1, -1]], (-1, -1)),
        ([[2, 1]], (-1, 0)),
        ([[1, 2]], (0, -1)),
        ([[1, 1, 1]], (-1, 0, 0)),
        ([[1, 1, 1]], (-2, 0, 0)),
        ([[1, 1, -1]], (0, -1, 1)),
        ([[2, 1, 1]], (-1, 0, 0)),
        ([[1, 0, 1], [0, 1, 1]], (0, 0, -1)),
        ([[1, 1, 0, 0], [0, 0, 1, 1]], (-1, 0, -1, 0)),
        ([[1, 1, 0, 0], [0, 0, 1, 1]], (-2, 0, -1, 0)),
        ([[1, 1, 1, 1]], (-1, 0, 0, 0)),
        ([[1, 2, 0, -1]], (-1, 0, 1, 0)),
    ]
]

# Twenty pointed cones for the Hilbert-basis suite.
HILBERT_CONES = [
    Cone(1, ((1,),)),
    Cone(2, ((1, 0), (0, 1))),
    Cone(2, ((0, 1), (1, -1))),
    Cone(2, ((0, 1), (2, -1))),
    Cone(2, ((0, 1), (3, -1))),
    Cone(2, ((0, 1), (4, -1))),
    Cone(2, ((0, 1), (5, -2))),
    Cone(2, ((1, 0), (-1, 3))),
    Cone(2, ((1, 1), (1, -1))),
    Cone(2, ((2, -1), (-1, 2))),
    Cone(2, ((3, -2), (-1, 1))),
    Cone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    homogenize(unit_cube(2)),
    homogenize(product(interval(0, 1), interval(0, 2))),
    homogenize(dilate(standard_simplex(2), 2)),
    homogenize(dilate(standard_simplex(2), 3)),
    Cone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1))),
    Cone(3, ((0, 1, 0), (0, -1, 2), (1, 0, 0), (0, 0, 1))),
    Cone(3, ((1, 0, 0), (-1, 2, 0), (0, -1, 3))),
    Cone(3, ((1, 1, 1), (1, -1, 0), (0, 1, -1))),
]


def scan_semistable(action, support, rmax=3, emax=4):
    """Search for a positive-degree invariant monomial off the support."""
    rows = action.weights.entries
    zero = set(support)
    for r in range(1, rmax + 1):
        for e in iproduct(range(emax + 1), repeat=action.n):
            if any(e[i - 1] for i in zero):
                continue
            v = [ei + r * ai for ei, ai in zip(e, action.alpha)]
            if all(sum(wi * vi for wi, vi in zip(row, v)) == 0 for row in rows):
                return True
    return False


def decomposes(x, basis, cone):
    if all(v == 0 for v in x):
        return True
    for b in basis:
        rest = tuple(a - c for a, c in zip(x, b))
        if cone.contains(rest) and decomposes(rest, basis, cone):
            return True
    return False


def poly_mult(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def test_01_ray_and_orthant_generators():
    # The half-line gives one degree-0 and one degree-1 generator; the
    # orthant under the trivial group gives d degree-0 ones plus t.
    for d in (1, 2, 3):
        p = delta(linearized_action([], tuple(0 for _ in range(d))))
        assert p == positive_orthant(d)
        gens = graded_generators(p)
        degree0 = [g for g in gens if g.degree == 0]
        degree1 = [g for g in gens if g.degree == 1]
        assert (len(degree0), len(degree1), len(gens)) == (d, 1, d + 1)
        assert degree1[0].point == tuple(0 for _ in range(d))


def test_02_unit_interval_ring():
    p = interval(0, 1)
    gens = graded_generators(p)
    assert [(g.point, g.degree) for g in gens] == [((0,), 1), ((1,), 1)]
    pres = relation_space(p, 4)
    for r in range(1, 5):
        assert pres.relations_by_degree[r].kernel_dim == 0
    for r in range(6):
        assert hilbert_function(p, r) == r + 1


def test_03_dilation_veronese():
    for m in range(1, 5):
        for r in range(5):
            direct = hilbert_function(interval(0, m), r)
            assert direct == m * r + 1
            assert direct == hilbert_function(dilate(interval(0, 1), m), r)
            assert direct == hilbert_function(interval(0, 1), m * r)


def test_04_square_example():
    square = unit_cube(2)
    gens = relation_space(square, 2).generators
    assert [g.degree for g in gens] == [1, 1, 1, 1]
    rel = relation_space(square, 2).relations_by_degree[2]
    assert rel.kernel_dim == 1
    assert len(rel.binomials) == 1
    left, right = rel.binomials[0]
    support = lambda e: {gens[i].point for i, ei in enumerate(e) if ei}
    assert {frozenset(support(left)), frozenset(support(right))} == {
        frozenset({(0, 1), (1, 0)}),
        frozenset({(0, 0), (1, 1)}),
    }
    for r in range(5):
        assert hilbert_function(square, r) == (r + 1) ** 2
    assert minimal_unstable_supports(SQUARE_ACTION) == [(1, 2), (3, 4)]
    assert betti(square) == (1, 2, 1)


def test_05_scalar_action_cases():
    # n = 1: positive twist kills everything, zero twist gives a point.
    empty_case = delta(linearized_action([[1]], (1,)))
    assert graded_generators(empty_case) == []
    point_case = delta(linearized_action([[1]], (0,)))
    gens = graded_generators(point_case)
    assert [(g.point, g.degree) for g in gens] == [((), 1)]
    # n = 3: the projective plane and its quadratic Veronese model.
    plane = delta(linearized_action([[1, 1, 1]], (-1, 0, 0)))
    assert sorted(vrep(plane).vertices) == sorted(vrep(standard_simplex(2)).vertices)
    plane_gens = graded_generators(plane)
    assert [g.degree for g in plane_gens] == [1, 1, 1]
    assert betti(plane) == (1, 1, 1)
    veronese = delta(linearized_action([[1, 1, 1]], (-2, 0, 0)))
    veronese_gens = graded_generators(veronese)
    assert [g.degree for g in veronese_gens] == [1] * 6
    assert hilbert_function(veronese, 1) == 6


def test_06_betti_property_suite():
    simplices = [standard_simplex(d) for d in (1, 2, 3)]
    cubes = [unit_cube(d) for d in (1, 2, 3)]
    pairs = [
        (standard_simplex(1), standard_simplex(1)),
        (standard_simplex(1), standard_simplex(2)),
        (standard_simplex(2), standard_simplex(1)),
        (standard_simplex(1), unit_cube(2)),
    ]
    suite = simplices + cubes + [product(p, q) for p, q in pairs]
    for p in suite:
        b = betti(p)
        counts, simple = f_vector(p)
        assert simple
        assert b[0] == 1
        assert sum(b) == counts[0]
    for d in (1, 2, 3):
        assert betti(standard_simplex(d)) == tuple(1 for _ in range(d + 1))
    for p, q in pairs:
        assert betti(product(p, q)) == poly_mult(betti(p), betti(q))


def test_07_invariant_monomial_oracle():
    for action in CORPUS:
        for r in range(4):
            assert scan_invariant_count(action, r, 4) == polytope_invariant_count(
                action, r, 4
            ), (action, r)


def test_08_semistability_oracle():
    for action in CORPUS:
        coords = range(1, action.n + 1)
        for size in range(action.n + 1):
            for support in combinations(coords, size):
                assert is_semistable(action, support) == scan_semistable(
                    action, support
                ), (action, support)


def test_09_presentation_invariance():
    square = unit_cube(2)
    padded = polyhedron(square.dim, square.inequalities + (((1, 0), -1),))
    assert graded_generators(padded) == graded_generators(square)
    for r in range(5):
        assert hilbert_function(padded, r) == hilbert_function(square, r)
    lean, fat = relation_space(square, 3), relation_space(padded, 3)
    for r in range(1, 4):
        assert (
            fat.relations_by_degree[r].kernel_dim
            == lean.relations_by_degree[r].kernel_dim
        )
    # Semistability only changes through the re-indexed support universe:
    # supports over the original four coordinates answer identically.
    act4 = SQUARE_ACTION
    act5 = group_from_delta(padded)
    assert act5.n == 5
    for size in range(5):
        for support in combinations(range(1, 5), size):
            assert is_semistable(act5, support) == is_semistable(act4, support)
    # The added inequality is slack everywhere, so its own face is empty.
    assert not is_semistable(act5, (5,))


def test_10_hilbert_basis_suite():
    assert len(HILBERT_CONES) == 20
    for cone in HILBERT_CONES:
        basis = hilbert_basis(cone)
        span = range(-3, 4)
        for x in iproduct(*[span] * cone.ambient):
            if cone.contains(x):
                assert decomposes(x, basis, cone), (cone, x)
        for g in basis:
            assert not any(
                h != g and cone.contains(tuple(a - b for a, b in zip(g, h)))
                for h in basis
            ), (cone, g)


def test_11_orbit_separation():
    x = (1, 2, 3, 4)
    lam = (2, 2, 5, 5)
    moved = tuple(li * xi for li, xi in zip(lam, x))
    vx = evaluate_invariants(SQUARE_ACTION, x, 2)
    vmoved = evaluate_invariants(SQUARE_ACTION, moved, 2)
    assert proj_equal(vx, vmoved)
    assert proj_equal(vmoved, vx)
    va = evaluate_invariants(SQUARE_ACTION, (1, 1, 1, 1), 2)
    vb = evaluate_invariants(SQUARE_ACTION, (1, 1, 1, 2), 2)
    assert not proj_equal(va, vb)
    assert Fraction(10) ** 1 * vx[0][0] == vmoved[0][0]
