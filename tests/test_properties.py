"""Randomized invariants for the normal forms, polyhedra, and actions.

Sizes stay small on purpose: the point is algebraic identities holding
on awkward inputs, not stress testing.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toricalc.actions import (
    betti,
    delta,
    evaluate_invariants,
    is_semistable,
    linearized_action,
    minimal_unstable_supports,
    proj_equal,
)
from toricalc.errors import AllZero, EmptyPolyhedron, LinealityPresent, Unbounded
from toricalc.lattice import (
    IntMatrix,
    _hnf,
    _left_kernel,
    invariant_factors_from,
    snf,
)
from toricalc import semigroups
from toricalc.polyhedra import (
    Cone,
    Polyhedron,
    _dd_pair,
    _facets,
    _tight_sets,
    _triangulation,
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
from toricalc.semigroups import (
    _packing,
    _parallelepiped_points,
    graded_generators,
    hilbert_basis,
    hilbert_function,
    relation_space,
)

from oracles import (
    det,
    hermite_blocks,
    evaluate_by_fractions,
    extreme_rays,
    f_vector_by_frozensets,
    hilbert_basis_by_differences,
    hilbert_function_by_dilation,
    homogenized_rows,
    matmul,
    normals,
    polytope_invariant_count,
    positive_orthant,
    rational_det,
    rational_rank,
    same_quotient_point,
    scan_invariant_count,
    semistable_by_weight_cone,
    transpose,
)
from test_polyhedra import HELD_CORPUS, held_corpus_polyhedron, reference_face
from test_acceptance import HILBERT_CONES
from test_semigroups import EXTREME_RAY_CONES, TRIANGULATION_CONES, seeded_unbounded_polyhedra

lax = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
geometry = settings(
    deadline=None, max_examples=50, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def matrices(draw, max_dim=4, span=9):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    entry = st.integers(-span, span)
    rows = draw(
        st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return IntMatrix([tuple(r) for r in rows], ncols)


@st.composite
def unimodular_pairs(draw, n):
    """A unimodular matrix and its inverse, built from elementary moves."""
    fwd = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["add", "swap", "negate"]))
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if kind == "add" and i != j:
            c = draw(st.sampled_from([-2, -1, 1, 2]))
            for col in range(n):
                fwd[j][col] += c * fwd[i][col]
            # Undo on the inverse from the other side: inv := inv * op^-1.
            for row in range(n):
                inv[row][i] -= c * inv[row][j]
        elif kind == "swap" and i != j:
            fwd[i], fwd[j] = fwd[j], fwd[i]
            for row in range(n):
                inv[row][i], inv[row][j] = inv[row][j], inv[row][i]
        elif kind == "negate":
            fwd[i] = [-x for x in fwd[i]]
            for row in range(n):
                inv[row][i] = -inv[row][i]
    to_m = lambda rows: IntMatrix([tuple(r) for r in rows], n)
    return to_m(fwd), to_m(inv)


@st.composite
def boxed_polytopes(draw, max_dim=3):
    """Nonempty-or-not polytopes clipped to a box, so always bounded."""
    d = draw(st.integers(1, max_dim))
    bound = draw(st.integers(1, 3))
    rows = []
    for i in range(d):
        e = tuple(1 if j == i else 0 for j in range(d))
        rows.append((e, -bound))
        rows.append((tuple(-x for x in e), -bound))
    for _ in range(draw(st.integers(0, 3))):
        a = tuple(draw(st.integers(-2, 2)) for _ in range(d))
        rows.append((a, draw(st.integers(-4, 4))))
    return polyhedron(d, rows)


class TestNormalFormProperties:
    @given(matrices())
    @lax
    def test_hermite_factorization(self, m):
        # U is the right block of the Hermite form of [M | I], whose left
        # block is _hnf(m).
        d, u = hermite_blocks(m)
        assert d == _hnf(m)
        assert matmul(u, m) == d
        assert det(u) in (1, -1)

    @given(matrices(max_dim=3, span=6), st.data())
    @lax
    def test_hermite_canonical_for_row_lattice(self, m, data):
        u, _ = data.draw(unimodular_pairs(m.nrows))
        assert _hnf(matmul(u, m)) == _hnf(m)

    @given(matrices())
    @lax
    def test_smith_factorization_and_divisibility(self, m):
        nf = snf(m)
        assert matmul(matmul(nf.U, m), nf.V) == nf.D
        assert det(nf.U) in (1, -1)
        assert det(nf.V) in (1, -1)
        factors = invariant_factors_from(nf)
        assert all(f > 0 for f in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))

    @given(matrices())
    @lax
    def test_kernel_is_saturated_and_complete(self, m):
        # The kernel {v : M v = 0} as group_from_delta reads it: the left
        # kernel of the transpose.
        k = _left_kernel(transpose(m))[1]
        assert k.nrows == m.ncols - rational_rank(m.entries)
        image = matmul(m, transpose(k))
        assert all(x == 0 for col in image.entries for x in col)
        if k.nrows:
            assert all(f == 1 for f in invariant_factors_from(snf(k)))


class TestPolyhedraProperties:
    @given(boxed_polytopes())
    @geometry
    def test_vertices_satisfy_inequalities(self, p):
        rep = vrep(p)
        assert rep.rays == () and rep.lineality == ()
        for v in rep.vertices:
            for a, b in p.inequalities:
                assert sum(Fraction(ai) * vi for ai, vi in zip(a, v)) >= b

    @given(boxed_polytopes())
    @geometry
    def test_euler_relation(self, p):
        if is_empty(p):
            return
        counts, _ = f_vector(p)
        assert sum((-1) ** i * c for i, c in enumerate(counts)) == 1

    @given(boxed_polytopes())
    @geometry
    def test_poincare_duality(self, p):
        # For a simple polytope the quotient is a rationally smooth
        # projective variety: its even Betti numbers are palindromic and
        # add up to the number of torus-fixed points, the vertices.
        if is_empty(p):
            return
        counts, simple = f_vector(p)
        if not simple:
            return
        b = betti(p)
        assert b == b[::-1]
        assert sum(b) == counts[0]

    @given(boxed_polytopes(), st.data())
    @geometry
    def test_redundant_inequality_changes_nothing(self, p, data):
        a, b = p.inequalities[data.draw(st.integers(0, p.n_inequalities - 1))]
        q = polyhedron(p.dim, p.inequalities + ((a, b - 1),))
        assert sorted(vrep(p).vertices) == sorted(vrep(q).vertices)
        assert lattice_points(p) == lattice_points(q)
        if not is_empty(p):
            assert f_vector(p)[0] == f_vector(q)[0]

    @given(boxed_polytopes(max_dim=2), st.integers(1, 3), st.integers(0, 2))
    @geometry
    def test_dilation_law(self, p, m, r):
        if is_empty(p):
            return
        assert hilbert_function(dilate(p, m), r) == hilbert_function(p, m * r)

    @given(boxed_polytopes(max_dim=2), boxed_polytopes(max_dim=2), st.integers(0, 2))
    @geometry
    def test_product_law(self, p, q, r):
        if is_empty(p) or is_empty(q):
            return
        assert hilbert_function(product(p, q), r) == hilbert_function(
            p, r
        ) * hilbert_function(q, r)

    @given(boxed_polytopes(), st.data())
    @geometry
    def test_translation_invariance(self, p, data):
        t = [data.draw(st.integers(-3, 3)) for _ in range(p.dim)]
        moved = polyhedron(
            p.dim,
            [(a, b + sum(ai * ti for ai, ti in zip(a, t))) for a, b in p.inequalities],
        )
        assert len(lattice_points(p)) == len(lattice_points(moved))
        assert is_empty(p) == is_empty(moved)
        if not is_empty(p):
            assert f_vector(p) == f_vector(moved)

    @given(boxed_polytopes(), st.data())
    @geometry
    def test_unimodular_invariance(self, p, data):
        u, uinv = data.draw(unimodular_pairs(p.dim))
        # Substituting p -> p u sends each normal a to uinv a.
        image = polyhedron(
            p.dim,
            [
                (tuple(sum(uinv.entries[i][j] * a[j] for j in range(p.dim)) for i in range(p.dim)), b)
                for a, b in p.inequalities
            ],
        )
        assert len(lattice_points(p)) == len(lattice_points(image))
        if not is_empty(p):
            assert f_vector(p) == f_vector(image)

    @given(boxed_polytopes(), st.data())
    @geometry
    def test_face_monotonicity(self, p, data):
        n = p.n_inequalities
        big = data.draw(st.sets(st.integers(1, n), max_size=n))
        small = {i for i in big if data.draw(st.booleans())}
        if face(p, big) is not None:
            assert face(p, small) is not None


@st.composite
def saturated_actions(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n - 1))
    u, _ = draw(unimodular_pairs(n))
    weights = [u.entries[i] for i in range(k)]
    alpha = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    return linearized_action(weights, alpha)


def seeded_polytope(seed):
    """The box [-b, b]^d, b = 1-2 and d = 1-3, cut by up to two random
    inequalities, so bounded and sometimes empty or with fractional
    vertices."""
    rng = random.Random(seed)
    d = 1 + seed % 3
    bound = rng.randint(1, 2)
    rows = []
    for i in range(d):
        e = tuple(1 if j == i else 0 for j in range(d))
        rows.append((e, -bound))
        rows.append((tuple(-x for x in e), -bound))
    for _ in range(rng.randint(0, 2)):
        rows.append((tuple(rng.randint(-2, 2) for _ in range(d)), rng.randint(-3, 1)))
    return polyhedron(d, rows)


POLYTOPE_SEEDS = range(30)


def monomial_counts(gens, top):
    """The number of monomials of each degree 0..top in ``gens``: the
    coefficients of prod 1 / (1 - t^degree)."""
    counts = [1] + [0] * top
    for g in gens:
        for r in range(g.degree, top + 1):
            counts[r] += counts[r - g.degree]
    return counts


def relation_check_bound(p):
    """5 when p's generators have at most 20,000 monomials of degree 5,
    else 3, so that the relations stay quick to list."""
    return 5 if monomial_counts(graded_generators(p), 5)[5] <= 20_000 else 3


class TestRingProperties:
    @pytest.mark.parametrize("seed", POLYTOPE_SEEDS)
    def test_generators_reach_every_point_up_to_degree_3(self, seed):
        # The graded generators come from the cone's double description
        # and triangulation; the degree-r sums they reach must be exactly
        # the lattice points of r * p, which hilbert_function counts by
        # scanning a box.
        p = seeded_polytope(seed)
        gens = graded_generators(p)
        sums = [{(0,) * p.dim}]
        for r in range(1, 4):
            sums.append(
                {
                    tuple(x + y for x, y in zip(s, g.point))
                    for g in gens
                    if g.degree <= r
                    for s in sums[r - g.degree]
                }
            )
        for r in range(4):
            assert len(sums[r]) == hilbert_function(p, r), r

    @pytest.mark.parametrize("seed", POLYTOPE_SEEDS)
    def test_relations_count_monomials_against_the_box(self, seed):
        # relation_space counts the kernel from the fibers of the
        # monomials. Here the degree-r monomials are counted as the
        # coefficients of prod 1 / (1 - t^degree), and the lattice points
        # of r * p by hilbert_function's box scan. Bound 5 goes three
        # degrees past a degree-2 generator, so by then the monomial build
        # has dropped the layers it no longer reads.
        p = seeded_polytope(seed)
        bound = relation_check_bound(p)
        pres = relation_space(p, bound)
        monomials = monomial_counts(pres.generators, bound)
        for r in range(1, bound + 1):
            rel = pres.relations_by_degree[r]
            assert monomials[r] - hilbert_function(p, r) == rel.kernel_dim == len(rel.binomials), r

    def test_relations_reach_degree_5_on_most_seeds(self):
        bounds = [relation_check_bound(seeded_polytope(seed)) for seed in POLYTOPE_SEEDS]
        assert bounds.count(5) >= 10
        assert any(
            relation_check_bound(p) == 5 and any(g.degree > 1 for g in graded_generators(p))
            for p in map(seeded_polytope, POLYTOPE_SEEDS)
        )

    def test_polytope_corpus_covers_empty_and_fractional(self):
        kinds = set()
        for seed in POLYTOPE_SEEDS:
            p = seeded_polytope(seed)
            v = vrep(p)
            if is_empty(p):
                kinds.add("empty")
            elif all(x.denominator == 1 for vt in v.vertices for x in vt):
                kinds.add("lattice")
            else:
                kinds.add("fractional")
        assert kinds == {"empty", "lattice", "fractional"}


# Polyhedra whose degree-0 and higher counts take different branches:
# empty ones whose cone {a . x >= 0} is {0}, a ray or a line, unbounded
# ones with and without lineality, and the two polyhedra in dimension 0.
HILBERT_FIXTURES = {
    "empty, cone {0}": polyhedron(1, [((1,), 1), ((-1,), 0)]),
    "empty, cone a ray": polyhedron(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 0)]),
    "empty, cone a line": polyhedron(2, [((1, 0), 1), ((-1, 0), 0)]),
    "unbounded": polyhedron(2, [((1, 0), 1), ((0, 1), -1), ((-1, 1), -3)]),
    "orthant": positive_orthant(2),
    "lineality": polyhedron(2, [((1, 0), 0), ((-1, 0), -2)]),
    "dim 0": Polyhedron(0, ()),
    "dim 0, empty": polyhedron(0, [((), 1)]),
    # The box scan tests only the rows its box can violate: x = r / 2 has
    # no integer at odd r, so the box is empty there; a tilted rectangle has
    # no row in one variable; and 2x >= 1 holds on the box rounded inward.
    "half-integral segment": polyhedron(2, [((2, 0), 1), ((-2, 0), -1), ((0, 1), 0), ((0, -1), -1)]),
    "tilted rectangle": polyhedron(2, [((1, 1), 0), ((-1, -1), -2), ((1, -1), -1), ((-1, 1), -2)]),
    "fractional vertex": polyhedron(2, [((2, 0), 1), ((0, 1), 0), ((-1, -1), -3)]),
}


def count_or_error(count, p, r):
    try:
        return count(p, r)
    except Unbounded as e:
        return type(e), str(e)


class TestHilbertFunctionOracle:
    # hilbert_function scans r * p from the pass of p; the oracle counts
    # over a box that Fourier-Motzkin elimination reads from the
    # inequalities {a . x >= r * b}, with no pass at all.
    @pytest.mark.parametrize("seed", POLYTOPE_SEEDS)
    def test_matches_dilated_copy_on_seeds(self, seed):
        p = seeded_polytope(seed)
        for r in range(7):
            assert count_or_error(hilbert_function, p, r) == count_or_error(hilbert_function_by_dilation, p, r), r

    @pytest.mark.parametrize("p", HILBERT_FIXTURES.values(), ids=HILBERT_FIXTURES.keys())
    def test_matches_dilated_copy_on_fixtures(self, p):
        for r in range(7):
            assert count_or_error(hilbert_function, p, r) == count_or_error(hilbert_function_by_dilation, p, r), r

    def test_fixtures_cover_every_outcome(self):
        outcomes = {
            name: [count_or_error(hilbert_function, p, r) for r in (0, 1)] for name, p in HILBERT_FIXTURES.items()
        }
        error = (Unbounded, "lattice points of an unbounded polyhedron")
        assert outcomes == {
            "empty, cone {0}": [1, 0],
            "empty, cone a ray": [error, 0],
            "empty, cone a line": [error, 0],
            "unbounded": [error, error],
            "orthant": [error, error],
            "lineality": [error, error],
            "dim 0": [1, 1],
            "dim 0, empty": [1, 0],
            "half-integral segment": [1, 0],
            "tilted rectangle": [1, 6],
            "fractional vertex": [1, 6],
        }

    def test_empty_box_at_odd_degrees(self):
        p = HILBERT_FIXTURES["half-integral segment"]
        assert [hilbert_function(p, r) for r in range(5)] == [1, 0, 3, 0, 5]


def seeded_action(seed):
    """W = [I_k | B] with its columns permuted (torsion-free by
    construction), n = 3-6, B in [-1, 2] and alpha in [-3, 1], so the
    polyhedron is sometimes empty, sometimes unbounded."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    k = rng.randint(1, n - 1)
    rows = [[1 if j == i else 0 for j in range(k)] + [rng.randint(-1, 2) for _ in range(n - k)] for i in range(k)]
    perm = list(range(n))
    rng.shuffle(perm)
    weights = [[row[c] for c in perm] for row in rows]
    return linearized_action(weights, [rng.randint(-3, 1) for _ in range(n)])


# Seeded actions (empty, bounded and unbounded polyhedra) plus actions of
# the trivial group, k = 0, where every support is semistable.
WEIGHT_CONE_CORPUS = [seeded_action(seed) for seed in range(24)] + [
    linearized_action([], alpha) for alpha in ((), (1,), (-2, 0, 1))
]


def with_dependent_row(act, seed):
    """``act`` with one more weight row, an integer combination of its
    rows put in at a seeded place; the rows generate the same torus."""
    rng = random.Random(seed)
    rows = [list(row) for row in act.weights.entries]
    coeffs = [rng.choice((-2, -1, 1, 2)) for _ in rows]
    extra = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(act.n)]
    rows.insert(rng.randint(0, len(rows)), extra)
    return linearized_action(rows, act.alpha)


def top_exponent(act):
    """The largest exponent p . a_i - alpha_i at a vertex p of a nonempty
    bounded delta, so that every invariant of degree r has exponents at
    most r times it."""
    p = delta(act)
    return max(sum(x * y for x, y in zip(a, v)) - b for v in vrep(p).vertices for a, b in p.inequalities)


DEPENDENT_SEEDS = range(40)


class TestDependentRows:
    # A combination of the rows adds nothing to the group, so the quotient
    # keeps its dimension, the unstable supports and, up to a unimodular
    # change of coordinates, delta.
    @pytest.mark.parametrize("seed", DEPENDENT_SEEDS)
    def test_dependent_row_keeps_the_quotient(self, seed):
        act = seeded_action(seed)
        dep = with_dependent_row(act, seed)
        assert dep.weights.nrows == act.weights.nrows + 1
        assert delta(dep).dim == delta(act).dim
        assert minimal_unstable_supports(dep) == minimal_unstable_supports(act)
        for r in range(3):
            assert scan_invariant_count(dep, r, 2) == polytope_invariant_count(dep, r, 2), r
        p, p2 = delta(act), delta(dep)
        if is_empty(p) or not is_bounded(p):
            return
        assert f_vector(p2) == f_vector(p)
        top = top_exponent(dep)
        for r in range(4):
            count = hilbert_function(p2, r)
            assert count == hilbert_function(p, r), r
            # The scan sees every invariant of degree r once r * top <= 3.
            if r * top <= 3:
                assert count == scan_invariant_count(dep, r, 3), r

    def test_corpus_covers_bounded_delta_and_whole_scans(self):
        bounded = [
            top_exponent(dep)
            for dep in (with_dependent_row(seeded_action(seed), seed) for seed in DEPENDENT_SEEDS)
            if not is_empty(delta(dep)) and is_bounded(delta(dep))
        ]
        assert len(bounded) >= 10
        assert sum(top <= 1 for top in bounded) >= 3


class TestWeightConeOracle:
    @pytest.mark.parametrize("act", WEIGHT_CONE_CORPUS)
    def test_is_semistable_matches_weight_cone(self, act):
        for size in range(act.n + 1):
            for s in combinations(range(1, act.n + 1), size):
                assert is_semistable(act, s) == semistable_by_weight_cone(act, s), s

    @pytest.mark.parametrize("act", WEIGHT_CONE_CORPUS)
    def test_minimal_unstable_supports_are_minimal(self, act):
        for m in minimal_unstable_supports(act):
            assert not semistable_by_weight_cone(act, m), m
            for i in m:
                assert semistable_by_weight_cone(act, tuple(j for j in m if j != i)), (m, i)

    def test_corpus_covers_trivial_group_and_empty_delta(self):
        assert any(act.weights.nrows == 0 for act in WEIGHT_CONE_CORPUS)
        assert any(max(act.alpha, default=0) == 1 for act in WEIGHT_CONE_CORPUS)
        assert any(is_empty(delta(act)) for act in WEIGHT_CONE_CORPUS)
        assert any(not is_empty(delta(act)) and minimal_unstable_supports(act) for act in WEIGHT_CONE_CORPUS)


def seeded_evaluations(seed):
    """``seeded_action(seed)``, a point of small rationals of either sign
    with about two coordinates in nine 0, and a degree bound in 0-3."""
    act = seeded_action(seed)
    rng = random.Random(f"evaluate:{seed}")
    values = (0, 0, 1, -1, 2, Fraction(-3, 2), Fraction(2, 5), Fraction(-7, 4), Fraction(5, 3))
    return act, tuple(rng.choice(values) for _ in range(act.n)), seed % 4


EVALUATION_SEEDS = range(120)


class TestEvaluationOracle:
    # Integer numerators and denominators against one Fraction multiply
    # per coordinate: equal values, each a Fraction, 0 ** 0 read as 1.
    @pytest.mark.parametrize("seed", EVALUATION_SEEDS)
    def test_matches_fraction_products(self, seed):
        act, point, bound = seeded_evaluations(seed)
        got = evaluate_invariants(act, point, bound)
        assert got == evaluate_by_fractions(act, point, bound)
        assert all(type(v) is Fraction for v, _ in got)

    def test_corpus_covers_zeros_signs_and_bounds(self):
        cases = [seeded_evaluations(seed) for seed in EVALUATION_SEEDS]
        values = [
            (point, v) for act, point, bound in cases for v, _ in evaluate_invariants(act, point, bound)
        ]
        assert {bound for _, _, bound in cases} == {0, 1, 2, 3}
        assert any(0 in point and v != 0 for point, v in values)
        assert any(v < 0 and v.denominator > 1 for _, v in values)


def bounded_seeded_actions(count):
    """The first ``count`` of ``seeded_action(0)``, ``seeded_action(1)``, ...
    whose polyhedron is nonempty and bounded, with every exponent at a
    vertex at most 12: the few larger ones have hundreds of generators
    and would take most of the time."""
    out, seed = [], 0
    while len(out) < count:
        act = seeded_action(seed)
        if not is_empty(delta(act)) and is_bounded(delta(act)) and top_exponent(act) <= 12:
            out.append(act)
        seed += 1
    return out


QUOTIENT_POINT_ACTIONS = bounded_seeded_actions(100)
POINT_VALUES = (0, 1, -1, 2, 3, Fraction(-3, 2), Fraction(2, 5))


def quotient_point_pairs(act, index):
    """32 seeded (kind, x, y) point pairs for ``act``, eight of each kind:
    "random" draws y on its own; "translate" moves x by a rational group
    element; "limit" zeroes one coordinate of such a translate, which
    keeps the quotient point when the orbit closure of x reaches it; and
    "root" moves x by t_r = c^(1/m) on one weight row r, for m = 2 or 3,
    after zeroing the coordinates whose weight in row r is not divisible
    by m, so that the translate is rational while t_r need not be."""
    rng = random.Random(f"quotient-point:{index}")
    rows = act.weights.entries
    out = []
    for j in range(32):
        kind = ("random", "translate", "limit", "root")[j % 4]
        x = [rng.choice(POINT_VALUES) for _ in range(act.n)]
        lam = [Fraction(1)] * act.n
        if kind == "random":
            out.append((kind, tuple(x), tuple(rng.choice(POINT_VALUES) for _ in range(act.n))))
            continue
        if kind == "root":
            row, m = rng.choice(rows), rng.choice((2, 3))
            c = Fraction(rng.choice((2, 3, -2, 5)), rng.choice((1, 3)))
            for i, w in enumerate(row):
                if w % m:
                    x[i] = 0
                else:
                    lam[i] = c ** (w // m)
        else:
            for row in rows:
                s = Fraction(rng.choice((1, 2, 3, -2, -1)), rng.choice((1, 2, 3)))
                for i, w in enumerate(row):
                    lam[i] *= s**w
        y = [li * xi for li, xi in zip(lam, x)]
        if kind == "limit":
            y[rng.randrange(act.n)] = 0
        out.append((kind, tuple(x), tuple(y)))
    return out


class TestQuotientPointOracle:
    # Proj R against the orbit closures: evaluating every generator, up to
    # the largest degree, and comparing by proj_equal must identify
    # exactly the points whose closed orbits coincide.
    @pytest.mark.parametrize("index", range(len(QUOTIENT_POINT_ACTIONS)))
    def test_proj_equal_matches_orbit_closures(self, index):
        act = QUOTIENT_POINT_ACTIONS[index]
        bound = max(g.degree for g in graded_generators(delta(act)))
        for kind, x, y in quotient_point_pairs(act, index):
            try:
                expected = same_quotient_point(act, x, y)
            except AllZero:
                with pytest.raises(AllZero):
                    proj_equal(evaluate_invariants(act, x, bound), evaluate_invariants(act, y, bound))
                continue
            got = proj_equal(evaluate_invariants(act, x, bound), evaluate_invariants(act, y, bound))
            assert got == expected, (kind, x, y)

    def test_corpus_covers_zeros_limits_and_roots(self):
        outcomes = {}
        for index, act in enumerate(QUOTIENT_POINT_ACTIONS):
            for kind, x, y in quotient_point_pairs(act, index):
                try:
                    key = (kind, same_quotient_point(act, x, y), 0 in x)
                except AllZero:
                    key = (kind, "unstable")
                outcomes[key] = outcomes.get(key, 0) + 1
        assert len(QUOTIENT_POINT_ACTIONS) >= 100
        for key in [
            ("random", False, True),
            ("random", True, False),
            ("translate", True, True),
            ("translate", True, False),
            ("limit", True, False),
            ("limit", False, False),
            ("root", True, True),
            ("root", "unstable"),
        ]:
            assert outcomes.get(key, 0) >= 10, (key, outcomes)


class TestSharedPassRecords:
    """``face`` keeps the rays of the cached pass whose tight mask holds
    the support, and ``is_semistable`` reads the vertex-mask index built
    from that pass. Those ray records are shared, so a
    sweep over every support must leave their vectors, their masks and the
    lineality as they were, and the faces read afterwards must match a
    fresh copy's and the Fourier-Motzkin route's."""

    @staticmethod
    def sweep(p, query):
        rays, lin = p._cone._pass
        before = [(r.vec, r.tight) for r in rays], lin
        supports = [s for k in range(p.n_inequalities + 1) for s in combinations(range(1, p.n_inequalities + 1), k)]
        for s in supports:
            query(s)
        rays, lin = p._cone._pass
        assert ([(r.vec, r.tight) for r in rays], lin) == before
        for s in supports:
            fresh = Polyhedron(p.dim, p.inequalities)
            assert face(p, s) == face(fresh, s) == reference_face(p, set(s)), s

    @pytest.mark.parametrize("kind, seed", HELD_CORPUS)
    def test_held_corpus(self, kind, seed):
        p = held_corpus_polyhedron(kind, seed)
        self.sweep(p, lambda s: face(p, s))

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_actions(self, seed):
        act = seeded_action(seed)
        p = delta(act)

        def query(s):
            assert is_semistable(act, s) == (face(p, s) is not None), s

        self.sweep(p, query)


def maximal_vertex_masks(p):
    """The maximal tight masks, without repeats, of the generators of
    positive height of a fresh double description pass of ``p``."""
    rays, _ = _dd_pair(homogenized_rows(p), p.dim + 1)
    masks = {r.tight for r in rays if r.vec[-1] > 0}
    return {m for m in masks if not any(m != o and m & o == m for o in masks)}


def minimal_transversals(edges, n):
    """The minimal subsets of {1, ..., n} that meet every edge, an edge
    being a bitmask with bit i - 1 for i, by trying every subset; sorted
    by size, then entries."""
    found, out = [], []
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            s = sum(1 << (i - 1) for i in combo)
            if all(s & e for e in edges) and not any(t & s == t for t in found):
                found.append(s)
                out.append(combo)
    return out


VERTEX_MASK_POLYHEDRA = (
    [held_corpus_polyhedron(kind, seed) for kind, seed in HELD_CORPUS]
    + [delta(seeded_action(seed)) for seed in range(30)]
    + [delta(act) for act in WEIGHT_CONE_CORPUS]
)
TRANSVERSAL_ACTIONS = [seeded_action(seed) for seed in range(60)] + WEIGHT_CONE_CORPUS[24:]


class TestVertexMaskIndex:
    """``Polyhedron._vertex_masks``, the index ``face`` and
    ``is_semistable`` read emptiness from, against a fresh pass; and the
    identity that makes it the input of a dualization: the minimal
    unstable supports are the minimal transversals of the complements of
    the index."""

    @pytest.mark.parametrize("p", VERTEX_MASK_POLYHEDRA)
    def test_index_is_the_maximal_vertex_masks(self, p):
        # Distinct vertices (modulo lineality) have incomparable masks, so
        # every vertex mask is maximal, and minimal too; what the index
        # must leave out are the masks of the rays of height 0.
        index = p._vertex_masks
        assert len(set(index)) == len(index)
        assert set(index) == maximal_vertex_masks(p)
        assert not any(m != o and m & o == m for m in index for o in index)

    @pytest.mark.parametrize("p", VERTEX_MASK_POLYHEDRA)
    def test_emptiness_and_boundedness_by_heights(self, p):
        # ``is_empty`` and ``is_bounded`` read the index; here they are read
        # off the heights of a fresh pass instead. Empty: no generator has
        # positive height. Bounded: empty, or every generator has positive
        # height and there is no lineality.
        rays, lin = _dd_pair(homogenized_rows(p), p.dim + 1)
        heights = [r.vec[-1] for r in rays]
        assert is_empty(p) == (not any(heights))
        assert is_bounded(p) == (not any(heights) or (all(heights) and not lin))

    def test_corpus_covers_rays_lineality_and_empty_polyhedra(self):
        passes = [p._cone._pass for p in VERTEX_MASK_POLYHEDRA]
        heights = [[r.vec[-1] for r in rays] for rays, _ in passes]
        assert any(hs and all(hs) and not lin for hs, (_, lin) in zip(heights, passes))
        assert any(any(hs) and not all(hs) for hs in heights)
        assert any(hs and not any(hs) for hs in heights)
        assert any(lin and any(hs) for hs, (_, lin) in zip(heights, passes))
        assert any(len(p._vertex_masks) > 1 for p in VERTEX_MASK_POLYHEDRA)

    @pytest.mark.parametrize("act", TRANSVERSAL_ACTIONS)
    def test_unstable_supports_are_minimal_transversals(self, act):
        full = (1 << act.n) - 1
        complements = [full & ~m for m in delta(act)._vertex_masks]
        assert minimal_unstable_supports(act) == minimal_transversals(complements, act.n)

    def test_transversal_corpus_covers_every_shape(self):
        answers = [minimal_unstable_supports(act) for act in TRANSVERSAL_ACTIONS]
        assert max(act.n for act in TRANSVERSAL_ACTIONS) <= 8
        assert [()] in answers and [] in answers
        assert any(len(out) > 1 and max(map(len, out)) > 1 for out in answers)


# The named polyhedra of the other test files: cubes, simplices,
# orthants, a prism, the square pyramid (not simple), an unbounded one
# with a redundant inequality tight on a ray only and a half-plane, which
# holds a line; then the polyhedra of the seeded actions, some empty and
# some unbounded.
FACE_COUNT_FIXTURES = (
    [unit_cube(d) for d in range(5)]
    + [standard_simplex(d) for d in range(1, 4)]
    + [positive_orthant(d) for d in range(1, 4)]
    + [
        product(standard_simplex(2), interval(0, 1)),
        polyhedron(3, [((0, 0, 1), 0), ((-1, 0, -1), -1), ((1, 0, -1), -1), ((0, -1, -1), -1), ((0, 1, -1), -1)]),
        polyhedron(2, [((1, 0), -2), ((1, 0), -1), ((0, 1), 1)]),
        polyhedron(2, [((1, 0), 0)]),
    ]
    + [delta(act) for act in WEIGHT_CONE_CORPUS]
)


def face_counts_or_error(count, p):
    try:
        return count(p)
    except (EmptyPolyhedron, LinealityPresent) as e:
        return type(e)


class TestFaceCountOracle:
    # f_vector walks faces as bitmasks over the cached pass; the oracle
    # walks frozensets over a pass of its own.
    @pytest.mark.parametrize("seed", POLYTOPE_SEEDS)
    def test_matches_frozenset_walk_on_seeds(self, seed):
        p = seeded_polytope(seed)
        assert face_counts_or_error(f_vector, p) == face_counts_or_error(f_vector_by_frozensets, p)

    @pytest.mark.parametrize("p", FACE_COUNT_FIXTURES)
    def test_matches_frozenset_walk_on_fixtures(self, p):
        assert face_counts_or_error(f_vector, p) == face_counts_or_error(f_vector_by_frozensets, p)

    def test_fixtures_cover_every_outcome(self):
        outcomes = {face_counts_or_error(f_vector, p) for p in FACE_COUNT_FIXTURES}
        assert {EmptyPolyhedron, LinealityPresent} <= outcomes
        assert {o[1] for o in outcomes if isinstance(o, tuple)} == {True, False}
        assert any(not is_empty(p) and not is_bounded(p) for p in FACE_COUNT_FIXTURES)


# Pointed cones: those the triangulation tests use, the cones over the
# seeded polytopes (empty ones give the zero cone) and the cubes' cones.
FACET_RULE_CASES = (
    [pytest.param(c, id=f"rays{i}") for i, c in enumerate(TRIANGULATION_CONES)]
    + [pytest.param(homogenize(seeded_polytope(seed)), id=f"seed{seed}") for seed in POLYTOPE_SEEDS]
    + [pytest.param(homogenize(unit_cube(k)), id=f"cube{k}") for k in range(1, 7)]
)


class TestFacetRule:
    # _facets keeps the maximal proper sets face & t. Each must be a facet,
    # with rays of rank one less than the face's (Gaussian elimination over
    # the rationals), and every other proper face & t must lie in one.
    @pytest.mark.parametrize("c", FACET_RULE_CASES)
    def test_facets_drop_the_rank_by_one(self, c):
        rays, lin = c._pass
        assert not lin
        tight_sets = _tight_sets([r.tight for r in rays], len(c.inequalities))
        rank = {}

        def rank_of(f):
            if f not in rank:
                rank[f] = rational_rank([r.vec for g, r in enumerate(rays) if f >> g & 1])
            return rank[f]

        top = (1 << len(rays)) - 1
        reached = {top}
        queue = [top]
        while queue:
            cur = queue.pop()
            facets = _facets(cur, tight_sets)
            assert all(rank_of(f) == rank_of(cur) - 1 for f in facets), cur
            for t in tight_sets:
                sub = cur & t
                assert sub == cur or any(sub & f == sub for f in facets), (cur, t)
            for f in facets:
                if f not in reached:
                    reached.add(f)
                    queue.append(f)
        # Every face, every intersection of tight sets, is reached.
        faces = {top}
        while True:
            more = faces | {f & t for f in faces for t in tight_sets}
            if more == faces:
                break
            faces = more
        assert reached == faces


# Pointed cones for the reduction rule: the acceptance cones, the pointed
# cones of the extreme-ray corpus (the zero cone among them), the cones
# over the seeded polytopes, and cones over four unbounded polyhedra of
# ``TestBaseRing`` whose least candidate is a ray of degree 0.
DEGREE_ZERO_LEAST = (7, 10, 17, 21)
REDUCTION_CASES = (
    [pytest.param(c, id=f"hilbert{i}") for i, c in enumerate(HILBERT_CONES)]
    + [pytest.param(c, id=f"extreme{i}") for i, c in enumerate(EXTREME_RAY_CONES) if not extreme_rays(c)[1]]
    + [pytest.param(homogenize(seeded_polytope(seed)), id=f"seed{seed}") for seed in POLYTOPE_SEEDS]
    + [
        pytest.param(homogenize(p), id=f"unbounded{i}")
        for i, p in enumerate(seeded_unbounded_polyhedra(max(DEGREE_ZERO_LEAST) + 1))
        if i in DEGREE_ZERO_LEAST
    ]
)


class TestReductionOracle:
    # hilbert_basis compares the candidates' values under the inequality
    # rows; the oracle tests each difference against the cone instead.
    @pytest.mark.parametrize("c", REDUCTION_CASES)
    def test_matches_difference_rule(self, c):
        fresh = Cone(c.ambient, c.inequalities)
        assert hilbert_basis(fresh) == hilbert_basis_by_differences(c)
        assert hilbert_basis(c) == hilbert_basis(fresh)

    def test_corpus_covers_both_parallelepiped_routes(self):
        kinds = set()
        for case in REDUCTION_CASES:
            c = case.values[0]
            rays, simplices = _triangulation(c)
            for s in simplices:
                if len(s) < c.ambient:
                    kinds.add("proper subspace")
                else:
                    kinds.add("unimodular" if abs(rational_det([rays[i] for i in s])) == 1 else "index > 1")
            if not rays:
                kinds.add("zero cone")
        assert kinds == {"proper subspace", "unimodular", "index > 1", "zero cone"}

    def test_corpus_has_least_candidates_of_degree_zero(self):
        # The reduction stops each scan at the least packed candidate below
        # the candidate; in these cones that bound comes from degree 0.
        for case in REDUCTION_CASES:
            if case.id.startswith("unbounded"):
                c = case.values[0]
                rays, simplices = _triangulation(c)
                points = set().union(*(_parallelepiped_points([rays[i] for i in s]) for s in simplices))
                points.discard((0,) * c.ambient)
                packed = _packing(c.inequalities, points.union(rays), 1)[1]
                least = min(points.union(rays), key=lambda x: sum(map(mul, packed, x)))
                assert points and least[-1] == 0, case.id


def seeded_lattice_polytope(seed):
    """(d, P) for a lattice polytope P of dimension d = seed % 5: the hull
    of d + 1 to d + 3 points of [0, 2]^d that span it affinely, mapped by
    x -> x M + t, for an integer M of rank d with entries in [-1, 1], into
    Z^d, or into Z^(d + 1) for odd seed // 5. M need not be unimodular, so
    P may hold lattice points of Z^m that are no images of points of Z^d.
    P's inequalities are the facet normals and the equations, both ways,
    of the cone over it, read from the oracle's extreme rays of the dual
    cone."""
    rng = random.Random(seed)
    d = seed % 5
    m = d + (seed // 5) % 2
    while True:
        pts = [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(rng.randint(d + 1, d + 3))]
        if rational_rank([x + (1,) for x in pts]) == d + 1:
            break
    while True:
        mat = [[rng.randint(-1, 1) for _ in range(m)] for _ in range(d)]
        if rational_rank(mat) == d:
            break
    shift = [rng.randint(-2, 2) for _ in range(m)]
    vertices = [tuple(sum(x[i] * mat[i][j] for i in range(d)) + shift[j] for j in range(m)) for x in pts]
    normals, equations = extreme_rays(Cone(m + 1, tuple(v + (1,) for v in vertices)))
    rows = list(normals) + [x for e in equations for x in (e, tuple(-y for y in e))]
    return d, polyhedron(m, [(r[:-1], -r[-1]) for r in rows])


LATTICE_POLYTOPES = [seeded_lattice_polytope(seed) for seed in range(150)]


def all_candidates(c):
    """Every nonzero parallelepiped point of the cone's simplices, and its
    extreme rays: the candidates of the full reduction."""
    rays, simplices = _triangulation(c)
    points = set(rays).union(*(_parallelepiped_points([rays[i] for i in s]) for s in simplices))
    points.discard((0,) * c.ambient)
    return points


class TestLatticePolytopeDegreeBound:
    # The Hilbert basis of the cone over a lattice polytope of dimension d
    # lies in degrees up to max(1, d - 1) (Bruns, Gubeladze and Trung, J.
    # reine angew. Math. 485 (1997), Thm 1.3.3); hilbert_basis keeps only
    # the candidates up to that degree, and reduces none when it is 1.
    @pytest.mark.parametrize("d, p", [pytest.param(d, p, id=f"lattice{i}") for i, (d, p) in enumerate(LATTICE_POLYTOPES)])
    def test_matches_the_full_reduction(self, d, p, monkeypatch):
        reduced = []
        reduce = semigroups._reduced
        monkeypatch.setattr(semigroups, "_reduced", lambda *a: reduced.append(a[0]) or reduce(*a))
        c = homogenize(p)
        rays, _ = _triangulation(c)
        assert all(r[-1] == 1 for r in rays)
        basis = hilbert_basis(c)
        assert basis == hilbert_basis_by_differences(c)
        top = max(1, d - 1)
        assert max(x[-1] for x in basis) <= top
        candidates = {x for x in all_candidates(c) if x[-1] <= top}
        if top == 1 or candidates == set(rays):
            assert reduced == [] and basis == sorted(candidates)
        else:
            assert reduced == [candidates]

    def test_corpus_reaches_the_bound_in_every_dimension(self):
        largest, ambients, indices = {}, set(), set()
        for d, p in LATTICE_POLYTOPES:
            c = homogenize(p)
            largest[d] = max(largest.get(d, 0), max(x[-1] for x in hilbert_basis(c)))
            ambients.add((d, p.dim))
            rays, simplices = _triangulation(c)
            if any(abs(rational_det([rays[i] for i in s])) > 1 for s in simplices if len(s) == c.ambient):
                indices.add(d)
        assert largest == {0: 1, 1: 1, 2: 1, 3: 2, 4: 3}
        assert ambients == {(d, m) for d in range(5) for m in (d, d + 1)}
        assert {2, 3, 4} <= indices

    def test_rational_and_unbounded_cones_reduce_every_candidate(self, monkeypatch):
        # With a ray of height other than 1 no degree bound applies: the
        # full candidate set is reduced, whatever the dimension.
        reduced = []
        reduce = semigroups._reduced
        monkeypatch.setattr(semigroups, "_reduced", lambda *a: reduced.append(a[0]) or reduce(*a))
        kinds = set()
        for p in [seeded_polytope(seed) for seed in POLYTOPE_SEEDS] + seeded_unbounded_polyhedra(40):
            c = homogenize(p)
            rays, _ = _triangulation(c)
            candidates = all_candidates(c)
            if all(r[-1] == 1 for r in rays) or candidates == set(rays):
                continue
            reduced.clear()
            assert hilbert_basis(c) == hilbert_basis_by_differences(c)
            assert reduced == [candidates]
            kinds.add("unbounded" if any(r[-1] == 0 for r in rays) else "rational")
            if p.dim <= 2 and any(r[-1] > 1 for r in rays):
                kinds.add("rational polygon")
        assert kinds == {"unbounded", "rational", "rational polygon"}


def full_lattice_polytope(p):
    """Whether p is a nonempty bounded polyhedron of full dimension whose
    vertices are integral."""
    v = vrep(p)
    return (
        not is_empty(p)
        and is_bounded(p)
        and all(x.denominator == 1 for vt in v.vertices for x in vt)
        and rational_rank([vt + (1,) for vt in v.vertices]) == p.dim + 1
    )


VOLUME_CASES = [
    pytest.param(p, id=name)
    for name, p in (
        [(f"seed{seed}", seeded_polytope(seed)) for seed in POLYTOPE_SEEDS]
        + list(HILBERT_FIXTURES.items())
        + [(f"face_counts{i}", p) for i, p in enumerate(FACE_COUNT_FIXTURES)]
    )
    if full_lattice_polytope(p)
]


class TestNormalizedVolume:
    # A simplex of the cone over a d-dimensional lattice polytope, spanned
    # by vertices at height 1, has |det| = d! times its volume. So the
    # determinants of the pulling triangulation sum to d! vol(p), the d-th
    # finite difference of the Ehrhart polynomial, here read off
    # hilbert_function's box scan at r = 0..d.
    @pytest.mark.parametrize("p", VOLUME_CASES)
    def test_determinants_sum_to_the_ehrhart_difference(self, p):
        rays, simplices = _triangulation(homogenize(p))
        d = p.dim
        volume = sum(abs(rational_det([rays[i] for i in s])) for s in simplices)
        assert volume == sum((-1) ** (d - k) * comb(d, k) * hilbert_function(p, k) for k in range(d + 1))

    def test_corpus_covers_dimensions_and_large_simplices(self):
        dims = set()
        large = False
        for case in VOLUME_CASES:
            p = case.values[0]
            dims.add(p.dim)
            rays, simplices = _triangulation(homogenize(p))
            large = large or any(abs(rational_det([rays[i] for i in s])) > 1 for s in simplices)
        assert dims == {0, 1, 2, 3, 4}
        assert large
        assert len(VOLUME_CASES) >= 30


class TestActionProperties:
    @pytest.mark.parametrize("seed", range(30))
    def test_unstable_supports_agree_with_is_semistable(self, seed):
        # Faces shrink as the support grows, so a support is semistable
        # exactly when it contains no minimal unstable support.
        act = seeded_action(seed)
        minimal = [set(m) for m in minimal_unstable_supports(act)]
        assert not any(a < b for a in minimal for b in minimal)
        for size in range(act.n + 1):
            for s in combinations(range(1, act.n + 1), size):
                stable = not any(m <= set(s) for m in minimal)
                assert is_semistable(act, s) == stable, s

    @given(saturated_actions())
    @geometry
    def test_projection_exactness(self, act):
        p = delta(act)
        prod = matmul(act.weights, normals(p))
        assert all(x == 0 for row in prod.entries for x in row)
        assert p.dim == act.n - act.weights.nrows
        assert p.n_inequalities == act.n

    @given(saturated_actions(max_n=3), st.data())
    @geometry
    def test_equivariance(self, act, data):
        x = tuple(
            Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
            for _ in range(act.n)
        )
        base = evaluate_invariants(act, x, 2)
        scalars = [
            Fraction(data.draw(st.sampled_from([1, 2, 3, -2])), data.draw(st.integers(1, 2)))
            for _ in range(act.weights.nrows)
        ]
        lam = [Fraction(1)] * act.n
        for s, row in zip(scalars, act.weights.entries):
            for i, w in enumerate(row):
                lam[i] *= s**w
        chi = Fraction(1)
        for li, ai in zip(lam, act.alpha):
            chi *= li**ai
        moved = evaluate_invariants(act, tuple(l * xi for l, xi in zip(lam, x)), 2)
        for (v, d), (mv, md) in zip(base, moved):
            assert md == d
            assert mv == chi**-d * v

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(1, 3)), min_size=1, max_size=5
        ),
        st.integers(1, 5),
        st.integers(1, 3),
    )
    @lax
    def test_scaled_vector_is_proj_equal(self, pairs, s_num, s_den):
        values = [(Fraction(v), d) for v, d in pairs]
        if all(v == 0 for v, _ in values):
            return
        s = Fraction(s_num, s_den)
        scaled = [(s**d * v, d) for v, d in values]
        assert proj_equal(values, scaled)
        assert proj_equal(scaled, values)
        assert proj_equal(values, values)
