"""Linearized actions: polyhedra, semistability, invariants.

Oracles here never go through the polyhedral route: invariance of a
monomial x^e t^r is tested directly as weight(e + r*alpha) = 0 against
every weight row, by exhaustive scan over bounded exponents.
"""

import copy
import dataclasses
import pickle
import random
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import pytest

from toricalc import actions
from toricalc.actions import (
    LinearizedAction,
    betti,
    delta,
    evaluate_invariants,
    group_from_delta,
    invariant_monomial,
    is_semistable,
    linearized_action,
    minimal_unstable_supports,
    orbit_census,
    proj_equal,
)
from toricalc.errors import (
    AllZero,
    EmptyPolyhedron,
    NonSpanning,
    NotInSemigroup,
    NotSimple,
    TorsionQuotient,
)
from toricalc.jsonio import action_from_json, action_to_json, dump_canonical
from toricalc.lattice import IntMatrix, _hnf, invariant_factors_from, snf
from toricalc.polyhedra import (
    face,
    interval,
    is_empty,
    lattice_points,
    polyhedron,
    standard_simplex,
    unit_cube,
    vrep,
)
from toricalc.semigroups import graded_generators, hilbert_function

from oracles import (
    face_nonempty_from_full_pass,
    identity,
    matmul,
    normals,
    polytope_invariant_count,
    positive_orthant,
    proj_equal_by_kernel,
    scan_invariant_count,
    transpose,
)
from test_properties import seeded_action, with_dependent_row

# The two recurring actions: scaling on C^2 (quotient CP^1) and the
# coordinate-pair scaling on C^4 whose polyhedron is the unit square.
CP1 = linearized_action([[1, 1]], (-1, 0))
SQUARE_ACTION = linearized_action([[1, 1, 0, 0], [0, 0, 1, 1]], (-1, 0, -1, 0))


def scan_semistable(action, support, rmax=3, emax=4):
    """Semistability by searching for a positive-degree invariant
    monomial not involving the support coordinates."""
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


class TestQuotientProjection:
    # The normals of delta are the images of the coordinate characters in
    # the quotient lattice.
    def test_trivial_group(self):
        p = delta(linearized_action([], (0, 0, 0)))
        assert p.dim == 3
        assert normals(p) == identity(3)

    def test_diagonal_scaling(self):
        p = delta(CP1)
        assert p.dim == 1
        assert normals(p).entries == ((-1,), (1,))

    def test_exactness_and_span(self):
        for act in (CP1, SQUARE_ACTION, linearized_action([[1, 2, 3]], (0, 0, 0))):
            a = normals(delta(act))
            prod = matmul(act.weights, a)
            assert all(x == 0 for row in prod.entries for x in row)
            # Rows of the normal matrix span the quotient lattice.
            reduced = _hnf(a).D
            nonzero = [r for r in reduced.entries if any(r)]
            assert nonzero == [
                tuple(1 if j == i else 0 for j in range(a.ncols)) for i in range(a.ncols)
            ]

    def test_full_rank_weights(self):
        p = delta(linearized_action([[1, 0], [0, 1]], (0, 0)))
        assert p.dim == 0
        assert normals(p).nrows == 2 and normals(p).ncols == 0

    def test_torsion_rejected(self):
        with pytest.raises(TorsionQuotient):
            delta(linearized_action([[2]], (0,)))
        with pytest.raises(TorsionQuotient):
            delta(linearized_action([[2, 4]], (0, 0)))

    def test_dependent_rows_give_the_quotient_of_their_span(self):
        # The rows generate the same torus as the first one alone, so the
        # quotient has dimension n less the rank.
        act = linearized_action([[1, 1], [2, 2]], (-1, 0))
        p = delta(act)
        assert p.dim == 1
        assert p == delta(CP1)
        assert all(x == 0 for row in matmul(act.weights, normals(p)).entries for x in row)
        assert minimal_unstable_supports(act) == minimal_unstable_supports(CP1) == [(1, 2)]
        for r in range(4):
            assert hilbert_function(delta(act), r) == r + 1

    def test_deterministic(self):
        assert delta(square_action()) == delta(square_action())


class TestDelta:
    def test_scaling_gives_unit_interval(self):
        p = delta(CP1)
        rep = vrep(p)
        assert rep.rays == () and rep.lineality == ()
        assert sorted(rep.vertices) == [(Fraction(0),), (Fraction(1),)]

    def test_square_action(self):
        p = delta(SQUARE_ACTION)
        assert sorted(vrep(p).vertices) == sorted(vrep(unit_cube(2)).vertices)

    def test_inequality_order_follows_coordinates(self):
        # Normal i is row i of the Smith transform V, past the rank of W.
        p = delta(SQUARE_ACTION)
        v = snf(SQUARE_ACTION.weights).V
        for i in range(4):
            assert p.inequalities[i] == (v.entries[i][2:], SQUARE_ACTION.alpha[i])

    def test_positive_linearization_empty(self):
        assert is_empty(delta(linearized_action([[1]], (1,))))

    def test_zero_linearization_point(self):
        p = delta(linearized_action([[1]], (0,)))
        assert p.dim == 0 and not is_empty(p)
        gens = graded_generators(p)
        assert [(g.point, g.degree) for g in gens] == [((), 1)]

    def test_scalar_action_on_c3(self):
        p = delta(linearized_action([[1, 1, 1]], (-1, 0, 0)))
        assert sorted(vrep(p).vertices) == sorted(vrep(standard_simplex(2)).vertices)


def seeded_inequalities(seed):
    """(d, rows): 1-3 dimensions, d-6 inequalities with entries in
    [-2, 2]; the normals span Z^d for some seeds and not for others."""
    rng = random.Random(f"group:{seed}")
    d = rng.randint(1, 3)
    return d, [(tuple(rng.randint(-2, 2) for _ in range(d)), rng.randint(-2, 2)) for _ in range(rng.randint(d, 6))]


class TestGroupFromDelta:
    def test_unit_square(self):
        act = group_from_delta(unit_cube(2))
        assert act.weights.entries == ((1, 1, 0, 0), (0, 0, 1, 1))
        assert act.alpha == (0, -1, 0, -1)

    def test_interval_with_opposite_normals(self):
        p = polyhedron(1, [((1,), -1), ((-1,), 0)])
        act = group_from_delta(p)
        assert act.weights.entries == ((1, 1),)
        assert act.alpha == (-1, 0)

    def test_orthant_gives_trivial_group(self):
        for d in (1, 2, 3):
            act = group_from_delta(positive_orthant(d))
            assert act.weights.nrows == 0
            assert act.alpha == tuple(0 for _ in range(d))

    def test_non_spanning_rejected(self):
        with pytest.raises(NonSpanning):
            group_from_delta(polyhedron(2, [((2, 0), 0), ((0, 1), 0)]))
        with pytest.raises(NonSpanning):
            group_from_delta(polyhedron(2, [((1, 0), 0)]))

    @pytest.mark.parametrize(
        "p",
        [unit_cube(2), polyhedron(1, [((1,), -1), ((-1,), 0)]), standard_simplex(2)],
    )
    def test_round_trip(self, p):
        p2 = delta(group_from_delta(p))
        assert [b for _, b in p2.inequalities] == [b for _, b in p.inequalities]
        # Same normals up to a unimodular change of ambient coordinates:
        # the rows of the transposed normal matrices span equal lattices.
        assert _hnf(transpose(normals(p))).D == _hnf(transpose(normals(p2))).D
        for r in range(4):
            assert hilbert_function(p, r) == hilbert_function(p2, r)

    @pytest.mark.parametrize("seed", range(40))
    def test_weights_are_the_saturated_left_kernel(self, seed):
        # The weights are read from the Smith form that also decides
        # NonSpanning. Checked here against what defines them: rows in
        # Hermite form, killing the normal matrix A from the left, m - d
        # of them, spanning a saturated lattice; those pin the answer
        # down.
        d, rows = seeded_inequalities(seed)
        p = polyhedron(d, rows)
        a = IntMatrix([n for n, _ in rows], d)
        factors = invariant_factors_from(snf(a))
        if len(factors) < d or any(f != 1 for f in factors):
            with pytest.raises(NonSpanning):
                group_from_delta(p)
            return
        w = group_from_delta(p).weights
        assert all(x == 0 for row in matmul(w, a).entries for x in row)
        assert w.nrows == len(rows) - d
        assert invariant_factors_from(snf(w)) == (1,) * w.nrows
        assert _hnf(w).D == w

    def test_kernel_corpus_covers_both_outcomes(self):
        spanning = 0
        for seed in range(40):
            try:
                group_from_delta(polyhedron(*seeded_inequalities(seed)))
                spanning += 1
            except NonSpanning:
                pass
        assert 5 <= spanning <= 35


class TestInvariantMonomial:
    def test_scaling_generators(self):
        # The two lattice points of the interval give x1*t and x2*t.
        p = delta(CP1)
        monos = {invariant_monomial(CP1, pt, 1) for pt in lattice_points(p)}
        assert monos == {(1, 0, 1), (0, 1, 1)}

    def test_constant_monomial(self):
        assert invariant_monomial(SQUARE_ACTION, (0, 0), 0) == (0, 0, 0, 0, 0)

    def test_square_quadratic(self):
        # Doubling the square and the degree lands on x1 x2 x3 x4 t^2.
        e = invariant_monomial(SQUARE_ACTION, (1, 1), 2)
        assert e == (1, 1, 1, 1, 2)

    def test_invariance_against_weights(self):
        # Every graded generator of degree <= 2 maps to exponents e >= 0
        # with W(e + r alpha) = 0, read from W and alpha alone, on seeded
        # actions (empty, bounded and unbounded delta) and on the same
        # actions with a dependent weight row put in.
        acts = [SQUARE_ACTION] + [seeded_action(seed) for seed in range(40)]
        acts += [with_dependent_row(seeded_action(seed), seed) for seed in range(40)]
        checked = 0
        for act in acts:
            for g in graded_generators(delta(act)):
                if g.degree > 2:
                    continue
                e = invariant_monomial(act, g.point, g.degree)
                assert e[-1] == g.degree and min(e) >= 0, (act, g)
                v = [ei + g.degree * ai for ei, ai in zip(e[:-1], act.alpha)]
                for row in act.weights.entries:
                    assert sum(wi * vi for wi, vi in zip(row, v)) == 0, (act, g)
                checked += 1
        assert checked >= 600

    def test_outside_semigroup(self):
        with pytest.raises(NotInSemigroup):
            invariant_monomial(SQUARE_ACTION, (2, 0), 1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            invariant_monomial(SQUARE_ACTION, (0, 0), -1)
        with pytest.raises(ValueError):
            invariant_monomial(SQUARE_ACTION, (0, 0, 0), 1)


class TestOracleEquivalence:
    CORPUS = [
        CP1,
        SQUARE_ACTION,
        linearized_action([], (0, 0)),
        linearized_action([[1, 1, 1]], (-1, 0, 0)),
        linearized_action([[1, 1, 1]], (-2, 0, 0)),
        linearized_action([[1, -1]], (0, 0)),
        linearized_action([[1, 2]], (-1, 1)),
        linearized_action([[1, 1, -1]], (0, -1, 1)),
        linearized_action([[1, 0, 1], [0, 1, 1]], (0, 0, -1)),
    ]

    @pytest.mark.parametrize("act", CORPUS)
    def test_monomial_counts(self, act):
        for r in range(3):
            for emax in (2, 3):
                assert scan_invariant_count(act, r, emax) == polytope_invariant_count(
                    act, r, emax
                )

    @pytest.mark.parametrize("act", CORPUS)
    def test_semistability(self, act):
        coords = range(1, act.n + 1)
        for size in range(act.n + 1):
            from itertools import combinations

            for support in combinations(coords, size):
                assert is_semistable(act, support) == scan_semistable(act, support)


class TestSemistability:
    def test_square_pairs(self):
        assert not is_semistable(SQUARE_ACTION, (1, 2))
        assert not is_semistable(SQUARE_ACTION, (3, 4))
        assert is_semistable(SQUARE_ACTION, (1, 3))
        assert is_semistable(SQUARE_ACTION, ())
        for i in range(1, 5):
            assert is_semistable(SQUARE_ACTION, (i,))

    def test_scaling_punctures_origin(self):
        assert is_semistable(CP1, (1,))
        assert is_semistable(CP1, (2,))
        assert not is_semistable(CP1, (1, 2))

    def test_monotone(self):
        for sup in [(1,), (2,), (1, 2), (1, 3), (1, 2, 3)]:
            if is_semistable(SQUARE_ACTION, sup):
                for smaller in [sup[:k] for k in range(len(sup))]:
                    assert is_semistable(SQUARE_ACTION, smaller)

    def test_minimal_unstable_square(self):
        assert minimal_unstable_supports(SQUARE_ACTION) == [(1, 2), (3, 4)]

    def test_minimal_unstable_cube6(self, monkeypatch):
        # Each support's face gets a pass over its own system; the full
        # pass of the cube per support, filtered afterwards, agrees and is
        # several times slower.
        act = group_from_delta(unit_cube(6))
        out = minimal_unstable_supports(act)
        assert out == [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)]
        monkeypatch.setattr(actions, "_held_face_nonempty", face_nonempty_from_full_pass)
        assert minimal_unstable_supports(act) == out

    def test_minimal_unstable_scaling(self):
        assert minimal_unstable_supports(CP1) == [(1, 2)]

    def test_trivial_group_everything_semistable(self):
        assert minimal_unstable_supports(linearized_action([], (0, 0, 0))) == []

    def test_empty_polyhedron_nothing_semistable(self):
        assert minimal_unstable_supports(linearized_action([[1]], (1,))) == [()]


class TestBetti:
    def test_square(self):
        assert betti(unit_cube(2)) == (1, 2, 1)

    def test_simplex(self):
        assert betti(standard_simplex(2)) == (1, 1, 1)

    def test_interval(self):
        assert betti(interval(0, 1)) == (1, 1)

    def test_cube(self):
        assert betti(unit_cube(3)) == (1, 3, 3, 1)

    def test_unbounded_polynomial(self):
        assert betti(positive_orthant(2)) == (0, 0, 1)

    def test_not_simple(self):
        pyramid = polyhedron(
            3,
            [
                ((0, 0, 1), 0),
                ((-1, 0, -1), -1),
                ((1, 0, -1), -1),
                ((0, -1, -1), -1),
                ((0, 1, -1), -1),
            ],
        )
        with pytest.raises(NotSimple):
            betti(pyramid)

    def test_empty(self):
        with pytest.raises(EmptyPolyhedron):
            betti(polyhedron(1, [((1,), 1), ((-1,), 0)]))

    def test_kunneth_square_as_product(self):
        seg = betti(interval(0, 1))
        sq = betti(unit_cube(2))
        prod = [0] * (len(seg) * 2 - 1)
        for i, a in enumerate(seg):
            for j, b in enumerate(seg):
                prod[i + j] += a * b
        assert tuple(prod) == sq


class TestOrbitCensus:
    def test_square(self):
        assert orbit_census(unit_cube(2)) == {0: 4, 1: 4, 2: 1}

    def test_interval(self):
        assert orbit_census(interval(0, 1)) == {0: 2, 1: 1}

    def test_half_line(self):
        assert orbit_census(positive_orthant(1)) == {0: 1, 1: 1}


class TestEvaluateInvariants:
    def test_square_values(self):
        vals = evaluate_invariants(SQUARE_ACTION, (1, 2, 3, 4), 1)
        assert vals == [
            (Fraction(3), 1),
            (Fraction(4), 1),
            (Fraction(6), 1),
            (Fraction(8), 1),
        ]

    def test_unstable_point_vanishes(self):
        vals = evaluate_invariants(SQUARE_ACTION, (0, 0, 1, 1), 2)
        assert all(v == 0 for v, d in vals if d > 0)

    def test_degree_zero_generators(self):
        act = linearized_action([], (0,))
        vals = evaluate_invariants(act, (Fraction(5),), 1)
        assert vals == [(Fraction(5), 0), (Fraction(1), 1)]

    def test_degree_bound_truncates(self):
        all_vals = evaluate_invariants(SQUARE_ACTION, (1, 1, 1, 1), 3)
        assert evaluate_invariants(SQUARE_ACTION, (1, 1, 1, 1), 0) == []
        assert all(d <= 3 for _, d in all_vals)

    def test_equivariance(self):
        x = (1, 2, 3, 4)
        base = evaluate_invariants(SQUARE_ACTION, x, 2)
        for s1, s2 in [(Fraction(2), Fraction(5)), (Fraction(1, 3), Fraction(7, 2))]:
            lam = (s1, s1, s2, s2)
            moved = evaluate_invariants(
                SQUARE_ACTION, tuple(li * xi for li, xi in zip(lam, x)), 2
            )
            chi = Fraction(1)
            for li, ai in zip(lam, SQUARE_ACTION.alpha):
                chi *= li**ai
            for (v, d), (mv, md) in zip(base, moved):
                assert md == d
                assert mv == chi**-d * v

    def test_scaled_point(self):
        vals = evaluate_invariants(SQUARE_ACTION, (2, 4, 15, 20), 1)
        assert [v for v, _ in vals] == [30, 40, 60, 80]


class TestProjEqual:
    def test_group_scaling_identified(self):
        v = evaluate_invariants(SQUARE_ACTION, (1, 2, 3, 4), 1)
        w = evaluate_invariants(SQUARE_ACTION, (2, 4, 15, 20), 1)
        assert proj_equal(v, w)

    def test_distinct_points(self):
        assert not proj_equal([(1, 1), (0, 1)], [(0, 1), (1, 1)])

    def test_mixed_degrees_with_witness(self):
        assert proj_equal([(2, 1), (4, 2)], [(4, 1), (16, 2)])

    def test_pure_degree_two(self):
        # Scalars are taken over C: s = 3, s = sqrt(3) and s = i.
        assert proj_equal([(2, 2)], [(18, 2)])
        assert proj_equal([(2, 2)], [(6, 2)])
        assert proj_equal([(2, 2)], [(-2, 2)])

    def test_unequal_over_c(self):
        # The degree-1 ratio forces s = 2, and then s^2 = 4, not 3.
        assert not proj_equal([(1, 1), (1, 2)], [(2, 1), (3, 2)])

    def test_irrational_orbit_needs_the_top_degree(self):
        # W = [[-2, -1]], alpha = (-1, 1): the generators have degrees 1
        # and 2, and (1, 0) is semistable, but its only nonzero value has
        # degree 2. At bound 2 it meets (3, 0) through t = 1/sqrt(3).
        act = linearized_action([[-2, -1]], (-1, 1))
        assert is_semistable(act, (2,))
        assert evaluate_invariants(act, (1, 0), 1) == [(0, 1)]
        with pytest.raises(AllZero):
            proj_equal(evaluate_invariants(act, (1, 0), 1), evaluate_invariants(act, (3, 0), 1))
        assert proj_equal(evaluate_invariants(act, (1, 0), 2), evaluate_invariants(act, (3, 0), 2))

    def test_degree_zero_must_match(self):
        assert not proj_equal([(1, 0), (3, 1)], [(2, 0), (3, 1)])
        assert proj_equal([(2, 0), (3, 1)], [(2, 0), (6, 1)])

    def test_all_zero_raises(self):
        with pytest.raises(AllZero):
            proj_equal([(0, 1), (0, 2)], [(1, 1), (1, 2)])
        with pytest.raises(AllZero):
            proj_equal([(1, 1)], [(0, 1)])

    def test_mismatched_degrees_rejected(self):
        with pytest.raises(ValueError):
            proj_equal([(1, 1)], [(1, 2)])

    def test_equivalence_relation(self):
        vecs = [
            [(Fraction(3), 1), (Fraction(4), 1), (Fraction(6), 1), (Fraction(8), 1)],
            [(Fraction(30), 1), (Fraction(40), 1), (Fraction(60), 1), (Fraction(80), 1)],
            [(Fraction(3, 7), 1), (Fraction(4, 7), 1), (Fraction(6, 7), 1), (Fraction(8, 7), 1)],
            [(Fraction(1), 1), (Fraction(1), 1), (Fraction(1), 1), (Fraction(2), 1)],
        ]
        for a in vecs:
            assert proj_equal(a, a)
            for b in vecs:
                assert proj_equal(a, b) == proj_equal(b, a)
                for c in vecs:
                    if proj_equal(a, b) and proj_equal(b, c):
                        assert proj_equal(a, c)

    def test_fiber_separation(self):
        v = evaluate_invariants(SQUARE_ACTION, (1, 1, 1, 1), 1)
        w = evaluate_invariants(SQUARE_ACTION, (1, 1, 1, 2), 1)
        assert not proj_equal(v, w)


    def test_agrees_with_kernel_oracle(self):
        # Degrees 0-4 mix degree-0 entries with even and odd degrees; a
        # negative scalar or a sign flip gives negative ratios, and a
        # perturbed entry breaks an otherwise exact scaling.
        rng = random.Random(7)
        outcomes = {True: 0, False: 0}
        for _ in range(3000):
            degrees = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
            v = [(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), d) for d in degrees]
            s = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            w = [(s**d * val, d) for val, d in v]
            if rng.random() < 0.5:
                j = rng.randrange(len(w))
                factor = rng.choice([-1, 2, 4, Fraction(1, 9)])
                w[j] = (w[j][0] * factor + rng.choice([0, 0, 1]), w[j][1])
            try:
                expected = proj_equal_by_kernel(v, w)
            except AllZero:
                with pytest.raises(AllZero):
                    proj_equal(v, w)
                continue
            assert proj_equal(v, w) == expected, (v, w)
            outcomes[expected] += 1
        assert min(outcomes.values()) >= 300, outcomes

def blocks_action(blocks, dilations, perm):
    """The product of projective spaces P^(s-1), one per block size s, with
    the block's simplex dilated by its factor: one weight row of ones per
    block, coordinates reordered by ``perm``, and the block's first
    coordinate carrying minus the dilation in the linearization."""
    n = sum(blocks)
    rows, alpha, start = [], [0] * n, 0
    for size, m in zip(blocks, dilations):
        rows.append([int(start <= perm[j] < start + size) for j in range(n)])
        alpha[perm.index(start)] = -m
        start += size
    return linearized_action(rows, alpha)


EVALUATION_SHAPES = [((2,), (1,)), ((2,), (3,)), ((3,), (1,)), ((3,), (2,)), ((2, 2), (1, 1)),
                     ((2, 2), (1, 2)), ((2, 3), (1, 1)), ((2, 2, 2), (1, 1, 1))]


def evaluation_corpus(count=100, seed=30):
    """``count`` seeded (action, x, y, bound) cases like the benchmark's
    evaluation jobs: a product of projective spaces with permuted
    coordinates, a rational point x, and y either a translate of x by a
    rational group element (three cases in four) or a point drawn on its
    own. One case in ten zeroes one coordinate of x, and one in ten a
    whole block, so that some points are unstable; bound cycles through
    1, 1 and 2."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        blocks, dilations = EVALUATION_SHAPES[k % len(EVALUATION_SHAPES)]
        n = sum(blocks)
        starts = [sum(blocks[:i]) for i in range(len(blocks))]
        perm = rng.sample(range(n), n)
        block = [max(b for b, s in enumerate(starts) if s <= perm[j]) for j in range(n)]
        act = blocks_action(blocks, dilations, perm)
        rational = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        x = [rational() for _ in range(n)]
        if k % 5 == 4:
            j = rng.randrange(n)
            for i in range(n) if k % 10 == 9 else (j,):
                if block[i] == block[j]:
                    x[i] = Fraction(0)
        if k % 4 == 3:
            y = [rational() for _ in range(n)]
        else:
            scale = [rational() for _ in blocks]
            y = [c * scale[block[j]] for j, c in enumerate(x)]
        out.append((act, tuple(x), tuple(y), (1, 1, 2)[k % 3]))
    return out


EVALUATION_CORPUS = evaluation_corpus()
EVALUATION_GOLDEN = Path(__file__).resolve().parent / "data" / "evaluation_corpus.json"


def evaluation_corpus_text():
    """For every corpus case, one line of canonical JSON: the action, both
    points and the bound, then ``evaluate_invariants`` at each point and
    ``proj_equal`` of the two, or the name of the error it raised. Values
    are written as text, so a float or an int in place of a Fraction
    shows as a different line."""
    lines = []
    for act, x, y, bound in EVALUATION_CORPUS:
        v, w = evaluate_invariants(act, x, bound), evaluate_invariants(act, y, bound)
        try:
            equal = proj_equal(v, w)
        except AllZero:
            equal = "AllZero"
        entry = {
            "action": action_to_json(act),
            "x": [str(c) for c in x],
            "y": [str(c) for c in y],
            "bound": bound,
            "v": [[repr(val), d] for val, d in v],
            "w": [[repr(val), d] for val, d in w],
            "equal": equal,
        }
        lines.append(dump_canonical(entry))
    return "[\n" + ",\n".join(lines) + "\n]\n"


class TestEvaluationCorpus:
    def test_matches_golden_file(self):
        assert evaluation_corpus_text() == EVALUATION_GOLDEN.read_text()

    def test_corpus_coverage(self):
        outcomes = set()
        for act, x, y, bound in EVALUATION_CORPUS:
            try:
                outcomes.add(proj_equal(evaluate_invariants(act, x, bound), evaluate_invariants(act, y, bound)))
            except AllZero:
                outcomes.add("AllZero")
        assert 90 <= len(EVALUATION_CORPUS) <= 110
        assert outcomes == {True, False, "AllZero"}
        assert {act.weights.nrows for act, *_ in EVALUATION_CORPUS} == {1, 2, 3}
        assert any(act.alpha[0] == 0 for act, *_ in EVALUATION_CORPUS)
        assert any(c.denominator > 1 for _, x, _, _ in EVALUATION_CORPUS for c in x)


class TestIntegerRule:
    def test_non_integers_rejected(self):
        # Each of these used to be truncated or to compute with the float.
        cases = {
            "point": lambda: invariant_monomial(CP1, (Fraction(1, 2),), 1),
            "degree": lambda: invariant_monomial(CP1, (0,), 1.5),
            "weight": lambda: linearized_action([[1, 1.7]], (-1, 0)),
            "linearization": lambda: linearized_action([[1, 1]], (-0.5, 0)),
            "n": lambda: LinearizedAction(2.5, IntMatrix((), 2), (0, 0)),
            "bound": lambda: evaluate_invariants(CP1, (1, 1), 1.5),
            "proj degree": lambda: proj_equal([(1, 1.5)], [(1, 1.5)]),
            "support": lambda: is_semistable(CP1, (1.5,)),
            "bare support": lambda: is_semistable(CP1, 1),
            # These raised TypeError or OverflowError, or accepted text.
            "none coordinate": lambda: evaluate_invariants(CP1, (None, 1), 1),
            "inf coordinate": lambda: evaluate_invariants(CP1, (float("inf"), 1), 1),
            "bare point": lambda: evaluate_invariants(CP1, 5, 1),
            "text coordinate": lambda: evaluate_invariants(CP1, ("1/2", 1), 1),
            "none value": lambda: proj_equal([(None, 1)], [(1, 1)]),
            "bare evaluation": lambda: proj_equal([1], [1]),
            "bare monomial point": lambda: invariant_monomial(CP1, 5, 1),
            # These raised a bare TypeError.
            "none weight rows": lambda: linearized_action(None, (0,)),
            "none linearization": lambda: linearized_action([[1]], None),
            "bare weights": lambda: LinearizedAction(2, 5, (0, 0)),
            # A tuple takes the exact-int fast path only when every entry
            # is an exact int; these fall back to the full rule.
            "tuple half support": lambda: is_semistable(SQUARE_ACTION, (1, 1.5)),
            "tuple text support": lambda: is_semistable(SQUARE_ACTION, (1, "1")),
            "tuple none support": lambda: is_semistable(SQUARE_ACTION, (None,)),
            "tuple list support": lambda: is_semistable(SQUARE_ACTION, (1, [1])),
            "tuple half linearization": lambda: linearized_action([[1, 1]], (-1, 0.5)),
        }
        for name, call in cases.items():
            with pytest.raises(ValueError):
                call()
                pytest.fail(name)
        # These raised ValueError with CPython's unpacking text.
        named = {
            "short evaluation pair": (lambda: proj_equal([(1,)], [(1,)]), r"^expected a \(value, degree\) pair, got \(1,\)$"),
            "long evaluation pair": (lambda: proj_equal([(1, 1, 1)], [(1, 1)]), r"^expected a \(value, degree\) pair, got "),
        }
        for name, (call, match) in named.items():
            with pytest.raises(ValueError, match=match):
                call()
                pytest.fail(name)

    def test_rational_rule_type_table(self):
        # An exact Fraction is returned as it is; every other type takes
        # Fraction(x) and must compare equal to x. Each result is a plain
        # Fraction, a subclass included, or a ValueError.
        class Half(Fraction):
            pass

        q = Fraction(3, 4)
        assert actions._as_rational(q) is q
        table = [
            (q, Fraction(3, 4)),
            (3, Fraction(3)),
            (True, Fraction(1)),
            (Half(1, 2), Fraction(1, 2)),
            (Decimal("0.5"), Fraction(1, 2)),
            (0.5, Fraction(1, 2)),
            ("1/2", ValueError),
            (float("nan"), ValueError),
            (float("inf"), ValueError),
            (1j, ValueError),
            (None, ValueError),
        ]
        for x, expected in table:
            if expected is ValueError:
                with pytest.raises(ValueError, match="^expected a rational number, got "):
                    actions._as_rational(x)
            else:
                got = actions._as_rational(x)
                assert type(got) is Fraction and got == expected, x

    def test_negative_degree_rejected(self):
        # Both degree filters used to skip a negative degree, so these two
        # vectors compared equal.
        with pytest.raises(ValueError):
            proj_equal([(1, -1), (1, 1)], [(5, -1), (1, 1)])

    def test_integral_values_accepted(self):
        # Compared by repr, so that a float result equal to an int fails.
        same = lambda x, y: repr(x) == repr(y)
        assert same(linearized_action([[1.0, Fraction(2, 2)]], (-1.0, 0)), CP1)
        assert same(LinearizedAction(2.0, CP1.weights, CP1.alpha), CP1)
        assert same(invariant_monomial(CP1, (Fraction(1),), 1.0), invariant_monomial(CP1, (1,), 1))
        assert same(evaluate_invariants(CP1, (1, 2), 1.0), evaluate_invariants(CP1, (1, 2), 1))
        assert proj_equal([(1, 1.0)], [(2, True)])
        for support in [(True,), (2.0,), (i for i in (2,)), [2, 2]]:
            assert is_semistable(SQUARE_ACTION, support)
        for support in [(True, 2.0), (i for i in (1, 2)), [2, 1, 2]]:
            assert not is_semistable(SQUARE_ACTION, support)
        # Tuples that fall back from the exact-int fast path answer as the
        # exact tuples do, in the vertex-mask scan and in face.
        p = delta(SQUARE_ACTION)
        for support, exact in [((True, 2), (1, 2)), ((Fraction(2, 1),), (2,)), ((Small.ONE, 3), (1, 3))]:
            assert is_semistable(SQUARE_ACTION, support) == is_semistable(SQUARE_ACTION, exact)
            assert repr(face(p, support)) == repr(face(p, exact))
        assert face(p, (True, 2)) is None and face(p, (Fraction(2, 1),)) is not None


class Small(IntEnum):
    ONE = 1


class TestActionValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            LinearizedAction(2, IntMatrix([(1, 1, 1)], 3), (0, 0))
        with pytest.raises(ValueError):
            linearized_action([[1, 1]], (0,))

    def test_plain_rows_accepted(self):
        assert LinearizedAction(2, [[1, 1]], (-1, 0)) == CP1
        assert LinearizedAction(2, ((1, 1),), (-1, 0)) == CP1
        assert LinearizedAction(2, [], (0, 0)).weights == IntMatrix((), 2)

    def test_bad_plain_rows_rejected(self):
        for rows in ([[1, 1], [1]], [[1, 1, 1]], [[1, 0.5]], [[1, "1"]]):
            with pytest.raises(ValueError):
                LinearizedAction(2, rows, (0, 0))


def square_action():
    """A fresh action equal to SQUARE_ACTION, never queried before."""
    return linearized_action([[1, 1, 0, 0], [0, 0, 1, 1]], (-1, 0, -1, 0))


class TestQuotientCache:
    def test_same_objects_every_call(self):
        a = square_action()
        assert delta(a) is delta(a)

    def test_cache_is_not_a_field(self):
        warm, fresh = square_action(), square_action()
        minimal_unstable_supports(warm)
        assert "_delta" in vars(warm) and "_delta" not in vars(fresh)
        assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
        assert {warm: 1}[fresh] == 1

    def test_errors_raised_on_every_call(self):
        cases = [
            (linearized_action([[2, 4]], (0, 0)), TorsionQuotient),
            (linearized_action([[2, 4], [4, 8]], (0, 0)), TorsionQuotient),
        ]
        queries = [
            delta,
            minimal_unstable_supports,
            lambda a: is_semistable(a, ()),
            lambda a: invariant_monomial(a, (), 0),
            lambda a: evaluate_invariants(a, (1, 1), 1),
        ]
        for act, error in cases:
            for _ in range(2):
                for query in queries:
                    with pytest.raises(error):
                        query(act)
            assert "_delta" not in vars(act)

    def test_replace_gets_its_own_delta(self):
        a = square_action()
        p = delta(a)
        b = dataclasses.replace(a, alpha=(0, 0, 0, 0))
        assert delta(b) is not p
        assert delta(b) == delta(linearized_action([[1, 1, 0, 0], [0, 0, 1, 1]], (0, 0, 0, 0)))
        assert minimal_unstable_supports(b) != minimal_unstable_supports(a)
        assert delta(a) is p

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize(
        "roundtrip",
        [copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_answer_the_same(self, roundtrip, warm):
        a = square_action()
        if warm:
            delta(a)
        b = roundtrip(a)
        assert b == a and hash(b) == hash(a)
        assert delta(b) == delta(a)
        assert minimal_unstable_supports(b) == minimal_unstable_supports(a)
        assert evaluate_invariants(b, (1, 2, 3, 5), 1) == evaluate_invariants(a, (1, 2, 3, 5), 1)

    def test_computed_on_first_query_only(self, monkeypatch):
        early = []

        def refuse(m):
            early.append(m)
            raise RuntimeError("Smith form computed before the first query")

        monkeypatch.setattr(actions, "snf", refuse)
        built = [
            linearized_action([[1, 1, 0, 0], [0, 0, 1, 1]], (-1, 0, -1, 0)),
            LinearizedAction(2, IntMatrix([[1, 1]], 2), (-1, 0)),
            LinearizedAction(2, [[1, 1]], (-1, 0)),
            action_from_json({"n": 2, "weights": [[1, 1]], "linearization": [-1, 0]}),
            group_from_delta(unit_cube(2)),
        ]
        assert early == []
        calls = []

        def counting(m):
            calls.append(m)
            return snf(m)

        monkeypatch.setattr(actions, "snf", counting)
        for a in built:
            assert "_delta" not in vars(a)
            before = len(calls)
            for _ in range(2):
                p = delta(a)
                is_semistable(a, (1,))
                minimal_unstable_supports(a)
                invariant_monomial(a, (0,) * p.dim, 0)
                evaluate_invariants(a, (1,) * a.n, 1)
            assert len(calls) == before + 1
