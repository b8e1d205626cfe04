"""Linearized subtorus actions on affine space and their polyhedra.

A diagonal action of a subtorus G of the coordinate torus on C^n is
recorded by an integer weight matrix whose rows are one-parameter
subgroups generating G (column i gives the weight on the i-th
coordinate), together with an integer linearization vector alpha
describing how G scales an auxiliary degree variable t.

The projective quotient is read off a polyhedron attached to the
action: invariant monomials correspond bijectively to lattice points
of its homogenization cone, a coordinate support is semistable exactly
when the matching face is nonempty, and for simple polytopes the even
Betti numbers of the quotient are a binomial transform of the face
counts. The polyhedron is the action's one record of the quotient:
its normals are the images of the coordinate characters, read from
one Smith form of the weight matrix on the first query.

Supports and inequality indices are 1-based throughout; all
arithmetic is exact.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, prod
from typing import Iterable, Sequence

from .errors import AllZero, NonSpanning, NotInSemigroup, NotSimple, TorsionQuotient
from .lattice import IntMatrix, _as_ints, _iter, _left_kernel, _pair, as_int, invariant_factors_from, snf
from .polyhedra import Polyhedron, _dot, _face_nonempty, _held_face_nonempty, _support_mask, f_vector, polyhedron
from .semigroups import graded_generators

Support = tuple[int, ...]


@dataclass(frozen=True)
class LinearizedAction:
    """A subtorus acting diagonally on C^n, plus a linearization.

    ``weights`` has one row per generating one-parameter subgroup; its
    column i is the weight on the i-th coordinate. Rows given as plain
    sequences are checked by ``IntMatrix``.  ``alpha`` gives the
    character by which the degree variable t transforms.
    """

    n: int
    weights: IntMatrix
    alpha: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n))
        object.__setattr__(self, "alpha", _as_ints(self.alpha))
        if not isinstance(self.weights, IntMatrix):
            object.__setattr__(self, "weights", IntMatrix(self.weights, self.n))
        if len(self.alpha) != self.n:
            raise ValueError("linearization length must equal n")
        if self.weights.ncols != self.n:
            raise ValueError("weight matrix must have n columns")

    @cached_property
    def _delta(self) -> Polyhedron:
        """The polyhedron of the action, computed on the first query and
        kept in the instance ``__dict__``. It is not a field, so ``==``,
        ``hash`` and ``repr`` ignore it; an exception is not kept, so it is
        raised again on the next query."""
        nf = snf(self.weights)
        factors = invariant_factors_from(nf)
        if any(f != 1 for f in factors):
            raise TorsionQuotient(f"weight lattice has invariant factors {factors}")
        # Dependent rows still generate a torus, of dimension k = rank W.
        k = len(factors)
        return polyhedron(self.n - k, [(row[k:], b) for row, b in zip(nf.V.entries, self.alpha)])


def linearized_action(weight_rows: Iterable[Sequence[int]], alpha: Sequence[int]) -> LinearizedAction:
    """Build an action from weight rows and a linearization vector."""
    alpha = _as_ints(alpha)
    return LinearizedAction(len(alpha), IntMatrix(weight_rows, len(alpha)), alpha)


def delta(action: LinearizedAction) -> Polyhedron:
    """The polyhedron of the action: points p with p.a_i >= alpha_i.

    Inequality i is exactly (a_i, alpha_i), so supports index straight
    into the coordinates of C^n. The normal a_i is the image of the i-th
    standard character in the quotient lattice, under the isomorphism
    with Z^dim that the Smith decomposition of the weight matrix fixes.
    The weight rows may be linearly dependent: dim is then n less the
    rank of the weight matrix. Raises TorsionQuotient when an invariant
    factor of the weight matrix is not 1. Computed once per action and
    shared by every later call.
    """
    return action._delta


def group_from_delta(p: Polyhedron) -> LinearizedAction:
    """Reverse the dictionary: recover an action whose polyhedron is p.

    Requires the inequality normals to span the ambient lattice over
    the integers (NonSpanning otherwise); the weight rows are then the
    saturated left kernel of the normal matrix, in Hermite form, and the
    returned action's polyhedron agrees with p up to a unimodular change
    of coordinates. One Hermite form of [A | I], A the normal matrix,
    gives both: the normals span Z^dim exactly when the first dim
    diagonal entries of A's Hermite form are 1.
    """
    a = IntMatrix([ineq[0] for ineq in p.inequalities], p.dim)
    d, w = _left_kernel(a)
    if d.nrows < p.dim or any(d.entries[i][i] != 1 for i in range(p.dim)):
        raise NonSpanning("inequality normals do not span the lattice")
    alpha = tuple(b for _, b in p.inequalities)
    return LinearizedAction(p.n_inequalities, w, alpha)


def invariant_monomial(action: LinearizedAction, p: Sequence[int], r: int) -> tuple[int, ...]:
    """Exponents (r_1..r_n, r) of the invariant monomial at (p, r).

    r_i = p.a_i - r*alpha_i, the value at (p, r) of row i of ``delta``,
    which is (a_i, alpha_i); the map is a degree-preserving bijection
    from lattice points of the homogenization cone onto invariant
    monomials.  Raises NotInSemigroup when some r_i is negative.
    """
    r = as_int(r)
    if r < 0:
        raise ValueError("degree must be nonnegative")
    d = delta(action)
    p = _as_ints(p)
    if len(p) != d.dim:
        raise ValueError(f"point has length {len(p)}, expected {d.dim}")
    exps = tuple(_dot(a, p) - r * b for a, b in d.inequalities)
    for i, ri in enumerate(exps, 1):
        if ri < 0:
            raise NotInSemigroup(f"coordinate {i} gets exponent {ri}")
    return exps + (r,)


def _as_rational(x) -> Fraction:
    """``Fraction(x)`` when that equals ``x``; ValueError otherwise, so text,
    None, inf and nan are rejected (``lattice.as_int`` for rationals). An
    exact ``Fraction`` (``type(x) is Fraction``, so not a subclass) is
    returned after that one test."""
    if type(x) is Fraction:
        return x
    try:
        q = Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"expected a rational number, got {x!r}") from None
    if q != x:
        raise ValueError(f"expected a rational number, got {x!r}")
    return q


def is_semistable(action: LinearizedAction, support: Iterable[int]) -> bool:
    """Whether points vanishing exactly on the given 1-based support
    are semistable: true iff the corresponding face of the polyhedron
    is nonempty, which is when -W alpha, with W the weight matrix, lies
    in the cone of the columns of W off the support. The answer is one
    scan of the polyhedron's vertex-mask index, the maximal tight masks of
    its vertices, kept with its pass: the face is nonempty exactly when
    one of them contains the support."""
    p = delta(action)
    return _face_nonempty(p, _support_mask(p, support))


def minimal_unstable_supports(action: LinearizedAction) -> list[Support]:
    """Minimal supports with empty face, sorted by size then entries.

    The unstable locus is the union of the coordinate subspaces
    determined by these supports; monotonicity prunes every superset
    of a support already found. Supports are walked as masks, bit i - 1
    for coordinate i, and each face is tested by a pass over that face's
    own system (``_held_face_nonempty``), not by the vertex-mask index.
    """
    p = delta(action)
    bits = [1 << i for i in range(action.n)]
    found: list[int] = []
    for size in range(action.n + 1):
        for combo in combinations(bits, size):
            s = sum(combo)
            if not any(m & s == m for m in found) and not _held_face_nonempty(p, s):
                found.append(s)
    return [tuple(i + 1 for i in range(action.n) if m >> i & 1) for m in found]


def betti(p: Polyhedron) -> tuple[int, ...]:
    """Even Betti numbers (b_0, b_2, ..., b_{2d}) of the quotient.

    Expands sum_i f_i (q-1)^i in powers of q; simple polyhedra only
    (NotSimple otherwise). An i-dimensional torus orbit has (q-1)^i points
    over F_q, so this counts the F_q-points of the toric variety, bounded
    or not; for a simple polytope it is the Poincare polynomial.
    """
    counts, simple = f_vector(p)
    if not simple:
        raise NotSimple("face counts only determine Betti numbers for simple polyhedra")
    d = len(counts) - 1
    return tuple(
        sum(counts[i] * comb(i, j) * (-1) ** (i - j) for i in range(j, d + 1))
        for j in range(d + 1)
    )


def orbit_census(p: Polyhedron) -> dict[int, int]:
    """Count of torus orbits on the quotient by complex dimension.

    Orbits of complex dimension i correspond to faces of real
    dimension i, so this is the f-vector re-labeled.
    """
    counts, _ = f_vector(p)
    return dict(enumerate(counts))


def evaluate_invariants(
    action: LinearizedAction, point: Sequence, bound: int
) -> list[tuple[Fraction, int]]:
    """Evaluate the generating invariant monomials at a rational point.

    Returns (value, degree) per graded generator of degree <= bound,
    in generator order, with the degree variable t set to 1; the
    exponents of a generator are its values under the rows of
    ``delta``, as in ``invariant_monomial``.  When
    bound is at least the largest generator degree, a point is
    semistable exactly when some positive-degree value is nonzero; a
    smaller bound can drop every nonzero value of a semistable point.
    """
    bound = as_int(bound)
    if bound < 0:
        raise ValueError("degree bound must be nonnegative")
    coords = tuple(map(_as_rational, _iter(point, "a sequence of coordinates")))
    if len(coords) != action.n:
        raise ValueError(f"point has length {len(coords)}, expected {action.n}")
    nums, dens = [c.numerator for c in coords], [c.denominator for c in coords]
    p = delta(action)
    out = []
    for g in graded_generators(p):
        if g.degree > bound:
            break
        e = [_dot(a, g.point) - g.degree * b for a, b in p.inequalities]
        out.append((Fraction(prod(map(pow, nums, e)), prod(map(pow, dens, e))), g.degree))
    return out


def _evaluation(v) -> list[tuple[Fraction, int]]:
    """The (value, degree) pairs of an evaluation vector, by ``_as_rational``
    and ``as_int``. ValueError naming what was expected (``_iter``,
    ``_pair``) when ``v`` is not iterable or an entry is not a pair."""
    out = []
    for x in _iter(v, "a sequence of (value, degree) pairs"):
        val, d = _pair(x, "a (value, degree) pair")
        out.append((_as_rational(val), as_int(d)))
    return out


def proj_equal(
    v: Sequence[tuple[Fraction, int]], w: Sequence[tuple[Fraction, int]]
) -> bool:
    """Whether two evaluation vectors give the same projective point.

    True iff some nonzero complex s has w_j = s^(deg_j) * v_j for all
    j.  Raises AllZero when either side has no nonzero positive-degree
    value, and ValueError when a degree is not a nonnegative integer.
    Evaluations up to the largest generator degree raise AllZero
    exactly for unstable points; a smaller bound can raise it for a
    semistable one.
    """
    left, right = _evaluation(v), _evaluation(w)
    if [d for _, d in left] != [d for _, d in right]:
        raise ValueError("evaluations must come from the same generator list")
    if any(d < 0 for _, d in left):
        raise ValueError("degrees must be nonnegative")
    pos_left = [(val, d) for val, d in left if d > 0]
    pos_right = [(val, d) for val, d in right if d > 0]
    if all(val == 0 for val, _ in pos_left) or all(val == 0 for val, _ in pos_right):
        raise AllZero("unstable point has no projective image")
    # Degree-0 values are scaling-invariant, so they must match exactly.
    for (a, d), (b, _) in zip(left, right):
        if d == 0 and a != b:
            return False
    for (a, _), (b, _) in zip(pos_left, pos_right):
        if (a == 0) != (b == 0):
            return False
    # With g = gcd(d_j) = sum(c_j * d_j), any scalar s has s^g = sigma =
    # prod(rho_j^c_j). Conversely, when sigma^(d_j / g) = rho_j for every
    # ratio rho_j, any g-th root of sigma in C is a scalar.
    pairs = [(b / a, d) for (a, d), (b, _) in zip(pos_left, pos_right) if a != 0]
    g, coeffs = 0, []
    for _, d in pairs:
        if g and d % g == 0:  # g already divides d, so c_j = 0
            coeffs.append(0)
            continue
        # Extended Euclid: x0 * g + y0 * d = r0 = gcd(g, d).
        r0, r1, x0, x1, y0, y1 = g, d, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
        g, coeffs = r0, [c * x0 for c in coeffs] + [y0]
    sigma = prod(ratio**c for (ratio, _), c in zip(pairs, coeffs) if c)
    return all((sigma if d == g else sigma ** (d // g)) == ratio for ratio, d in pairs)
