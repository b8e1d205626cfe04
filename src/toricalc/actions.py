"""Linearized subtorus actions on affine space and their quotient data.

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
counts.

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
from .lattice import IntMatrix, _as_ints, _left_kernel, as_int, invariant_factors_from, snf
from .polyhedra import Polyhedron, _face_generators, _face_nonempty, _support_mask, f_vector, polyhedron
from .semigroups import graded_generators

Support = tuple[int, ...]


@dataclass(frozen=True)
class LinearizedAction:
    """A subtorus acting diagonally on C^n, plus a linearization.

    ``weights`` has one row per generating one-parameter subgroup; its
    column i is the weight on the i-th coordinate. Rows given as plain
    sequences are checked by ``IntMatrix.from_rows``.  ``alpha`` gives the
    character by which the degree variable t transforms.
    """

    n: int
    weights: IntMatrix
    alpha: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n))
        object.__setattr__(self, "alpha", _as_ints(self.alpha))
        if not isinstance(self.weights, IntMatrix):
            object.__setattr__(self, "weights", IntMatrix.from_rows(self.weights, self.n))
        if len(self.alpha) != self.n:
            raise ValueError("linearization length must equal n")
        if self.weights.ncols != self.n:
            raise ValueError("weight matrix must have n columns")

    @cached_property
    def _quotient(self) -> tuple["QuotientData", Polyhedron]:
        """The projection and the polyhedron of the action, computed on the
        first query and kept in the instance ``__dict__``. It is not a
        field, so ``==``, ``hash`` and ``repr`` ignore it; an exception is
        not kept, so it is raised again on the next query."""
        nf = snf(self.weights)
        factors = invariant_factors_from(nf)
        if any(f != 1 for f in factors):
            raise TorsionQuotient(f"weight lattice has invariant factors {factors}")
        # Dependent rows still generate a torus, of dimension k = rank W.
        n, k = self.n, len(factors)
        q = QuotientData(IntMatrix.from_rows([nf.V.entries[i][k:] for i in range(n)], n - k), n - k)
        return q, polyhedron(q.dim, [(q.images.row(i), self.alpha[i]) for i in range(n)])


@dataclass(frozen=True)
class QuotientData:
    """Images of the coordinate characters in the quotient lattice.

    Row i of ``images`` is the image of the i-th standard character
    under a fixed isomorphism of the character quotient with Z^dim.
    """

    images: IntMatrix
    dim: int


def linearized_action(weight_rows: Iterable[Sequence[int]], alpha: Sequence[int]) -> LinearizedAction:
    """Build an action from weight rows and a linearization vector."""
    alpha = tuple(alpha)
    return LinearizedAction(len(alpha), IntMatrix.from_rows(weight_rows, len(alpha)), alpha)


def quotient_projection(action: LinearizedAction) -> QuotientData:
    """Project the coordinate characters to the quotient-torus lattice.

    The isomorphism with Z^dim is the one determined by the Smith
    decomposition of the weight matrix. It is computed once per action
    and the same object is returned to every later call. The weight
    rows may be linearly dependent: the quotient then has dimension n
    less the rank of the weight matrix. Raises TorsionQuotient when an
    invariant factor of the weight matrix is not 1.
    """
    return action._quotient[0]


def delta(action: LinearizedAction) -> Polyhedron:
    """The polyhedron of the action: points p with p.a_i >= alpha_i.

    Inequality i is exactly (a_i, alpha_i), so supports index straight
    into the coordinates of C^n. Built with the projection, once per
    action, and shared by every later call.
    """
    return action._quotient[1]


def group_from_delta(p: Polyhedron) -> LinearizedAction:
    """Reverse the dictionary: recover an action whose polyhedron is p.

    Requires the inequality normals to span the ambient lattice over
    the integers (NonSpanning otherwise); the weight rows are then the
    saturated left kernel of the normal matrix, in Hermite form, and the
    returned action's polyhedron agrees with p up to a unimodular change
    of coordinates. One Smith form of the normal matrix gives both the
    test and the kernel.
    """
    a = IntMatrix.from_rows([ineq[0] for ineq in p.inequalities], p.dim)
    factors, w = _left_kernel(a)
    if len(factors) < p.dim or any(f != 1 for f in factors):
        raise NonSpanning("inequality normals do not span the lattice")
    alpha = tuple(b for _, b in p.inequalities)
    return LinearizedAction(p.n_inequalities, w, alpha)


def invariant_monomial(action: LinearizedAction, p: Sequence[int], r: int) -> tuple[int, ...]:
    """Exponents (r_1..r_n, r) of the invariant monomial at (p, r).

    r_i = p.a_i - r*alpha_i; the map is a degree-preserving bijection
    from lattice points of the homogenization cone onto invariant
    monomials.  Raises NotInSemigroup when some r_i is negative.
    """
    r = as_int(r)
    if r < 0:
        raise ValueError("degree must be nonnegative")
    q = action._quotient[0]
    p = _as_ints(p)
    if len(p) != q.dim:
        raise ValueError(f"point has length {len(p)}, expected {q.dim}")
    exps = _exponents(action, q, p, r)
    for i, ri in enumerate(exps, 1):
        if ri < 0:
            raise NotInSemigroup(f"coordinate {i} gets exponent {ri}")
    return exps + (r,)


def _exponents(action: LinearizedAction, q: QuotientData, p, r: int) -> tuple[int, ...]:
    """The exponents r_i = p.a_i - r*alpha_i of the monomial at (p, r)."""
    return tuple(
        sum(pj * aj for pj, aj in zip(p, q.images.row(i))) - r * alpha_i
        for i, alpha_i in enumerate(action.alpha)
    )


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
    of a support already found.
    """
    p = delta(action)
    found: list[frozenset[int]] = []
    out: list[Support] = []
    for size in range(action.n + 1):
        for combo in combinations(range(1, action.n + 1), size):
            s = frozenset(combo)
            if any(s >= m for m in found):
                continue
            if _face_generators(p, combo) is None:
                found.append(s)
                out.append(combo)
    return out


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
    in generator order, with the degree variable t set to 1.  A point
    is semistable exactly when some positive-degree value is nonzero.
    """
    bound = as_int(bound)
    if bound < 0:
        raise ValueError("degree bound must be nonnegative")
    coords = tuple(Fraction(c) for c in point)
    if len(coords) != action.n:
        raise ValueError(f"point has length {len(coords)}, expected {action.n}")
    nums, dens = [c.numerator for c in coords], [c.denominator for c in coords]
    q, p = action._quotient
    out = []
    for g in graded_generators(p):
        if g.degree > bound:
            continue
        e = _exponents(action, q, g.point, g.degree)
        out.append((Fraction(prod(map(pow, nums, e)), prod(map(pow, dens, e))), g.degree))
    return out


def proj_equal(
    v: Sequence[tuple[Fraction, int]], w: Sequence[tuple[Fraction, int]]
) -> bool:
    """Whether two evaluation vectors give the same projective point.

    True iff some nonzero rational s has w_j = s^(deg_j) * v_j for all
    j.  Raises AllZero when either side has no nonzero positive-degree
    value (the point is unstable and has no image), and ValueError when
    a degree is not a nonnegative integer.  Scalars that exist only over
    an extension field are reported as unequal.
    """
    left = [(Fraction(val), as_int(d)) for val, d in v]
    right = [(Fraction(val), as_int(d)) for val, d in w]
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
    # Any common scalar is a rational root of the lowest-degree ratio.
    pairs = [(b / a, d) for (a, d), (b, _) in zip(pos_left, pos_right) if a != 0]
    root = _rational_root(*min(pairs, key=lambda pair: pair[1]))
    if root is None:
        return False
    return any(all(s**d == ratio for ratio, d in pairs) for s in (root, -root))


def _rational_root(t: Fraction, k: int) -> Fraction | None:
    """The rational k-th root of t, or None when no such root exists."""
    if k == 1:
        return t
    if t < 0 and k % 2 == 0:
        return None
    num = _perfect_root(abs(t.numerator), k)
    den = _perfect_root(t.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num if t > 0 else -num, den)


def _perfect_root(a: int, k: int) -> int | None:
    r = _iroot(a, k)
    return r if r**k == a else None


def _iroot(a: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, by Newton steps."""
    if a == 0:
        return 0
    x = 1 << -(-a.bit_length() // k)
    while True:
        y = ((k - 1) * x + a // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y
