"""Graded semigroup rings of homogenization cones.

The cone over a polyhedron P lives one dimension up, with the extra
coordinate as the grading; ``polyhedra.homogenize`` builds it and
``polyhedra.extreme_rays`` runs its one double description pass, and
both are re-exported here. Its lattice points form a graded semigroup
whose minimal generators (the Hilbert basis, for pointed cones) give
the multiplicative generators of the associated graded ring, and whose
height-r slices have dimension ``hilbert_function(P, r)``.

The Hilbert basis computation follows Bruns and Ichim, "Normaliz:
algorithms for affine monoids and rational cones", J. Algebra 324
(2010). It triangulates the cone by placing its extreme rays in sorted
order and lists the lattice points of the half-open fundamental
parallelepiped of each simplicial piece as the finite group read off
the Smith form of its ray matrix. The candidates are then taken in
order of a positive grading, and each is kept unless it lies above an
element already kept.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iproduct

from .errors import NotPointed, Unbounded
from .lattice import IntMatrix, invariant_factors_from, rational_kernel, rational_rank, snf
from .polyhedra import Cone, Polyhedron, dilate, extreme_rays, homogenize, lattice_points, vrep

Vector = tuple[int, ...]


@dataclass(frozen=True)
class GradedPoint:
    """A lattice point of the cone over P, split as (point, degree)."""

    point: Vector
    degree: int


@dataclass(frozen=True)
class DegreeRelations:
    kernel_dim: int
    binomials: tuple[tuple[Vector, Vector], ...]


@dataclass(frozen=True)
class RingPresentation:
    """Graded generators plus, per degree, the dimension of the space of
    relations among degree-r monomials and spanning binomials for it."""

    generators: tuple[GradedPoint, ...]
    relations_by_degree: dict[int, DegreeRelations]


def _placing_triangulation(rays: list[Vector]) -> list[tuple[int, ...]]:
    """Simplicial subcones covering cone(rays), as index tuples.

    Rays are placed in list order. A ray that extends the linear span
    is joined to every current simplex; otherwise it is attached over
    each boundary facet visible from it. Input rays must be extreme,
    which for a pointed cone rules out a ray landing inside the old cone.
    """
    simplices: list[tuple[int, ...]] = []
    placed: list[int] = []
    span_basis: list[Vector] = []
    for i, r in enumerate(rays):
        if not placed:
            simplices = [(i,)]
            span_basis.append(r)
        elif rational_rank(span_basis + [r]) > len(span_basis):
            simplices = [s + (i,) for s in simplices]
            span_basis.append(r)
        else:
            k = len(simplices[0])
            facet_count = Counter()
            for s in simplices:
                for f in combinations(s, k - 1):
                    facet_count[f] += 1
            attached = []
            for s in simplices:
                for f in combinations(s, k - 1):
                    if facet_count[f] != 1:
                        continue
                    opp = next(j for j in s if j not in f)
                    normal = _facet_normal([rays[j] for j in f], span_basis, rays[opp])
                    if sum(n * x for n, x in zip(normal, r)) < 0:
                        attached.append(tuple(sorted(f + (i,))))
            simplices.extend(sorted(set(attached)))
        placed.append(i)
    return simplices


def _facet_normal(facet_rays, span_basis, inside_ray) -> tuple[Fraction, ...]:
    """Normal of the facet hyperplane within span(span_basis), oriented so
    the opposite ray of its simplex is on the positive side."""
    k = len(span_basis)
    rows = [[sum(Fraction(b * f) for b, f in zip(basis_vec, fr)) for basis_vec in span_basis] for fr in facet_rays]
    kernel = rational_kernel(rows) if rows else [tuple([Fraction(1)] * 1)]
    z = kernel[0]
    normal = tuple(sum(z[t] * Fraction(span_basis[t][j]) for t in range(k)) for j in range(len(inside_ray)))
    side = sum(n * x for n, x in zip(normal, inside_ray))
    if side < 0:
        normal = tuple(-n for n in normal)
    elif side == 0:
        raise AssertionError("degenerate simplex in triangulation")
    return normal


def _parallelepiped_points(rays: list[Vector]) -> list[Vector]:
    """Lattice points of {sum t_i r_i : 0 <= t_i < 1} for independent rays.

    With R the matrix whose rows are the rays and U R V = D its Smith
    form, x = t R is integral exactly when t = s U with s_i in
    (1/d_i) Z. One point per c in prod [0, d_i), taking s_i = c_i / d_i
    and t modulo 1, so there are prod d_i points. With n = d_k, every
    t_j is a multiple of 1/n and the points come out in integers. The
    rays may span a proper subspace of the ambient space.
    """
    k, ambient = len(rays), len(rays[0])
    nf = snf(IntMatrix.from_rows(rays))
    factors = invariant_factors_from(nf)
    n = factors[-1]
    steps = [[n // d * x % n for x in row] for d, row in zip(factors, nf.U.entries)]
    out = []
    for c in iproduct(*(range(d) for d in factors)):
        tn = [sum(ci * step[j] for ci, step in zip(c, steps)) % n for j in range(k)]
        out.append(tuple(sum(t * r[i] for t, r in zip(tn, rays)) // n for i in range(ambient)))
    return out


def hilbert_basis(c: Cone) -> list[Vector]:
    """Minimal generating set of the semigroup of lattice points of a
    pointed cone, sorted lexicographically.

    The candidates are the extreme rays and the parallelepiped points of
    a triangulation. They are taken in increasing order of the grading
    x -> sum of the inequality rows applied to x, which is positive on
    the cone minus 0 because a pointed cone's inequality matrix has
    trivial kernel. A candidate g is kept unless g - h lies in the cone
    for an h kept before it (Bruns and Ichim, J. Algebra 324 (2010)).
    """
    rays, lineality = extreme_rays(c)
    if lineality:
        raise NotPointed("the cone contains a line")
    if not rays:
        return []
    ray_list = list(rays)
    candidates = set(ray_list)
    for simplex in _placing_triangulation(ray_list):
        candidates.update(_parallelepiped_points([ray_list[i] for i in simplex]))
    zero = tuple(0 for _ in range(c.ambient))
    candidates.discard(zero)
    grading = [sum(col) for col in zip(*c.inequalities)]
    ordered = sorted(candidates, key=lambda x: (sum(w * v for w, v in zip(grading, x)), x))
    basis: list[Vector] = []
    for g in ordered:
        if not any(c.contains(tuple(a - b for a, b in zip(g, h))) for h in basis):
            basis.append(g)
    basis.sort()
    return basis


def graded_generators(p: Polyhedron) -> list[GradedPoint]:
    """Hilbert basis of the cone over ``p``, tagged with degrees and sorted
    by (degree, point)."""
    basis = hilbert_basis(homogenize(p))
    gens = [GradedPoint(v[:-1], v[-1]) for v in basis]
    gens.sort(key=lambda g: (g.degree, g.point))
    return gens


def hilbert_function(p: Polyhedron, r: int) -> int:
    """Number of lattice points of r * p (the degree-r slice of the cone).

    At r = 0 this counts the lattice points of the cone {a . x >= 0} of
    the inequality system: 1 when that cone is {0}. Otherwise the cone
    is unbounded and ``Unbounded`` is raised.
    """
    if r < 0:
        raise ValueError("degree must be nonnegative")
    if r == 0:
        height_zero = Polyhedron(p.dim, tuple((a, 0) for a, _ in p.inequalities))
        return len(lattice_points(height_zero))
    return len(lattice_points(dilate(p, r)))


def _exponent_vectors(degrees: list[int], total: int) -> list[Vector]:
    """All e >= 0 with sum e_i * degrees_i == total, lexicographically."""
    out: list[Vector] = []

    def rec(idx: int, remaining: int, prefix: tuple[int, ...]):
        if idx == len(degrees):
            if remaining == 0:
                out.append(prefix)
            return
        d = degrees[idx]
        top = remaining // d
        for e in range(top + 1):
            rec(idx + 1, remaining - e * d, prefix + (e,))

    rec(0, total, ())
    return out


def relation_space(p: Polyhedron, bound: int) -> RingPresentation:
    """Relations among graded generators in each degree up to ``bound``.

    The kernel dimension in degree r is the number of degree-r monomials
    in the generators minus ``hilbert_function(p, r)``; the binomials pair
    the exponent vectors with equal image, each fiber against its
    lexicographically first member.
    """
    if bound < 1:
        raise ValueError("degree bound must be at least 1")
    v = vrep(p)
    if v.rays or v.lineality:
        raise Unbounded("relations need a bounded polyhedron")
    gens = graded_generators(p)
    degrees = [g.degree for g in gens]
    relations: dict[int, DegreeRelations] = {}
    for r in range(1, bound + 1):
        exps = _exponent_vectors(degrees, r)
        fibers: dict[Vector, list[Vector]] = {}
        for e in exps:
            image = tuple(
                sum(ei * g.point[j] for ei, g in zip(e, gens)) for j in range(p.dim)
            )
            fibers.setdefault(image, []).append(e)
        kernel_dim = len(exps) - hilbert_function(p, r)
        binomials = []
        for key in sorted(fibers):
            members = fibers[key]
            ref = members[0]
            binomials.extend((ref, other) for other in members[1:])
        binomials.sort()
        relations[r] = DegreeRelations(kernel_dim, tuple(binomials))
    return RingPresentation(tuple(gens), relations)
