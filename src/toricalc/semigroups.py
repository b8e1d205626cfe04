"""Graded semigroup rings of homogenization cones.

The cone over a polyhedron P lives one dimension up, with the extra
coordinate as the grading; ``polyhedra.homogenize`` builds it, and it
and ``Cone`` are re-exported here. Its lattice points form a graded
semigroup whose minimal generators (the Hilbert basis, for pointed
cones) give the multiplicative generators of the associated graded
ring, and whose height-r slices have dimension ``hilbert_function(P, r)``.

The Hilbert basis computation follows Bruns and Ichim, "Normaliz:
algorithms for affine monoids and rational cones", J. Algebra 324
(2010). Any triangulation of the extreme rays gives the same basis, so
the cone is triangulated by pulling its extreme rays in sorted order,
read from the tight masks of its one double description pass
(``polyhedra._triangulation``). The cone over a polyhedron keeps that
pass, so ``vrep``, ``hilbert_function``, which scans r * P over r times
its vertices, and ``is_bounded``, through the vertex-mask index, reuse it.
It lists the lattice points of the half-open fundamental parallelepiped
of each simplicial piece as the finite group read off the Smith form of
its ray matrix, or just the origin when that matrix is unimodular. The
candidates are then taken in order of a positive grading, and each is
kept unless its values under the inequality rows are at least those of
an element already kept. Each cone keeps its basis for later calls.
Relations among the generators are counted from the fibers of the
monomials over their images, without a second lattice point count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from operator import ge, mul

from .errors import Unbounded
from .lattice import IntMatrix, as_int, invariant_factors_from, snf
from .polyhedra import Cone, Polyhedron, _det, _dilated_points, _dot, _triangulation, homogenize, is_bounded

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


def _parallelepiped_points(rays: list[Vector]) -> list[Vector]:
    """Lattice points of {sum t_i r_i : 0 <= t_i < 1} for independent rays.

    With R the matrix whose rows are the rays and U R V = D its Smith
    form, x = t R is integral exactly when t = s U with s_i in
    (1/d_i) Z. One point per c in prod [0, d_i), taking s_i = c_i / d_i
    and t modulo 1, so there are prod d_i points. With n = d_k, every
    t_j is a multiple of 1/n and the points come out in integers. The
    rays may span a proper subspace of the ambient space. A square R with
    determinant +-1 gives only the origin, with no Smith form.
    """
    k, ambient = len(rays), len(rays[0])
    if k == ambient and _det(rays) == 1:
        return [(0,) * ambient]
    nf = snf(IntMatrix.from_rows(rays))
    factors = invariant_factors_from(nf)
    n = factors[-1]
    steps = [[n // d * x % n for x in row] for d, row in zip(factors, nf.U.entries)]
    step_columns, ray_columns = list(zip(*steps)), list(zip(*rays))
    out = []
    for c in iproduct(*(range(d) for d in factors)):
        tn = [sum(map(mul, c, column)) % n for column in step_columns]
        out.append(tuple(sum(map(mul, tn, column)) // n for column in ray_columns))
    return out


def hilbert_basis(c: Cone) -> list[Vector]:
    """Minimal generating set of the semigroup of lattice points of a
    pointed cone, sorted lexicographically.

    The candidates are the extreme rays and the parallelepiped points of
    a triangulation, each with its values under the inequality rows, in
    increasing order of their sum: positive on the cone minus 0, since a
    pointed cone's inequality matrix has trivial kernel. A candidate g is
    kept unless g - h lies in the cone (g's values are at least h's) for
    an h kept before it (Bruns and Ichim, J. Algebra 324 (2010)). The
    basis is kept with the cone; ``NotPointed`` is raised on every call.
    """
    if "_hilbert_basis" not in vars(c):
        rays, simplices = _triangulation(c)
        candidates = set(rays)
        for simplex in simplices:
            candidates.update(_parallelepiped_points([rays[i] for i in simplex]))
        candidates.discard(tuple(0 for _ in range(c.ambient)))
        values = {x: tuple(_dot(row, x) for row in c.inequalities) for x in candidates}
        basis: list[Vector] = []
        for g in sorted(candidates, key=lambda x: (sum(values[x]), x)):
            vg = values[g]
            if not any(all(map(ge, vg, values[h])) for h in basis):
                basis.append(g)
        vars(c)["_hilbert_basis"] = tuple(sorted(basis))
    return list(vars(c)["_hilbert_basis"])


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
    r = as_int(r)
    if r < 0:
        raise ValueError("degree must be nonnegative")
    return len(_dilated_points(p, r))


def _monomials(gens: list[GradedPoint], total: int, dim: int) -> list[tuple[Vector, Vector]]:
    """Each e >= 0 with sum e_i * degree_i == total, lexicographically,
    paired with its image sum e_i * point_i. Degrees must be positive."""
    out: list[tuple[Vector, Vector]] = []
    e = [0] * len(gens)

    def rec(idx: int, remaining: int, image: Vector):
        if remaining == 0:
            out.append((tuple(e), image))
            return
        if idx == len(gens):
            return
        g = gens[idx]
        for k in range(remaining // g.degree + 1):
            e[idx] = k
            rec(idx + 1, remaining - k * g.degree, tuple(x + k * y for x, y in zip(image, g.point)))
        e[idx] = 0

    rec(0, total, (0,) * dim)
    return out


def relation_space(p: Polyhedron, bound: int) -> RingPresentation:
    """Relations among graded generators in each degree up to ``bound``.

    The degree-r monomials in the generators are grouped into fibers by
    their image. The Hilbert basis generates the semigroup, so the fibers are
    exactly the lattice points of r * p, and the kernel dimension in
    degree r is the number of monomials minus the number of fibers. The
    binomials pair each fiber's members against its lexicographically
    first one. ``Unbounded`` is raised when p is unbounded, or when it is
    empty but some generator has degree 0. ``NotPointed`` is raised when p
    is empty but the cone {a . x >= 0} of its inequality system contains a
    line, since the cone over p then has no Hilbert basis.
    """
    bound = as_int(bound)
    if bound < 1:
        raise ValueError("degree bound must be at least 1")
    if not is_bounded(p):
        raise Unbounded("relations need a bounded polyhedron")
    gens = graded_generators(p)
    if any(g.degree == 0 for g in gens):
        raise Unbounded("relations need a bounded polyhedron")
    relations: dict[int, DegreeRelations] = {}
    for r in range(1, bound + 1):
        monomials = _monomials(gens, r, p.dim)
        fibers: dict[Vector, list[Vector]] = {}
        for e, image in monomials:
            fibers.setdefault(image, []).append(e)
        kernel_dim = len(monomials) - len(fibers)
        binomials = []
        for members in fibers.values():
            ref = members[0]
            binomials.extend((ref, other) for other in members[1:])
        binomials.sort()
        relations[r] = DegreeRelations(kernel_dim, tuple(binomials))
    return RingPresentation(tuple(gens), relations)
