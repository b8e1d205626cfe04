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
its ray matrix, or just the origin when all its invariant factors are
one. The candidates are then taken in order of a positive grading, and
each is kept unless its values under the inequality rows are at least
those of an element already kept. Each cone keeps its basis for later
calls.
Relations among the generators are counted from the fibers of the
monomials over their images, without a second lattice point count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add, mul

from .errors import Unbounded
from .lattice import _smith, as_int
from .polyhedra import Cone, Polyhedron, _dilated_points, _triangulation, homogenize, is_bounded

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
    t_j is a multiple of 1/n, and the group of the n t is walked one
    factor at a time by adding (n / d_i) U_i modulo n. The rays may span
    a proper subspace of the ambient space. One elimination gives D and
    U; V is not needed, and a factor d_i = 1 adds nothing, so a ray
    matrix of index 1 gives only the origin.
    """
    d, u, _ = _smith(rays, len(rays[0]), right=False)
    steps = [(d[i][i], row) for i, row in enumerate(u) if d[i][i] > 1]
    if not steps:
        return [(0,) * len(rays[0])]
    n = steps[-1][0]
    group = [[0] * len(rays)]
    for f, row in steps:
        step = [n // f * x for x in row]
        group = [[(a + c * b) % n for a, b in zip(tn, step)] for tn in group for c in range(f)]
    columns = list(zip(*rays))
    return [tuple([sum(map(mul, tn, column)) // n for column in columns]) for tn in group]


def hilbert_basis(c: Cone) -> list[Vector]:
    """Minimal generating set of the semigroup of lattice points of a
    pointed cone, sorted lexicographically.

    The candidates are the extreme rays and the parallelepiped points of
    a triangulation. A candidate g is kept unless g - h lies in the cone
    (g's values under the inequality rows are at least h's) for an h kept
    before it (Bruns and Ichim, J. Algebra 324 (2010)). The values lie in
    [0, 2^(w - 1)), w bits being enough for the largest absolute row sum
    times the largest coordinate, and one product with the rows' columns,
    packed alike, packs them into one integer, w bits a row. The
    candidates are taken in increasing order of that integer, which
    grows with each value, so a candidate comes after every h that could
    reduce it. A guard bit on top of each row's field compares all rows
    in one subtraction: g's packed values with the guards set, minus h's,
    keep every guard exactly when g's values are at least h's. The basis
    is kept with the cone; ``NotPointed`` is raised on every call.
    """
    if "_hilbert_basis" not in vars(c):
        rays, simplices = _triangulation(c)
        candidates = set(rays)
        for simplex in simplices:
            candidates.update(_parallelepiped_points([rays[i] for i in simplex]))
        candidates.discard((0,) * c.ambient)
        rows = c.inequalities
        largest = max(map(abs, chain.from_iterable(candidates)), default=0)
        w = (largest * max((sum(map(abs, row)) for row in rows), default=0)).bit_length() + 1
        packed = [sum(a << (i * w) for i, a in enumerate(column)) for column in zip(*rows)]
        guards = sum(1 << (i * w + w - 1) for i in range(len(rows)))
        basis: list[Vector] = []
        kept: list[int] = []
        for vg, g in sorted([(sum(map(mul, packed, x)), x) for x in candidates]):
            top = vg | guards
            if not any((top - vh) & guards == guards for vh in kept):
                basis.append(g)
                kept.append(vg)
        vars(c)["_hilbert_basis"] = tuple(sorted(basis))
    return list(vars(c)["_hilbert_basis"])


def graded_generators(p: Polyhedron) -> list[GradedPoint]:
    """Hilbert basis of the cone over ``p``, tagged with degrees and sorted
    by (degree, point)."""
    basis = sorted(hilbert_basis(homogenize(p)), key=lambda v: (v[-1], v[:-1]))
    return [GradedPoint(v[:-1], v[-1]) for v in basis]


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
    paired with its image sum e_i * point_i. Degrees must be positive.
    Each exponent passes its image on for e_i = 0 and adds point_i to it
    for each further unit; a monomial is listed as soon as nothing
    remains, and the last exponent is fixed by what remains."""
    if total == 0:
        return [((0,) * len(gens), (0,) * dim)]
    out: list[tuple[Vector, Vector]] = []
    e = [0] * len(gens)
    last = len(gens) - 1

    def rec(idx: int, remaining: int, image: Vector):
        point, degree = gens[idx].point, gens[idx].degree
        if idx == last:
            k, rest = divmod(remaining, degree)
            if not rest:
                e[idx] = k
                out.append((tuple(e), tuple([x + k * y for x, y in zip(image, point)])))
                e[idx] = 0
            return
        for k in range(remaining // degree + 1):
            e[idx] = k
            if remaining == k * degree:
                out.append((tuple(e), image))
            else:
                rec(idx + 1, remaining - k * degree, image)
            image = tuple(map(add, image, point))
        e[idx] = 0

    if gens:
        rec(0, total, (0,) * dim)
    return out


def relation_space(p: Polyhedron, bound: int) -> RingPresentation:
    """Relations among graded generators in each degree up to ``bound``.

    The degree-r monomials in the generators are grouped into fibers by
    their image. The Hilbert basis generates the semigroup, so the fibers are
    exactly the lattice points of r * p, and the kernel dimension in
    degree r is the number of monomials minus the number of fibers. The
    binomials pair each fiber's members against its lexicographically
    first one, so there is one per monomial that is not first in its
    fiber. The monomials come in lexicographic order, so the fibers are
    met in the order of their first members and the pairs come out
    sorted. ``Unbounded`` is raised when p is unbounded, or when it is
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
        fibers: dict[Vector, list[Vector]] = {}
        for e, image in _monomials(gens, r, p.dim):
            fibers.setdefault(image, []).append(e)
        binomials = tuple((ref, e) for ref, *others in fibers.values() for e in others)
        relations[r] = DegreeRelations(len(binomials), binomials)
    return RingPresentation(tuple(gens), relations)
