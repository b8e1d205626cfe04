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
order, in integers: each boundary facet of the triangulation keeps a
normal, so a new ray finds the facets it sees with one dot product each,
as Normaliz extends its triangulations (Bruns, Ichim and Soeger, "The
power of pyramid decomposition in Normaliz", J. Symb. Comput. 74
(2016)). It lists the lattice points of the half-open fundamental
parallelepiped of each simplicial piece as the finite group read off the
Smith form of its ray matrix. The candidates
are then taken in order of a positive grading, and each is kept unless
it lies above an element already kept. Relations among the generators
are counted from the fibers of the monomials over their images, without
a second lattice point count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .errors import NotPointed, Unbounded
from .lattice import IntMatrix, as_int, invariant_factors_from, primitive, snf
from .polyhedra import Cone, Polyhedron, _dot, dilate, extreme_rays, homogenize, lattice_points, vrep

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

    Rays are placed in list order, in integers only. Between rays the
    triangulation keeps its boundary facets (those in exactly one
    simplex), each with a primitive normal that vanishes on the facet and
    is positive on the opposite ray of its simplex, a map from each ridge
    of the boundary to its two facets, and a basis ``comp`` of the vectors
    orthogonal to the rays placed so far. A new ray r extends the span
    exactly when some k in ``comp`` has k . r != 0. Then, with m = +-k and
    m . r > 0, r is joined to every simplex, each old simplex becomes a
    boundary facet with normal m, and the old normals and the rest of
    ``comp`` are projected to vanish on r. Otherwise r sees the boundary
    facets with n . r < 0 and is attached over each of them. A ridge
    between a seen facet F and an unseen one F' gives the boundary facet
    ridge + (r,) with normal (n_F' . r) n_F - (n_F . r) n_F': it vanishes
    on r, and is positive on the opposite ray of F because
    n_F . r < 0 <= n_F' . r. There must be at least one input ray, and
    each must be extreme, which for a pointed cone rules out a ray
    landing inside the old cone.
    """
    comp = list(IntMatrix.identity(len(rays[0])).entries)
    simplices: list[tuple[int, ...]] = [()]
    boundary: dict[tuple[int, ...], Vector] = {}
    ridges: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for i, r in enumerate(rays):
        j = next((j for j, k in enumerate(comp) if _dot(k, r)), None)
        if j is not None:
            m = comp.pop(j)
            if _dot(m, r) < 0:
                m = tuple(-x for x in m)
            comp = [_eliminate(c, m, r) for c in comp]
            boundary = {f + (i,): _eliminate(n, m, r) for f, n in boundary.items()}
            boundary.update(dict.fromkeys(simplices, m))
            simplices = [s + (i,) for s in simplices]
            ridges = {}
            for f in boundary:
                for ridge in _ridges(f):
                    ridges.setdefault(ridge, []).append(f)
            continue
        seen = {f for f, n in boundary.items() if _dot(n, r) < 0}
        simplices.extend(sorted(f + (i,) for f in seen))
        for f in seen:
            for ridge in _ridges(f):
                pair = ridges[ridge]
                pair.remove(f)
                if not pair:
                    del ridges[ridge]
                    continue
                g = pair[0]
                if g in seen:
                    continue
                new = ridge + (i,)
                pair.append(new)
                boundary[new] = _eliminate(boundary[f], boundary[g], r)
                for sub in _ridges(ridge):
                    ridges.setdefault(sub + (i,), []).append(new)
        for f in seen:
            del boundary[f]
    return simplices


def _ridges(f: tuple[int, ...]):
    """The faces of an index tuple with one index left out, in order."""
    return (f[:j] + f[j + 1 :] for j in range(len(f)))


def _eliminate(v: Vector, m: Vector, r: Vector) -> Vector:
    """primitive((m . r) v - (v . r) m), the combination of v and m that
    vanishes on r; v itself when it already does."""
    mr, vr = _dot(m, r), _dot(v, r)
    return primitive(tuple(mr * a - vr * b for a, b in zip(v, m))) if vr else v


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
    r = as_int(r)
    if r < 0:
        raise ValueError("degree must be nonnegative")
    if r == 0:
        height_zero = Polyhedron(p.dim, tuple((a, 0) for a, _ in p.inequalities))
        return len(lattice_points(height_zero))
    return len(lattice_points(dilate(p, r)))


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
    empty but some generator has degree 0.
    """
    bound = as_int(bound)
    if bound < 1:
        raise ValueError("degree bound must be at least 1")
    v = vrep(p)
    if v.rays or v.lineality:
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
        for key in sorted(fibers):
            members = fibers[key]
            ref = members[0]
            binomials.extend((ref, other) for other in members[1:])
        binomials.sort()
        relations[r] = DegreeRelations(kernel_dim, tuple(binomials))
    return RingPresentation(tuple(gens), relations)
