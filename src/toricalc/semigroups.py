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
of each simplicial piece as a finite group, read off the adjugate of a
square ray matrix of size 2 to 4 and off D and U of the Smith form
(``lattice.snf``) of any other.
When every piece has index 1, that group is trivial for each of them,
and the basis is the extreme rays themselves. Otherwise the candidates
are taken in order of a positive grading, and each is kept unless its
values under the inequality rows are at least those of an element
already kept. Each cone keeps its basis for later calls.
Relations among the generators are counted from the fibers of the
monomials over their images, without a second lattice point count; each
image is packed into one integer, shifted by a multiple of the degree so
that every field is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, mul

from .errors import Unbounded
from .lattice import IntMatrix, as_int, snf
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

    With R the matrix whose rows are the rays, x = t R is integral
    exactly when n t, taken modulo n, lies in a group G generated by
    integer vectors modulo n, and each element of G gives one point,
    (n t) R / n. For a square R of size 2 to 4, n = |det R| and the
    generators are the rows of its adjugate (``_adjugate``), since
    t = x adj(R) / det R for integral x and a group holds the negatives
    of its elements; no elimination is needed. Otherwise, with U R V = D
    the Smith form, t = s U with s_i in (1/d_i) Z, n = d_k and the
    generators are the (n / d_i) U_i with d_i > 1; only D and U are read,
    and the rays may span a proper subspace of the ambient space. G is
    walked one generator at a time, adding its multiples to the group so
    far until one falls back into it. A ray matrix of index 1 gives only
    the origin.
    """
    adj = _adjugate(rays)
    if adj is not None:
        det = sum(map(mul, rays[0], [row[0] for row in adj]))
        n = abs(det)
        steps = [tuple([x % n for x in row]) for row in adj]
    else:
        nf = snf(IntMatrix(rays))
        d, u = nf.D.entries, nf.U.entries
        n = d[len(rays) - 1][len(rays) - 1]
        steps = [tuple([n // d[i][i] * x % n for x in row]) for i, row in enumerate(u) if d[i][i] > 1]
    group = [(0,) * len(rays)]
    for step in steps:
        base, members, multiple = group, set(group), step
        while multiple not in members:
            group = group + [tuple([(a + b) % n for a, b in zip(tn, multiple)]) for tn in base]
            multiple = tuple([(a + b) % n for a, b in zip(multiple, step)])
    columns = list(zip(*rays))
    return [tuple([sum(map(mul, tn, column)) // n for column in columns]) for tn in group]


def _adjugate(rows: list[Vector]) -> list[Vector] | None:
    """The adjugate A of a square matrix R of size 2, 3 or 4, so that
    R A = det(R) I, by cofactors (for size 4, from the 2 x 2 minors of
    the top and of the bottom pair of rows); None for any other shape."""
    k = len(rows)
    if k != len(rows[0]) or not 2 <= k <= 4:
        return None
    if k == 2:
        (a, b), (c, d) = rows
        return [(d, -b), (-c, a)]
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return [
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        ]
    (a, b, c, d), (e, f, g, h), (i, j, k, l), (m, n, o, p) = rows
    s0, s1, s2 = a * f - b * e, a * g - c * e, a * h - d * e
    s3, s4, s5 = b * g - c * f, b * h - d * f, c * h - d * g
    c0, c1, c2 = i * n - j * m, i * o - k * m, i * p - l * m
    c3, c4, c5 = j * o - k * n, j * p - l * n, k * p - l * o
    return [
        (f * c5 - g * c4 + h * c3, -b * c5 + c * c4 - d * c3, n * s5 - o * s4 + p * s3, -j * s5 + k * s4 - l * s3),
        (-e * c5 + g * c2 - h * c1, a * c5 - c * c2 + d * c1, -m * s5 + o * s2 - p * s1, i * s5 - k * s2 + l * s1),
        (e * c4 - f * c2 + h * c0, -a * c4 + b * c2 - d * c0, m * s4 - n * s2 + p * s0, -i * s4 + j * s2 - l * s0),
        (-e * c3 + f * c1 - g * c0, a * c3 - b * c1 + c * c0, -m * s3 + n * s1 - o * s0, i * s3 - j * s1 + k * s0),
    ]


def hilbert_basis(c: Cone) -> list[Vector]:
    """Minimal generating set of the semigroup of lattice points of a
    pointed cone, sorted lexicographically.

    The candidates are the extreme rays and the parallelepiped points of
    a triangulation, reduced by ``_reduced`` (Bruns and Ichim, J. Algebra
    324 (2010)). When every simplex has index 1, no simplex adds a point
    but the origin, and the basis is the sorted extreme rays with no
    reduction: a primitive extreme ray generator is never a sum of two
    nonzero lattice points of the cone. The basis is kept with the cone;
    ``NotPointed`` is raised on every call.
    """
    if "_hilbert_basis" not in vars(c):
        rays, simplices = _triangulation(c)
        points = set()
        for simplex in simplices:
            points.update(_parallelepiped_points([rays[i] for i in simplex]))
        points.discard((0,) * c.ambient)
        vars(c)["_hilbert_basis"] = _reduced(points.union(rays), c.inequalities) if points else rays
    return list(vars(c)["_hilbert_basis"])


def _reduced(candidates: set[Vector], rows) -> tuple[Vector, ...]:
    """The candidates that are not the sum of a kept candidate and a point
    of the cone {rows . x >= 0}, sorted lexicographically.

    A candidate g is kept unless g - h lies in the cone (g's values under
    the rows are at least h's) for an h kept before it. The values lie in
    [0, 2^(w - 1)), w bits being enough for the largest absolute row sum
    times the largest coordinate, and one product with the rows' columns,
    packed alike, packs them into one integer, w bits a row. The
    candidates are taken in increasing order of that integer, which
    grows with each value, so a candidate comes after every h that could
    reduce it. A guard bit on top of each row's field compares all rows
    in one subtraction: g's packed values with the guards set, minus h's,
    keep every guard exactly when g's values are at least h's.
    """
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
    return tuple(sorted(basis))


def graded_generators(p: Polyhedron) -> list[GradedPoint]:
    """Hilbert basis of the cone over ``p``, tagged with degrees and sorted
    by (degree, point): the basis is sorted lexicographically, so a stable
    sort by the degree, its last coordinate, is enough."""
    return [GradedPoint(v[:-1], v[-1]) for v in sorted(hilbert_basis(homogenize(p)), key=itemgetter(-1))]


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


def _monomials(gens: list[tuple[int, int]], total: int) -> list[tuple[Vector, int]]:
    """Each e >= 0 with sum e_i * degree_i == total, lexicographically,
    paired with its image sum e_i * image_i, for (image, degree) pairs
    with integer images (``_packed`` packs a point into one) and
    positive degrees. Each exponent passes its image on for e_i = 0 and
    adds image_i to it for each further unit; a monomial is listed as
    soon as nothing remains, and the last exponent is fixed by what
    remains."""
    if total == 0:
        return [((0,) * len(gens), 0)]
    out: list[tuple[Vector, int]] = []
    e = [0] * len(gens)
    last = len(gens) - 1

    def rec(idx: int, remaining: int, image: int):
        point, degree = gens[idx]
        if idx == last:
            k, rest = divmod(remaining, degree)
            if not rest:
                e[idx] = k
                out.append((tuple(e), image + k * point))
                e[idx] = 0
            return
        for k in range(remaining // degree + 1):
            e[idx] = k
            if remaining == k * degree:
                out.append((tuple(e), image))
            else:
                rec(idx + 1, remaining - k * degree, image)
            image += point
        e[idx] = 0

    if gens:
        rec(0, total, 0)
    return out


def _packed(gens: list[GradedPoint], bound: int) -> tuple[list[tuple[int, int]], int, Vector]:
    """Each generator as (packed image, degree) for ``_monomials`` up to
    degree ``bound``, with the field width w and the offset L.

    A point x of degree d is shifted to x - d * L, L_j being the least
    floor(x_j / d) over the generators, so every entry is nonnegative,
    and packed as sum (x - d * L)_j << (j * w). A degree-r monomial then
    packs its image less r * L: the offset grows with the degree, so
    monomials of one degree share it and their fibers are those of the
    images. No entry of a shifted image of degree at most ``bound``
    exceeds ``bound`` times the largest shifted entry, which w bits
    hold, so sums never carry from one field into the next and packing
    is one-to-one on each degree."""
    dim = len(gens[0].point) if gens else 0
    offset = tuple(min(g.point[j] // g.degree for g in gens) for j in range(dim))
    shifted = [[x - g.degree * o for x, o in zip(g.point, offset)] for g in gens]
    w = (bound * max(chain.from_iterable(shifted), default=0)).bit_length()
    return [(sum(x << (j * w) for j, x in enumerate(xs)), g.degree) for xs, g in zip(shifted, gens)], w, offset


def relation_space(p: Polyhedron, bound: int) -> RingPresentation:
    """Relations among graded generators in each degree up to ``bound``.

    The degree-r monomials in the generators are grouped into fibers by
    their image, each packed into one integer (``_packed``), so the fibers
    are keyed by ints. The Hilbert basis generates the semigroup, so the fibers are
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
    packed = _packed(gens, bound)[0]
    relations: dict[int, DegreeRelations] = {}
    for r in range(1, bound + 1):
        fibers: dict[int, list[Vector]] = {}
        for e, image in _monomials(packed, r):
            fibers.setdefault(image, []).append(e)
        binomials = tuple((ref, e) for ref, *others in fibers.values() for e in others)
        relations[r] = DegreeRelations(len(binomials), binomials)
    return RingPresentation(tuple(gens), relations)
