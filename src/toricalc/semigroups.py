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
square ray matrix of size 2 to 4 (``lattice._inverse``, which the double
description pass starts from too), with only the origin at once when its
determinant is 1 or -1, and off D and U of the Smith form
(``lattice.snf``) of any other.
When every piece has index 1, that group is trivial for each of them,
and the basis is the extreme rays themselves. When every extreme ray has
last coordinate 1, the cone is the cone over a lattice polytope of
dimension d, and its basis lies in degrees at most max(1, d - 1)
(Bruns, Gubeladze and Trung, "Normal polytopes, triangulations, and
Koszul algebras", J. reine angew. Math. 485 (1997), Thm 1.3.3): only
the group elements up to that degree are turned into points, and a
lattice polygon, segment or point takes its degree-1 points as the
basis with no reduction. Otherwise the candidates
are taken in order of a positive grading, and each is kept unless its
values under the inequality rows are at least those of an element
already kept, among those within the least candidate's grade of it
(no other can reduce it). Each cone keeps its basis for later calls, and
beside it the basis as graded generators sorted by degree.
Relations among the generators are counted from the fibers of the
monomials over their invariant monomials, without a second lattice
point count: a point's values under the cone's rows are its exponents,
and they are packed into one integer just as the reduction packs them.
The monomials of each degree are built from those of the degrees below
it, each monomial once, in lexicographic order.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter, mul

from .errors import Unbounded
from .lattice import IntMatrix, _inverse, as_int, snf
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


def _parallelepiped_points(rays: list[Vector], top: int | None = None) -> list[Vector]:
    """Lattice points of {sum t_i r_i : 0 <= t_i < 1} for independent rays,
    only those of last coordinate at most ``top`` when it is given.

    With R the matrix whose rows are the rays, x = t R is integral
    exactly when n t, taken modulo n, lies in a group G generated by
    integer vectors modulo n, and each element of G gives one point,
    (n t) R / n. For a square R of size 2 to 4, ``lattice._inverse``
    gives det R and the adjugate: n = |det R| and the generators are the
    rows of the adjugate, since t = x adj(R) / det R for integral x and a
    group holds the negatives of its elements; no elimination is needed,
    and when n = 1 the origin is returned at once. Otherwise, with U R V = D
    the Smith form, t = s U with s_i in (1/d_i) Z, n = d_k and the
    generators are the (n / d_i) U_i with d_i > 1; only D and U are read,
    and the rays may span a proper subspace of the ambient space. G is
    walked one generator at a time: the group so far is extended in place
    by its translates by each multiple of the generator until a multiple
    falls back into it, so each element is built once. A ray matrix of
    index 1 gives only the origin. The last coordinate of the point of tn
    is tn . h / n, for h the rays' last coordinates, so ``top`` is tested
    on tn before the point is built.
    """
    head = _inverse(rays)
    if head is not None:
        det, adj = head
        n = abs(det)
        if n == 1:
            return [(0,) * len(rays)]
        steps = [tuple([x % n for x in row]) for row in adj]
    else:
        nf = snf(IntMatrix(rays))
        d, u = nf.D.entries, nf.U.entries
        n = d[len(rays) - 1][len(rays) - 1]
        steps = [tuple([n // d[i][i] * x % n for x in row]) for i, row in enumerate(u) if d[i][i] > 1]
    group = [(0,) * len(rays)]
    for step in steps:
        size, members, multiple = len(group), set(group), step
        while multiple not in members:
            group += [tuple([(a + b) % n for a, b in zip(tn, multiple)]) for tn in islice(group, size)]
            multiple = tuple([(a + b) % n for a, b in zip(multiple, step)])
    columns = list(zip(*rays))
    if top is not None:
        heights, most = columns[-1], top * n
        group = [tn for tn in group if sum(map(mul, tn, heights)) <= most]
    return [tuple([sum(map(mul, tn, column)) // n for column in columns]) for tn in group]


def hilbert_basis(c: Cone) -> list[Vector]:
    """Minimal generating set of the semigroup of lattice points of a
    pointed cone, sorted lexicographically.

    The candidates are the extreme rays and the parallelepiped points of
    a triangulation, reduced by ``_reduced`` (Bruns and Ichim, J. Algebra
    324 (2010)), which stops each candidate's scan at a grading bound.
    When every simplex has index 1, no simplex adds a point but the
    origin, and the basis is the sorted extreme rays with no reduction: a
    primitive extreme ray generator is never a sum of two nonzero lattice
    points of the cone.

    When every extreme ray has last coordinate 1, the cone is the cone
    over the lattice polytope P of the rays, of dimension d one less than
    a simplex's size, and its basis lies in degrees at most max(1, d - 1)
    (Bruns, Gubeladze and Trung, "Normal polytopes, triangulations, and
    Koszul algebras", J. reine angew. Math. 485 (1997), Thm 1.3.3), so
    only the parallelepiped points up to that degree are candidates. When
    the bound is 1 (d <= 2), those points and the rays are the degree-1
    lattice points, none a sum of two nonzero points, and they are the
    basis with no reduction. The basis is kept with the cone;
    ``NotPointed`` is raised on every call.
    """
    if "_hilbert_basis" not in vars(c):
        rays, simplices = _triangulation(c)
        top = max(1, len(simplices[0]) - 2) if rays and all(r[-1] == 1 for r in rays) else None
        points = set()
        for simplex in simplices:
            points.update(_parallelepiped_points([rays[i] for i in simplex], top))
        points.discard((0,) * c.ambient)
        if not points:
            basis = rays
        elif top == 1:
            basis = tuple(sorted(points.union(rays)))
        else:
            basis = _reduced(points.union(rays), c.inequalities)
        vars(c)["_hilbert_basis"] = basis
    return list(vars(c)["_hilbert_basis"])


def _packing(rows, vectors, scale: int) -> tuple[int, list[int]]:
    """A field width w and the columns of ``rows`` packed w bits a row, so
    that x times the columns packs rows . x, row i from bit i * w. A sum
    of at most ``scale`` vectors has values below 2^(w - 1) in absolute
    value, so nonnegative values never carry from one field to the next."""
    largest = max(map(abs, chain.from_iterable(vectors)), default=0)
    w = (scale * largest * max((sum(map(abs, row)) for row in rows), default=0)).bit_length() + 1
    return w, [sum(a << (i * w) for i, a in enumerate(column)) for column in zip(*rows)]


def _reduced(candidates: set[Vector], rows) -> tuple[Vector, ...]:
    """The candidates that are not the sum of a kept candidate and a point
    of the cone {rows . x >= 0}, sorted lexicographically.

    A candidate g is kept unless g - h lies in the cone (g's values under
    the rows are at least h's) for an h kept before it. The values are
    packed into one integer by ``_packing`` and lie in [0, 2^(w - 1)).
    The candidates are taken in increasing order of that integer, which
    grows with each value, so a candidate comes after every h that could
    reduce it. The guard bit on top of each row's field compares all rows
    in one subtraction: g's packed values with the guards set, minus h's,
    keep every guard exactly when g's values are at least h's.

    The scan for g stops at the first kept value past vg - least, for
    ``least`` the smallest packed candidate: if h reduces g, then g - h is
    a nonzero point of the cone, a sum of basis elements, which are all
    candidates, and the packing is linear, so vg - vh >= least.
    """
    w, packed = _packing(rows, candidates, 1)
    guards = sum(1 << (i * w + w - 1) for i in range(len(rows)))
    basis: list[Vector] = []
    kept: list[int] = []
    ordered = sorted([(sum(map(mul, packed, x)), x) for x in candidates])
    least = ordered[0][0]
    for vg, g in ordered:
        top, limit = vg | guards, vg - least
        for vh in kept:
            if vh > limit or (top - vh) & guards == guards:
                break
        else:
            vh = limit + 1
        if vh > limit:
            basis.append(g)
            kept.append(vg)
    return tuple(sorted(basis))


def graded_generators(p: Polyhedron) -> list[GradedPoint]:
    """Hilbert basis of the cone over ``p``, tagged with degrees and sorted
    by (degree, point): the basis is sorted lexicographically, so a stable
    sort by the degree, its last coordinate, is enough. The cone keeps
    them beside its basis, and each call gets a new list."""
    c = homogenize(p)
    if "_graded_generators" not in vars(c):
        basis = sorted(hilbert_basis(c), key=itemgetter(-1))
        vars(c)["_graded_generators"] = tuple(GradedPoint(v[:-1], v[-1]) for v in basis)
    return list(vars(c)["_graded_generators"])


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


def _monomials(gens: list[tuple[int, int]], bound: int) -> Iterator[list[tuple[Vector, int]]]:
    """Layer r, for r = 1..bound: each e >= 0 with sum e_i * degree_i == r,
    in lexicographic order, paired with its image sum e_i * key_i, for
    (key, degree) pairs with integer keys (``relation_space`` packs a point
    into one) and degrees of at least 1. A monomial whose first nonzero
    exponent is j is built once, from the monomial of degree r - degree_j
    with e_j one lower, whose exponents before j are all zero. Those are a
    prefix of their layer, since a later first nonzero exponent comes first
    in the order, so each layer keeps, per j, the length of that prefix,
    and taking j from the last down keeps the new layer in order. Only the
    last max-degree layers, all that a new one reads, are kept."""
    n = len(gens)
    zeros = (0,) * n
    layers = deque([([(zeros, 0)], [1] * n)], maxlen=max((d for _, d in gens), default=1))
    for r in range(1, bound + 1):
        layer: list[tuple[Vector, int]] = []
        lengths = [0] * n
        for j in range(n - 1, -1, -1):
            key, degree = gens[j]
            if degree <= r:
                below, below_lengths = layers[-degree]
                head = zeros[:j]
                for e, image in islice(below, below_lengths[j]):
                    layer.append((head + (e[j] + 1,) + e[j + 1:], image + key))
            lengths[j] = len(layer)
        layers.append((layer, lengths))
        yield layer


def relation_space(p: Polyhedron, bound: int) -> RingPresentation:
    """Relations among graded generators in each degree up to ``bound``.

    The degree-r monomials in the generators are grouped into fibers by
    their invariant monomial, whose exponents, the values under the cone's
    rows, ``_packing`` packs into one integer. They are nonnegative, so no
    field carries, and the rows of a pointed cone have full column rank,
    so the key is one-to-one. The Hilbert basis generates the semigroup,
    so the fibers are exactly the lattice points of r * p, and the kernel
    dimension in degree r is the number of monomials minus the number of
    fibers. The binomials pair each fiber's members against its
    lexicographically first one, so there is one per monomial that is not
    first in its fiber. ``_monomials`` builds each degree's monomials in
    lexicographic order, so the fibers are met in the order of their first
    members and the pairs come out sorted. Degree 1, whose monomials are
    single distinct generators, has no relations and builds no monomials.
    ``Unbounded`` is raised when p is unbounded, or when it is empty but
    the cone {a . x >= 0} of its inequality system is not {0}, so that
    some generator has degree 0.
    ``NotPointed`` is raised when p is empty but that cone contains a
    line, since the cone over p then has no Hilbert basis.
    """
    bound = as_int(bound)
    if bound < 1:
        raise ValueError("degree bound must be at least 1")
    if not is_bounded(p):
        raise Unbounded("relations need a bounded polyhedron")
    gens = graded_generators(p)
    if any(g.degree == 0 for g in gens):
        raise Unbounded("relations need the cone {a . x >= 0} of the inequality system to be {0}")
    relations = {1: DegreeRelations(0, ())}
    if bound == 1:
        return RingPresentation(tuple(gens), relations)
    vectors = [g.point + (g.degree,) for g in gens]
    columns = _packing(homogenize(p).inequalities, vectors, bound)[1]
    keys = [(sum(map(mul, columns, v)), v[-1]) for v in vectors]
    for r, layer in enumerate(islice(_monomials(keys, bound), 1, None), 2):
        fibers: dict[int, list[Vector]] = {}
        for e, image in layer:
            fibers.setdefault(image, []).append(e)
        binomials = tuple((ref, e) for ref, *others in fibers.values() for e in others)
        relations[r] = DegreeRelations(len(binomials), binomials)
    return RingPresentation(tuple(gens), relations)
