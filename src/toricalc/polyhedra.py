"""Exact polyhedral geometry over the rationals.

A polyhedron is given by integer inequality data ``a . p >= b``. This
module builds its homogenization cone, converts between that H-form and
the vertex/ray/lineality V-form with one incremental double description
pass over the cone, and lists lattice points of bounded polyhedra. The
face counts and the pulling triangulation of a pointed ``Cone`` walk the
face lattice down from that pass's tight masks by one facet rule,
``_facets``; it is graded, so no face below the top is ranked.

A polyhedron computes its homogenization cone, that cone's pass and its
face counts once, on first use, outside its fields. ``vrep`` (each
generator by its height), ``f_vector``, the triangulation behind
``semigroups.hilbert_basis`` and the scan of r * p behind
``lattice_points`` and ``semigroups.hilbert_function`` read that pass;
an exception is raised again on every call. The polyhedron also keeps,
once, the maximal tight masks of the pass's vertices as its vertex-mask
index. ``is_empty`` and ``is_bounded`` compare its length with the
pass's, and ``face`` and the semistability test of ``actions`` read it:
a face is nonempty exactly when one of its masks contains the support.
Only ``_held_face_nonempty``, which the walk over the unstable supports
asks of each support's mask, runs a pass of its own on the face's
system; it stays the independent route the semistability test is checked
against. Only this module reads a polyhedron's cone, pass and index.

Everything is deterministic: inequalities are inserted in the order
given, generated rays are reduced to primitive integer vectors, and all
reported sets are sorted. No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from operator import mul

from .errors import EmptyPolyhedron, LinealityPresent, NotPointed, Unbounded
from .lattice import IntMatrix, _as_dim, _as_ints, _hnf, _iter, _pair, as_int, primitive

Vector = tuple[int, ...]
Inequality = tuple[Vector, int]


@dataclass(frozen=True)
class Polyhedron:
    """H-polyhedron {p in R^dim : a . p >= b for each inequality (a, b)}."""

    dim: int
    inequalities: tuple[Inequality, ...]

    def __post_init__(self):
        dim = _as_dim(self.dim)
        rows = tuple(_inequality(ineq) for ineq in _iter(self.inequalities, "a sequence of inequalities"))
        if any(len(a) != dim for a, _ in rows):
            raise ValueError("inequality normal has wrong length")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "inequalities", rows)

    @property
    def n_inequalities(self) -> int:
        return len(self.inequalities)

    @cached_property
    def _cone(self) -> Cone:
        """The homogenization cone, with rows (a, -b) for each inequality
        (a, b) in order, then the height row. Built on first use and kept
        in the instance ``__dict__``; it carries the polyhedron's one
        double description pass. With n inequalities, a ray's tight mask
        has bit i - 1 for inequality i and bit n for the height row, and
        its vector has the height last; the lineality vectors have height
        0 and are tight everywhere."""
        rows = [a + (-b,) for a, b in self.inequalities]
        rows.append((0,) * self.dim + (1,))
        return Cone(self.dim + 1, tuple(rows))

    @cached_property
    def _f_vector(self) -> tuple[tuple[int, ...], bool]:
        """``f_vector``'s answer, kept like ``_cone``. An exception is not
        kept, so it is raised again on the next call."""
        return _face_counts(self)

    @cached_property
    def _vertex_masks(self) -> tuple[int, ...]:
        """The vertex-mask index: the tight masks of the pass's generators
        of positive height, in pass order, kept like ``_cone``. These
        generators are the distinct vertices of the polyhedron modulo its
        lineality, so no mask contains another and none repeats: they are
        already the maximal vertex masks. The face of a support is
        nonempty exactly when one of them contains the support's mask
        (``_face_nonempty``)."""
        return tuple(r.tight for r in self._cone._pass[0] if r.vec[-1] > 0)


def _inequality(ineq) -> Inequality:
    """An (a, b) pair checked by the integer rule; ValueError (``_pair``)
    when ``ineq`` is not a pair."""
    a, b = _pair(ineq, "an inequality (a, b)")
    return _as_ints(a), as_int(b)


def polyhedron(dim: int, inequalities) -> Polyhedron:
    """Build a Polyhedron from any nested iterable of (a, b) pairs."""
    return Polyhedron(dim, inequalities)


def interval(lo: int, hi: int) -> Polyhedron:
    """The segment [lo, hi] on the line: {p >= lo, -p >= -hi}."""
    return polyhedron(1, [((1,), lo), ((-1,), -hi)])


def standard_simplex(dim: int) -> Polyhedron:
    dim = _as_dim(dim)
    ineqs = [(tuple(1 if j == i else 0 for j in range(dim)), 0) for i in range(dim)]
    ineqs.append((tuple(-1 for _ in range(dim)), -1))
    return polyhedron(dim, ineqs)


def unit_cube(dim: int) -> Polyhedron:
    p = Polyhedron(0, ())
    for _ in range(_as_dim(dim)):
        p = product(p, interval(0, 1))
    return p


@dataclass(frozen=True)
class VRepresentation:
    """Vertices, rays, and lineality of a polyhedron.

    The polyhedron is conv(vertices) + cone(rays) + span(lineality).
    When lineality is present the ``vertices`` are base points of the
    minimal faces, kept so that the identity above still holds. Rays and
    lineality vectors are primitive; lineality vectors have their first
    nonzero coordinate positive. All three lists are sorted.
    """

    vertices: tuple[tuple[Fraction, ...], ...]
    rays: tuple[Vector, ...]
    lineality: tuple[Vector, ...]


@dataclass(frozen=True)
class Face:
    """A nonempty face: its closed active set (1-based inequality indices),
    dimension, and a relative-interior witness point."""

    active: frozenset[int]
    dim: int
    witness: tuple[Fraction, ...]


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


class _Ray:
    """Mutable double-description ray: integer vector plus a bitmask of
    the constraints (by insertion index) it satisfies with equality."""

    __slots__ = ("vec", "tight")

    def __init__(self, vec, tight):
        self.vec = vec
        self.tight = tight


def _dd_pair(constraints, ambient: int):
    """Double description of the cone {x : c . x >= 0 for all c}.

    Processes constraints in the given order, maintaining extreme rays
    (modulo lineality) and a lineality basis. Returns (rays, lineality)
    where rays are _Ray records with primitive integer vectors.
    """
    lin = [tuple(1 if j == i else 0 for j in range(ambient)) for i in range(ambient)]
    rays: list[_Ray] = []
    for k, c in enumerate(constraints):
        lvals = [_dot(c, l) for l in lin]
        j0 = next((j for j, val in enumerate(lvals) if val != 0), None)
        if j0 is not None:
            # The constraint cuts the lineality space: one basis vector
            # becomes a ray, the rest are projected into the hyperplane.
            l0, v0 = lin[j0], lvals[j0]
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0
            new_lin = []
            for j, l in enumerate(lin):
                if j == j0:
                    continue
                val = lvals[j]
                new_lin.append(primitive(tuple(v0 * x - val * y for x, y in zip(l, l0))) if val else l)
            for r in rays:
                val = _dot(c, r.vec)
                if val:
                    r.vec = primitive(tuple(v0 * x - val * y for x, y in zip(r.vec, l0)))
                r.tight |= 1 << k
            rays.append(_Ray(l0, (1 << k) - 1))
            lin = new_lin
        else:
            vals = [_dot(c, r.vec) for r in rays]
            plus = [i for i, v in enumerate(vals) if v > 0]
            zero = [i for i, v in enumerate(vals) if v == 0]
            minus = [i for i, v in enumerate(vals) if v < 0]
            new_rays = [rays[i] for i in plus]
            for i in zero:
                rays[i].tight |= 1 << k
                new_rays.append(rays[i])
            for ip in plus:
                for im in minus:
                    if not _adjacent(rays, ip, im):
                        continue
                    vp, vm = vals[ip], vals[im]
                    vec = primitive(tuple(vp * x - vm * y for x, y in zip(rays[im].vec, rays[ip].vec)))
                    tight = (rays[ip].tight & rays[im].tight) | (1 << k)
                    new_rays.append(_Ray(vec, tight))
            rays = new_rays
    return rays, lin


def _adjacent(rays, ip: int, im: int) -> bool:
    z = rays[ip].tight & rays[im].tight
    return not any(
        i != ip and i != im and (rays[i].tight & z) == z for i in range(len(rays))
    )


def _sign_normalize(v: Vector) -> Vector:
    lead = next((x for x in v if x != 0), 0)
    return tuple(-x for x in v) if lead < 0 else v


@dataclass(frozen=True)
class Cone:
    """Homogeneous cone {x in R^ambient : c . x >= 0 for each c}."""

    ambient: int
    inequalities: tuple[Vector, ...]

    def __post_init__(self):
        ambient = _as_dim(self.ambient)
        rows = tuple(_as_ints(c) for c in _iter(self.inequalities, "a sequence of cone rows"))
        if any(len(c) != ambient for c in rows):
            raise ValueError("cone inequality has wrong length")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "inequalities", rows)

    def contains(self, x) -> bool:
        """Whether the point x, of length ``ambient``, satisfies every row."""
        x = tuple(_iter(x, "a point"))
        if len(x) != self.ambient:
            raise ValueError(f"point has length {len(x)}, expected {self.ambient}")
        return all(_dot(row, x) >= 0 for row in self.inequalities)

    @cached_property
    def _pass(self) -> tuple[tuple[_Ray, ...], tuple[Vector, ...]]:
        """The double description pass of the cone: (rays, lineality) as
        ``_dd_pair`` returns them, in tuples. Computed on first use and
        kept in the instance ``__dict__``; the records are shared, so no
        caller may change them."""
        rays, lin = _dd_pair(self.inequalities, self.ambient)
        return tuple(rays), tuple(lin)


def homogenize(p: Polyhedron) -> Cone:
    """The cone over ``p``: each (a, b) becomes (a, -b), plus height >= 0.
    It is built once per polyhedron and returned to every call."""
    return p._cone


def _tight_sets(masks, m: int) -> list[int]:
    """For each of m constraints, the bitmask of the generators tight on
    it, bit g standing for the generator with tight mask ``masks[g]``;
    without repeats, in constraint order."""
    return list(dict.fromkeys(sum(1 << g for g, t in enumerate(masks) if t >> i & 1) for i in range(m)))


def _facets(face: int, tight_sets) -> list[int]:
    """The facets of a face of a pointed cone, both as bitmasks over its
    generators: the maximal sets among ``face & t``, t in ``tight_sets``,
    other than ``face`` itself, in the order they first appear. Each has
    rank one less than ``face`` (Kaibel and Pfetsch, "Computing the face
    lattice of a polytope from its vertex-facet incidences", 2002)."""
    subs = dict.fromkeys(face & t for t in tight_sets)
    subs.pop(face, None)
    return [f for f in subs if not any(f != g and f & g == f for g in subs)]


def _triangulation(c: Cone) -> tuple[tuple[Vector, ...], list[tuple[int, ...]]]:
    """The sorted extreme rays of a pointed cone and a pulling
    triangulation of it, as ascending index tuples into the rays.

    Both come from one double description pass: a face is the set of rays
    tight on some constraints, kept as a bitmask over the rays. A face
    whose ray count equals its rank is a simplex. Any other face is coned
    from its first ray over the triangulations of its facets (``_facets``)
    that miss that ray (De Loera, Rambau and Santos, "Triangulations",
    Springer 2010, section 4.3). Only the whole cone is ranked, as the
    ambient dimension less the rank of its implicit equalities, the rows
    tight on every ray; each facet has rank one less than its face. A
    simplicial cone is its own triangulation, so its facets are never
    listed. ``NotPointed`` is raised when the cone contains a line.
    """
    rays, lin = c._pass
    if lin:
        raise NotPointed("the cone contains a line")
    tight = {r.vec: r.tight for r in rays}
    vecs = tuple(sorted(tight))
    if not vecs:
        return vecs, []
    common = -1
    for t in tight.values():
        common &= t
    rank = c.ambient - _rank([row for i, row in enumerate(c.inequalities) if common >> i & 1])
    if len(vecs) == rank:
        return vecs, [tuple(range(rank))]
    tight_sets = _tight_sets([tight[v] for v in vecs], len(c.inequalities))
    memo: dict[int, list[tuple[int, ...]]] = {}

    def pull(face: int, rank: int) -> list[tuple[int, ...]]:
        if face not in memo:
            members = [g for g in range(len(vecs)) if face >> g & 1]
            if len(members) == rank:
                memo[face] = [tuple(members)]
            else:
                first = members[0]
                memo[face] = [
                    (first,) + s
                    for f in _facets(face, tight_sets)
                    if not f >> first & 1
                    for s in pull(f, rank - 1)
                ]
        return memo[face]

    return vecs, pull((1 << len(vecs)) - 1, rank)


def vrep(p: Polyhedron) -> VRepresentation:
    """Vertex, ray, and lineality description of ``p``, read off the pass
    of its homogenization cone: a generator x of height h > 0 gives the
    vertex x / h, one of height 0 the ray x, and each lineality vector
    drops its height coordinate.

    Returns the empty representation when the polyhedron is empty.
    """
    if is_empty(p):
        return VRepresentation((), (), ())
    rays, lin = p._cone._pass
    return VRepresentation(
        tuple(sorted({tuple(Fraction(x, r.vec[-1]) for x in r.vec[:-1]) for r in rays if r.vec[-1]})),
        tuple(sorted({primitive(r.vec[:-1]) for r in rays if not r.vec[-1]})),
        tuple(sorted({_sign_normalize(primitive(l[:-1])) for l in lin})),
    )


def is_empty(p: Polyhedron) -> bool:
    """Whether ``p`` has no point: its vertex-mask index is empty."""
    return not p._vertex_masks


def is_bounded(p: Polyhedron) -> bool:
    """Whether ``p`` has no ray and no line: there is no lineality and
    every generator of the pass has positive height, so the vertex-mask
    index is as long as the pass's rays. The empty polyhedron is
    bounded."""
    rays, lin = p._cone._pass
    return is_empty(p) or (len(p._vertex_masks) == len(rays) and not lin)


def _support_mask(p: Polyhedron, s) -> int:
    """The bitmask of the 1-based inequality indices in ``s``: bit i - 1
    for index i. The support is read through ``_as_ints``, so a tuple of
    exact ints is taken after one type scan, and it raises ValueError when
    ``s`` is not iterable or an index is not an integer; an index out of
    range raises ValueError here."""
    n, mask = len(p.inequalities), 0
    for i in _as_ints(s):
        if i < 1 or i > n:
            raise ValueError("inequality index out of range (indices are 1-based)")
        mask |= 1 << (i - 1)
    return mask


def _face_nonempty(p: Polyhedron, want: int) -> bool:
    """Whether the face where the inequalities in the mask ``want`` hold
    with equality is nonempty: some generator of positive height is
    tight on all of them, so some mask of ``_vertex_masks`` contains
    ``want``."""
    for m in p._vertex_masks:
        if m & want == want:
            return True
    return False


def _held_face_nonempty(p: Polyhedron, want: int) -> bool:
    """``_face_nonempty`` from a pass over the face's own system (the
    cached pass when ``want`` is 0): whether some ray has positive height.
    Each row of the cone in the mask ``want`` goes in first, as the pair
    c, -c, and the other rows follow in order (Fukuda and Prodon, "Double
    description method revisited", 1996). Only
    ``minimal_unstable_supports`` calls it, so that it stays a route to the
    unstable supports that does not read the index, which the tests and
    the benchmark check ``is_semistable`` against."""
    c = p._cone
    pairs = [x for k, row in enumerate(c.inequalities) if want >> k & 1 for x in (row, tuple(-v for v in row))]
    rest = [row for k, row in enumerate(c.inequalities) if not want >> k & 1]
    rays, _ = _dd_pair(pairs + rest, c.ambient) if want else c._pass
    return any(r.vec[-1] > 0 for r in rays)


def face(p: Polyhedron, s) -> Face | None:
    """The face of ``p`` where the inequalities in ``s`` hold with equality.

    ``s`` contains 1-based inequality indices. Returns None when the face
    is empty. The returned active set is closed: it lists every inequality
    tight on the whole face, not only those in ``s``.

    The face is empty when no mask of the vertex-mask index of ``p``
    contains ``s`` (``_face_nonempty``). Otherwise its generators are
    those of the cached pass of ``p`` whose tight mask contains ``s``, so
    no pass is run on a polyhedron already queried. The witness is the
    mean of the face's vertices x / h plus the sum of its rays x.
    """
    want = _support_mask(p, s)
    if not _face_nonempty(p, want):
        return None
    rays, lin = p._cone._pass
    rays = [r for r in rays if r.tight & want == want]
    common = -1
    for r in rays:
        common &= r.tight
    active = frozenset(i + 1 for i in range(p.n_inequalities) if common >> i & 1)
    n = sum(1 for r in rays if r.vec[-1])
    witness = tuple(
        sum(Fraction(r.vec[j], n * r.vec[-1]) if r.vec[-1] else r.vec[j] for r in rays) for j in range(p.dim)
    )
    return Face(active, _rank([r.vec for r in rays] + list(lin)) - 1, witness)


def _rank(vectors) -> int:
    """Rank of integer vectors: the nonzero rows of their Hermite form. A
    face's dimension is the rank of its homogenized generators (lineality
    included) less one."""
    if not vectors:
        return 0
    return sum(1 for row in _hnf(IntMatrix(vectors)).entries if any(row))


def f_vector(p: Polyhedron) -> tuple[tuple[int, ...], bool]:
    """Face counts (f_0, ..., f_d) with d = dim(p), and a simplicity flag.

    Counts every nonempty face including the polyhedron itself; unbounded
    faces count like any other. The flag reports whether each vertex lies
    on exactly dim(p) facets. Computed once per polyhedron; raises
    ``EmptyPolyhedron`` or ``LinealityPresent`` on every call when the
    polyhedron is empty or holds a line.
    """
    return p._f_vector


def _face_counts(p: Polyhedron) -> tuple[tuple[int, ...], bool]:
    """``f_vector`` from the cached pass. A face is a bitmask over the
    pass's generators. The walk goes down from the whole cone one level
    at a time through ``_facets``, keeping the faces that hold a vertex:
    each level is one dimension lower than the last, so no face is
    ranked."""
    rays, lin = p._cone._pass
    index = range(len(rays))
    vertices = sum(1 << g for g in index if rays[g].vec[-1] > 0)
    if not vertices:
        raise EmptyPolyhedron("f-vector of the empty polyhedron")
    if lin:
        raise LinealityPresent("f-vector requires a pointed polyhedron")
    tight_sets = _tight_sets([r.tight for r in rays], len(p._cone.inequalities))
    levels = [{(1 << len(rays)) - 1}]
    while levels[-1]:
        # A nonempty face of a pointed polyhedron holds a vertex; a set of
        # rays alone is no face.
        levels.append({f for face in levels[-1] for f in _facets(face, tight_sets) if f & vertices})
    d = len(levels) - 2
    simple = all(sum(f >> g & 1 for f in levels[1]) == d for g in index if vertices >> g & 1)
    return tuple(len(level) for level in reversed(levels[:-1])), simple


def lattice_points(p: Polyhedron) -> list[Vector]:
    """All integer points of a bounded polyhedron, sorted lexicographically."""
    return _dilated_points(p, 1)


def _dilated_points(p: Polyhedron, r: int) -> list[Vector]:
    """The integer points of r * p, r >= 0, sorted, from the pass of ``p``:
    the box spanned by the vertices r * x / h of r * p, for the generators
    (x, h) of positive height, filtered by a . pt >= r * b. At r = 0 this is
    the cone {a . x >= 0}, generated by the pass's lineality and rays of
    height 0 even when ``p`` is empty; ``Unbounded`` is raised when that
    cone is not {0}, and for r >= 1 when ``p`` is not bounded."""
    rays, lin = p._cone._pass
    heights = [ray.vec[-1] for ray in rays]
    if (lin or not all(heights)) and (r == 0 or any(heights)):
        raise Unbounded("lattice points of an unbounded polyhedron")
    if r == 0:
        return [(0,) * p.dim]
    vertices = [ray.vec for ray in rays if ray.vec[-1] > 0]
    if not vertices:
        return []
    ranges = [
        range(min(-(-r * v[j] // v[-1]) for v in vertices), max(r * v[j] // v[-1] for v in vertices) + 1)
        for j in range(p.dim)
    ]
    rows = [(a, r * b) for a, b in p.inequalities]
    return [pt for pt in iproduct(*ranges) if all(_dot(a, pt) >= b for a, b in rows)]


def dilate(p: Polyhedron, m: int) -> Polyhedron:
    """The dilation m * p = {m x : x in p} for integer m >= 1."""
    m = as_int(m)
    if m < 1:
        raise ValueError("dilation factor must be a positive integer")
    return Polyhedron(p.dim, tuple((a, m * b) for a, b in p.inequalities))


def product(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    """Cartesian product, with p's inequalities first."""
    zp = tuple(0 for _ in range(p.dim))
    zq = tuple(0 for _ in range(q.dim))
    ineqs = [(a + zq, b) for a, b in p.inequalities]
    ineqs.extend((zp + a, b) for a, b in q.inequalities)
    return Polyhedron(p.dim + q.dim, tuple(ineqs))
