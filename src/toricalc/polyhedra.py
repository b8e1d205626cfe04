"""Exact polyhedral geometry over the rationals.

A polyhedron is given by integer inequality data ``a . p >= b``. This
module builds its homogenization cone, converts between that H-form and
the vertex/ray/lineality V-form with one incremental double description
pass over the cone, answers face queries and counts faces from the
tight-constraint masks of that one pass, and lists lattice points of
bounded polyhedra. The extreme rays of any homogeneous ``Cone`` come
from the same pass.

Everything is deterministic: inequalities are inserted in the order
given, generated rays are reduced to primitive integer vectors, and all
reported sets are sorted. No floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .errors import EmptyPolyhedron, LinealityPresent, Unbounded
from .lattice import as_int, primitive

Vector = tuple[int, ...]
Inequality = tuple[Vector, int]


@dataclass(frozen=True)
class Polyhedron:
    """H-polyhedron {p in R^dim : a . p >= b for each inequality (a, b)}."""

    dim: int
    inequalities: tuple[Inequality, ...]

    def __post_init__(self):
        dim = as_int(self.dim)
        rows = tuple((tuple(map(as_int, a)), as_int(b)) for a, b in self.inequalities)
        if any(len(a) != dim for a, _ in rows):
            raise ValueError("inequality normal has wrong length")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "inequalities", rows)

    @property
    def n_inequalities(self) -> int:
        return len(self.inequalities)


def polyhedron(dim: int, inequalities) -> Polyhedron:
    """Build a Polyhedron from any nested iterable of (a, b) pairs."""
    return Polyhedron(dim, tuple(inequalities))


def interval(lo: int, hi: int) -> Polyhedron:
    """The segment [lo, hi] on the line: {p >= lo, -p >= -hi}."""
    return polyhedron(1, [((1,), lo), ((-1,), -hi)])


def positive_orthant(dim: int) -> Polyhedron:
    dim = as_int(dim)
    return polyhedron(dim, [(tuple(1 if j == i else 0 for j in range(dim)), 0) for i in range(dim)])


def standard_simplex(dim: int) -> Polyhedron:
    dim = as_int(dim)
    ineqs = [(tuple(1 if j == i else 0 for j in range(dim)), 0) for i in range(dim)]
    ineqs.append((tuple(-1 for _ in range(dim)), -1))
    return polyhedron(dim, ineqs)


def unit_cube(dim: int) -> Polyhedron:
    p = Polyhedron(0, ())
    for _ in range(as_int(dim)):
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

    @property
    def is_empty(self) -> bool:
        return not (self.vertices or self.rays or self.lineality)

    @property
    def is_bounded(self) -> bool:
        return not (self.rays or self.lineality)


@dataclass(frozen=True)
class Face:
    """A nonempty face: its closed active set (1-based inequality indices),
    dimension, and a relative-interior witness point."""

    active: frozenset[int]
    dim: int
    witness: tuple[Fraction, ...]


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


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
        ambient = as_int(self.ambient)
        rows = tuple(tuple(map(as_int, c)) for c in self.inequalities)
        if any(len(c) != ambient for c in rows):
            raise ValueError("cone inequality has wrong length")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "inequalities", rows)

    def contains(self, x) -> bool:
        return all(sum(c * v for c, v in zip(row, x)) >= 0 for row in self.inequalities)


def _homogenized_rows(p: Polyhedron) -> list[Vector]:
    """Rows of the cone over ``p``: (a, -b) for each inequality in order,
    then the height row."""
    rows = [a + (-b,) for a, b in p.inequalities]
    rows.append(tuple(0 for _ in range(p.dim)) + (1,))
    return rows


def homogenize(p: Polyhedron) -> Cone:
    """The cone over ``p``: each (a, b) becomes (a, -b), plus height >= 0."""
    return Cone(p.dim + 1, tuple(_homogenized_rows(p)))


def extreme_rays(c: Cone) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """(extreme rays, lineality basis) of the cone, primitive and sorted;
    lineality vectors have their first nonzero coordinate positive."""
    rays, lin = _dd_pair(c.inequalities, c.ambient)
    return tuple(sorted({r.vec for r in rays})), tuple(sorted({_sign_normalize(l) for l in lin}))


def _generators(p: Polyhedron):
    """One double description pass over the homogenization cone of ``p``.

    Returns (rays, lineality): rays are _Ray records (height last) whose
    mask has bit i - 1 for inequality i and bit n for the height row,
    with n inequalities; the lineality vectors have height 0 and are
    tight everywhere. The rows go straight to ``_dd_pair``, since
    ``Polyhedron`` has already checked them.
    """
    return _dd_pair(_homogenized_rows(p), p.dim + 1)


def _split_generators(rays, lin):
    """Split homogenization-cone generators at height 1 / height 0."""
    vertices = []
    rec_rays = []
    for r in rays:
        h = r.vec[-1]
        if h > 0:
            vertices.append(tuple(Fraction(x, h) for x in r.vec[:-1]))
        else:
            rec_rays.append(primitive(r.vec[:-1]))
    lineality = [_sign_normalize(primitive(l[:-1])) for l in lin]
    return vertices, rec_rays, lineality


def vrep(p: Polyhedron) -> VRepresentation:
    """Vertex, ray, and lineality description of ``p``.

    Returns the empty representation when the polyhedron is empty.
    """
    vertices, rec_rays, lineality = _split_generators(*_generators(p))
    if not vertices:
        return VRepresentation((), (), ())
    return VRepresentation(
        tuple(sorted(set(vertices))),
        tuple(sorted(set(rec_rays))),
        tuple(sorted(set(lineality))),
    )


def is_empty(p: Polyhedron) -> bool:
    return vrep(p).is_empty


def is_bounded(p: Polyhedron) -> bool:
    return vrep(p).is_bounded


def _check_indices(p: Polyhedron, s) -> frozenset[int]:
    s = frozenset(map(as_int, s))
    if any(i < 1 or i > p.n_inequalities for i in s):
        raise ValueError("inequality index out of range (indices are 1-based)")
    return s


def face(p: Polyhedron, s) -> Face | None:
    """The face of ``p`` where the inequalities in ``s`` hold with equality.

    ``s`` contains 1-based inequality indices. Returns None when the face
    is empty. The returned active set is closed: it lists every inequality
    tight on the whole face, not only those in ``s``.

    The face is read off the one double description pass of ``p``: its
    generators are those whose tight mask contains ``s``, and it is empty
    when none of them has positive height. The witness is the mean of the
    face's vertices plus the sum of its rays.
    """
    s = _check_indices(p, s)
    want = sum(1 << (i - 1) for i in s)
    rays, lin = _generators(p)
    kept = [r for r in rays if r.tight & want == want]
    heights = [r.vec[-1] for r in kept if r.vec[-1] > 0]
    if not heights:
        return None
    common = -1
    for r in kept:
        common &= r.tight
    active = frozenset(i + 1 for i in range(p.n_inequalities) if common >> i & 1)
    # Over the common denominator n * scale, the mean of the vertices x/h
    # takes x * scale/h from each, and the sum of the rays x * n * scale.
    n = len(heights)
    scale = math.lcm(*heights)
    sums = [0] * p.dim
    for r in kept:
        h = r.vec[-1]
        weight = scale // h if h else n * scale
        for j in range(p.dim):
            sums[j] += weight * r.vec[j]
    witness = tuple(Fraction(x, n * scale) for x in sums)
    return Face(active, _face_dim([r.vec for r in kept] + lin), witness)


def _face_dim(generators) -> int:
    """Dimension of a face from its homogenized generators (vertices at
    positive height, rays and lineality at height 0): their rank less
    one, by fraction-free (Bareiss) elimination."""
    rows = [list(g) for g in generators if any(g)]
    rank = 0
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in rows if r[c]), None)
        if piv is None:
            continue
        rows.remove(piv)
        pc = piv[c]
        rows = [[(pc * x - r[c] * y) // prev for x, y in zip(r, piv)] for r in rows]
        rows = [r for r in rows if any(r)]
        prev = pc
        rank += 1
    return rank - 1


def f_vector(p: Polyhedron) -> tuple[tuple[int, ...], bool]:
    """Face counts (f_0, ..., f_d) with d = dim(p), and a simplicity flag.

    Counts every nonempty face including the polyhedron itself; unbounded
    faces count like any other. The flag reports whether each vertex lies
    on exactly dim(p) facets.
    """
    rays, lin = _generators(p)
    is_vertex = [r.vec[-1] > 0 for r in rays]
    if not any(is_vertex):
        raise EmptyPolyhedron("f-vector of the empty polyhedron")
    if lin:
        raise LinealityPresent("f-vector requires a pointed polyhedron")
    top = frozenset(range(len(rays)))
    seen = {top}
    queue = [top]
    while queue:
        cur = queue.pop()
        for i in range(p.n_inequalities):
            sub = frozenset(g for g in cur if rays[g].tight >> i & 1)
            # A nonempty face of a pointed polyhedron holds a vertex; a
            # set of rays alone is no face.
            if any(is_vertex[g] for g in sub) and sub != cur and sub not in seen:
                seen.add(sub)
                queue.append(sub)
    dims = {fs: _face_dim([rays[g].vec for g in fs]) for fs in seen}
    d = dims[top]
    counts = [0] * (d + 1)
    for fs, fd in dims.items():
        counts[fd] += 1
    facets = [fs for fs, fd in dims.items() if fd == d - 1]
    simple = True
    for gi in range(len(rays)):
        if not is_vertex[gi]:
            continue
        if sum(1 for fs in facets if gi in fs) != d:
            simple = False
            break
    return tuple(counts), simple


def lattice_points(p: Polyhedron) -> list[Vector]:
    """All integer points of a bounded polyhedron, sorted lexicographically."""
    v = vrep(p)
    if v.rays or v.lineality:
        raise Unbounded("lattice points of an unbounded polyhedron")
    if not v.vertices:
        return []
    ranges = []
    for j in range(p.dim):
        coords = [vt[j] for vt in v.vertices]
        ranges.append(range(math.ceil(min(coords)), math.floor(max(coords)) + 1))
    out = []
    for pt in iproduct(*ranges):
        if all(_dot(a, pt) >= b for a, b in p.inequalities):
            out.append(pt)
    return out


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
