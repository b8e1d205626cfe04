"""Reference routines shared by the tests, kept out of the library.

``det`` checks that the transforms of the normal forms are unimodular.
``rational_det`` is a determinant by Gaussian elimination over
``fractions.Fraction``, the reference for the Bareiss one of ``det``.
``hermite_blocks`` splits the Hermite form of [M | I] into its left block
and the transform U in its right block, so U M is the left block.
``left_kernel_by_smith`` is the saturated left kernel by the route
``_left_kernel`` took before it read the kernel off that Hermite form:
the rows of the Smith form's U past the rank, put in Hermite form.
``rational_rank`` and ``solve_rational`` are Gaussian elimination over
``fractions.Fraction``: a rank and a linear solve that do not go through
the Smith form.  ``proj_equal_by_kernel`` decides projective equality of
evaluation vectors over C by the lattice of relations among the degrees,
not by ``proj_equal``'s Bezout combination.  ``same_quotient_point``
decides whether two points give one point of the quotient by the
paper's geometric definition, from orbit closures read off the faces of
the polyhedron, without evaluating any invariant.
``face_from_full_pass`` answers a face query by a double description
pass of the whole polyhedron of its own, filtered by tight mask
afterwards; ``face_nonempty_from_full_pass`` asks it of a mask and stands
in for the per-support pass of ``minimal_unstable_supports``.
``f_vector_by_frozensets`` counts faces by the walk ``f_vector`` replaced:
faces as frozensets of generator indices, from a pass of its own.
``extreme_rays`` lists the extreme rays and lineality of a cone from
that pass, sorted, as the order ``hilbert_basis`` numbers the rays in.
``hilbert_basis_by_differences`` reduces the Hilbert basis candidates by
testing each difference against the cone, as ``hilbert_basis`` did
before it compared the candidates' values under the inequality rows.
``hilbert_function_by_dilation`` counts the lattice points of r * p over a
box that Fourier-Motzkin elimination reads from the inequalities alone.
``scan_invariant_count`` counts invariant monomials of bounded exponents
by testing weight zero against the weight rows, and
``polytope_invariant_count`` counts the same monomials as lattice points
through the normals of delta.
``evaluate_by_fractions`` evaluates the generating invariants by one
``Fraction`` power and multiply per coordinate, the route
``evaluate_invariants`` took before it multiplied numerators and
denominators as integers.
``semistable_by_weight_cone`` decides semistability from the weights by
Fourier-Motzkin elimination, without the polyhedron.
``matmul``, ``transpose`` and ``identity`` are the matrix algebra the
normal form and kernel tests check against; the library computes none of
them. ``normals`` is the normal matrix of a polyhedron, whose rows are
the images of the coordinate characters when the polyhedron is
``delta``. ``positive_orthant`` and ``homogenized_rows`` build the orthant and
the rows of the cone over a polyhedron (each inequality (a, b) as
(a, -b), then the height row) from their definitions.
"""

import math
from fractions import Fraction
from itertools import product as iproduct

from toricalc.actions import delta
from toricalc.errors import AllZero, EmptyPolyhedron, LinealityPresent, Unbounded
from toricalc.lattice import IntMatrix, _hnf, _left_kernel, invariant_factors_from, snf
from toricalc.polyhedra import (
    Face,
    _dd_pair,
    _rank,
    _sign_normalize,
    _support_mask,
    _triangulation,
    face,
    lattice_points,
    polyhedron,
)
from toricalc.semigroups import _parallelepiped_points, graded_generators


def matmul(a, b):
    """The product of two IntMatrix values."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch in matrix product")
    cols = transpose(b).entries
    rows = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.entries]
    return IntMatrix(rows, b.ncols)


def transpose(m):
    """The transpose of an IntMatrix, zero-row and zero-column shapes kept."""
    return IntMatrix(tuple(zip(*m.entries)) if m.entries else ((),) * m.ncols, m.nrows)


def identity(n):
    """The n x n identity IntMatrix."""
    return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)


def hermite_blocks(m):
    """The left and right blocks of ``_hnf`` of [M | I]. Its rows are
    (u M, u) for the rows u of a unimodular U, so U, the right block,
    times M is the left block."""
    rows = _hnf(IntMatrix([a + b for a, b in zip(m.entries, identity(m.nrows).entries)], m.ncols + m.nrows)).entries
    return IntMatrix([r[: m.ncols] for r in rows], m.ncols), IntMatrix([r[m.ncols :] for r in rows], m.nrows)


def left_kernel_by_smith(m):
    """A basis of the saturated lattice {w : w M = 0} in Hermite form, from
    one Smith form U M V = D: U is unimodular and the rows of D past the
    rank are zero, so the rows of U past the rank are a basis of it."""
    nf = snf(m)
    rank = len(invariant_factors_from(nf))
    return _hnf(IntMatrix(nf.U.entries[rank:], m.nrows))


def normals(p):
    """The normal matrix of a polyhedron: row i is the normal of inequality i."""
    return IntMatrix([a for a, _ in p.inequalities], p.dim)


def positive_orthant(dim):
    """The polyhedron {p in R^dim : p >= 0}, one inequality per coordinate."""
    return polyhedron(dim, [(row, 0) for row in identity(dim).entries])


def homogenized_rows(p):
    """The rows of the cone over ``p``: (a, -b) for each inequality (a, b)
    in order, then the height row."""
    return [a + (-b,) for a, b in p.inequalities] + [(0,) * p.dim + (1,)]


def det(m) -> int:
    """Exact determinant of an IntMatrix via fraction-free (Bareiss)
    elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a nonsquare matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rational_det(vectors) -> Fraction:
    """Determinant of n rational vectors in Q^n, by Gaussian elimination
    over ``fractions.Fraction``."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    out = Fraction(1)
    for c in range(len(rows)):
        piv = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            out = -out
        out *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


def _row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place Gauss-Jordan over Fraction rows. Returns (rows, pivot columns)."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def rational_rank(vectors) -> int:
    """Rank of a list of rational vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    if not rows:
        return 0
    _, pivots = _row_reduce(rows)
    return len(pivots)


def solve_rational(a_rows, rhs):
    """One exact solution of ``A x = rhs`` over the rationals, or None.

    ``a_rows`` is a sequence of matrix rows. When the system is consistent
    a particular solution with zero free variables is returned.
    """
    a_rows = [list(r) for r in a_rows]
    rhs = list(rhs)
    if len(a_rows) != len(rhs):
        raise ValueError("shape mismatch in linear system")
    if not a_rows:
        return ()
    nc = len(a_rows[0])
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(a_rows, rhs)]
    rows, pivots = _row_reduce(rows)
    if nc in pivots:
        return None
    for row in rows:
        if row[nc] != 0 and all(x == 0 for x in row[:nc]):
            return None
    x = [Fraction(0)] * nc
    for r, c in enumerate(pivots):
        x[c] = rows[r][nc]
    return tuple(x)


def proj_equal_by_kernel(v, w) -> bool:
    """``toricalc.actions.proj_equal`` by the lattice of degree relations.

    Some complex s has s ** d_j = rho_j for every ratio rho_j of the
    nonzero positive-degree pairs iff prod(rho_j ** k_j) = 1 for each row
    k of a basis of the integer vectors with sum(k_j * d_j) = 0, read
    from ``_left_kernel`` of the degree column: the image of s -> (s ** d_j)
    is the subtorus those characters cut out.
    """
    left = [(Fraction(val), int(d)) for val, d in v]
    right = [(Fraction(val), int(d)) for val, d in w]
    if [d for _, d in left] != [d for _, d in right]:
        raise ValueError("evaluations must come from the same generator list")
    pos_left = [(val, d) for val, d in left if d > 0]
    pos_right = [(val, d) for val, d in right if d > 0]
    if all(val == 0 for val, _ in pos_left) or all(val == 0 for val, _ in pos_right):
        raise AllZero("unstable point has no projective image")
    for (a, d), (b, _) in zip(left, right):
        if d == 0 and a != b:
            return False
    for (a, _), (b, _) in zip(pos_left, pos_right):
        if (a == 0) != (b == 0):
            return False
    pairs = [(b / a, d) for (a, d), (b, _) in zip(pos_left, pos_right) if a != 0]
    _, kernel = _left_kernel(IntMatrix([(d,) for _, d in pairs], 1))
    return all(math.prod(ratio**k for (ratio, _), k in zip(pairs, row)) == 1 for row in kernel.entries)


def same_quotient_point(action, x, y) -> bool:
    """Whether x and y give one point of the quotient, from orbit closures.

    The closed orbit in the closure of the orbit of a semistable x vanishes
    exactly on the closed active set A(x) of ``face(delta, Z(x))``, where
    Z(x) is the zero set of x; the face is empty, and AllZero is raised,
    when x is unstable. Then x ~ y iff A(x) = A(y) and the coordinates
    off A differ by an element of the group: prod((y_i / x_i) ** m_i) = 1
    for each row m of ``_left_kernel`` of the columns of the weight matrix
    outside A (Cox-Little-Schenck, Toric Varieties, ch. 5 and 14).
    """
    p = delta(action)
    x, y = [Fraction(c) for c in x], [Fraction(c) for c in y]
    closed = []
    for point in (x, y):
        f = face(p, [i + 1 for i, c in enumerate(point) if c == 0])
        if f is None:
            raise AllZero("unstable point has no projective image")
        closed.append(f.active)
    if closed[0] != closed[1]:
        return False
    off = [i for i in range(action.n) if i + 1 not in closed[0]]
    columns = [[row[i] for row in action.weights.entries] for i in off]
    _, kernel = _left_kernel(IntMatrix(columns, action.weights.nrows))
    return all(math.prod((y[i] / x[i]) ** m for i, m in zip(off, row)) == 1 for row in kernel.entries)


def face_from_full_pass(p, s):
    """``toricalc.polyhedra.face`` from a fresh full double description
    pass of ``p``, never the cached one, then only the generators whose
    tight mask contains ``s``; witness, dimension and active set as
    ``face`` takes them. ``face`` filters the cached pass the same way;
    ``minimal_unstable_supports`` instead runs a pass per support over
    that face's own system, and this is its reference route."""
    want = _support_mask(p, s)
    rays, lin = _dd_pair(homogenized_rows(p), p.dim + 1)
    kept = [r for r in rays if r.tight & want == want]
    heights = [r.vec[-1] for r in kept if r.vec[-1] > 0]
    if not heights:
        return None
    common = -1
    for r in kept:
        common &= r.tight
    active = frozenset(i + 1 for i in range(p.n_inequalities) if common >> i & 1)
    n = len(heights)
    scale = math.lcm(*heights)
    sums = [0] * p.dim
    for r in kept:
        h = r.vec[-1]
        weight = scale // h if h else n * scale
        for j in range(p.dim):
            sums[j] += weight * r.vec[j]
    witness = tuple(Fraction(x, n * scale) for x in sums)
    return Face(active, _rank([r.vec for r in kept] + lin) - 1, witness)


def face_nonempty_from_full_pass(p, want):
    """``polyhedra._held_face_nonempty`` by ``face_from_full_pass``: whether
    the face of the inequalities in the mask ``want``, bit i - 1 for
    inequality i, is nonempty."""
    return face_from_full_pass(p, [i + 1 for i in range(p.n_inequalities) if want >> i & 1]) is not None


def semistable_by_weight_cone(action, support) -> bool:
    """``toricalc.actions.is_semistable`` from the weights alone.

    An invariant x^e t^r of positive degree r that vanishes nowhere off
    the 1-based ``support`` has W e = -r W alpha with e >= 0 and e_j = 0
    on the support. So the support is semistable iff -W alpha lies in the
    cone of the weight columns w_j, j outside the support. Membership is
    decided by Fourier-Motzkin elimination of the cone coefficients from
    ``sum_j lam_j w_j = -W alpha``, ``lam >= 0``, in ``Fraction``s.
    """
    zero = set(support)
    outside = [j for j in range(action.n) if j + 1 not in zero]
    m = len(outside)
    # A row (c, b) stands for c . lam <= b.
    rows = []
    for w in action.weights.entries:
        c = [Fraction(w[j]) for j in outside]
        b = Fraction(-sum(x * a for x, a in zip(w, action.alpha)))
        rows += [(c, b), ([-x for x in c], -b)]
    rows += [([Fraction(-(i == j)) for j in range(m)], Fraction(0)) for i in range(m)]
    rows = _fm_reduce(rows)
    for v in range(m):
        if rows is None:
            return False
        rows = _fm_eliminate(rows, v)
    return rows is not None


def _fm_eliminate(rows, v):
    """The rows c . lam <= b with variable v eliminated by combining each
    row where it has a positive coefficient with each where it has a
    negative one, reduced by ``_fm_reduce``."""
    pos = [r for r in rows if r[0][v] > 0]
    neg = [r for r in rows if r[0][v] < 0]
    kept = [r for r in rows if r[0][v] == 0]
    for cp, bp in pos:
        for cn, bn in neg:
            sp, sn = -cn[v], cp[v]
            kept.append(([sp * x + sn * y for x, y in zip(cp, cn)], sp * bp + sn * bn))
    return _fm_reduce(kept)


def _fm_reduce(rows):
    """Scale each row c . lam <= b so that its first nonzero coefficient
    has absolute value 1 and keep the least b per c; None when a row with
    c = 0 has b < 0, so the system has no solution."""
    best = {}
    for c, b in rows:
        lead = next((abs(x) for x in c if x), None)
        if lead is None:
            if b < 0:
                return None
            continue
        key = tuple(x / lead for x in c)
        b /= lead
        if key not in best or b < best[key]:
            best[key] = b
    return [(list(c), b) for c, b in best.items()]


def extreme_rays(c):
    """(extreme rays, lineality basis) of the cone, primitive and sorted;
    lineality vectors have their first nonzero coordinate positive."""
    rays, lin = _dd_pair(c.inequalities, c.ambient)
    return tuple(sorted({r.vec for r in rays})), tuple(sorted({_sign_normalize(l) for l in lin}))


def hilbert_basis_by_differences(c):
    """``toricalc.semigroups.hilbert_basis`` with the reduction rule it
    replaced: from the same candidates, in the same grading order, g is
    kept unless the difference g - h lies in the cone (``Cone.contains``)
    for an h kept before it. Nothing is cached."""
    rays, simplices = _triangulation(c)
    candidates = set(rays)
    for simplex in simplices:
        candidates.update(_parallelepiped_points([rays[i] for i in simplex]))
    candidates.discard(tuple(0 for _ in range(c.ambient)))
    grading = [sum(col) for col in zip(*c.inequalities)]
    basis = []
    for g in sorted(candidates, key=lambda x: (sum(w * v for w, v in zip(grading, x)), x)):
        if not any(c.contains(tuple(a - b for a, b in zip(g, h))) for h in basis):
            basis.append(g)
    return sorted(basis)


def f_vector_by_frozensets(p):
    """``toricalc.polyhedra.f_vector`` by the route it replaced: a fresh
    double description pass, then a walk over faces kept as frozensets of
    generator indices, each intersected with every inequality's tight
    set."""
    rays, lin = _dd_pair(homogenized_rows(p), p.dim + 1)
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
            if any(is_vertex[g] for g in sub) and sub != cur and sub not in seen:
                seen.add(sub)
                queue.append(sub)
    dims = {fs: _rank([rays[g].vec for g in fs]) - 1 for fs in seen}
    d = dims[top]
    counts = [0] * (d + 1)
    for fd in dims.values():
        counts[fd] += 1
    facets = [fs for fs, fd in dims.items() if fd == d - 1]
    simple = all(
        sum(1 for fs in facets if g in fs) == d for g in range(len(rays)) if is_vertex[g]
    )
    return tuple(counts), simple


def hilbert_function_by_dilation(p, r):
    """``toricalc.semigroups.hilbert_function`` from the inequalities
    alone, with no double description pass: r * p is {a . x >= r * b}.
    Fourier-Motzkin elimination of the other coordinates bounds each
    coordinate. An infeasible system counts 0, since its projection on
    the first coordinate is empty; a feasible one with a coordinate
    bounded on one side only raises ``Unbounded``; otherwise the lattice
    points of the bounding box are counted against the inequalities."""
    rows = _fm_reduce([([Fraction(-x) for x in a], Fraction(-r * b)) for a, b in p.inequalities])
    box = []
    for j in range(p.dim):
        proj = rows
        for v in range(p.dim):
            if v != j and proj is not None:
                proj = _fm_eliminate(proj, v)
        if proj is None:
            return 0
        upper = [b for c, b in proj if c[j] > 0]
        lower = [-b for c, b in proj if c[j] < 0]
        if upper and lower and max(lower) > min(upper):
            return 0
        if not (upper and lower):
            raise Unbounded("lattice points of an unbounded polyhedron")
        box.append(range(math.ceil(max(lower)), math.floor(min(upper)) + 1))
    return sum(
        all(sum(x * y for x, y in zip(a, pt)) >= r * b for a, b in p.inequalities) for pt in iproduct(*box)
    )


def scan_invariant_count(action, r, emax):
    """Count invariant monomials x^e t^r with all e_i <= emax, found by
    testing weight-zero directly against the weight rows."""
    rows = action.weights.entries
    count = 0
    for e in iproduct(range(emax + 1), repeat=action.n):
        v = [ei + r * ai for ei, ai in zip(e, action.alpha)]
        if all(sum(wi * vi for wi, vi in zip(row, v)) == 0 for row in rows):
            count += 1
    return count


def polytope_invariant_count(action, r, emax):
    """The same count via lattice points p with r*alpha <= A p <= r*alpha + emax,
    A the normal matrix of delta."""
    a = normals(delta(action))
    ineqs = []
    for row, alpha in zip(a.entries, action.alpha):
        lo = r * alpha
        ineqs.append((row, lo))
        ineqs.append((tuple(-x for x in row), -(lo + emax)))
    return len(lattice_points(polyhedron(a.ncols, ineqs)))


def evaluate_by_fractions(action, point, bound):
    """(value, degree) per graded generator (p, r) of degree <= bound: the
    product over i of point_i ** (p . a_i - r * alpha_i), with the a_i the
    normals of delta, multiplied as Fractions."""
    a = normals(delta(action))
    coords = [Fraction(c) for c in point]
    out = []
    for g in graded_generators(delta(action)):
        if g.degree > bound:
            continue
        value = Fraction(1)
        for i, c in enumerate(coords):
            value *= c ** (sum(x * y for x, y in zip(g.point, a.entries[i])) - g.degree * action.alpha[i])
        out.append((value, g.degree))
    return out
