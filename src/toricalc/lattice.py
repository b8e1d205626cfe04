"""Exact integer linear algebra.

Two eliminations, a row Hermite normal form and a Smith normal form with
its unimodular transforms, and one closed-form inverse of a small square
matrix. All arithmetic is exact; matrices are immutable tuples of tuples
of Python ints.

Conventions:
  * ``_hnf(M)`` returns the row Hermite form D of M, pivots positive and
    entries above each pivot reduced into ``[0, pivot)``; the transform is
    not kept. Pivot choice is leftmost column, then smallest absolute
    value, then lowest row index. D depends only on the row lattice of M,
    so it is canonical, and its nonzero rows count the rank.
  * ``_left_kernel(M)`` reads D and the saturated left kernel of M off
    one Hermite form of [M | I] (Cohen, "A Course in Computational
    Algebraic Number Theory", GTM 138, section 2.4): the kernel basis
    is the right block past the rank, itself in Hermite form.
  * ``snf(M)`` returns ``U, V`` with U M V = D diagonal, ``d_i >= 0`` and
    ``d_i | d_{i+1}``. Each step takes the entry of least absolute value,
    first in row-major order, as its pivot, and clears its column and row
    by Euclid steps on the least remaining entry. When the pivot divides
    every entry of the column (or row), the steps leave the pivot's own
    row (or column) unchanged and commute, so the column is cleared in
    one sweep; a unit pivot divides everything, and the divisibility
    scan of the rest of the block is skipped. D, U and V are pinned by
    ``tests/data/snf_corpus.json``: the columns of V past the rank are
    the basis of delta. It is the one entry point to the Smith form.
  * ``_inverse(R)`` returns det R and the adjugate of a nonsingular
    square R of size 2 to 4, by cofactors with no elimination; None
    otherwise. The double description pass starts from it, and a square
    simplicial cone reads its parallelepiped points off it.

``as_int`` is the package's only rule for integer input: the value types
and the entries that take integers directly pass through it, and nothing
below them converts again. Both it and ``_as_ints``, which applies it to
a row, have a fast path for values that are already exact: an ``x`` with
``type(x) is int`` is returned after that one test, and a row with
``type(row) is tuple`` whose entries all pass it is returned itself after
one scan, so such a row is neither copied nor converted entry by entry.
The test is ``type(...) is``, never ``isinstance``: a ``bool``, an
``int`` subclass, a float, a ``Fraction``, a tuple subclass, a list or a
generator takes the full conversion, so ``True`` still becomes ``1`` and
a ``namedtuple`` row a plain tuple. ``_as_dim`` adds the one further
rule for a dimension: it may not be negative. ``_iter`` is the one rule
for a container (a row, the rows of a matrix, an inequality list or an
evaluation vector): one that is not iterable raises ValueError.
``_pair`` adds the one rule for a pair (an inequality (a, b) or a
(value, degree) entry): one that does not hold exactly two entries
raises ValueError naming what was expected, as ``_iter`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd


def as_int(x) -> int:
    """``int(x)`` when that equals ``x``; ValueError otherwise, never rounding.
    An exact ``int`` (``type(x) is int``, so not a ``bool`` or a subclass)
    is returned after that one test."""
    if type(x) is int:
        return x
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"expected an integer, got {x!r}") from None
    if n != x:
        raise ValueError(f"expected an integer, got {x!r}")
    return n


def _iter(xs, what: str):
    """``iter(xs)``; ValueError naming ``what`` when ``xs`` is not iterable."""
    try:
        return iter(xs)
    except TypeError:
        raise ValueError(f"expected {what}, got {xs!r}") from None


def _pair(xs, what: str):
    """The two entries of ``xs``; ValueError naming ``what`` when ``xs`` is
    not iterable or does not hold exactly two."""
    try:
        a, b = xs
    except (TypeError, ValueError):
        raise ValueError(f"expected {what}, got {xs!r}") from None
    return a, b


def _as_ints(row) -> tuple[int, ...]:
    """``as_int`` of each entry of ``row``, as a tuple. A row that is already
    a ``tuple`` (``type(row) is tuple``) of exact ``int``s is returned
    itself after one scan; any other row is rebuilt, letting an exact
    ``int`` through as it is. ValueError when ``row`` is not iterable."""
    if type(row) is tuple:
        for x in row:
            if type(x) is not int:
                break
        else:
            return row
    return tuple(x if type(x) is int else as_int(x) for x in _iter(row, "a row of integers"))


def _as_dim(x) -> int:
    """``as_int(x)`` for a dimension, which may not be negative."""
    n = as_int(x)
    if n < 0:
        raise ValueError(f"expected a nonnegative dimension, got {x!r}")
    return n


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix.

    ``entries`` may be any iterable of rows, each checked by ``_as_ints``.
    ``ncols`` is stored explicitly so zero-row matrices keep their shape.
    """

    entries: tuple[tuple[int, ...], ...]
    ncols: int = -1

    def __post_init__(self):
        rows = tuple(_as_ints(row) for row in _iter(self.entries, "a sequence of rows"))
        width = len(rows[0]) if rows else as_int(self.ncols)
        if width < 0:
            raise ValueError("zero-row matrix needs an explicit ncols")
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        if self.ncols not in (-1, width):
            raise ValueError("ncols does not match row length")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "ncols", width)

    @property
    def nrows(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class NormalForm:
    """The Smith normal form D of M with its unimodular transforms:
    U M V = D."""

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix


def _swap(rows, i, j):
    rows[i], rows[j] = rows[j], rows[i]


def _negate(rows, i):
    rows[i] = [-x for x in rows[i]]


def _row_sub(rows, i, q, j):
    """rows[i] -= q * rows[j]"""
    rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]


def _hnf(m: IntMatrix) -> IntMatrix:
    """The row Hermite normal form D of M, so D = U M for a unimodular U
    that is not kept."""
    nr, nc = m.nrows, m.ncols
    d = [list(r) for r in m.entries]
    prow = 0
    for col in range(nc):
        if prow == nr:
            break
        while True:
            nz = [r for r in range(prow, nr) if d[r][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda r: (abs(d[r][col]), r))
            if piv != prow:
                _swap(d, piv, prow)
            below = [r for r in range(prow + 1, nr) if d[r][col] != 0]
            if not below:
                break
            for r in below:
                _row_sub(d, r, d[r][col] // d[prow][col], prow)
        if d[prow][col] == 0:
            continue
        if d[prow][col] < 0:
            _negate(d, prow)
        for r in range(prow):
            q = d[r][col] // d[prow][col]
            if q:
                _row_sub(d, r, q, prow)
        prow += 1
    return IntMatrix(_rows(d), nc)


def _smith_pivot(d, t):
    """(i, j) with i, j >= t of the least nonzero |d[i][j]|, first in
    row-major order; None when that block is zero. No entry beats a unit,
    so the scan stops at the first one."""
    best = None
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            x = row[j]
            if x:
                a = abs(x)
                if a == 1:
                    return i, j
                if best is None or a < best[0]:
                    best = (a, i, j)
    return best and best[1:]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def snf(m: IntMatrix) -> NormalForm:
    """Smith normal form with transforms: U M V = D."""
    nr, nc = m.nrows, m.ncols
    d = [list(r) for r in m.entries]
    u = _identity(nr)
    v = _identity(nc)

    def col_swap(i, j):
        for row in chain(d, v):
            row[i], row[j] = row[j], row[i]

    def col_sub(i, q, j):
        """column i -= q * column j"""
        for row in chain(d, v):
            row[i] -= q * row[j]

    for t in range(min(nr, nc)):
        piv = _smith_pivot(d, t)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            _swap(d, pi, t)
            _swap(u, pi, t)
        if pj != t:
            col_swap(pj, t)
        while True:
            p = d[t][t]
            unit = p == 1 or p == -1
            col = [i for i in range(t + 1, nr) if d[i][t]]
            if not unit and any(d[i][t] % p for i in col):
                i = min(col, key=lambda i: (abs(d[i][t]), i))
                q = d[i][t] // p
                _row_sub(d, i, q, t)
                _row_sub(u, i, q, t)
                if d[i][t]:
                    _swap(d, i, t)
                    _swap(u, i, t)
                continue
            for i in col:
                q = d[i][t] // p
                _row_sub(d, i, q, t)
                _row_sub(u, i, q, t)
            row = [j for j in range(t + 1, nc) if d[t][j]]
            if not unit and any(d[t][j] % p for j in row):
                j = min(row, key=lambda j: (abs(d[t][j]), j))
                col_sub(j, d[t][j] // p, t)
                if d[t][j]:
                    col_swap(j, t)
                continue
            for j in row:
                col_sub(j, d[t][j] // p, t)
            if unit:
                break
            bad = next((i for i in range(t + 1, nr) for j in range(t + 1, nc) if d[i][j] % p), None)
            if bad is None:
                break
            _row_sub(d, t, -1, bad)
            _row_sub(u, t, -1, bad)
        if d[t][t] < 0:
            _negate(d, t)
            _negate(u, t)
    return NormalForm(IntMatrix(_rows(d), nc), IntMatrix(_rows(u), nr), IntMatrix(_rows(v), nc))


def _rows(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Working rows as tuples, which ``IntMatrix`` keeps after one scan."""
    return tuple(map(tuple, rows))


def _left_kernel(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """The Hermite form D of M and a basis of the saturated lattice
    {w : w M = 0}, rows in Hermite form, from one Hermite form of [M | I].
    Its rows are (w M, w) for the rows w of a unimodular matrix, and its
    left block is D; the rows past the rank are (0, w), and their w are
    the kernel basis, already reduced."""
    nr, nc = m.nrows, m.ncols
    rows = _hnf(IntMatrix([row + unit for row, unit in zip(m.entries, _rows(_identity(nr)))], nc + nr)).entries
    rank = sum(1 for row in rows if any(row[:nc]))
    return IntMatrix([row[:nc] for row in rows], nc), IntMatrix([row[nc:] for row in rows[rank:]], nr)


def invariant_factors_from(nf: NormalForm) -> tuple[int, ...]:
    out = []
    dm = nf.D
    for i in range(min(dm.nrows, dm.ncols)):
        x = dm.entries[i][i]
        if x == 0:
            break
        out.append(x)
    return tuple(out)


def _inverse(rows) -> tuple[int, list[tuple[int, ...]]] | None:
    """``(det, A)`` for a square integer matrix R of size 2, 3 or 4 with
    ``det = det(R) != 0``, where A is the adjugate of R as a list of rows,
    so R A = det I; None when R is singular or has any other shape. The
    rows of R are taken to have one length, so only the first is measured.
    The determinant comes before the other cofactors, from the 2 x 2
    minors of the top two rows (for size 3, their cross product, the last
    column of A; for size 4, the minors s0..s5 of the top pair against
    those c0..c5 of the bottom pair), so R is rejected as soon as those
    minors all vanish, as they do when its top two rows are parallel."""
    k = len(rows)
    if not 2 <= k <= 4 or len(rows[0]) != k:
        return None
    if k == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
        return (det, [(d, -b), (-c, a)]) if det else None
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        x, y, z = b * f - c * e, c * d - a * f, a * e - b * d
        if not (x or y or z):
            return None
        det = g * x + h * y + i * z
        if not det:
            return None
        return det, [
            (e * i - f * h, c * h - b * i, x),
            (f * g - d * i, a * i - c * g, y),
            (d * h - e * g, b * g - a * h, z),
        ]
    (a, b, c, d), (e, f, g, h), (i, j, k, l), (m, n, o, p) = rows
    s0, s1, s2 = a * f - b * e, a * g - c * e, a * h - d * e
    s3, s4, s5 = b * g - c * f, b * h - d * f, c * h - d * g
    if not (s0 or s1 or s2 or s3 or s4 or s5):
        return None
    c0, c1, c2 = i * n - j * m, i * o - k * m, i * p - l * m
    c3, c4, c5 = j * o - k * n, j * p - l * n, k * p - l * o
    det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    if not det:
        return None
    return det, [
        (f * c5 - g * c4 + h * c3, -b * c5 + c * c4 - d * c3, n * s5 - o * s4 + p * s3, -j * s5 + k * s4 - l * s3),
        (-e * c5 + g * c2 - h * c1, a * c5 - c * c2 + d * c1, -m * s5 + o * s2 - p * s1, i * s5 - k * s2 + l * s1),
        (e * c4 - f * c2 + h * c0, -a * c4 + b * c2 - d * c0, m * s4 - n * s2 + p * s0, -i * s4 + j * s2 - l * s0),
        (-e * c3 + f * c1 - g * c0, a * c3 - b * c1 + c * c0, -m * s3 + n * s1 - o * s0, i * s3 - j * s1 + k * s0),
    ]


def primitive(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries. Zero and ()
    stay unchanged: ``gcd()`` of no or only zero arguments is 0."""
    v = tuple(v)
    g = gcd(*v)
    if g <= 1:
        return v
    return tuple(x // g for x in v)
