"""Exact integer linear algebra.

Row-style Hermite and Smith normal forms with unimodular transforms. All
arithmetic is exact; matrices are immutable tuples of tuples of Python
ints.

Conventions:
  * ``_hnf(M)`` returns ``U`` with U M = D, pivots positive and entries
    above each pivot reduced into ``[0, pivot)``. Pivot choice is
    leftmost column, then smallest absolute value, then lowest row index.
    D depends only on the row lattice of M, so the saturated left kernel
    basis of ``_left_kernel``, returned in this form, is canonical.
  * ``snf(M)`` returns ``U, V`` with U M V = D diagonal, ``d_i >= 0`` and
    ``d_i | d_{i+1}``. Each step takes the entry of least absolute value,
    first in row-major order, as its pivot. A pivot of +-1 divides
    everything, so its column and its row are each cleared in one pass
    with no divisibility scan; these operations commute, so D, U and V
    equal those of the Euclid loop that every other pivot runs.

``as_int`` is the package's only rule for integer input: the value types
and the entries that take integers directly pass through it, and nothing
below them converts again. ``_as_ints`` applies it to a row and lets an
exact ``int`` through unchecked, so a matrix computed here is not
re-checked entry by entry. ``_as_dim`` adds the one further rule for a
dimension: it may not be negative. ``_iter`` is the one rule for a
container (a row, the rows of a matrix, an inequality list or one
inequality pair): one that is not iterable raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def as_int(x) -> int:
    """``int(x)`` when that equals ``x``; ValueError otherwise, never rounding."""
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


def _as_ints(row) -> tuple[int, ...]:
    """``as_int`` of each entry of ``row``; an exact ``int`` passes as it is.
    ValueError when ``row`` is not iterable."""
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

    @classmethod
    def from_rows(cls, rows, ncols: int | None = None) -> "IntMatrix":
        return cls(tuple(_iter(rows, "a sequence of rows")), -1 if ncols is None else ncols)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]


@dataclass(frozen=True)
class NormalForm:
    """A normal form D of M together with the unimodular transforms.

    Hermite: U M = D and ``V is None``.
    Smith:   U M V = D.
    """

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix | None = None


def _swap(rows, i, j):
    rows[i], rows[j] = rows[j], rows[i]


def _negate(rows, i):
    rows[i] = [-x for x in rows[i]]


def _row_sub(rows, i, q, j):
    """rows[i] -= q * rows[j]"""
    rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]


def _hnf(m: IntMatrix) -> NormalForm:
    """Row Hermite normal form with transform: U M = D."""
    nr, nc = m.nrows, m.ncols
    d = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
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
                _swap(u, piv, prow)
            below = [r for r in range(prow + 1, nr) if d[r][col] != 0]
            if not below:
                break
            for r in below:
                q = d[r][col] // d[prow][col]
                _row_sub(d, r, q, prow)
                _row_sub(u, r, q, prow)
        if d[prow][col] == 0:
            continue
        if d[prow][col] < 0:
            _negate(d, prow)
            _negate(u, prow)
        for r in range(prow):
            q = d[r][col] // d[prow][col]
            if q:
                _row_sub(d, r, q, prow)
                _row_sub(u, r, q, prow)
        prow += 1
    return NormalForm(IntMatrix(d, nc), IntMatrix(u, nr))


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


def snf(m: IntMatrix) -> NormalForm:
    """Smith normal form with transforms: U M V = D."""
    nr, nc = m.nrows, m.ncols
    d = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def col_swap(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def col_sub(i, q, j):
        """column i -= q * column j"""
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    t = 0
    while t < min(nr, nc):
        piv = _smith_pivot(d, t)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            _swap(d, pi, t)
            _swap(u, pi, t)
        if pj != t:
            col_swap(pj, t)
        p = d[t][t]
        if p == 1 or p == -1:
            # x // p is x * p, and every remainder is 0.
            for i in range(t + 1, nr):
                q = d[i][t] * p
                if q:
                    _row_sub(d, i, q, t)
                    _row_sub(u, i, q, t)
            for j in range(t + 1, nc):
                q = d[t][j] * p
                if q:
                    col_sub(j, q, t)
        else:
            while True:
                col_nz = [i for i in range(t + 1, nr) if d[i][t] != 0]
                if col_nz:
                    i = min(col_nz, key=lambda i: (abs(d[i][t]), i))
                    q = d[i][t] // d[t][t]
                    _row_sub(d, i, q, t)
                    _row_sub(u, i, q, t)
                    if d[i][t] != 0:
                        _swap(d, i, t)
                        _swap(u, i, t)
                    continue
                row_nz = [j for j in range(t + 1, nc) if d[t][j] != 0]
                if row_nz:
                    j = min(row_nz, key=lambda j: (abs(d[t][j]), j))
                    q = d[t][j] // d[t][t]
                    col_sub(j, q, t)
                    if d[t][j] != 0:
                        col_swap(j, t)
                    continue
                bad = next(
                    ((i, j) for i in range(t + 1, nr) for j in range(t + 1, nc) if d[i][j] % d[t][t] != 0),
                    None,
                )
                if bad is None:
                    break
                _row_sub(d, t, -1, bad[0])
                _row_sub(u, t, -1, bad[0])
        if d[t][t] < 0:
            _negate(d, t)
            _negate(u, t)
        t += 1
    return NormalForm(IntMatrix(d, nc), IntMatrix(u, nr), IntMatrix(v, nc))


def _left_kernel(m: IntMatrix) -> tuple[tuple[int, ...], IntMatrix]:
    """The invariant factors of M and a basis of the saturated lattice
    {w : w M = 0}, rows in Hermite form, from one Smith form U M V = D.
    Since U is unimodular and the rows of D past the rank are zero, the
    rows of U past the rank are a basis of that lattice."""
    nf = snf(m)
    factors = invariant_factors_from(nf)
    return factors, _hnf(IntMatrix.from_rows(nf.U.entries[len(factors):], m.nrows)).D


def invariant_factors_from(nf: NormalForm) -> tuple[int, ...]:
    out = []
    dm = nf.D
    for i in range(min(dm.nrows, dm.ncols)):
        x = dm.entries[i][i]
        if x == 0:
            break
        out.append(x)
    return tuple(out)


def primitive(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries. Zero and ()
    stay unchanged: ``gcd()`` of no or only zero arguments is 0."""
    v = tuple(v)
    g = gcd(*v)
    if g <= 1:
        return v
    return tuple(x // g for x in v)
