"""Exact integer linear algebra.

Row-style Hermite and Smith normal forms with unimodular transforms and
saturated integer kernels. All arithmetic is exact; matrices are
immutable tuples of tuples of Python ints.

Conventions:
  * ``hnf(M)`` returns ``U`` with ``U @ M == D``, pivots positive and
    entries above each pivot reduced into ``[0, pivot)``. Pivot choice is
    leftmost column, then smallest absolute value, then lowest row index.
  * ``snf(M)`` returns ``U, V`` with ``U @ M @ V == D`` diagonal,
    ``d_i >= 0`` and ``d_i | d_{i+1}``.
  * Kernel bases are saturated and returned in Hermite form, so they are
    canonical for the kernel lattice.

``as_int`` is the package's only rule for integer input: the value types
and the entries that take integers directly pass through it, and nothing
below them converts again.
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


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix.

    ``ncols`` is stored explicitly so zero-row matrices keep their shape.
    """

    entries: tuple[tuple[int, ...], ...]
    ncols: int = -1

    def __post_init__(self):
        rows = tuple(tuple(map(as_int, row)) for row in self.entries)
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
        return cls(tuple(rows), -1 if ncols is None else ncols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        n = as_int(n)
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        if not self.entries:
            return IntMatrix(tuple(() for _ in range(self.ncols)), 0)
        return IntMatrix(tuple(zip(*self.entries)), self.nrows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        ocols = other.ncols
        rows = tuple(
            tuple(sum(a * other.entries[k][j] for k, a in enumerate(row)) for j in range(ocols))
            for row in self.entries
        )
        return IntMatrix(rows, ocols)


@dataclass(frozen=True)
class NormalForm:
    """A normal form D of M together with the unimodular transforms.

    Hermite: ``U @ M == D`` and ``V is None``.
    Smith:   ``U @ M @ V == D``.
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


def hnf(m: IntMatrix) -> NormalForm:
    """Row Hermite normal form with transform: U @ M == D."""
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


def snf(m: IntMatrix) -> NormalForm:
    """Smith normal form with transforms: U @ M @ V == D."""
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
        cand = [(abs(d[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if d[i][j] != 0]
        if not cand:
            break
        _, pi, pj = min(cand)
        if pi != t:
            _swap(d, pi, t)
            _swap(u, pi, t)
        if pj != t:
            col_swap(pj, t)
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


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    return invariant_factors_from(snf(m))


def integer_kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the saturated lattice {v : M v = 0}, rows in Hermite form."""
    nf = snf(m)
    rank = len(invariant_factors_from(nf))
    v = nf.V
    kernel_rows = [v.column(j) for j in range(rank, m.ncols)]
    reduced = hnf(IntMatrix.from_rows(kernel_rows, m.ncols)).D
    rows = tuple(r for r in reduced.entries if any(r))
    return IntMatrix(rows, m.ncols)


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
    """Divide an integer vector by the gcd of its entries. Zero stays zero."""
    v = tuple(v)
    g = 0
    for x in v:
        g = gcd(g, x)
    if g <= 1:
        return v
    return tuple(x // g for x in v)
