"""Reference routines shared by the tests, kept out of the library.

``det`` checks that the transforms of the normal forms are unimodular.
``rational_rank`` and ``solve_rational`` are Gaussian elimination over
``fractions.Fraction``: a rank and a linear solve that do not go through
the Smith form.
"""

from fractions import Fraction


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
