"""Reference routines shared by the tests, kept out of the library.

``det`` checks that the transforms of the normal forms are unimodular.
"""


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
