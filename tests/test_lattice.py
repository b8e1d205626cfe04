"""Normal forms and kernels: frozen examples plus exact factorization checks."""

import pytest

from toricalc.lattice import (
    IntMatrix,
    as_int,
    hnf,
    integer_kernel_basis,
    invariant_factors,
    primitive,
    snf,
)
from fractions import Fraction

from oracles import det, rational_rank, solve_rational


def M(*rows, ncols=None):
    return IntMatrix.from_rows(rows, ncols=ncols)


def is_unimodular(u):
    return u.nrows == u.ncols and abs(det(u)) == 1


class TestHermite:
    def test_worked_example(self):
        # Oracle: by hand, [[2,4],[1,3]] row-reduces to [[1,1],[0,2]] with
        # positive pivots and the entry above the second pivot in [0, 2).
        nf = hnf(M([2, 4], [1, 3]))
        assert nf.D.entries == ((1, 1), (0, 2))
        assert nf.U @ M([2, 4], [1, 3]) == nf.D
        assert is_unimodular(nf.U)

    def test_permutation(self):
        nf = hnf(M([0, 1], [1, 0]))
        assert nf.D.entries == ((1, 0), (0, 1))
        assert nf.U @ M([0, 1], [1, 0]) == nf.D

    @pytest.mark.parametrize(
        "rows",
        [
            [[1]],
            [[-3]],
            [[2, 4], [1, 3]],
            [[4, 6], [2, 2]],
            [[0, 0], [0, 0]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
            [[3, -1], [-7, 2], [5, 5]],
            [[12, 6, 4, 8], [3, 9, 6, 12], [2, 16, 14, 28]],
        ],
    )
    def test_factorization_and_shape(self, rows):
        m = M(*rows)
        nf = hnf(m)
        assert nf.U @ m == nf.D
        assert is_unimodular(nf.U)
        # Echelon shape with positive pivots, entries above reduced.
        last_col = -1
        for r in nf.D.entries:
            nz = [j for j, x in enumerate(r) if x]
            if not nz:
                continue
            p = nz[0]
            assert p > last_col
            assert r[p] > 0
            last_col = p
        # Reduction above pivots.
        pivot_rows = [(i, next(j for j, x in enumerate(r) if x)) for i, r in enumerate(nf.D.entries) if any(r)]
        for i, p in pivot_rows:
            for above in range(i):
                assert 0 <= nf.D.entries[above][p] < nf.D.entries[i][p]

    def test_zero_rows_sink(self):
        nf = hnf(M([2, 2], [1, 1]))
        assert nf.D.entries == ((1, 1), (0, 0))

    def test_canonical_for_row_lattice(self):
        # Same row lattice, different presentation: identical Hermite D.
        a = hnf(M([1, 1, 0], [0, 2, 4])).D
        b = hnf(M([1, 3, 4], [0, 2, 4], [1, 1, 0])).D
        assert a.entries == tuple(r for r in b.entries if any(r))

    def test_deterministic(self):
        m = M([6, 10, 15], [10, 15, 6], [15, 6, 10])
        assert hnf(m) == hnf(m)


class TestSmith:
    def test_diag_2_3(self):
        nf = snf(M([2, 0], [0, 3]))
        assert nf.D.entries == ((1, 0), (0, 6))
        assert nf.U @ M([2, 0], [0, 3]) @ nf.V == nf.D

    def test_single_row(self):
        nf = snf(M([1, 1]))
        assert nf.D.entries == ((1, 0),)
        assert invariant_factors(M([1, 1])) == (1,)

    @pytest.mark.parametrize(
        "rows",
        [
            [[2]],
            [[0]],
            [[2, 4], [1, 3]],
            [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
            [[1, 1, 0, 0], [0, 0, 1, 1]],
            [[12, 6, 4, 8], [3, 9, 6, 12], [2, 16, 14, 28], [20, 10, 10, 20]],
            [[0, 0, 0], [0, 0, 0]],
        ],
    )
    def test_factorization_divisibility(self, rows):
        m = M(*rows)
        nf = snf(m)
        assert nf.U @ m @ nf.V == nf.D
        assert is_unimodular(nf.U)
        assert is_unimodular(nf.V)
        n, c = nf.D.nrows, nf.D.ncols
        for i in range(n):
            for j in range(c):
                if i != j:
                    assert nf.D.entries[i][j] == 0
        diag = [nf.D.entries[i][i] for i in range(min(n, c))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0

    def test_classic_16_example(self):
        # Oracle: frozen from the gcd-of-minors computation.
        # gcd of entries = 2, gcd of 2x2 minors = 12, |det| = 144,
        # so the invariant factors are (2, 12/2, 144/12) = (2, 6, 12).
        m = M([2, 4, 4], [-6, 6, 12], [10, -4, -16])
        assert invariant_factors(m) == (2, 6, 12)

    def test_deterministic(self):
        m = M([3, 1, -4], [2, -3, 1])
        assert snf(m) == snf(m)


class TestKernel:
    def test_sum_zero(self):
        k = integer_kernel_basis(M([1, 1]))
        assert k.entries == ((1, -1),)

    def test_identity_has_trivial_kernel(self):
        k = integer_kernel_basis(IntMatrix.identity(2))
        assert k.nrows == 0 and k.ncols == 2

    def test_square_difference_pairs(self):
        k = integer_kernel_basis(M([1, -1, 0, 0], [0, 0, 1, -1]))
        assert k.entries == ((1, 1, 0, 0), (0, 0, 1, 1))

    def test_saturated(self):
        # Kernel of [[2, 4]] is spanned by (2, -1), not (4, -2).
        k = integer_kernel_basis(M([2, 4]))
        assert k.entries == ((2, -1),)
        assert invariant_factors(k) == (1,)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1]],
            [[2, 4]],
            [[1, 2, 3], [4, 5, 6]],
            [[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]],
            [[0, 0], [0, 0]],
        ],
    )
    def test_kernel_properties(self, rows):
        m = M(*rows)
        k = integer_kernel_basis(m)
        assert k.ncols == m.ncols
        for v in k.entries:
            assert all(x == 0 for x in (m @ IntMatrix.from_rows([v]).transpose()).column(0))
        assert k.nrows == m.ncols - rational_rank(m.entries)
        if k.nrows:
            assert invariant_factors(k) == (1,) * k.nrows

    def test_zero_row_matrix(self):
        k = integer_kernel_basis(IntMatrix((), 3))
        assert k.entries == IntMatrix.identity(3).entries


class TestIntegerRule:
    def test_non_integers_rejected(self):
        # Each of these used to be truncated, ignored or passed through.
        cases = {
            "half": lambda: as_int(0.5),
            "text": lambda: as_int("3"),
            "fraction": lambda: as_int(Fraction(1, 2)),
            "nan": lambda: as_int(float("nan")),
            "inf": lambda: as_int(float("inf")),
            "none": lambda: as_int(None),
            "entry": lambda: IntMatrix(((1, 0.5),)),
            "zero-row ncols": lambda: IntMatrix((), 2.5),
            "from_rows ncols": lambda: IntMatrix.from_rows([(1, 2)], 3),
            "identity": lambda: IntMatrix.identity(1.5),
        }
        for name, call in cases.items():
            with pytest.raises(ValueError):
                call()
                pytest.fail(name)

    def test_integral_values_accepted(self):
        for x in (2, True, 2.0, Fraction(4, 2)):
            assert as_int(x) == x and type(as_int(x)) is int
        m = IntMatrix.from_rows([(2.0, Fraction(-4, 2))])
        assert m == M([2, -2]) and all(type(x) is int for x in m.row(0))
        assert IntMatrix((), 3.0) == IntMatrix((), 3)
        assert IntMatrix.identity(2.0) == IntMatrix.identity(2)
        assert IntMatrix.from_rows([(1, 2)], 2.0).ncols == 2


class TestHelpers:
    def test_det(self):
        assert det(M([2, 4], [1, 3])) == 2
        assert det(M([1, 2], [2, 4])) == 0
        assert det(IntMatrix.identity(4)) == 1
        assert det(M([0, 1], [1, 0])) == -1

    def test_primitive(self):
        assert primitive((2, -4, 6)) == (1, -2, 3)
        assert primitive((0, 0)) == (0, 0)
        assert primitive((-3,)) == (-1,)

    def test_solve_rational(self):
        x = solve_rational([[2, 0], [0, 4]], [1, 1])
        assert x == (Fraction(1, 2), Fraction(1, 4))
        assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None
        assert solve_rational([[1, 1], [2, 2]], [3, 6]) == (Fraction(3), Fraction(0))

    def test_rational_rank_and_kernel(self):
        assert rational_rank([(1, 2), (2, 4)]) == 1
        assert rational_rank([]) == 0

    def test_transpose_shapes(self):
        m = M([1, 2, 3])
        assert m.transpose().entries == ((1,), (2,), (3,))
        z = IntMatrix((), 3)
        assert z.transpose().ncols == 0
        assert z.transpose().nrows == 3
        assert z.transpose().transpose() == z
