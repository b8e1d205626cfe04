"""Normal forms and kernels: frozen examples plus exact factorization checks."""

import json
import math
import random
from collections import namedtuple
from enum import IntEnum
from pathlib import Path

import pytest

from toricalc.actions import group_from_delta
from toricalc.errors import NonSpanning
from toricalc.lattice import (
    IntMatrix,
    _as_ints,
    _hnf,
    _inverse,
    _left_kernel,
    as_int,
    invariant_factors_from,
    primitive,
    snf,
)
from toricalc.polyhedra import polyhedron
from toricalc.semigroups import _parallelepiped_points
from fractions import Fraction

from oracles import (
    det,
    hermite_blocks,
    identity,
    left_kernel_by_smith,
    matmul,
    rational_det,
    rational_rank,
    solve_rational,
    transpose,
)


def M(*rows, ncols=-1):
    return IntMatrix(rows, ncols)


def factors(m):
    """The invariant factors of m, from its Smith form."""
    return invariant_factors_from(snf(m))


def kernel(m):
    """Basis of the saturated lattice {v : M v = 0}: the left kernel of the
    transpose, as ``group_from_delta`` computes it."""
    return _left_kernel(transpose(m))[1]


def snf_corpus(count=400, seed=10):
    """Seeded matrices up to 6 x 7, taller ones included: entries in
    [-2, 2] (unit pivots of either sign), the same times 2 or 3 (no unit
    anywhere), some with a zero row or column, and W = [I_k | B] with
    permuted columns mixed by unimodular row operations; plus the empty
    shapes 0 x n and n x 0."""
    rng = random.Random(seed)
    out = [IntMatrix((), n) for n in range(4)] + [IntMatrix(((),) * n, 0) for n in range(1, 4)]
    while len(out) < count:
        nr, nc = rng.randint(1, 6), rng.randint(1, 7)
        kind = rng.randrange(4)
        if kind == 3:
            k = min(nr, nc)
            rows = [[int(i == j) for j in range(k)] + [rng.randint(-1, 2) for _ in range(nc - k)] for i in range(k)]
            perm = rng.sample(range(nc), nc)
            rows = [[r[c] for c in perm] for r in rows]
            for _ in range(3 * k):
                i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
                if i != j:
                    q = rng.choice([-2, -1, 1, 2])
                    rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        else:
            scale = 1 if kind == 0 else rng.choice([2, 3])
            rows = [[scale * rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]
            if kind == 2:
                if rng.random() < 0.5:
                    rows[rng.randrange(nr)] = [0] * nc
                else:
                    j = rng.randrange(nc)
                    for r in rows:
                        r[j] = 0
        out.append(M(*rows, ncols=nc))
    return out


SNF_CORPUS = snf_corpus()
SNF_GOLDEN = Path(__file__).resolve().parent / "data" / "snf_corpus.json"


def snf_corpus_text():
    """``snf`` of every corpus matrix, one line of canonical JSON each: the
    shape and rows of M, then D, U and V. V fixes the basis of delta, so
    this text is part of the contract."""
    lines = []
    for m in SNF_CORPUS:
        nf = snf(m)
        entry = {"shape": [m.nrows, m.ncols], "M": m.entries, "D": nf.D.entries, "U": nf.U.entries, "V": nf.V.entries}
        lines.append(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def is_unimodular(u):
    return u.nrows == u.ncols and abs(det(u)) == 1


def hermite_transform(m):
    """The transform U of ``_hnf(m)``: the right block of the Hermite form
    of [M | I], checked to have ``_hnf(m)`` as its left block."""
    left, u = hermite_blocks(m)
    assert left == _hnf(m)
    return u


class TestHermite:
    def test_worked_example(self):
        # Oracle: by hand, [[2,4],[1,3]] row-reduces to [[1,1],[0,2]] with
        # positive pivots and the entry above the second pivot in [0, 2).
        d = _hnf(M([2, 4], [1, 3]))
        assert d.entries == ((1, 1), (0, 2))
        u = hermite_transform(M([2, 4], [1, 3]))
        assert matmul(u, M([2, 4], [1, 3])) == d
        assert is_unimodular(u)

    def test_permutation(self):
        d = _hnf(M([0, 1], [1, 0]))
        assert d.entries == ((1, 0), (0, 1))
        assert matmul(hermite_transform(M([0, 1], [1, 0])), M([0, 1], [1, 0])) == d

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
        d = _hnf(m)
        u = hermite_transform(m)
        assert matmul(u, m) == d
        assert is_unimodular(u)
        # Echelon shape with positive pivots, entries above reduced.
        last_col = -1
        for r in d.entries:
            nz = [j for j, x in enumerate(r) if x]
            if not nz:
                continue
            p = nz[0]
            assert p > last_col
            assert r[p] > 0
            last_col = p
        # Reduction above pivots.
        pivot_rows = [(i, next(j for j, x in enumerate(r) if x)) for i, r in enumerate(d.entries) if any(r)]
        for i, p in pivot_rows:
            for above in range(i):
                assert 0 <= d.entries[above][p] < d.entries[i][p]

    def test_zero_rows_sink(self):
        assert _hnf(M([2, 2], [1, 1])).entries == ((1, 1), (0, 0))

    def test_canonical_for_row_lattice(self):
        # Same row lattice, different presentation: identical Hermite D.
        a = _hnf(M([1, 1, 0], [0, 2, 4]))
        b = _hnf(M([1, 3, 4], [0, 2, 4], [1, 1, 0]))
        assert a.entries == tuple(r for r in b.entries if any(r))

    def test_deterministic(self):
        m = M([6, 10, 15], [10, 15, 6], [15, 6, 10])
        assert _hnf(m) == _hnf(m)


class TestSmith:
    def test_diag_2_3(self):
        nf = snf(M([2, 0], [0, 3]))
        assert nf.D.entries == ((1, 0), (0, 6))
        assert matmul(matmul(nf.U, M([2, 0], [0, 3])), nf.V) == nf.D

    def test_single_row(self):
        nf = snf(M([1, 1]))
        assert nf.D.entries == ((1, 0),)
        assert factors(M([1, 1])) == (1,)

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
        assert matmul(matmul(nf.U, m), nf.V) == nf.D
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
        assert factors(m) == (2, 6, 12)

    def test_deterministic(self):
        m = M([3, 1, -4], [2, -3, 1])
        assert snf(m) == snf(m)

    def test_transforms_match_golden_file(self):
        assert snf_corpus_text() == SNF_GOLDEN.read_text()

    def test_corpus_coverage(self):
        def first_pivot(m):
            nz = [(abs(x), i, j, x) for i, row in enumerate(m.entries) for j, x in enumerate(row) if x]
            return min(nz)[3] if nz else 0

        pivots = {first_pivot(m) for m in SNF_CORPUS}
        assert {1, -1} <= pivots and any(abs(x) > 1 for x in pivots)
        assert any(m.nrows == 0 and m.ncols for m in SNF_CORPUS)
        assert any(m.ncols == 0 and m.nrows for m in SNF_CORPUS)
        assert any(m.nrows > m.ncols > 0 for m in SNF_CORPUS)
        assert any(m.nrows > 1 and not any(m.entries[i]) for m in SNF_CORPUS for i in range(m.nrows))
        assert any(m.nrows > 1 and not any(transpose(m).entries[j]) for m in SNF_CORPUS for j in range(m.ncols))
        assert any(factors(m) == (1,) * m.nrows and m.ncols > m.nrows > 1 for m in SNF_CORPUS)


class TestKernel:
    def test_sum_zero(self):
        k = kernel(M([1, 1]))
        assert k.entries == ((1, -1),)

    def test_identity_has_trivial_kernel(self):
        k = kernel(identity(2))
        assert k.nrows == 0 and k.ncols == 2

    def test_square_difference_pairs(self):
        k = kernel(M([1, -1, 0, 0], [0, 0, 1, -1]))
        assert k.entries == ((1, 1, 0, 0), (0, 0, 1, 1))

    def test_saturated(self):
        # Kernel of [[2, 4]] is spanned by (2, -1), not (4, -2).
        k = kernel(M([2, 4]))
        assert k.entries == ((2, -1),)
        assert factors(k) == (1,)

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
        k = kernel(m)
        assert k.ncols == m.ncols
        for v in k.entries:
            assert all(x == 0 for row in matmul(m, transpose(M(v))).entries for x in row)
        assert k.nrows == m.ncols - rational_rank(m.entries)
        if k.nrows:
            assert factors(k) == (1,) * k.nrows

    def test_zero_row_matrix(self):
        k = kernel(IntMatrix((), 3))
        assert k.entries == identity(3).entries


def kernel_corpus(count=2000, seed=31):
    """Seeded matrices for the kernel route: the empty shapes 0 x n and
    n x 0; then 1-7 rows and 1-5 columns, entries in [-3, 3] times 1, 2
    or 3, where a row may be zero or a combination of the rows before
    it; and matrices with at least as many rows as columns whose rows
    span a sublattice of index 2 or 3: I stacked on random rows, one
    column times the index, columns mixed by unimodular steps."""
    rng = random.Random(seed)
    out = [IntMatrix((), n) for n in range(1, 6)] + [IntMatrix(((),) * n, 0) for n in range(1, 8)]
    while len(out) < count:
        nr, nc = rng.randint(1, 7), rng.randint(1, 5)
        kind = rng.randrange(4)
        if kind == 3 and nr >= nc:
            k, scaled = rng.choice((2, 3)), rng.randrange(nc)
            rows = [[int(i == j) for j in range(nc)] for i in range(nc)]
            rows += [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr - nc)]
            rows = [[x * k if j == scaled else x for j, x in enumerate(r)] for r in rows]
            for _ in range(2 * nc if nc > 1 else 0):
                i, j = rng.sample(range(nc), 2)
                q = rng.choice((-1, 1))
                for r in rows:
                    r[i] += q * r[j]
            rng.shuffle(rows)
        else:
            scale = rng.choice((1, 2, 3))
            rows = [[scale * rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            for i in range(1, nr):
                if kind == 1 and rng.random() < 0.3:
                    rows[i] = [0] * nc
                elif kind == 2 and rng.random() < 0.4:
                    coeffs = [rng.randint(-2, 2) for _ in range(i)]
                    rows[i] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(nc)]
        out.append(IntMatrix(rows, nc))
    return out


KERNEL_CORPUS = kernel_corpus()


def spans(m):
    """Whether the rows of m span Z^ncols, from its invariant factors."""
    return factors(m) == (1,) * m.ncols


class TestKernelAgainstSmithRoute:
    """``_left_kernel`` reads the kernel off one Hermite form of [M | I];
    ``left_kernel_by_smith`` takes it from a Smith form. A row Hermite
    form is unique for its lattice, so the two agree byte for byte."""

    def test_kernel_matches_smith_route(self):
        for m in KERNEL_CORPUS:
            d, k = _left_kernel(m)
            assert k == left_kernel_by_smith(m), m
            assert d == _hnf(m), m

    def test_non_spanning_exactly_when_a_factor_is_not_one(self):
        outcomes = set()
        for m in KERNEL_CORPUS:
            p = polyhedron(m.ncols, [(row, 0) for row in m.entries])
            spanning = spans(m)
            outcomes.add(spanning)
            if spanning:
                assert group_from_delta(p).weights == _left_kernel(m)[1], m
            else:
                with pytest.raises(NonSpanning):
                    group_from_delta(p)
        assert outcomes == {True, False}

    def test_corpus_coverage(self):
        def index(m):
            f = factors(m)
            return math.prod(f) if len(f) == m.ncols else 0

        assert len(KERNEL_CORPUS) >= 2000
        assert any(m.nrows == 0 and m.ncols for m in KERNEL_CORPUS)
        assert any(m.ncols == 0 and m.nrows for m in KERNEL_CORPUS)
        assert any(m.nrows > 1 and not any(r) for m in KERNEL_CORPUS for r in m.entries)
        nonzero = [[r for r in m.entries if any(r)] for m in KERNEL_CORPUS]
        assert any(rows and rational_rank(rows) < len(rows) for rows in nonzero)
        assert {2, 3} <= {index(m) for m in KERNEL_CORPUS if m.ncols}


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
            "bare row": lambda: IntMatrix((5,)),
            "zero-row ncols": lambda: IntMatrix((), 2.5),
            "ncols": lambda: IntMatrix([(1, 2)], 3),
            # These raised a bare TypeError.
            "none rows": lambda: IntMatrix(None),
            "none ncols": lambda: IntMatrix([(1, 2)], None),
            # A tuple takes the exact-int fast path only when every entry
            # is an exact int; these fall back to the full rule.
            "tuple half": lambda: _as_ints((1, 1.5)),
            "tuple text": lambda: _as_ints((1, "1")),
            "tuple none": lambda: _as_ints((None, 1)),
            "tuple list": lambda: _as_ints((1, [1])),
            "tuple matrix row": lambda: IntMatrix(((1, 1.5),)),
        }
        for name, call in cases.items():
            with pytest.raises(ValueError):
                call()
                pytest.fail(name)

    def test_integral_values_accepted(self):
        # Checked by type and by repr, so that a bool, a float or an IntEnum
        # member passed through unconverted fails.
        for x, want in [(2, "2"), (True, "1"), (2.0, "2"), (Fraction(4, 2), "2"), (Small.TWO, "2")]:
            n = as_int(x)
            assert type(n) is int and repr(n) == want
        m = IntMatrix([(2.0, Fraction(-4, 2))])
        assert m == M([2, -2]) and all(type(x) is int for x in m.entries[0])
        assert IntMatrix((), 3.0) == IntMatrix((), 3)
        assert IntMatrix(iter([(1, 2)]), 2.0).ncols == 2
        # A tuple holding an entry equal to an int but not an exact int,
        # or a tuple subclass, takes the full conversion: it comes back as
        # a plain tuple of exact ints.
        for row in [(True, 2), (1, 2.0), (Fraction(1), 2), (1, Small.TWO), Row(1, 2)]:
            got = _as_ints(row)
            assert type(got) is tuple and [type(x) for x in got] == [int, int] and repr(got) == "(1, 2)"
        assert repr(IntMatrix([(True, 2.0, Fraction(4, 2), Small.TWO)]).entries) == "((1, 2, 2, 2),)"
        assert repr(IntMatrix([Row(1, 2)]).entries) == "((1, 2),)"

    def test_tuple_of_exact_ints_is_returned_itself(self):
        t = (3, -1, 0, 10**30)
        assert _as_ints(t) is t
        assert _as_ints(()) == ()
        assert _as_ints([3, -1]) == (3, -1) and type(_as_ints([3, -1])) is tuple


class Small(IntEnum):
    TWO = 2


Row = namedtuple("Row", "x y")


class TestHelpers:
    def test_det(self):
        assert det(M([2, 4], [1, 3])) == 2
        assert det(M([1, 2], [2, 4])) == 0
        assert det(identity(4)) == 1
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


class TestInverse:
    def test_adjugate_of_seeded_squares(self):
        # Some of the seeded matrices of each size are singular, so both
        # answers are drawn; the last assertion checks that.
        rng = random.Random(5)
        seen = set()
        for k in (2, 3, 4):
            for _ in range(200):
                rows = [tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(k)]
                got = _inverse(rows)
                d = rational_det(rows)
                seen.add((k, got is None))
                if d == 0:
                    assert got is None
                    continue
                det, adj = got
                assert det == d
                assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*adj)] for row in rows] == [
                    [det * (i == j) for j in range(k)] for i in range(k)
                ]
        assert seen == {(k, b) for k in (2, 3, 4) for b in (False, True)}

    @pytest.mark.parametrize(
        "rows",
        [
            # Top two rows parallel, as the pairs c, -c of a held face.
            [(1, 2), (-1, -2)],
            [(1, 2, 3), (-1, -2, -3), (0, 0, 1)],
            [(1, 0, 2, 0), (-1, 0, -2, 0), (0, 1, 0, 0), (0, 0, 0, 1)],
            # Top two rows independent, with a zero column or a dependent
            # bottom row.
            [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 0)],
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 2, 2)],
            [(0, 0), (0, 0)],
        ],
    )
    def test_singular_is_none(self, rows):
        assert rational_det(rows) == 0
        assert _inverse(rows) is None

    @pytest.mark.parametrize(
        "rows",
        [[], [(2,)], [(1, 2, 3), (4, 5, 6)], [(1, 2), (3, 4), (5, 6)], [(1, 0, 0, 0, 0)] * 5,
         [tuple(int(i == j) for j in range(5)) for i in range(5)]],
    )
    def test_other_shapes_are_none(self, rows):
        assert _inverse(rows) is None

    @pytest.mark.parametrize(
        "rays",
        [[(2, 1), (1, 1)], [(1, 1, 0), (0, 1, 1), (1, 1, 1)], [(1, 2, 0, 0), (0, 1, 0, 0), (0, 0, 3, 1), (0, 0, 2, 1)]],
    )
    def test_unimodular_parallelepiped_is_the_origin(self, rays):
        assert abs(_inverse(rays)[0]) == 1
        assert _parallelepiped_points(rays) == [(0,) * len(rays)]

