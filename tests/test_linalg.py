"""Exact linear algebra: row reduction, kernels, solving, matrix polynomials."""

import random
from fractions import Fraction

from blocklie.linalg import (
    _PRIME,
    RationalMatrix,
    _eliminate,
    _independent_rows_mod_p,
    _reduction,
    char_poly,
    eval_poly_matrix,
    row_reduce,
    solve,
    stack_rows,
)
from blocklie.rationals import format_rational, parse_rational


def test_identity_full_rank():
    red = row_reduce(RationalMatrix.identity(2))
    assert red.rank == 2
    assert red.kernel == []


def test_zero_matrix_kernel():
    red = row_reduce(RationalMatrix.zero(3, 3))
    assert red.rank == 0
    assert len(red.kernel) == 3


def test_rank_one_kernel_vector():
    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    red = row_reduce(m)
    assert red.rank == 1
    assert red.kernel == [[Fraction(-2), Fraction(1)]]


def test_solve_identity():
    m = RationalMatrix.identity(2)
    assert solve(m, [Fraction(3), Fraction(-1, 2)]) == [Fraction(3), Fraction(-1, 2)]


def test_solve_inconsistent():
    m = RationalMatrix.from_rows([[1, 1], [1, 1]])
    assert solve(m, [Fraction(1), Fraction(2)]) is None


def test_solve_diagonal():
    m = RationalMatrix.from_rows([[2, 0], [0, 3]])
    assert solve(m, [Fraction(1), Fraction(1)]) == [Fraction(1, 2), Fraction(1, 3)]


def test_solve_shape_mismatch():
    m = RationalMatrix.identity(2)
    try:
        solve(m, [Fraction(1)])
    except ValueError:
        pass
    else:
        raise AssertionError("expected a dimension error")


def _random_matrix(rng, rows, cols, density=0.6):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return RationalMatrix(rows, cols, entries)


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        red = row_reduce(m)
        assert red.rank + len(red.kernel) == m.cols
        for vec in red.kernel:
            assert all(v == 0 for v in m.apply(vec))


def test_rank_invariant_under_row_shuffle():
    rng = random.Random(12)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
        m = RationalMatrix.from_rows(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert row_reduce(m).rank == row_reduce(RationalMatrix.from_rows(shuffled)).rank


def test_solve_solution_verifies():
    rng = random.Random(13)
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m.rows)]
        x = solve(m, rhs)
        if x is not None:
            assert m.apply(x) == rhs


def test_matmul_and_stack():
    a = RationalMatrix.from_rows([[1, 2], [0, 1]])
    b = RationalMatrix.from_rows([[1, 0], [3, 1]])
    assert (a @ b).to_rows() == [[Fraction(7), Fraction(2)], [Fraction(3), Fraction(1)]]
    stacked = stack_rows([a, b])
    assert stacked.rows == 4 and stacked.entry(2, 0) == 1


def test_char_poly_cayley_hamilton():
    rng = random.Random(14)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n, density=0.8)
        assert eval_poly_matrix(char_poly(m), m).is_zero()


def test_char_poly_known():
    m = RationalMatrix.from_rows([[2, 0], [0, 3]])
    # (t-2)(t-3) = 6 - 5t + t^2
    assert char_poly(m) == [Fraction(6), Fraction(-5), Fraction(1)]


def test_matrix_json_roundtrip():
    m = RationalMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(-3)]])
    assert RationalMatrix.from_json(m.to_json()) == m


def test_rational_wire_format():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational(4) == Fraction(4)
    try:
        parse_rational("x/y")
    except ValueError:
        pass
    else:
        raise AssertionError("expected parse failure")


# -- the modular rank certificate ----------------------------------------------


def _rows(m):
    rows = [{} for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    return rows


def _reference_row_reduce(m):
    """Rational Gauss-Jordan on every row, with no modular shortcut."""
    return _reduction(_eliminate(_rows(m)), m.rows, m.cols)


def _assert_matches_reference(m):
    got, want = row_reduce(m), _reference_row_reduce(m)
    assert got.rref.to_json() == want.rref.to_json()
    assert got.rank == want.rank
    assert got.pivots == want.pivots
    assert got.kernel == want.kernel
    return got


def _low_rank(rng, rows, cols, rank):
    left = _random_matrix(rng, rows, rank, density=0.8)
    right = _random_matrix(rng, rank, cols, density=0.8)
    return left @ right


def test_certificate_full_column_rank_matches_reference():
    rng = random.Random(21)
    checked = 0
    for _ in range(40):
        cols = rng.randint(1, 6)
        m = _random_matrix(rng, cols + rng.randint(0, 4), cols, density=0.7)
        red = _assert_matches_reference(m)
        checked += red.rank == cols
    assert checked >= 20  # most draws take the [I; 0] shortcut


def test_certificate_rank_deficient_matches_reference():
    rng = random.Random(22)
    for _ in range(40):
        rows, cols = rng.randint(1, 8), rng.randint(2, 7)
        m = _low_rank(rng, rows, cols, rng.randint(1, cols - 1))
        red = _assert_matches_reference(m)
        assert red.rank < cols
        # duplicated rows leave the row space, and so the rref entries, unchanged
        doubled = stack_rows([m, m])
        assert _assert_matches_reference(doubled).rref.to_json()["entries"] == red.rref.to_json()["entries"]


def test_certificate_degenerate_shapes():
    for m in (
        RationalMatrix.zero(3, 4),
        RationalMatrix.zero(0, 3),
        RationalMatrix.zero(3, 0),
        RationalMatrix.zero(0, 0),
        RationalMatrix.zero(4, 1),
    ):
        _assert_matches_reference(m)
    assert row_reduce(RationalMatrix.zero(0, 3)).kernel == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert row_reduce(RationalMatrix.zero(3, 0)).rank == 0


def test_certificate_denominator_divisible_by_prime():
    # row 1 is p times row 0; reading 1/p as 0 mod p would claim rank 2
    m = RationalMatrix.from_rows([[1, Fraction(1, _PRIME)], [_PRIME, 1]])
    assert _independent_rows_mod_p(_rows(m), m.cols) is None
    red = _assert_matches_reference(m)
    assert red.rank == 1 and red.kernel == [[Fraction(-1, _PRIME), Fraction(1)]]


def test_certificate_prime_entry_has_rank_one():
    m = RationalMatrix.from_rows([[_PRIME]])
    assert _independent_rows_mod_p(_rows(m), m.cols) == []
    red = _assert_matches_reference(m)
    assert red.rank == 1 and red.kernel == []


def test_certificate_unlucky_prime_falls_back():
    # the rows agree mod p, so row 1 is dropped and fails the exact check
    m = RationalMatrix.from_rows([[1, 1], [1, 1 + _PRIME]])
    assert _independent_rows_mod_p(_rows(m), m.cols) == [0]
    red = _assert_matches_reference(m)
    assert red.rank == 2 and red.kernel == [] and red.pivots == [0, 1]


def test_certificate_unlucky_prime_keeps_kernel():
    # rank 1 mod p, rank 2 over Q; row 1 annihilates the first kernel
    # vector of row 0, (-1, 1, 0), and only the second, (-1, 0, 1)
    m = RationalMatrix.from_rows([[1, 1, 1], [1, 1, 1 + _PRIME], [2, 2, 2]])
    assert _independent_rows_mod_p(_rows(m), m.cols) == [0]
    red = _assert_matches_reference(m)
    assert red.rank == 2 and red.kernel == [[Fraction(-1), Fraction(1), Fraction(0)]]
