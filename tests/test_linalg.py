"""Exact linear algebra: row reduction, kernels, matrix polynomials."""

import functools
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from blocklie import linalg, modules, verma

from blocklie.linalg import (
    _PRIME,
    RationalMatrix,
    RowReduction,
    _eliminate,
    _lifted_rref,
    _rref_mod_p,
    _reduction,
    char_poly,
    eval_poly_matrix,
    row_reduce,
)
from blocklie.rationals import ZERO, accumulate, format_rational, parse_rational


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
    assert red.kernel == [{0: Fraction(-2), 1: Fraction(1)}]
    assert red == RowReduction(rref=red.rref, rank=1, pivots=[0], kernel=[{0: Fraction(-2), 1: Fraction(1)}])
    assert red != RowReduction(red.rref, 1, [1], red.kernel)
    # a kernel vector holds its free column first, then its pivots
    assert repr(red) == f"RowReduction(rref={red.rref!r}, rank=1, pivots=[0], kernel=[{{1: Fraction(1, 1), 0: Fraction(-2, 1)}}])"


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
            assert m.apply(vec) == {}


def test_rank_invariant_under_row_shuffle():
    rng = random.Random(12)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
        m = RationalMatrix.from_rows(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert row_reduce(m).rank == row_reduce(RationalMatrix.from_rows(shuffled)).rank


def test_matmul():
    a = RationalMatrix.from_rows([[1, 2], [0, 1]])
    b = RationalMatrix.from_rows([[1, 0], [3, 1]])
    assert (a @ b).to_rows() == [[Fraction(7), Fraction(2)], [Fraction(3), Fraction(1)]]


def _entries_are_nonzero_fractions(m):
    return all(type(v) is Fraction and v != 0 for v in m.entries.values())


def test_arithmetic_results_hold_only_nonzero_fractions():
    # int entries through the validating constructors, and sums that cancel
    a = RationalMatrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 1): -1, (1, 0): 0})
    b = RationalMatrix.from_sparse_rows([{0: 2, 1: 1}, {0: 4, 1: 2}], 2)
    assert _entries_are_nonzero_fractions(a) and _entries_are_nonzero_fractions(b)
    results = [a @ b, b @ a, a + b, a - a, a.scale(3), a.scale(Fraction(-1, 2)), a.scale(0), -b]
    assert all(_entries_are_nonzero_fractions(m) for m in results)
    assert (a - a).is_zero() and a.scale(0).is_zero()
    # row 0 of a @ b is 1*(2, 1) + 2*(4, 2); row 1 is -(4, 2)
    assert (a @ b).to_rows() == [[10, 5], [-4, -2]]
    # (-1, 2) spans the kernel of b, so every product in b @ c cancels
    c = RationalMatrix.from_rows([[-1, 0], [2, 0]])
    assert (b @ c).is_zero()


def test_constructor_still_validates():
    with pytest.raises(ValueError):
        RationalMatrix(1, 1, {(1, 0): 1})
    with pytest.raises(ValueError):
        RationalMatrix.from_sparse_rows([{2: 1}], 2)
    with pytest.raises(ValueError, match=r"entry \(1,-1\) out of bounds for 2x2"):
        RationalMatrix.from_sparse_rows([{0: 1}, {0: 1, -1: 0}], 2)


@pytest.mark.parametrize(
    "first_read",
    [lambda m: m.sparse_rows(), lambda m: m.entries, lambda m: m.to_json()],
    ids=["sparse_rows", "entries", "to_json"],
)
def test_from_sparse_rows_equals_the_dict_built_matrix(first_read):
    # int and Fraction values, an empty row and zero values
    rows = [{0: 2, 3: Fraction(-1, 3)}, {}, {1: 0, 2: 5}, {2: Fraction(4), 1: Fraction(0)}, {3: Fraction(7, 2)}]
    before = [dict(row) for row in rows]
    want = RationalMatrix(5, 4, {(r, c): v for r, row in enumerate(rows) for c, v in row.items()})
    m = RationalMatrix.from_sparse_rows(rows, 4)
    first_read(m)
    assert m.sparse_rows() == want.sparse_rows() == [{0: 2, 3: Fraction(-1, 3)}, {}, {2: 5}, {2: 4}, {3: Fraction(7, 2)}]
    assert m.entries == want.entries and _entries_are_nonzero_fractions(m)
    assert m == want and m.to_json() == want.to_json()
    assert m.sparse_rows() == want.sparse_rows()
    # the caller's rows are never changed, zeros included
    assert rows == before


def test_from_sparse_rows_holds_the_given_dicts_and_entries_is_a_fresh_view():
    rows = [{0: 2, 1: Fraction(1, 2)}, {}, {0: 0, 1: 3}]
    m = RationalMatrix.from_sparse_rows(rows, 2)
    held = m.sparse_rows()
    assert held[0] is rows[0] and held[1] == {}
    # a row holding a zero is held as a copy without it
    assert held[2] == {1: 3} and held[2] is not rows[2]
    assert row_reduce(m).rank == 2
    view = m.entries
    assert view == {(0, 0): 2, (0, 1): Fraction(1, 2), (2, 1): 3}
    # the held rows stay held after entries is read
    assert all(a is b for a, b in zip(m.sparse_rows(), held) if b)
    # every reader gives Fractions, though the held rows keep their ints
    assert _entries_are_nonzero_fractions(m) and type(m.entry(0, 0)) is Fraction
    assert all(type(v) is Fraction for row in m.to_rows() for v in row)
    # a sparse column, like a sparse row, gives the held values
    assert m.column(0) == {0: 2} and type(m.column(0)[0]) is int
    assert m.column(1) == {0: Fraction(1, 2), 2: 3}
    assert type(rows[0][0]) is int
    # each read is a new dict, and changing it changes nothing
    assert m.entries is not view
    view[(1, 1)] = Fraction(5)
    del view[(0, 0)]
    assert m.entries == {(0, 0): 2, (0, 1): Fraction(1, 2), (2, 1): 3}
    assert m.entry(1, 1) == 0 and m.entry(0, 0) == 2 and rows[0] == {0: 2, 1: Fraction(1, 2)}


@pytest.mark.parametrize(
    "build",
    [lambda: RationalMatrix(10**6, 1), lambda: RationalMatrix.from_json({"rows": 10**6, "cols": 1, "entries": {}})],
    ids=["constructor", "from_json"],
)
def test_zero_rows_take_no_space(build):
    tracemalloc.start()
    try:
        m = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.is_zero() and (m.rows, m.cols) == (10**6, 1)
    assert peak < 1 << 20


def test_a_wide_kernel_is_sparse():
    # dense, these 2,999 kernel vectors would hold 3,000 slots each
    m = RationalMatrix.from_sparse_rows([{0: 1}], 3000)
    tracemalloc.start()
    try:
        kernel = row_reduce(m).kernel
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20
    assert kernel == [{f: 1} for f in range(1, 3000)]


def test_apply_refuses_an_index_outside_the_columns():
    m = RationalMatrix.from_rows([[1, 2], [0, 3]])
    assert m.apply({1: 1}) == {0: 2, 1: 3} and m.apply({}) == {}
    for vec in ({2: 1}, {-1: 1}, {0: 1, 5: 0}):
        with pytest.raises(ValueError, match=r"vector index outside 0\.\.1"):
            m.apply(vec)


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


def test_accumulate_drops_an_entry_that_cancels():
    target = {"x": Fraction(1, 2), "y": 3}
    assert accumulate(target, [("x", Fraction(-1, 2))]) is target
    assert target == {"y": 3}


def test_accumulate_tolerates_zero_for_an_absent_key():
    assert accumulate({}, [("x", 0), ("y", Fraction(0))]) == {}
    assert accumulate({"y": 1}, [("x", ZERO)], Fraction(2, 3)) == {"y": 1}


def test_accumulate_keeps_ints_and_fractions():
    out = accumulate({}, [("i", 2), ("i", 3), ("f", Fraction(3, 2)), ("g", Fraction(4, 2))])
    assert out == {"i": 5, "f": Fraction(3, 2), "g": 2}
    assert type(out["i"]) is int
    assert type(out["f"]) is Fraction and type(out["g"]) is Fraction


def test_accumulate_uses_scale():
    out = accumulate({"x": 1, "z": 6}, [("x", 2), ("y", Fraction(1, 3)), ("z", 2)], -3)
    assert out == {"x": -5, "y": -1}
    assert type(out["x"]) is int and type(out["y"]) is Fraction
    assert accumulate({}, [("x", 4)], Fraction(1, 2)) == {"x": 2}


def test_parse_rational_rejects_booleans_and_keeps_exact_strings():
    for flag in (True, False):
        with pytest.raises(ValueError):
            parse_rational(flag)
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational("1e3") == parse_rational("1_000") == Fraction(1000)


@pytest.mark.parametrize("text", ["1e4300", "1e-4300", "0e5000", "1e10000000", "-0.5E+0_0000_4301", "9" * 4301 + "/7"])
def test_parse_rational_refuses_a_huge_exponent_or_value_before_building_it(text):
    # Fraction builds 10**exponent first: "1e10000000" took seconds, and "0e..." was then read as 0
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        parse_rational(text)
    assert time.perf_counter() - start < 0.1


def test_parse_rational_keeps_values_of_up_to_4300_digits():
    for text in ("1e4299", "-1e-4299", "0e4300", "1" * 4300):
        value = parse_rational(text)
        assert parse_rational(format_rational(value)) == value


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


def _reference_eliminate(rows):
    """Gauss-Jordan over Fraction, frozen from the original ``_eliminate``."""
    reduced: list[tuple[int, dict[int, Fraction]]] = []
    for row in rows:
        row = dict(row)
        # forward-reduce against existing pivots
        for pivot, prow in reduced:
            coeff = row.get(pivot)
            if coeff:
                for c, v in prow.items():
                    s = row.get(c, ZERO) - coeff * v
                    if s:
                        row[c] = s
                    else:
                        row.pop(c, None)
        if not row:
            continue
        pivot = min(row)
        inv = 1 / row[pivot]
        row = {c: v * inv for c, v in row.items()}
        # back-eliminate the new pivot from earlier rows
        for idx, (p, prow) in enumerate(reduced):
            coeff = prow.get(pivot)
            if coeff:
                new = dict(prow)
                for c, v in row.items():
                    s = new.get(c, ZERO) - coeff * v
                    if s:
                        new[c] = s
                    else:
                        new.pop(c, None)
                reduced[idx] = (p, new)
        reduced.append((pivot, row))
    reduced.sort(key=lambda pr: pr[0])
    return reduced


def _reference_reduce_vec(span, vec):
    """Reduction against a fully reduced Fraction span, frozen from ``generation_closure``."""
    vec = dict(vec)
    for pivot, row in span:
        coeff = vec.get(pivot)
        if coeff:
            for c, v in row.items():
                s = vec.get(c, ZERO) - coeff * v
                if s:
                    vec[c] = s
                else:
                    vec.pop(c, None)
    return vec


def _reference_closure_insert(span, vec):
    """Insertion with back-elimination, frozen from ``generation_closure``."""
    vec = _reference_reduce_vec(span, vec)
    if not vec:
        return False
    pivot = min(vec)
    inv = 1 / vec[pivot]
    vec = {c: v * inv for c, v in vec.items()}
    for idx, (p, row) in enumerate(span):
        coeff = row.get(pivot)
        if coeff:
            new = dict(row)
            for c, v in vec.items():
                s = new.get(c, ZERO) - coeff * v
                if s:
                    new[c] = s
                else:
                    new.pop(c, None)
            span[idx] = (p, new)
    span.append((pivot, vec))
    span.sort(key=lambda pr: pr[0])
    return True


def _reference_forward_insert(span, dense):
    """Forward-only insertion of a dense vector, frozen from ``submodule_closure``.

    ``not _reference_forward_insert(list(span), dense)`` tests membership
    without changing ``span``.
    """
    vec = {i: Fraction(v) for i, v in enumerate(dense) if v}
    for pivot, row in span:
        coeff = vec.get(pivot)
        if coeff:
            for c, v in row.items():
                s = vec.get(c, ZERO) - coeff * v
                if s:
                    vec[c] = s
                else:
                    vec.pop(c, None)
    if not vec:
        return False
    pivot = min(vec)
    inv = 1 / vec[pivot]
    vec = {c: v * inv for c, v in vec.items()}
    span.append((pivot, vec))
    span.sort(key=lambda pr: pr[0])
    return True


# reference eliminations of the matrices the tests share, by id; each such
# matrix is cached for the whole session, so its id is never reused
_shared_eliminations: dict[int, list] = {}


def _reference_reduction(reduced, rows, cols):
    """``_reduction`` with the kernel built as it was, one dense vector per free column, then made sparse.

    For each free column f the vector is 1 in slot f and minus the rref
    entry of column f in the pivot slot of each rref row.
    """
    red = _reduction(reduced, rows, cols)
    kernel = []
    for free in range(cols):
        if free in red.pivots:
            continue
        vec = [ZERO] * cols
        vec[free] = Fraction(1)
        for pivot, row in reduced:
            coeff = row.get(free)
            if coeff:
                vec[pivot] = -coeff
        kernel.append({i: v for i, v in enumerate(vec) if v})
    return red._replace(kernel=kernel)


def _reference_row_reduce(m):
    """Rational Gauss-Jordan on every row, with no modular shortcut."""
    eliminated = _shared_eliminations[id(m)] if id(m) in _shared_eliminations else _reference_eliminate(_rows(m))
    return _reference_reduction(eliminated, m.rows, m.cols)


def _assert_same(got, want):
    assert got.rref.to_json() == want.rref.to_json()
    assert got.rank == want.rank
    assert got.pivots == want.pivots
    assert got.kernel == want.kernel


def _assert_matches_reference(m):
    """row_reduce, and the integer kernel on every row, against the reference."""
    got, want = row_reduce(m), _reference_row_reduce(m)
    _assert_same(got, want)
    _assert_same(_reduction(_eliminate(_rows(m)), m.rows, m.cols), want)
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
        doubled = RationalMatrix.from_sparse_rows(m.sparse_rows() * 2, m.cols)
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
    assert row_reduce(RationalMatrix.zero(0, 3)).kernel == [{0: 1}, {1: 1}, {2: 1}]
    assert row_reduce(RationalMatrix.zero(3, 0)).rank == 0


def test_certificate_denominator_divisible_by_prime():
    # row 1 is p times row 0; reading 1/p as 0 mod p would claim rank 2
    m = RationalMatrix.from_rows([[1, Fraction(1, _PRIME)], [_PRIME, 1]])
    assert _rref_mod_p(_rows(m), m.cols) is None
    red = _assert_matches_reference(m)
    assert red.rank == 1 and red.kernel == [{0: Fraction(-1, _PRIME), 1: Fraction(1)}]


def test_certificate_prime_entry_has_rank_one():
    m = RationalMatrix.from_rows([[_PRIME]])
    assert len(_rref_mod_p(_rows(m), m.cols)) == 0
    red = _assert_matches_reference(m)
    assert red.rank == 1 and red.kernel == []


def test_certificate_unlucky_prime_falls_back():
    # the rows agree mod p, so rank 1 mod p proves nothing and Q decides
    m = RationalMatrix.from_rows([[1, 1], [1, 1 + _PRIME]])
    assert len(_rref_mod_p(_rows(m), m.cols)) == 1
    red = _assert_matches_reference(m)
    assert red.rank == 2 and red.kernel == [] and red.pivots == [0, 1]


def test_false_lift_is_rejected_by_the_exact_check():
    # mod p the row is (1, 1): its rref lifts to [1, 1] with kernel (-1, 1),
    # inside every bound, and only the exact check sees (1, 1 + p) . (-1, 1) = p
    m = RationalMatrix.from_rows([[1, 1 + _PRIME]])
    assert _rref_mod_p(_rows(m), m.cols) == {0: {0: 1, 1: 1}}
    assert _lifted_rref(_rows(m), m.cols) is None
    red = _assert_matches_reference(m)
    assert red.kernel == [{0: Fraction(-(1 + _PRIME)), 1: Fraction(1)}]


def test_certificate_unlucky_prime_keeps_kernel():
    # rank 1 mod p, rank 2 over Q: the kernel over Q is the one vector
    # (-1, 1, 0) of row 0's two that row 1 also annihilates
    m = RationalMatrix.from_rows([[1, 1, 1], [1, 1, 1 + _PRIME], [2, 2, 2]])
    assert len(_rref_mod_p(_rows(m), m.cols)) == 1
    red = _assert_matches_reference(m)
    assert red.rank == 2 and red.kernel == [{0: Fraction(-1), 1: Fraction(1)}]


# -- the fraction-free integer kernel --------------------------------------------


def _seeded(rng, rows, cols, entry, density=0.7):
    return RationalMatrix(
        rows, cols, {(r, c): entry(rng) for r in range(rows) for c in range(cols) if rng.random() < density}
    )


def _with_dependent_rows(rng, m, extra):
    """Append ``extra`` rational combinations of m's rows, which cancel to zero."""
    rows = m.to_rows()
    for _ in range(extra):
        weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in rows]
        rows.append([sum((w * row[c] for w, row in zip(weights, rows)), ZERO) for c in range(m.cols)])
    return RationalMatrix.from_rows(rows)


def _check_family(rng, entry):
    for _ in range(25):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = _seeded(rng, rows, cols, entry)
        _assert_matches_reference(m)
        _assert_matches_reference(_with_dependent_rows(rng, m, rng.randint(1, 3)))
        _assert_matches_reference(RationalMatrix.from_sparse_rows(m.sparse_rows() * 2, m.cols))


def test_integer_kernel_mixed_denominators():
    _check_family(random.Random(31), lambda rng: Fraction(rng.randint(-60, 60), rng.randint(2, 97)))


def test_integer_kernel_entries_above_two_to_the_64():
    big = 2**64
    _check_family(
        random.Random(32),
        lambda rng: Fraction(rng.choice((-1, 1)) * rng.randint(big, 4 * big), rng.randint(1, 3 * big)),
    )


def test_integer_kernel_negative_leading_entries():
    rng = random.Random(33)
    for _ in range(25):
        cols = rng.randint(2, 7)
        rows = []
        for _ in range(rng.randint(1, 7)):
            lead = rng.randint(0, cols - 1)
            row = [ZERO] * lead + [Fraction(-rng.randint(1, 9), rng.randint(1, 5))]
            row += [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(cols - lead - 1)]
            rows.append(row)
        red = _assert_matches_reference(RationalMatrix.from_rows(rows))
        assert all(red.rref.entry(r, p) == 1 for r, p in enumerate(red.pivots))


def test_integer_kernel_rows_cancel_to_zero():
    rng = random.Random(34)
    for _ in range(25):
        m = _seeded(rng, rng.randint(1, 4), rng.randint(2, 7), lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        red = _assert_matches_reference(_with_dependent_rows(rng, m, 4))
        assert red.rank == row_reduce(m).rank
    # every row after the first is a multiple of it: one pivot, the rest cancels
    row = [Fraction(-3, 7), Fraction(5, 2), ZERO, Fraction(1, 3)]
    m = RationalMatrix.from_rows([[k * v for v in row] for k in (1, -2, Fraction(7, 3), 5)])
    red = _assert_matches_reference(m)
    assert red.rank == 1 and red.rref.to_rows()[0] == [1, Fraction(-35, 6), 0, Fraction(-7, 9)]


def test_integer_kernel_duplicated_rows():
    rng = random.Random(35)
    for _ in range(25):
        m = _seeded(rng, rng.randint(1, 6), rng.randint(1, 6), lambda rng: Fraction(rng.randint(-20, 20), rng.randint(1, 30)))
        red = _assert_matches_reference(m)
        doubled = _assert_matches_reference(RationalMatrix.from_sparse_rows(m.sparse_rows() * 3, m.cols))
        assert doubled.rref.to_json()["entries"] == red.rref.to_json()["entries"]
        assert doubled.kernel == red.kernel


def _captured_system(module, run, call=0):
    """The matrix behind the ``row_reduce`` call of index ``call`` (first by default) that ``run`` makes in ``module``."""
    seen = []
    real = module.row_reduce

    def record(m):
        seen.append(m)
        return real(m)

    module.row_reduce = record
    try:
        run()
    finally:
        module.row_reduce = real
    return seen[call]


def _verma_system(lam, c, n, depth):
    weight = verma.WeightFunctional(tuple(Fraction(v) for v in lam), Fraction(c))
    # verma calls row_reduce through the linalg module, once per depth, so the depth-D system is the last call
    return _captured_system(linalg, lambda: verma.singular_vectors(weight, n, depth), -1)


@functools.cache
def _verma_n1_depth10():
    """The Verma n=1, depth-10 system and its reference elimination, built once for the tests that read them."""
    m = _verma_system(("2/3", 0), "-5/2", 1, 10)
    _shared_eliminations[id(m)] = _reference_eliminate(_rows(m))
    return m


def _extension_system(a, b, lo, hi):
    window = modules.build_window(modules.IntermediateSpec("Aab", Fraction(a), Fraction(b)), lo, hi)
    return _captured_system(modules, lambda: modules.extension_space(window, 2))


@pytest.mark.parametrize(
    "build, kernel_dim",
    [
        pytest.param(_verma_n1_depth10, 6, id="verma-n1-depth10"),
        pytest.param(lambda: _verma_system(("1/3", "-5/2", 0), "-5/2", 2, 6), 7, id="verma-n2-depth6"),
        pytest.param(lambda: _extension_system(2, 0, -20, 20), 1, id="extension-a2-b0"),
    ],
)
def test_integer_kernel_on_real_systems(build, kernel_dim):
    m = build()
    red = _assert_matches_reference(m)
    assert len(red.kernel) == kernel_dim
    for vec in red.kernel:
        assert m.apply(vec) == {}


@pytest.mark.parametrize(
    "lam, c, n, depth",
    [(("1/2", 0), "1/3", 1, depth) for depth in range(6, 11)] + [(("5/3", "1/5", 0), "3/2", 2, 6)],
    ids=[f"n1-depth{depth}" for depth in range(6, 11)] + ["n2-depth6"],
)
def test_verma_kernels_with_wide_rref_entries_lift(lam, c, n, depth):
    """Systems whose rref entries reach 39 bits, above a 30-bit prime's lift bound, lift at p = 2^89 - 1."""
    m = _verma_system(lam, c, n, depth)
    lifted = _lifted_rref(m.sparse_rows(), m.cols)
    assert lifted is not None
    _assert_same(_reduction(lifted, m.rows, m.cols), _reference_row_reduce(m))


def test_shuffled_real_system_matches_reference():
    """Row order changes nothing: a shuffled Verma n=1, depth 10 system against the reference."""
    m = _verma_n1_depth10()
    want = _shared_eliminations[id(m)]
    rows = _rows(m)
    random.Random(37).shuffle(rows)
    assert rows != _rows(m)
    assert _eliminate(rows) == want
    shuffled = RationalMatrix.from_sparse_rows(rows, m.cols)
    _assert_same(row_reduce(shuffled), _reduction(want, m.rows, m.cols))
    assert len(_rref_mod_p(rows, m.cols)) == len(_rref_mod_p(_rows(m), m.cols)) == len(want)
