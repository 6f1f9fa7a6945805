"""Property tests: the integer elimination kernel against frozen Fraction references."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_linalg import (  # noqa: E402
    _reference_closure_insert,
    _reference_eliminate,
    _reference_forward_insert,
    _reference_reduce_vec,
    _reference_row_reduce,
)

from blocklie.linalg import _LIFT_BOUND, Echelon, RationalMatrix, _lifted_rref, _rref_mod_p, row_reduce  # noqa: E402

_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-12, max_value=12, max_denominator=9),
)


@st.composite
def _matrices(draw):
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    data = draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    # repeat a row now and then, so that rank-deficient matrices are common
    if data and draw(st.booleans()):
        data.append(list(data[draw(st.integers(0, rows - 1))]))
    return RationalMatrix(len(data), cols, {(r, c): v for r, row in enumerate(data) for c, v in enumerate(row) if v})


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_matrices())
def test_row_reduce_matches_reference_and_kernel_annihilates(m):
    got, want = row_reduce(m), _reference_row_reduce(m)
    assert got.rref.to_json() == want.rref.to_json()
    assert got.rank == want.rank
    assert got.pivots == want.pivots
    assert got.kernel == want.kernel
    assert got.rank + len(got.kernel) == m.cols
    for vec in got.kernel:
        assert m.apply(vec) == {}


_nonzero = st.fractions(min_value=-12, max_value=12, max_denominator=9).filter(bool)


@st.composite
def _sparse_rows(draw):
    """Column count, sparse p/q rows and probe rows; combinations make dependent rows common."""
    cols = draw(st.integers(1, 6))
    row = st.dictionaries(st.integers(0, cols - 1), _nonzero, max_size=cols)
    rows = draw(st.lists(row, max_size=6))
    probes = draw(st.lists(row, max_size=3))
    for target in (rows, probes):
        for _ in range(draw(st.integers(0, 3)) if rows else 0):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            s, t = draw(_nonzero), draw(_nonzero)
            combo = {c: s * rows[i].get(c, 0) + t * rows[j].get(c, 0) for c in range(cols)}
            target.append({c: v for c, v in combo.items() if v})
    return cols, rows, probes


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_sparse_rows())
def test_row_reduce_keeps_the_rows_it_is_given(data):
    cols, rows, _ = data
    # integral values as ints, the others as Fractions
    rows = [{c: v.numerator if v.denominator == 1 else v for c, v in row.items()} for row in rows]
    before = [dict(row) for row in rows]
    m = RationalMatrix.from_sparse_rows(rows, cols)
    got = row_reduce(m)
    held = m.sparse_rows()
    # nonempty rows are held as they are; an empty row is not held at all
    assert len(held) == len(rows) and all(a is b if b else a == {} for a, b in zip(held, rows))
    assert rows == before and [list(row.items()) for row in rows] == [list(row.items()) for row in before]
    want = _reference_row_reduce(RationalMatrix.from_sparse_rows(before, cols))
    assert got.rref.to_json() == want.rref.to_json()
    assert (got.rank, got.pivots, got.kernel) == (want.rank, want.pivots, want.kernel)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_sparse_rows())
def test_echelon_matches_both_closure_references(data):
    cols, rows, probes = data

    def dense(row):
        return [row.get(c, Fraction(0)) for c in range(cols)]

    span, closure, forward = Echelon(), [], []
    for row in rows:
        assert span.insert(row) == _reference_closure_insert(closure, row) == _reference_forward_insert(forward, dense(row))
        assert len(span) == len(closure) == len(forward)
    for probe in rows + probes:
        member = not span.reduce(probe)
        assert member == (not _reference_reduce_vec(closure, probe))
        assert member == (not _reference_forward_insert(list(forward), dense(probe)))
    assert span.rref() == _reference_eliminate(rows) == closure


@st.composite
def _mixed_length_rows(draw):
    """Sparse rows of at least two different lengths and a permutation of them.

    ``row_reduce`` eliminates sparsest first, so mixed
    lengths make the sort reorder the rows.  A combination of two rows
    now and then makes rank-deficient matrices common.
    """
    cols = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(0, cols), min_size=2, max_size=7).filter(lambda ls: len(set(ls)) > 1))
    rows = []
    for k in lengths:
        support = draw(st.lists(st.integers(0, cols - 1), min_size=k, max_size=k, unique=True))
        rows.append({c: draw(_nonzero) for c in support})
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        s, t = draw(_nonzero), draw(_nonzero)
        combo = {c: s * rows[i].get(c, 0) + t * rows[j].get(c, 0) for c in range(cols)}
        rows.append({c: v for c, v in combo.items() if v})
    order = draw(st.permutations(range(len(rows))))
    return cols, rows, order


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_mixed_length_rows())
def test_row_order_changes_no_result(data):
    cols, rows, order = data
    m = RationalMatrix.from_sparse_rows(rows, cols)
    permuted = RationalMatrix.from_sparse_rows([rows[i] for i in order], cols)
    want = _reference_row_reduce(m)
    for got in (row_reduce(m), row_reduce(permuted)):
        assert got.rref.to_json() == want.rref.to_json()
        assert got.rank == want.rank
        assert got.pivots == want.pivots
        assert got.kernel == want.kernel
    reduced = _rref_mod_p(permuted.sparse_rows(), cols)
    assert reduced == _rref_mod_p(m.sparse_rows(), cols)
    assert len(reduced) <= want.rank


_small = st.fractions(min_value=-40, max_value=40, max_denominator=40).filter(bool)
# numerators or denominators above the reconstruction bound
_tall = st.builds(
    Fraction,
    st.integers(_LIFT_BOUND + 1, _LIFT_BOUND**2) | st.integers(-(_LIFT_BOUND**2), -_LIFT_BOUND - 1),
    st.integers(1, _LIFT_BOUND**2),
).filter(lambda v: abs(v.numerator) > _LIFT_BOUND or v.denominator > _LIFT_BOUND)


@st.composite
def _rank_deficient(draw, entry):
    """A sparse matrix of rank below its column count whose rref has its non-pivot entries drawn from ``entry``.

    The rows are integer combinations of the rref rows, with each rref
    row itself among them, so the rref of the result is the drawn one.
    """
    cols = draw(st.integers(1, 7))
    pivots = sorted(draw(st.sets(st.integers(0, cols - 1), max_size=cols - 1)))
    rref = []
    for p in pivots:
        row = {p: Fraction(1)}
        for c in range(p + 1, cols):
            if c not in pivots and draw(st.booleans()):
                row[c] = draw(entry)
        rref.append(row)
    rows = [dict(row) for row in rref]
    for _ in range(draw(st.integers(0, 5)) if rref else 0):
        combo = {}
        for row in rref:
            weight = draw(st.integers(-3, 3))
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + weight * v
        rows.append({c: v for c, v in combo.items() if v})
    for row in rows:
        scale = draw(_small)
        for c in row:
            row[c] *= scale
    order = draw(st.permutations(range(len(rows))))
    return RationalMatrix.from_sparse_rows([rows[i] for i in order], cols), rref


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_rank_deficient(_small))
def test_kernels_lift_from_the_modular_pass(data):
    m, rref = data
    got, want = row_reduce(m), _reference_row_reduce(m)
    assert got.rref.to_json() == want.rref.to_json()
    assert got.pivots == want.pivots and got.kernel == want.kernel
    # every rref entry is inside the bound, so the lift is proven
    assert _lifted_rref(m.sparse_rows(), m.cols) == [(min(row), row) for row in rref]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_rank_deficient(_tall))
def test_kernels_above_the_bound_fall_back(data):
    m, rref = data
    got, want = row_reduce(m), _reference_row_reduce(m)
    assert got.rref.to_json() == want.rref.to_json()
    assert got.pivots == want.pivots and got.kernel == want.kernel
    if any(len(row) > 1 for row in rref):
        # an entry outside the bound cannot be lifted, so the exact check refuses what was lifted
        assert _lifted_rref(m.sparse_rows(), m.cols) is None
