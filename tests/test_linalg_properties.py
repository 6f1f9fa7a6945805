"""Property test: row_reduce against the frozen Fraction Gauss-Jordan reference."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_linalg import _reference_row_reduce  # noqa: E402

from blocklie.linalg import RationalMatrix, row_reduce  # noqa: E402

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
        assert m.apply(vec) == [0] * m.rows
