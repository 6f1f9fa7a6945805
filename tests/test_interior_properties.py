"""Property test: ``windows.interior`` against the hand-written window filter it replaced."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blocklie.windows import interior  # noqa: E402


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(-12, 12), st.integers(0, 25), st.lists(st.integers(-30, 30), max_size=4))
@example(lo=-3, width=7, shifts=[])  # no shift: the whole window
@example(lo=-3, width=7, shifts=[2, -5])  # mixed signs
@example(lo=-3, width=7, shifts=[7])  # wider than the window: empty
@example(lo=-3, width=7, shifts=[-4, 4])  # each fits alone, together they do not
@example(lo=2, width=0, shifts=[0])  # empty window
def test_interior_matches_filter(lo, width, shifts):
    hi = lo + width - 1
    got = interior(lo, hi, *shifts)
    assert isinstance(got, range)
    assert list(got) == [k for k in range(lo, hi + 1) if all(lo <= k + s <= hi for s in shifts)]
