import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panomerge import ClassTable, SoftMaskSet


@pytest.fixture
def simple_table():
    return ClassTable(("chair", "bag", "wall"), (True, True, False))


def make_mask_set(values, class_probs=None, table=None):
    values = np.asarray(values, dtype=np.float64)
    m = values.shape[0]
    if table is None:
        table = ClassTable(("chair", "bag", "wall"), (True, True, False))
    if class_probs is None:
        class_probs = np.tile([0.9, 0.05, 0.05], (m, 1))
    return SoftMaskSet(values, np.asarray(class_probs, dtype=np.float64), table)


def random_mask_set(rng, m=3, n=2, h=4, w=4, table=None):
    return make_mask_set(rng.random((m, n, h, w)), table=table)


@st.composite
def rounding_values(draw):
    """(m, N, H, W) mask values whose sums round differently in different
    orders (rows long enough for pairwise summation), with 5e-324 entries,
    rows of 5e-324, all-zero rows and exact duplicate rows."""
    m = draw(st.integers(1, 7))
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 12)))
    element = st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.0, 1.0))
    values = draw(arrays(np.float64, (m, *shape), elements=element))
    for q in range(m):
        kind = draw(st.sampled_from(["drawn", "tiny", "zero", "copy"]))
        if kind == "tiny":
            values[q] = np.where(values[q] > 0.0, 5e-324, 0.0)
        elif kind == "zero":
            values[q] = 0.0
        elif kind == "copy":
            values[q] = values[draw(st.integers(0, m - 1))]
    return values


@pytest.fixture
def no_dense_values(monkeypatch):
    """Make reading `SoftMaskSet.values`, which rebuilds the whole dense
    array, fail the test."""

    def unread(masks):
        raise AssertionError("SoftMaskSet.values was read")

    monkeypatch.setattr(SoftMaskSet, "values", property(unread))
