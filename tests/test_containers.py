"""The containers that hold arrays compare and hash by identity."""

import numpy as np
import pytest

from panomerge.keyframe import FrameDescriptors
from panomerge.masks import ClassTable, PanopticMap, SoftMaskSet
from panomerge.qubo import Assignment, QuboInstance
from panomerge.uplift import SplatLabelField, SplatWeightTable

TABLE = ClassTable(("chair", "wall"), (True, False))

# Each builds a fresh container from fresh arrays of two or more elements,
# equal from call to call.
CONTAINERS = {
    "SoftMaskSet": lambda: SoftMaskSet(
        np.full((2, 1, 2, 2), 0.5), np.ones((2, 2)), TABLE
    ),
    "PanopticMap": lambda: PanopticMap(
        np.array([[[0, 1], [1, 2]]]), {1: 0, 2: 1}, TABLE
    ),
    "QuboInstance": lambda: QuboInstance(np.ones(2), np.zeros((2, 2))),
    "Assignment": lambda: Assignment(np.array([True, False]), 1.0),
    "SplatWeightTable": lambda: SplatWeightTable(
        2, 1, 1, 2, [0, 1], [0, 0], [0, 1], [0.5, 0.5]
    ),
    "SplatLabelField": lambda: SplatLabelField((2, 2), [1, 3], [1.0, 1.0]),
    "FrameDescriptors": lambda: FrameDescriptors(np.eye(2)),
}


@pytest.mark.parametrize("name", CONTAINERS)
def test_equality_is_identity(name):
    a, b = CONTAINERS[name](), CONTAINERS[name]()
    assert a == a
    assert a != b and not a == b  # no elementwise array comparison, so no raise


@pytest.mark.parametrize("name", CONTAINERS)
def test_hash_is_identity(name):
    a, b = CONTAINERS[name](), CONTAINERS[name]()
    assert hash(a) == hash(a)
    assert len({a, a, b}) == 2


def test_value_types_keep_value_equality():
    assert ClassTable(("a", "b"), (True, False)) == ClassTable(("a", "b"), [1, 0])
    assert hash(ClassTable(("a",), (True,))) == hash(ClassTable(("a",), (True,)))
