import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panomerge import (
    ClassTable,
    MergeConfig,
    PanopticMap,
    SoftMaskSet,
    merge_qubo,
    pairwise_overlap,
    weighted_area,
)
from panomerge.masks import INSTANCE_ID_LIMIT, VOID_CLASS

from conftest import make_mask_set, random_mask_set, rounding_values


def brute_area(values, q):
    total = 0.0
    for v in values[q].reshape(-1):
        total += v
    return total


def brute_overlap(values, i, j):
    total = 0.0
    for a, b in zip(values[i].reshape(-1), values[j].reshape(-1)):
        total += min(a, b)
    return total


class TestWeightedArea:
    def test_all_ones_full_coverage(self):
        masks = make_mask_set(np.ones((1, 2, 4, 4)))
        assert weighted_area(masks, 0) == 32.0

    def test_all_zeros(self):
        masks = make_mask_set(np.zeros((1, 2, 4, 4)))
        assert weighted_area(masks, 0) == 0.0

    def test_half_values_match_direct_sum(self):
        values = np.zeros((1, 2, 4, 4))
        values.reshape(-1)[:10] = 0.5
        masks = make_mask_set(values)
        assert weighted_area(masks, 0) == 5.0

    def test_random_matches_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        masks = random_mask_set(rng, m=4)
        for q in range(4):
            assert weighted_area(masks, q) == pytest.approx(
                brute_area(masks.values, q), abs=1e-12
            )

    def test_out_of_range(self):
        masks = make_mask_set(np.ones((2, 1, 2, 2)))
        with pytest.raises(IndexError):
            weighted_area(masks, 2)


class TestPairwiseOverlap:
    def test_disjoint_masks(self):
        values = np.zeros((2, 1, 2, 2))
        values[0, 0, 0] = 1.0
        values[1, 0, 1] = 1.0
        masks = make_mask_set(values)
        assert pairwise_overlap(masks, 0, 1) == 0.0

    def test_self_overlap_is_area(self):
        rng = np.random.default_rng(3)
        masks = random_mask_set(rng)
        assert pairwise_overlap(masks, 1, 1) == weighted_area(masks, 1)

    def test_single_pixel_min(self):
        values = np.zeros((2, 1, 1, 1))
        values[0] = 0.8
        values[1] = 0.3
        masks = make_mask_set(values)
        assert pairwise_overlap(masks, 0, 1) == pytest.approx(0.3)

    def test_random_matches_pointwise_min_oracle(self):
        rng = np.random.default_rng(5)
        masks = random_mask_set(rng, m=3)
        for i in range(3):
            for j in range(3):
                assert pairwise_overlap(masks, i, j) == pytest.approx(
                    brute_overlap(masks.values, i, j), abs=1e-12
                )

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        masks = random_mask_set(rng, m=4)
        for i in range(4):
            for j in range(4):
                assert pairwise_overlap(masks, i, j) == pairwise_overlap(masks, j, i)

    def test_inclusion_exclusion(self):
        rng = np.random.default_rng(17)
        masks = random_mask_set(rng)
        union = float(np.maximum(masks.values[0], masks.values[1]).sum())
        lhs = (
            weighted_area(masks, 0)
            + weighted_area(masks, 1)
            - pairwise_overlap(masks, 0, 1)
        )
        assert lhs == pytest.approx(union, rel=1e-12)

    @pytest.mark.parametrize("c", [0.5, 0.25, 1.0])
    def test_scaling_is_linear(self, c):
        rng = np.random.default_rng(23)
        masks = random_mask_set(rng)
        scaled = make_mask_set(masks.values * c)
        assert weighted_area(scaled, 0) == pytest.approx(c * weighted_area(masks, 0))
        assert pairwise_overlap(scaled, 0, 1) == pytest.approx(
            c * pairwise_overlap(masks, 0, 1)
        )


class TestValidation:
    def test_values_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_mask_set(np.full((1, 1, 2, 2), 1.5))

    def test_class_prob_rows_must_match(self):
        with pytest.raises(ValueError):
            make_mask_set(np.ones((2, 1, 2, 2)), class_probs=np.ones((3, 3)))

    def test_void_class_must_not_collide(self):
        # class IDs run up to len(names) - 1, so the void class stays clear
        names = tuple(map(str, range(VOID_CLASS)))
        assert ClassTable(names, (True,) * VOID_CLASS).num_classes == VOID_CLASS
        with pytest.raises(ValueError, match=f"at most {VOID_CLASS} classes"):
            ClassTable((*names, "x"), (True,) * (VOID_CLASS + 1))

    def test_nan_values_rejected(self):
        values = np.full((1, 1, 2, 2), 0.5)
        values[0, 0, 1, 1] = np.nan
        with pytest.raises(ValueError):
            make_mask_set(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_class_probs_rejected(self, bad):
        with pytest.raises(ValueError):
            make_mask_set(np.ones((1, 1, 2, 2)), class_probs=[[0.9, bad, 0.05]])


@st.composite
def sparse_values(draw):
    """Mask values with many zeros: all-zero rows, m = 1 and a single pixel
    are all drawn."""
    m = draw(st.integers(1, 5))
    shape = draw(st.tuples(*(st.integers(1, 4) for _ in range(3))))
    grid = st.sampled_from([0.0, 0.0, 5e-324, 0.25, 1.0])
    return draw(arrays(np.float64, (m, *shape), elements=grid))


class TestSupport:
    @settings(max_examples=300, deadline=None)
    @given(sparse_values())
    def test_matches_dense_rows(self, values):
        masks = make_mask_set(values)
        flat = values.reshape(values.shape[0], -1)
        sup = masks.support
        assert sup.indptr[0] == 0 and sup.indptr[-1] == sup.pixels.size
        for q, row in enumerate(flat):
            lo, hi = sup.indptr[q], sup.indptr[q + 1]
            np.testing.assert_array_equal(sup.pixels[lo:hi], np.flatnonzero(row))
            np.testing.assert_array_equal(sup.values[lo:hi], row[row != 0.0])
        np.testing.assert_array_equal(sup.bits, np.packbits(flat > 0.0, axis=1))

    def test_single_pixel_and_all_zero_rows(self):
        sup = make_mask_set(np.array([[[[0.5]]], [[[0.0]]]])).support
        assert sup.indptr.tolist() == [0, 1, 1]
        assert sup.pixels.tolist() == [0] and sup.values.tolist() == [0.5]
        assert sup.bits.tolist() == [[128], [0]]

    def test_built_once(self):
        masks = random_mask_set(np.random.default_rng(0))
        assert masks.support is masks.support

    def test_values_are_read_only(self):
        # Nothing of the caller's array is kept: writing to it, or to a rebuilt
        # `values`, after construction changes no support, area or merge.
        values = np.zeros((2, 1, 2, 2))
        values[0, 0, 0] = 0.5
        values[1, 0, :, 1] = 0.75
        masks = make_mask_set(values)
        support, area = [a.copy() for a in masks.support], masks.area.copy()
        cfg = MergeConfig(solver="exact")
        before = merge_qubo(masks, cfg)
        values[:] = 1.0
        masks.values[:] = 1.0
        for stored, kept in zip(masks.support, support):
            np.testing.assert_array_equal(stored, kept)
        np.testing.assert_array_equal(masks.area, area)
        after = merge_qubo(masks, cfg)
        np.testing.assert_array_equal(after.instance_ids, before.instance_ids)
        assert after.instance_to_class == before.instance_to_class
        # the stored arrays are shared by every consumer, so they are read-only
        for stored in (*masks.support, masks.area):
            with pytest.raises(ValueError):
                stored[...] = 1


def one_buffer(values):
    """Each row of `values` in turn, copied into one reused buffer."""
    row = np.empty(values.shape[1:])
    for source in values:
        row[...] = source
        yield row
        row[...] = np.nan  # a stored reference to the buffer would show this


class TestRowsInput:
    @settings(max_examples=300, deadline=None)
    @given(rounding_values())
    def test_rows_build_the_dense_arrays_set(self, values):
        dense = make_mask_set(values)
        rows = SoftMaskSet(one_buffer(values), dense.class_probs, dense.class_table)
        for a, b in zip(rows.support, dense.support):
            assert np.array_equal(a, b)
        assert rows.shape == dense.shape == values.shape
        # each area is the dense row sum, rounding included
        flat = values.reshape(values.shape[0], -1)
        assert np.array_equal(dense.area, flat.sum(axis=1))
        assert np.array_equal(rows.area, flat.sum(axis=1))
        assert np.array_equal(rows.values, values)
        assert np.array_equal(dense.values, values)

    def test_float32_rows_widen_exactly(self):
        values = np.random.default_rng(0).random((3, 2, 5, 7), dtype=np.float32)
        values[1] = 0.0
        wide = make_mask_set(values.astype(np.float64))
        narrow = make_mask_set(values)
        for a, b in zip(narrow.support, wide.support):
            assert np.array_equal(a, b) and a.dtype == b.dtype
        assert np.array_equal(narrow.area, wide.area)

    @pytest.mark.parametrize(
        "rows",
        [[], [np.zeros((1, 2, 2)), np.zeros((1, 2, 3))], [np.zeros((2, 2))]],
        ids=["no rows", "ragged", "2-d row"],
    )
    def test_bad_rows_rejected(self, rows, simple_table):
        with pytest.raises(ValueError):
            SoftMaskSet(iter(rows), np.full((len(rows), 3), 0.5), simple_table)

    @pytest.mark.parametrize("bad", [-1e-300, 1.0 + 2**-52, np.nan])
    def test_out_of_range_value_in_a_later_row_rejected(self, bad, simple_table):
        rows = [np.full((1, 2, 2), 0.5), np.full((1, 2, 2), 0.5)]
        rows[1][0, 1, 1] = bad
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            SoftMaskSet(rows, np.full((2, 3), 0.5), simple_table)


class TestConstruction:
    def test_fields_are_the_stored_ones(self):
        names = [f.name for f in dataclasses.fields(SoftMaskSet)]
        assert names == ["class_probs", "class_table", "shape", "support", "area"]

    def test_positional_and_keyword_construction_agree(self, simple_table):
        values = np.random.default_rng(0).random((2, 1, 3, 3))
        probs = np.full((2, 3), 0.5)
        by_position = SoftMaskSet(values, probs, simple_table)
        by_name = SoftMaskSet(rows=values, class_probs=probs, class_table=simple_table)
        assert by_position.shape == by_name.shape == values.shape
        for a, b in zip(by_position.support, by_name.support):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(by_position.area, by_name.area)

    def test_rows_are_iterated_once(self, simple_table):
        values = np.random.default_rng(1).random((3, 2, 2, 2))
        reads = []

        def rows():
            for row in values:
                reads.append(len(reads))
                yield row

        masks = SoftMaskSet(rows(), np.full((3, 3), 0.5), simple_table)
        assert reads == [0, 1, 2]
        np.testing.assert_array_equal(masks.values, values)


class TestDenseOracles:
    def test_oracles_densify_only_the_rows_they_read(
        self, monkeypatch, no_dense_values
    ):
        values = np.random.default_rng(4).random((5, 2, 4, 4))
        values[values < 0.5] = 0.0
        masks = make_mask_set(values)
        read = []
        dense_rows = SoftMaskSet.dense_rows

        def spy(self, queries):
            read.append(list(queries))
            return dense_rows(self, queries)

        monkeypatch.setattr(SoftMaskSet, "dense_rows", spy)
        assert weighted_area(masks, 2) == float(values[2].sum())
        overlap = float(np.minimum(values[0], values[3]).sum())
        assert pairwise_overlap(masks, 0, 3) == overlap
        assert read == [[2], [0, 3]]


class TestPanopticMap:
    @pytest.mark.parametrize("bad_id", [-1, 1 << 24])
    def test_ids_outside_code_width_rejected(self, bad_id):
        table = ClassTable(("chair", "bag", "wall"), (True, True, False))
        with pytest.raises(ValueError):
            PanopticMap.from_instances(np.array([[[0, bad_id]]]), {bad_id: 0}, table)

    @pytest.mark.parametrize("bad_key", [-1, 1 << 24, 1 << 40])
    def test_class_keys_outside_id_range_rejected(self, bad_key):
        # no pixel carries the key, but uplift sizes its field by the largest key
        table = ClassTable(("chair", "bag", "wall"), (True, True, False))
        with pytest.raises(ValueError, match=rf"\[{bad_key}\] not in"):
            PanopticMap(np.array([[[0, 1]]]), {1: 0, bad_key: 0}, table)

    @pytest.mark.parametrize("cid", [-1, 3])
    def test_classes_outside_table_rejected(self, cid):
        table = ClassTable(("chair", "bag", "wall"), (True, True, False))
        msg = rf"class ID\(s\) \[{cid}\] not in \[0, 3\)"
        with pytest.raises(ValueError, match=msg):
            PanopticMap(np.array([[[1, 2]]]), {1: 0, 2: cid}, table)

    def test_void_class_accepted(self):
        table = ClassTable(("chair", "bag", "wall"), (True, True, False))
        pmap = PanopticMap(np.array([[[1, 2]]]), {1: 2, 2: VOID_CLASS}, table)
        assert pmap.instance_to_class == {1: 2, 2: VOID_CLASS}

    def test_instance_without_class_rejected(self):
        table = ClassTable(("chair", "bag", "wall"), (True, True, False))
        with pytest.raises(ValueError):
            PanopticMap.from_instances(np.array([[[1, 2]]]), {1: 0}, table)

    def test_every_unmapped_id_named_ascending(self):
        table = ClassTable(("chair", "bag", "wall"), (True, True, False))
        inst = np.array([[[9, 0, 4], [2, 7, 4]]])
        with pytest.raises(ValueError, match=r"\[4, 9\] have no class"):
            PanopticMap.from_instances(inst, {2: 0, 7: 1}, table)

    def test_float_ids_rejected(self):
        table = ClassTable(("chair", "bag", "wall"), (True, True, False))
        with pytest.raises(ValueError, match="integers"):
            PanopticMap(np.array([[[0.0, 1.5]]]), {1.5: 0}, table)

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint64, np.int64])
    def test_integer_ids_stored_as_uint16(self, dtype):
        table = ClassTable(("chair", "bag", "wall"), (True, True, False))
        inst = np.array([[[0, 3], [70, 65535]]], dtype=dtype)
        pmap = PanopticMap(inst, {3: 0, 70: 1, 65535: 2}, table)
        assert pmap.instance_ids.dtype == np.uint16
        np.testing.assert_array_equal(pmap.instance_ids, inst)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_map_owns_a_read_only_copy_of_the_ids(self, dtype):
        table = ClassTable(("chair", "bag", "wall"), (True, True, False))
        inst = np.array([[[0, 3], [70, 3]]], dtype=dtype)
        pmap = PanopticMap(inst, {3: 0, 70: 1}, table)
        inst[0, 0, 0] = 1_000_000
        assert pmap.instance_ids.tolist() == [[[0, 3], [70, 3]]]
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            pmap.instance_ids[0, 0, 0] = 1_000_000


# IDs on either side of the u16 limit and of the wider 2^24 and 2^32 widths
EDGE_IDS = [0, 1, 255, 256, 65534, 65535, 65536, 65537, (1 << 24) - 1, 1 << 24,
            (1 << 32) - 1, 1 << 32, (1 << 32) + 1, -1, -65536]
INT_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64,
              np.int8, np.int16, np.int32, np.int64]


def representable(dtype):
    if dtype == np.bool_:
        return [0, 1]
    info = np.iinfo(dtype)
    return [v for v in EDGE_IDS if info.min <= v <= info.max]


@st.composite
def edge_id_arrays(draw):
    """A (1, 1, n) ID map of a bool or integer dtype, its IDs edge values."""
    dtype = draw(st.sampled_from([np.bool_, *INT_DTYPES]))
    ids = draw(st.lists(st.sampled_from(representable(dtype)), min_size=1, max_size=6))
    return np.array(ids, dtype=dtype).reshape(1, 1, -1)


# a Python int, bool or numpy integer scalar of each integer dtype
edge_keys = st.one_of(
    st.sampled_from(EDGE_IDS),
    st.booleans(),
    st.sampled_from(INT_DTYPES).flatmap(
        lambda d: st.sampled_from(representable(d)).map(d)
    ),
)


class TestNoIdWraps:
    """Every ID a map is given is either held exactly as uint16 or refused
    with ValueError: nothing is narrowed before it is checked."""

    table = ClassTable(("chair", "bag", "wall"), (True, True, False))

    @settings(max_examples=300, deadline=None)
    @given(edge_id_arrays())
    def test_map_ids_are_held_exactly_or_refused(self, inst):
        ids = [int(v) for v in inst.ravel().tolist()]
        to_class = {i: 0 for i in ids if 0 < i < INSTANCE_ID_LIMIT}
        if all(0 <= i < INSTANCE_ID_LIMIT for i in ids):
            pmap = PanopticMap(inst, to_class, self.table)
            assert pmap.instance_ids.dtype == np.uint16
            assert pmap.instance_ids.ravel().tolist() == ids
        else:
            with pytest.raises(ValueError, match="must lie in"):
                PanopticMap(inst, to_class, self.table)

    @settings(max_examples=300, deadline=None)
    @given(edge_keys)
    def test_mapping_keys_are_held_exactly_or_refused(self, key):
        inst = np.full((1, 1, 1), key if 0 <= key < INSTANCE_ID_LIMIT else 0)
        if 0 <= key < INSTANCE_ID_LIMIT:
            pmap = PanopticMap(inst, {key: 0}, self.table)
            assert pmap.instance_to_class == {int(key): 0}
            assert pmap.instance_ids.tolist() == [[[int(key)]]]
        else:
            with pytest.raises(ValueError, match="not in"):
                PanopticMap(inst, {key: 0}, self.table)

    def test_non_integer_key_is_refused(self):
        with pytest.raises(TypeError):
            PanopticMap(np.ones((1, 1, 1), np.uint8), {1: 0, 2.5: 0}, self.table)
