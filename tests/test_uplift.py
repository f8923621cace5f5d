import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panomerge import (
    ClassTable,
    PanopticMap,
    SceneSpec,
    SplatLabelField,
    SplatWeightTable,
    generate_scene,
    merge_qubo,
    render_labels,
    scene_pq,
    uplift_labels,
)


# Dense oracles: uplift and render as they were before they accumulated with
# one np.bincount each. Both add in record order with np.add.at.


def ref_distributions(labels, weights):
    num_labels = int(labels.instance_ids.max(initial=0))
    if labels.instance_to_class:
        num_labels = max(num_labels, max(labels.instance_to_class))
    flat = labels.instance_ids.reshape(labels.num_views, -1)
    record_labels = flat[weights.views, weights.pixels]
    dist = np.zeros((weights.num_splats, num_labels + 1), dtype=np.float64)
    np.add.at(dist, (weights.splat_ids, record_labels), weights.weights)
    totals = dist.sum(axis=1)
    observed = totals > 0.0
    dist[observed] /= totals[observed, None]
    dist[~observed] = 0.0
    return dist


def dense_field(dist):
    """The field of a dense (G, L + 1) array, built from its nonzero entries."""
    keys = np.flatnonzero(dist)
    return SplatLabelField(np.shape(dist), keys, np.ravel(dist)[keys])


def ref_uplift_labels(labels, weights):
    return dense_field(ref_distributions(labels, weights))


def ref_support(dist):
    """(indptr, labels, values) of a dense field's nonzero entries, found in
    one pass over the flat array."""
    rows, ncols = dist.shape
    f = np.flatnonzero(dist > 0.0)
    indptr = np.searchsorted(f, np.arange(rows + 1) * ncols)
    return indptr, f % ncols, dist.ravel()[f]


def ref_render_labels(field, weights, view):
    sel = weights.views == view
    acc = np.zeros((weights.height * weights.width, field.distributions.shape[1]))
    np.add.at(
        acc,
        weights.pixels[sel],
        weights.weights[sel, None] * field.distributions[weights.splat_ids[sel]],
    )
    out = np.argmax(acc, axis=1)
    out[acc.sum(axis=1) <= 0.0] = 0
    return out.reshape(weights.height, weights.width).astype(np.int32)


@st.composite
def uplift_cases(draw):
    """A label map of any integer ID dtype, a weight table whose records may
    repeat splats across views, carry zero or tied weights, or skip some
    splats entirely, and a mapping that may name an ID absent from the map."""
    n, h, w = (draw(st.integers(1, 3)) for _ in range(3))
    g = draw(st.integers(1, 4))
    ids = draw(st.lists(st.sampled_from([0, 1, 2, 5]), min_size=n * h * w,
                        max_size=n * h * w))
    dtype = draw(st.sampled_from([np.int32, np.uint16, np.uint64]))
    inst = np.array(ids, dtype=dtype).reshape(n, h, w)
    extra = draw(st.sampled_from([{}, {7: 1}]))
    labels = PanopticMap.from_instances(
        inst, {i: 0 for i in set(ids) - {0}} | extra, table2()
    )
    triples = draw(st.lists(
        st.tuples(st.integers(0, g - 1), st.integers(0, n - 1),
                  st.integers(0, h * w - 1)),
        unique=True, max_size=4 * n * h * w,
    ))
    # 0.1 + 0.2 + 0.3 rounds differently in another order
    wts = draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 3.0]),
                        min_size=len(triples), max_size=len(triples)))
    cols = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    table = SplatWeightTable(g, n, h, w, cols[0], cols[1], cols[2], np.array(wts))
    return labels, table


@st.composite
def many_label_cases(draw, weight):
    """A label map with L + 1 >= 8 columns, so numpy's pairwise row sum in
    the dense oracle groups its terms, and a weight table whose few splats
    each see many labels, with weights drawn from `weight`."""
    n, h, w = draw(st.integers(1, 2)), draw(st.integers(2, 4)), draw(st.integers(2, 4))
    g = draw(st.integers(1, 3))
    largest = draw(st.integers(7, 15))
    ids = draw(st.lists(st.integers(0, largest), min_size=n * h * w,
                        max_size=n * h * w))
    inst = np.array(ids, dtype=np.int32).reshape(n, h, w)
    labels = PanopticMap.from_instances(
        inst, {i: 0 for i in set(ids) - {0}} | {largest: 1}, table2()
    )
    triples = draw(st.lists(
        st.tuples(st.integers(0, g - 1), st.integers(0, n - 1),
                  st.integers(0, h * w - 1)),
        unique=True, min_size=1, max_size=3 * n * h * w,
    ))
    wts = draw(st.lists(weight, min_size=len(triples), max_size=len(triples)))
    cols = np.array(triples, dtype=np.int64).T
    return labels, SplatWeightTable(g, n, h, w, *cols, np.array(wts))


def table2():
    return ClassTable(("a", "b"), (True, False))


def simple_labels(inst):
    inst = np.asarray(inst)
    ids = set(np.unique(inst).tolist()) - {0}
    return PanopticMap.from_instances(inst, {i: 0 for i in ids}, table2())


def make_table(records, num_splats, num_views, h, w):
    records = np.asarray(records, dtype=np.float64)
    return SplatWeightTable(
        num_splats=num_splats,
        num_views=num_views,
        height=h,
        width=w,
        splat_ids=records[:, 0],
        views=records[:, 1],
        pixels=records[:, 2],
        weights=records[:, 3],
    )


class TestUpliftLabels:
    def test_single_label_support_is_one_hot(self):
        inst = np.full((1, 2, 2), 3)
        labels = simple_labels(inst)
        weights = make_table(
            [[0, 0, 0, 1.0], [0, 0, 1, 0.5]], 1, 1, 2, 2
        )
        field = uplift_labels(labels, weights)
        expected = np.zeros(4)
        expected[3] = 1.0
        assert np.allclose(field.distributions[0], expected)

    def test_weighted_mixture(self):
        inst = np.array([[[1, 2]]])
        labels = simple_labels(inst)
        weights = make_table([[0, 0, 0, 2.0], [0, 0, 1, 1.0]], 1, 1, 1, 2)
        field = uplift_labels(labels, weights)
        assert field.distributions[0] == pytest.approx([0.0, 2 / 3, 1 / 3])

    def test_splat_without_records_is_unobserved(self):
        labels = simple_labels(np.ones((1, 1, 2), dtype=int))
        weights = make_table([[0, 0, 0, 1.0]], 2, 1, 1, 2)
        field = uplift_labels(labels, weights)
        assert not field.observed[1]
        assert (field.distributions[1] == 0.0).all()

    def test_zero_weight_support_is_unobserved(self):
        labels = simple_labels(np.ones((1, 1, 2), dtype=int))
        weights = make_table([[0, 0, 0, 0.0]], 1, 1, 1, 2)
        field = uplift_labels(labels, weights)
        assert not field.observed[0]

    def test_mass_underflowing_against_its_total_is_no_entry(self):
        # 5e-324 / 3.0 rounds to 0.0, in the dense oracle too: no entry
        labels = simple_labels(np.array([[[1, 2]]]))
        weights = make_table([[0, 0, 0, 5e-324], [0, 0, 1, 3.0]], 1, 1, 1, 2)
        field = uplift_labels(labels, weights)
        assert field.support[1].tolist() == [2]
        assert field.support[2].tolist() == [1.0]
        np.testing.assert_array_equal(
            field.distributions, ref_uplift_labels(labels, weights).distributions
        )

    def test_memory_does_not_follow_the_largest_id(self):
        labels = simple_labels(np.array([[[1, 1 << 20]]]))
        weights = make_table([[s, 0, p, 1.0] for s in range(4) for p in (0, 1)],
                             4, 1, 1, 2)
        tracemalloc.start()
        try:
            field = uplift_labels(labels, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense (4, 2^20 + 1) float64 field would be 32 MiB
        assert peak <= 1 << 20
        assert field.shape == (4, (1 << 20) + 1)
        assert field.support[1].tolist() == [1, 1 << 20] * 4

    def test_observed_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            h = w = 4
            n = 2
            g = 5
            count = 30
            sid = rng.integers(0, g, count)
            view = rng.integers(0, n, count)
            pix = rng.integers(0, h * w, count)
            keep = np.unique(np.stack([sid, view, pix], 1), axis=0, return_index=True)[1]
            weights = SplatWeightTable(
                g, n, h, w,
                sid[keep], view[keep], pix[keep], rng.random(keep.size),
            )
            labels = simple_labels(rng.integers(0, 3, (n, h, w)))
            field = uplift_labels(labels, weights)
            sums = field.distributions[field.observed].sum(axis=1)
            assert np.abs(sums - 1.0).max() < 1e-6

    def test_dimension_mismatch(self):
        labels = simple_labels(np.ones((1, 2, 2), dtype=int))
        weights = make_table([[0, 0, 0, 1.0]], 1, 1, 3, 3)
        with pytest.raises(ValueError):
            uplift_labels(labels, weights)


class TestRenderLabels:
    def test_uniform_scene_renders_uniformly(self):
        inst = np.full((1, 2, 2), 1)
        labels = simple_labels(inst)
        records = [[p, 0, p, 1.0] for p in range(4)]
        weights = make_table(records, 4, 1, 2, 2)
        field = uplift_labels(labels, weights)
        assert (render_labels(field, weights, 0) == 1).all()

    def test_unobserved_splat_renders_void(self):
        labels = simple_labels(np.ones((1, 1, 2), dtype=int))
        # splat 1 covers pixel 1 but has zero weight -> unobserved -> void
        weights = make_table([[0, 0, 0, 1.0], [1, 0, 1, 0.0]], 2, 1, 1, 2)
        field = uplift_labels(labels, weights)
        rendered = render_labels(field, weights, 0)
        assert rendered[0, 0] == 1
        assert rendered[0, 1] == 0

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(5)
        labels = simple_labels(rng.integers(0, 3, (1, 3, 3)))
        records = [[p % 4, 0, p, float(rng.random() + 0.1)] for p in range(9)]
        weights = make_table(records, 4, 1, 3, 3)
        field = uplift_labels(labels, weights)
        scaled = make_table(
            [[s, v, p, w * 7.5] for s, v, p, w in records], 4, 1, 3, 3
        )
        assert np.array_equal(
            render_labels(field, weights, 0), render_labels(field, scaled, 0)
        )

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        inst = rng.integers(0, 4, (1, 4, 4))
        records = [[p, 0, p, 1.0] for p in range(16)]
        weights = make_table(records, 16, 1, 4, 4)
        perm = {0: 0, 1: 3, 2: 1, 3: 2}
        base = render_labels(uplift_labels(simple_labels(inst), weights), weights, 0)
        permuted = render_labels(
            uplift_labels(simple_labels(np.vectorize(perm.get)(inst)), weights),
            weights,
            0,
        )
        assert np.array_equal(np.vectorize(perm.get)(base), permuted)

    def test_pixel_adds_in_record_order(self):
        # one pixel of view 0: splats 2, 1, 0 (label 2) then splat 3 (label 1),
        # with a view-1 record between them. 0.1 + 0.2 + 0.3 in record order
        # is 0.6000000000000001 and beats 0.6; reversed or by splat it ties,
        # and the tie goes to label 1.
        field = dense_field(np.eye(3)[[2, 2, 2, 1]])
        records = [[2, 0, 0, 0.1], [1, 0, 0, 0.2], [0, 1, 0, 1.0],
                   [0, 0, 0, 0.3], [3, 0, 0, 0.6]]
        assert render_labels(field, make_table(records, 4, 2, 1, 1), 0)[0, 0] == 2

    def test_unknown_view(self):
        labels = simple_labels(np.ones((1, 1, 2), dtype=int))
        weights = make_table([[0, 0, 0, 1.0]], 1, 1, 1, 2)
        field = uplift_labels(labels, weights)
        with pytest.raises(ValueError):
            render_labels(field, weights, 5)

    @pytest.mark.parametrize("extra", [5, -5])
    def test_field_sized_for_other_splats_rejected(self, extra):
        gt, _, splats = generate_scene(SceneSpec(seed=3))
        dist = uplift_labels(gt, splats).distributions
        rows = dist.shape[0] + extra
        resized = np.zeros((rows, dist.shape[1]))
        resized[: min(rows, dist.shape[0])] = dist[:rows]
        with pytest.raises(ValueError, match="splat count"):
            render_labels(dense_field(resized), splats, 0)

    def test_round_trip_on_clean_scene(self):
        gt, proposals, splats = generate_scene(SceneSpec(seed=4))
        merged = merge_qubo(proposals)
        field = uplift_labels(merged, splats)
        rendered = np.stack(
            [render_labels(field, splats, v) for v in range(splats.num_views)]
        )
        round_trip = PanopticMap.from_instances(
            rendered, merged.instance_to_class, merged.class_table
        )
        assert scene_pq(round_trip, merged, merged.class_table).pq == 100.0


class TestAgainstDenseOracles:
    @settings(max_examples=800, deadline=None)
    @given(uplift_cases())
    def test_uplift_and_render_match_exactly(self, case):
        labels, weights = case
        field = uplift_labels(labels, weights)
        want = ref_uplift_labels(labels, weights)
        np.testing.assert_array_equal(field.distributions, want.distributions)
        for v in range(weights.num_views):
            np.testing.assert_array_equal(
                render_labels(field, weights, v), ref_render_labels(want, weights, v)
            )

    def test_generated_scene_matches_exactly(self):
        gt, _, splats = generate_scene(SceneSpec(seed=2))
        field = uplift_labels(gt, splats)
        want = ref_uplift_labels(gt, splats)
        assert np.array_equal(field.distributions, want.distributions)
        for v in range(splats.num_views):
            assert np.array_equal(
                render_labels(field, splats, v), ref_render_labels(want, splats, v)
            )

    @settings(max_examples=300, deadline=None)
    @given(many_label_cases(st.integers(0, 5).map(float)))
    def test_integer_weights_over_many_labels_match_exactly(self, case):
        # integer masses sum exactly in any order, so the totals agree
        labels, weights = case
        field = uplift_labels(labels, weights)
        want = ref_uplift_labels(labels, weights)
        for a, b in zip(field.support, want.support):
            np.testing.assert_array_equal(a, b)
        for v in range(weights.num_views):
            np.testing.assert_array_equal(
                render_labels(field, weights, v), ref_render_labels(want, weights, v)
            )

    @settings(max_examples=300, deadline=None)
    @given(many_label_cases(
        st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False)
    ))
    def test_real_weights_over_many_labels_match_to_rounding(self, case):
        # a splat's total adds its nonzero masses in label order, the dense
        # oracle all L + 1 columns pairwise: the last ulp may differ
        labels, weights = case
        field = uplift_labels(labels, weights)
        indptr, label, value = field.support
        want_indptr, want_label, want_value = ref_uplift_labels(labels, weights).support
        np.testing.assert_array_equal(indptr, want_indptr)
        np.testing.assert_array_equal(label, want_label)
        eps = np.finfo(np.float64).eps
        rtol = 4 * field.shape[1] * eps
        assert (np.abs(value - want_value) <= rtol * want_value).all()
        for v in range(weights.num_views):
            np.testing.assert_array_equal(
                render_labels(field, weights, v), ref_render_labels(field, weights, v)
            )


class TestRenderIndices:
    @settings(max_examples=300, deadline=None)
    @given(uplift_cases())
    def test_match_flatnonzero_and_nonzero(self, case):
        labels, weights = case
        dist = ref_distributions(labels, weights)
        indptr, label, value = uplift_labels(labels, weights).support
        splat, want = np.nonzero(dist)
        np.testing.assert_array_equal(label, want)
        np.testing.assert_array_equal(value, dist[splat, want])
        np.testing.assert_array_equal(np.diff(indptr), np.count_nonzero(dist, axis=1))
        assert indptr[0] == 0

    def test_built_once_and_read_only(self):
        gt, _, splats = generate_scene(SceneSpec(seed=2))
        field = uplift_labels(gt, splats)
        assert field.support is field.support
        for a in field.support:
            with pytest.raises(ValueError):
                a[0] = 1
        # each access rebuilds a fresh dense array, the caller's to change
        dense = field.distributions
        assert dense is not field.distributions
        dense[0] = 1

    def test_given_array_stays_writable_and_is_not_kept(self):
        gt, _, splats = generate_scene(SceneSpec(seed=2))
        dist = ref_distributions(gt, splats)
        keys = np.flatnonzero(dist)
        values = dist.ravel()[keys]
        field = SplatLabelField(dist.shape, keys, values)
        support = [a.copy() for a in field.support]
        observed = field.observed
        views = [render_labels(field, splats, v) for v in range(splats.num_views)]
        assert keys.flags.writeable and values.flags.writeable
        assert not any(np.shares_memory(values, a) for a in field.support)
        keys[...] = np.arange(keys.size)
        values[...] = 1.0
        for a, b in zip(field.support, support):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(field.observed, observed)
        for v, want in enumerate(views):
            np.testing.assert_array_equal(render_labels(field, splats, v), want)


@st.composite
def dense_fields(draw):
    """Valid dense (G, L + 1) fields, G >= 0 and L + 1 >= 1: rows that sum to
    one, some with subnormal masses, and all-zero rows, some of -0.0."""
    g, width = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    dist = np.zeros((g, width))
    for row in dist:
        masses = draw(st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.3, 1.0]),
                               min_size=width, max_size=width))
        row[:] = masses
        if row.sum() > 0.0:
            row /= row.sum()
            # subnormal masses in zero columns leave the sum within 1e-6
            tiny = draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-310]),
                                 min_size=width, max_size=width))
            zero = row == 0.0
            row[zero] = np.array(tiny)[zero]
    return dist


class TestStoredForm:
    @settings(max_examples=300, deadline=None)
    @given(dense_fields())
    def test_support_round_trip_and_observed(self, dense):
        field = dense_field(dense)
        assert field.shape == dense.shape
        for a, b in zip(field.support, ref_support(dense)):
            np.testing.assert_array_equal(a, b)
        rebuilt = field.distributions
        assert rebuilt.dtype == np.float64
        assert np.array_equal(rebuilt, dense)
        np.testing.assert_array_equal(field.observed, dense.sum(axis=1) > 0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rejects_each_broken_entry_list(self, data):
        dense = data.draw(dense_fields().filter(lambda d: np.count_nonzero(d) >= 2))
        shape = dense.shape
        keys = np.flatnonzero(dense)
        values = dense.ravel()[keys]
        i = data.draw(st.integers(0, keys.size - 1))
        defect = data.draw(st.sampled_from(
            ["unsorted", "duplicated", "negative", "too large", "length",
             "value", "shape"]
        ))
        if defect == "unsorted":
            keys[[0, -1]] = keys[[-1, 0]]
        elif defect == "duplicated":
            keys[max(i, 1)] = keys[max(i, 1) - 1]
        elif defect == "negative":
            keys[0] = data.draw(st.integers(-3, -1))
        elif defect == "too large":
            keys[-1] = shape[0] * shape[1] + data.draw(st.integers(0, 3))
        elif defect == "length":
            values = data.draw(st.sampled_from([values[:-1], np.append(values, 1.0)]))
        elif defect == "value":
            values[i] = data.draw(st.sampled_from([0.0, -0.0, -0.5, np.nan, np.inf]))
        else:
            shape = data.draw(st.sampled_from(
                [(shape[0] * shape[1],), shape + (1,), (), (-1, shape[1])]
            ))
        with pytest.raises(ValueError):
            SplatLabelField(shape, keys, values)


class TestSplatWeightTable:
    def test_duplicate_triples_rejected(self):
        with pytest.raises(ValueError):
            make_table([[0, 0, 0, 1.0], [0, 0, 0, 2.0]], 1, 1, 1, 2)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            make_table([[0, 0, 0, -1.0]], 1, 1, 1, 2)

    def test_out_of_range_pixel_rejected(self):
        with pytest.raises(ValueError):
            make_table([[0, 0, 9, 1.0]], 1, 1, 1, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError):
            make_table([[0, 0, 0, bad]], 1, 1, 1, 2)

    # u32 splat and pixel IDs with u16 views: a packed (splat, view, pixel)
    # key would need 80 bits.
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2**32 - 1]),
                st.sampled_from([0, 2**16 - 1]),
                st.sampled_from([0, 7, 2**32 - 1]),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_rejects_exactly_the_duplicate_triples(self, triples):
        duplicated = np.unique(np.array(triples), axis=0).shape[0] < len(triples)
        table = {
            "num_splats": 2**32,
            "num_views": 2**16,
            "height": 2**16,
            "width": 2**16,
            "splat_ids": np.array([t[0] for t in triples]),
            "views": np.array([t[1] for t in triples]),
            "pixels": np.array([t[2] for t in triples]),
            "weights": np.ones(len(triples)),
        }
        if duplicated:
            with pytest.raises(ValueError):
                SplatWeightTable(**table)
        else:
            SplatWeightTable(**table)


class TestSplatLabelField:
    def test_fields_are_the_stored_ones(self):
        names = [f.name for f in dataclasses.fields(SplatLabelField)]
        assert names == ["shape", "support"]

    def test_positional_and_keyword_construction_agree(self):
        keys, values = np.array([1, 2, 5]), np.array([0.25, 0.75, 1.0])
        by_position = SplatLabelField((2, 3), keys, values)
        by_name = SplatLabelField(shape=(2, 3), keys=keys, values=values)
        assert by_position.shape == by_name.shape == (2, 3)
        for a, b in zip(by_position.support, by_name.support):
            np.testing.assert_array_equal(a, b)
        assert by_name.distributions.tolist() == [[0.0, 0.25, 0.75], [0.0, 0.0, 1.0]]

    def test_observed_is_derived_from_row_mass(self):
        field = dense_field([[0.0, 0.25, 0.75], [0.0, 0.0, 0.0]])
        assert field.observed.tolist() == [True, False]

    @pytest.mark.parametrize(
        "row",
        [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [-1.0, 2.0, 0.0]],
        ids=["nan", "inf", "negative"],
    )
    def test_non_finite_or_negative_row_rejected(self, row):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            dense_field([[0.0, 0.0, 1.0], row])

    @pytest.mark.parametrize("total", [0.5, 1.0 + 1e-5, 2.0])
    def test_row_summing_to_neither_0_nor_1_rejected(self, total):
        with pytest.raises(ValueError, match="sum to 0 or to 1"):
            dense_field([[0.0, total, 0.0]])
