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


def ref_uplift_labels(labels, weights):
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
    return SplatLabelField(dist)


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

    def test_unknown_view(self):
        labels = simple_labels(np.ones((1, 1, 2), dtype=int))
        weights = make_table([[0, 0, 0, 1.0]], 1, 1, 1, 2)
        field = uplift_labels(labels, weights)
        with pytest.raises(ValueError):
            render_labels(field, weights, 5)

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


class TestRenderIndices:
    @settings(max_examples=300, deadline=None)
    @given(uplift_cases())
    def test_match_flatnonzero_and_nonzero(self, case):
        labels, weights = case
        order, sorted_views = weights.view_index
        for v in range(weights.num_views):
            lo, hi = np.searchsorted(sorted_views, (v, v + 1))
            np.testing.assert_array_equal(order[lo:hi], np.flatnonzero(weights.views == v))
        assert sorted_views.size == weights.num_records
        dist = uplift_labels(labels, weights).distributions
        indptr, label, value = SplatLabelField(dist).support
        splat, want = np.nonzero(dist)
        np.testing.assert_array_equal(label, want)
        np.testing.assert_array_equal(value, dist[splat, want])
        np.testing.assert_array_equal(np.diff(indptr), np.count_nonzero(dist, axis=1))
        assert indptr[0] == 0

    def test_built_once_and_read_only(self):
        gt, _, splats = generate_scene(SceneSpec(seed=2))
        field = uplift_labels(gt, splats)
        assert splats.view_index is splats.view_index
        assert field.support is field.support
        arrays = [*splats.view_index, *field.support, field.distributions,
                  splats.splat_ids, splats.views, splats.pixels, splats.weights]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 1

    def test_given_arrays_are_locked(self):
        views, weights = np.zeros(2, dtype=np.int64), np.ones(2)
        SplatWeightTable(1, 1, 1, 2, np.zeros(2), views, np.arange(2), weights)
        dist = np.array([[0.0, 1.0]])
        SplatLabelField(dist)
        for a in (views, weights, dist):
            with pytest.raises(ValueError):
                a[0] = 1


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
    def test_observed_is_derived_from_row_mass(self):
        field = SplatLabelField([[0.0, 0.25, 0.75], [0.0, 0.0, 0.0]])
        assert field.observed.tolist() == [True, False]

    @pytest.mark.parametrize(
        "row",
        [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [-1.0, 2.0, 0.0]],
        ids=["nan", "inf", "negative"],
    )
    def test_non_finite_or_negative_row_rejected(self, row):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SplatLabelField([[0.0, 0.0, 1.0], row])

    @pytest.mark.parametrize("total", [0.5, 1.0 + 1e-5, 2.0])
    def test_row_summing_to_neither_0_nor_1_rejected(self, total):
        with pytest.raises(ValueError, match="sum to 0 or to 1"):
            SplatLabelField([[0.0, total, 0.0]])
