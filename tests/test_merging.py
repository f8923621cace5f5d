import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panomerge import (
    AnnealConfig,
    BaselineConfig,
    CorruptionSpec,
    MergeConfig,
    SceneSpec,
    generate_scene,
    merge_baseline,
    merge_qubo,
    scene_pq,
)
from panomerge import merging
from panomerge.masks import PanopticMap, SoftMaskSet
from panomerge.qubo import QuboInstance, build_qubo, solve_anneal, solve_exact

from conftest import make_mask_set


# Dense oracles: the merge kernels as they were before they were restricted
# to mask supports. Each stacks the (k, N, H, W) values and takes np.argmax.


def dense_build_qubo(masks, penalty):
    m = masks.num_queries
    flat = masks.values.reshape(m, -1)
    quad = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            quad[i, j] = quad[j, i] = float(np.minimum(flat[i], flat[j]).sum())
    return QuboInstance(flat.sum(axis=1), quad, penalty)


def dense_assemble(masks, instance_ids, queries):
    instance_to_class = {
        k + 1: int(np.argmax(masks.class_probs[q])) for k, q in enumerate(queries)
    }
    present = set(np.unique(instance_ids).tolist()) - {0}
    instance_to_class = {i: c for i, c in instance_to_class.items() if i in present}
    return PanopticMap.from_instances(
        instance_ids.astype(np.int32), instance_to_class, masks.class_table
    )


def dense_empty(masks):
    shape = (masks.num_views, masks.height, masks.width)
    return PanopticMap.from_instances(np.zeros(shape, np.int32), {}, masks.class_table)


def dense_merge_qubo(masks, cfg):
    keep = np.arange(masks.num_queries)
    if cfg.confidence_prefilter is not None:
        conf = masks.class_probs.max(axis=1)
        keep = keep[conf >= cfg.confidence_prefilter]
        if keep.size == 0:
            return dense_empty(masks)
    sub = SoftMaskSet(masks.values[keep], masks.class_probs[keep], masks.class_table)
    instance = dense_build_qubo(sub, cfg.penalty)
    if cfg.solver == "exact":
        assignment = solve_exact(instance)
    else:
        assignment = solve_anneal(instance, cfg.anneal)
    selected = keep[assignment.selected()]
    if selected.size == 0:
        return dense_empty(masks)
    vals = masks.values[selected]
    winner = np.argmax(vals, axis=0)
    win_val = np.take_along_axis(vals, winner[None], axis=0)[0]
    labeled = (win_val > 0.0) & (win_val >= cfg.void_threshold)
    instance_ids = np.where(labeled, winner + 1, 0)
    return dense_assemble(masks, instance_ids, selected.tolist())


# The QUBO merge as it was when the prefilter copied the kept queries into a
# second mask set and built that set's QUBO; its assembly is dense_assemble's.


def ref_merge_qubo(masks, cfg):
    keep = np.arange(masks.num_queries)
    if cfg.confidence_prefilter is not None:
        conf = masks.class_probs.max(axis=1)
        keep = keep[conf >= cfg.confidence_prefilter]
        if keep.size == 0:
            return dense_empty(masks)
    if keep.size == masks.num_queries:
        sub = masks
    else:
        sub = SoftMaskSet(
            masks.values[keep], masks.class_probs[keep], masks.class_table
        )
    instance = build_qubo(sub, cfg.penalty)
    if cfg.solver == "exact":
        assignment = solve_exact(instance)
    else:
        assignment = solve_anneal(instance, cfg.anneal)
    chosen = assignment.selected()
    if chosen.size == 0:
        return dense_empty(masks)
    win_val, winner = merging._scatter_argmax(sub, chosen, np.ones(chosen.size))
    labeled = (win_val > 0.0) & (win_val >= cfg.void_threshold)
    instance_ids = np.where(labeled, winner + 1, 0)
    return dense_assemble(
        masks, instance_ids.reshape(masks.values.shape[1:]), keep[chosen].tolist()
    )


def dense_merge_baseline(masks, cfg):
    conf = masks.class_probs.max(axis=1)
    keep = np.flatnonzero(conf >= cfg.confidence_threshold)
    if keep.size == 0:
        return dense_empty(masks)
    vals = masks.values[keep]
    scores = conf[keep][:, None, None, None] * vals
    winner = np.argmax(scores, axis=0)
    win_mask_val = np.take_along_axis(vals, winner[None], axis=0)[0]
    labeled = win_mask_val >= 0.5
    for v in range(masks.num_views):
        for k in range(keep.size):
            area = int(np.count_nonzero(vals[k, v] >= 0.5))
            support = int(np.count_nonzero((winner[v] == k) & labeled[v]))
            if area == 0 or support < cfg.vote_support_threshold * area:
                labeled[v] &= winner[v] != k
    instance_ids = np.where(labeled, winner + 1, 0)
    return dense_assemble(masks, instance_ids, keep.tolist())


@st.composite
def quantized_mask_sets(draw):
    """Sparse masks and class scores on a coarse grid, so per-pixel ties,
    all-zero pixels and tied confidences are common, and every overlap sum
    is exact in float64 whatever the summation order."""
    m = draw(st.integers(1, 6))
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5)))
    grid = st.sampled_from([0.25, 0.5, 0.75, 1.0])
    values = draw(arrays(np.float64, (m, *shape), elements=grid, fill=st.just(0.0)))
    probs = draw(arrays(np.float64, (m, 3), elements=st.sampled_from([0.0, 0.5, 1.0])))
    return make_mask_set(values, class_probs=probs)


@st.composite
def float_masks_with_keep(draw, min_kept):
    """Unquantized float masks (m 1-8), so overlap sums round differently in
    different summation orders, and the ascending queries a 0.5 confidence
    prefilter keeps: at least `min_kept` of them, up to all m."""
    m = draw(st.integers(max(1, min_kept), 8))
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6)))
    element = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    values = draw(arrays(np.float64, (m, *shape), elements=element, fill=st.nothing()))
    kept = draw(st.permutations(range(m)))[: draw(st.integers(min_kept, m))]
    keep = np.array(sorted(kept), dtype=np.intp)
    probs = draw(arrays(np.float64, (m, 3), elements=st.floats(0.0, 0.49)))
    probs[keep] += 0.5
    return make_mask_set(values, class_probs=probs), keep


def assert_same_map(a, b):
    np.testing.assert_array_equal(a.instance_ids, b.instance_ids)
    assert a.instance_ids.dtype == b.instance_ids.dtype
    assert a.instance_to_class == b.instance_to_class


def assert_one_class_per_instance(pmap):
    # every labeled pixel's ID looks up a real class, and no mapped ID is absent
    present = set(np.unique(pmap.instance_ids).tolist()) - {0}
    assert set(pmap.instance_to_class) == present
    classes = [pmap.instance_to_class[i] for i in present]
    assert all(0 <= c < pmap.class_table.num_classes for c in classes)


class TestMergeQubo:
    def test_single_full_query(self):
        masks = make_mask_set(
            np.ones((1, 2, 3, 3)), class_probs=[[0.1, 0.8, 0.1]]
        )
        result = merge_qubo(masks)
        assert (result.instance_ids == 1).all()
        assert result.instance_to_class == {1: 1}

    def test_two_identical_queries_one_survives(self):
        values = np.tile(np.ones((1, 1, 4, 4)), (2, 1, 1, 1))
        masks = make_mask_set(values)
        result = merge_qubo(masks, MergeConfig(solver="exact"))
        assert set(np.unique(result.instance_ids)) == {1}
        assert len(result.instance_to_class) == 1

    def test_noise_free_scene_recovers_gt(self):
        gt, proposals, _ = generate_scene(SceneSpec(seed=3))
        merged = merge_qubo(proposals)
        assert scene_pq(merged, gt, gt.class_table).pq == 100.0

    def test_exact_matches_anneal_on_small_scene(self):
        _, proposals, _ = generate_scene(
            SceneSpec(seed=5, num_views=2, height=32, width=32, world_size=64)
        )
        a = merge_qubo(proposals, MergeConfig(solver="exact"))
        b = merge_qubo(proposals, MergeConfig(solver="anneal"))
        assert np.array_equal(a.instance_ids, b.instance_ids)
        assert a.instance_to_class == b.instance_to_class

    def test_query_permutation_relabels_only(self):
        gt, proposals, _ = generate_scene(
            SceneSpec(
                seed=9,
                corruption=CorruptionSpec(softness=0.5, class_noise=0.5),
            )
        )
        rng = np.random.default_rng(0)
        perm = rng.permutation(proposals.num_queries)
        shuffled = make_mask_set(
            proposals.values[perm],
            class_probs=proposals.class_probs[perm],
            table=proposals.class_table,
        )
        a = merge_qubo(proposals, MergeConfig(solver="exact"))
        b = merge_qubo(shuffled, MergeConfig(solver="exact"))
        assert scene_pq(a, b, proposals.class_table).pq == 100.0

    def test_raising_void_threshold_is_monotone(self):
        rng = np.random.default_rng(12)
        masks = make_mask_set(rng.random((3, 2, 6, 6)))
        low = merge_qubo(masks, MergeConfig(void_threshold=0.3, solver="exact"))
        high = merge_qubo(masks, MergeConfig(void_threshold=0.7, solver="exact"))
        assert not ((low.instance_ids == 0) & (high.instance_ids != 0)).any()

    def test_zero_threshold_leaves_uncovered_pixels_void(self):
        values = np.zeros((2, 1, 1, 3))
        values[0, 0, 0, 0] = values[1, 0, 0, 1] = 1.0
        masks = make_mask_set(values)
        cfg = MergeConfig(void_threshold=0.0, solver="exact")
        result = merge_qubo(masks, cfg)
        np.testing.assert_array_equal(result.instance_ids, [[[1, 2, 0]]])
        assert_same_map(result, dense_merge_qubo(masks, cfg))

    def test_prefilter_removing_all_queries_warns_and_voids(self):
        masks = make_mask_set(
            np.ones((2, 1, 2, 2)), class_probs=np.full((2, 3), 0.2)
        )
        with pytest.warns(UserWarning):
            result = merge_qubo(masks, MergeConfig(confidence_prefilter=0.9))
        assert (result.instance_ids == 0).all()

    def test_output_classes_consistent(self):
        _, proposals, _ = generate_scene(
            SceneSpec(seed=21, corruption=CorruptionSpec(duplicate_rate=0.5))
        )
        result = merge_qubo(proposals)
        assert_one_class_per_instance(result)


    @settings(max_examples=150, deadline=None)
    @given(
        quantized_mask_sets(),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([None, 0.5, 1.0]),
        st.sampled_from(["exact", "anneal"]),
    )
    def test_matches_dense_oracle(self, masks, void_threshold, prefilter, solver):
        cfg = MergeConfig(
            void_threshold=void_threshold,
            confidence_prefilter=prefilter,
            solver=solver,
            anneal=AnnealConfig(sweeps=20, restarts=2),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = merge_qubo(masks, cfg)
        assert_same_map(result, dense_merge_qubo(masks, cfg))


class TestPrefilter:
    @settings(max_examples=200, deadline=None)
    @given(float_masks_with_keep(min_kept=1))
    def test_kept_rows_of_whole_qubo_equal_kept_set_qubo(self, case):
        masks, keep = case
        values, probs = masks.values[keep], masks.class_probs[keep]
        alone = build_qubo(SoftMaskSet(values, probs, masks.class_table))
        whole = build_qubo(masks)
        assert np.array_equal(alone.linear, whole.linear[keep])
        assert np.array_equal(alone.quadratic, whole.quadratic[np.ix_(keep, keep)])

    @settings(max_examples=200, deadline=None)
    @given(
        float_masks_with_keep(min_kept=0),
        st.sampled_from([0.0, 0.3, 0.7]),
        st.sampled_from(["exact", "anneal"]),
    )
    def test_matches_kept_set_reference(self, case, void_threshold, solver):
        masks, keep = case
        cfg = MergeConfig(
            void_threshold=void_threshold,
            confidence_prefilter=0.5,
            solver=solver,
            anneal=AnnealConfig(sweeps=20, restarts=2),
        )
        name = f"solve_{solver}"
        with (
            mock.patch.object(merging, name, wraps=getattr(merging, name)) as spy,
            warnings.catch_warnings(),
        ):
            warnings.simplefilter("ignore")
            result = merge_qubo(masks, cfg)
        assert_same_map(result, ref_merge_qubo(masks, cfg))
        # the solver saw the kept set's own QUBO, rounding included
        solved = spy.call_args.args[0]
        assert solved.num_vars == keep.size
        if keep.size:
            values, probs = masks.values[keep], masks.class_probs[keep]
            alone = build_qubo(SoftMaskSet(values, probs, masks.class_table))
            assert np.array_equal(solved.linear, alone.linear)
            assert np.array_equal(solved.quadratic, alone.quadratic)


class TestMergeBaseline:
    def test_single_confident_query(self):
        masks = make_mask_set(np.ones((1, 2, 3, 3)))
        result = merge_baseline(masks)
        assert (result.instance_ids == 1).all()

    def test_low_confidence_query_excluded(self):
        values = np.ones((2, 1, 2, 2))
        probs = np.array([[0.9, 0.05, 0.05], [0.3, 0.3, 0.3]])
        masks = make_mask_set(values, class_probs=probs)
        result = merge_baseline(masks, BaselineConfig(confidence_threshold=0.5))
        assert set(result.instance_to_class) <= {1}

    def test_qubo_beats_baseline_on_duplicate_scene(self):
        cor = CorruptionSpec(
            duplicate_rate=1.0,
            duplicate_count=3,
            boundary_noise_px=2,
            softness=1.0,
            class_noise=1.0,
            view_gain_noise=0.3,
        )
        gt, proposals, _ = generate_scene(SceneSpec(seed=33, corruption=cor))
        pq_q = scene_pq(merge_qubo(proposals), gt, gt.class_table).pq
        pq_b = scene_pq(merge_baseline(proposals), gt, gt.class_table).pq
        assert pq_q > pq_b

    def test_all_void_when_nothing_confident(self):
        masks = make_mask_set(
            np.ones((1, 1, 2, 2)), class_probs=np.full((1, 3), 0.1)
        )
        result = merge_baseline(masks, BaselineConfig(confidence_threshold=0.5))
        assert (result.instance_ids == 0).all()

    def test_map_invariants_hold(self):
        _, proposals, _ = generate_scene(
            SceneSpec(
                seed=8,
                corruption=CorruptionSpec(
                    duplicate_rate=0.5, fragment_rate=0.3, softness=1.0,
                    boundary_noise_px=2, view_gain_noise=0.3,
                ),
            )
        )
        result = merge_baseline(proposals)
        assert_one_class_per_instance(result)

    @settings(max_examples=150, deadline=None)
    @given(
        quantized_mask_sets(),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_matches_dense_oracle(self, masks, conf_threshold, vote_threshold):
        cfg = BaselineConfig(
            confidence_threshold=conf_threshold,
            vote_support_threshold=vote_threshold,
        )
        assert_same_map(merge_baseline(masks, cfg), dense_merge_baseline(masks, cfg))


class TestConfigs:
    @pytest.mark.parametrize("penalty", [1.0, np.inf, np.nan])
    def test_penalty_rule_matches_qubo_instance(self, penalty):
        message = "penalty must be finite and exceed 1"
        with pytest.raises(ValueError, match=message):
            MergeConfig(penalty=penalty)
        with pytest.raises(ValueError, match=message):
            QuboInstance(np.ones(1), np.zeros((1, 1)), penalty)

    @pytest.mark.parametrize("name", ["confidence_threshold", "vote_support_threshold"])
    @pytest.mark.parametrize("value", [-0.5, 2.0, np.nan])
    def test_bad_threshold_is_named(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\], got"):
            BaselineConfig(**{name: value})
