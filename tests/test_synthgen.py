import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from panomerge import CorruptionSpec, SceneSpec, generate_scene
from panomerge.masks import PanopticMap, SoftMaskSet
from panomerge.synthgen import (
    _class_row,
    _corrupt_views,
    _gaussian_blur,
    _gaussian_weights,
    _paint_world,
    _split_mask,
    _splat_table,
)


def ref_corrupt_views(source, windows, spec, rng):
    """The previous `_corrupt_views`: every view is blurred whole."""
    cor = spec.corruption
    out = np.zeros((spec.num_views, spec.height, spec.width))
    for v, (r, c) in enumerate(windows):
        crop = source[r : r + spec.height, c : c + spec.width].astype(np.float64)
        if cor.boundary_noise_px > 0:
            dy, dx = rng.integers(
                -cor.boundary_noise_px, cor.boundary_noise_px + 1, size=2
            )
            crop = np.roll(crop, (int(dy), int(dx)), axis=(0, 1))
        if cor.softness > 0.0:
            crop = np.clip(ndimage.gaussian_filter(crop, sigma=cor.softness), 0.0, 1.0)
        if cor.view_gain_noise > 0.0:
            crop = crop * (1.0 - rng.random() * cor.view_gain_noise)
        out[v] = crop
    return out


def ref_generate_scene(spec):
    """The previous `generate_scene`: per-proposal (N, H, W) arrays, stacked
    at the end."""
    rng = np.random.default_rng(spec.seed)
    world, inst_class, table = _paint_world(spec, rng)

    windows = [
        (
            int(rng.integers(0, spec.world_size - spec.height + 1)),
            int(rng.integers(0, spec.world_size - spec.width + 1)),
        )
        for _ in range(spec.num_views)
    ]

    gt_inst = np.stack(
        [world[r : r + spec.height, c : c + spec.width] for r, c in windows]
    )
    present = set(np.unique(gt_inst).tolist()) - {0}
    gt = PanopticMap.from_instances(
        gt_inst, {i: inst_class[i] for i in sorted(present)}, table
    )

    cor = spec.corruption
    mask_stack, prob_rows = [], []
    for iid in sorted(inst_class):
        wm = world == iid
        if not wm.any():
            continue
        if rng.random() < cor.fragment_rate:
            sources = _split_mask(wm)
        elif rng.random() < cor.duplicate_rate:
            sources = [wm] * cor.duplicate_count
        else:
            sources = [wm]
        for source in sources:
            mask_stack.append(ref_corrupt_views(source, windows, spec, rng))
            prob_rows.append(
                _class_row(inst_class[iid], table.num_classes, cor.class_noise, rng)
            )

    proposals = SoftMaskSet(np.stack(mask_stack), np.stack(prob_rows), table)
    return gt, proposals, _splat_table(spec, windows)


def assert_matches_reference(spec):
    gt, props, splats = generate_scene(spec)
    ref_gt, ref_props, ref_splats = ref_generate_scene(spec)
    assert np.array_equal(gt.instance_ids, ref_gt.instance_ids)
    assert gt.instance_to_class == ref_gt.instance_to_class
    for name in ("values", "class_probs"):
        got, want = getattr(props, name), getattr(ref_props, name)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    for name in ("splat_ids", "views", "pixels", "weights"):
        assert np.array_equal(getattr(splats, name), getattr(ref_splats, name))


def dense_views(patches, spec):
    out = np.zeros((spec.num_views, spec.height, spec.width))
    for v, ys, xs, patch in patches:
        out[v, ys, xs] = patch
    return out


@st.composite
def scene_specs(draw):
    world = draw(st.integers(8, 40))
    corruption = CorruptionSpec(
        duplicate_rate=draw(st.floats(0.0, 1.0)),
        duplicate_count=draw(st.integers(2, 3)),
        fragment_rate=draw(st.floats(0.0, 1.0)),
        boundary_noise_px=draw(st.integers(0, 5)),
        # 0.875 is where 4 * sigma + 0.5 is exactly 4
        softness=draw(st.one_of(st.just(0.875), st.floats(0.0, 3.0))),
        class_noise=draw(st.floats(0.0, 2.0)),
        view_gain_noise=draw(st.floats(0.0, 0.99)),
    )
    return SceneSpec(
        seed=draw(st.integers(0, 2**32 - 1)),
        num_views=draw(st.integers(1, 4)),
        height=draw(st.integers(1, world)),
        width=draw(st.integers(1, world)),
        num_things=draw(st.integers(0, min(8, (world // 8) ** 2))),
        num_stuff=draw(st.integers(1, 3)),
        world_size=world,
        corruption=corruption,
    )


@st.composite
def blur_inputs(draw):
    shape = (draw(st.integers(1, 24)), draw(st.integers(1, 24)))
    elements = draw(st.sampled_from([
        st.sampled_from([0.0, 1.0]), st.floats(-1e6, 1e6, allow_subnormal=True)
    ]))
    # below 1e-15 gaussian_filter copies, below 0.125 the radius is 0 (so the
    # blur is the identity a softness of 0 relies on), and the largest sigmas
    # reach past the array's far side
    sigma = draw(st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-15, 0.124, 0.125, 0.875]),
        st.floats(0.0, 2.0 * max(shape)),
    ))
    return draw(arrays(np.float64, shape, elements=elements)), sigma


class TestGaussianBlur:
    @settings(max_examples=300, deadline=None)
    @given(blur_inputs())
    def test_equals_scipy_gaussian_filter(self, case):
        a, sigma = case
        got = _gaussian_blur(a, _gaussian_weights(sigma))
        want = ndimage.gaussian_filter(a, sigma)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestMatchesReference:
    """The patch-wise generator equals the whole-view one byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(scene_specs())
    def test_random_specs(self, spec):
        assert_matches_reference(spec)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ablation_spec(self, seed):
        corruption = CorruptionSpec(
            duplicate_rate=0.5, duplicate_count=3, fragment_rate=0.3,
            boundary_noise_px=2, softness=1.0, class_noise=1.0,
            view_gain_noise=0.3,
        )
        assert_matches_reference(SceneSpec(seed=seed, corruption=corruption))

    def test_object_on_view_edge_wraps_to_opposite_edge(self):
        spec = SceneSpec(
            num_views=1, height=8, width=8, num_things=0, world_size=16,
            corruption=CorruptionSpec(
                boundary_noise_px=2, softness=0.875, view_gain_noise=0.3
            ),
        )
        source = np.zeros((16, 16), dtype=bool)
        source[6:8, 2:5] = True  # touches the bottom edge of the window at (0, 0)
        wrapped = 0
        for seed in range(8):
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = dense_views(_corrupt_views(source, [(0, 0)], spec, got_rng), spec)
            want = ref_corrupt_views(source, [(0, 0)], spec, ref_rng)
            assert got.tobytes() == want.tobytes()
            assert got_rng.random() == ref_rng.random()
            dy, _ = np.random.default_rng(seed).integers(-2, 3, size=2)
            wrapped += dy > 0  # a downward shift carries rows 6:8 to the top
        assert wrapped

    def test_absent_view_keeps_later_draws_aligned(self):
        spec = SceneSpec(
            num_views=3, height=8, width=8, num_things=0, world_size=32,
            corruption=CorruptionSpec(
                boundary_noise_px=1, softness=1.0, view_gain_noise=0.5
            ),
        )
        source = np.zeros((32, 32), dtype=bool)
        source[3:6, 3:6] = True
        windows = [(0, 0), (20, 20), (1, 1)]  # the middle view misses the object
        got_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        patches = _corrupt_views(source, windows, spec, got_rng)
        assert [v for v, *_ in patches] == [0, 2]
        want = ref_corrupt_views(source, windows, spec, ref_rng)
        assert not want[1].any()
        assert dense_views(patches, spec).tobytes() == want.tobytes()
        assert got_rng.random() == ref_rng.random()

    def test_values_are_one_owned_c_contiguous_array(self):
        _, props, _ = generate_scene(SceneSpec(seed=4))
        assert props.values.dtype == np.float64
        assert props.values.flags.c_contiguous
        assert props.values.base is None


class TestDeterminism:
    def test_seed_7_bit_identical_regeneration(self):
        spec = SceneSpec(seed=7)
        gt1, props1, splats1 = generate_scene(spec)
        gt2, props2, splats2 = generate_scene(spec)
        assert np.array_equal(gt1.instance_ids, gt2.instance_ids)
        assert gt1.instance_to_class == gt2.instance_to_class
        assert np.array_equal(props1.values, props2.values)
        assert np.array_equal(props1.class_probs, props2.class_probs)
        assert np.array_equal(splats1.weights, splats2.weights)
        assert np.array_equal(splats1.splat_ids, splats2.splat_ids)

    def test_different_seeds_differ(self):
        a = generate_scene(SceneSpec(seed=1))[0]
        b = generate_scene(SceneSpec(seed=2))[0]
        assert not np.array_equal(a.instance_ids, b.instance_ids)


class TestStructure:
    def test_gt_ids_consistent_across_views(self):
        spec = SceneSpec(seed=11)
        gt, _, _ = generate_scene(spec)
        # every labeled pixel's ID looks up a real class, and no mapped ID is absent
        present = set(np.unique(gt.instance_ids).tolist()) - {0}
        assert set(gt.instance_to_class) == present
        classes = [gt.instance_to_class[i] for i in present]
        assert all(0 <= c < gt.class_table.num_classes for c in classes)

    def test_duplicate_rate_one_triples_proposals(self):
        clean = generate_scene(SceneSpec(seed=13))[1]
        spec = SceneSpec(
            seed=13,
            corruption=CorruptionSpec(duplicate_rate=1.0, duplicate_count=3),
        )
        _, proposals, _ = generate_scene(spec)
        assert proposals.num_queries == 3 * clean.num_queries

    @pytest.mark.parametrize(
        "corruption,min_area",
        [
            (CorruptionSpec(), 1),
            (
                CorruptionSpec(
                    boundary_noise_px=2, softness=1.0, class_noise=1.0,
                    view_gain_noise=0.3,
                ),
                30,  # tiny slivers at crop edges can legitimately drift more
            ),
        ],
    )
    def test_proposal_faithfulness(self, corruption, min_area):
        gt, proposals, _ = generate_scene(SceneSpec(seed=17, corruption=corruption))
        for q in range(proposals.num_queries):
            prop = proposals.values[q] >= 0.5
            if prop.sum() < min_area:
                continue
            best = 0.0
            for iid in gt.instance_to_class:
                gt_mask = gt.instance_ids == iid
                union = (prop | gt_mask).sum()
                if union:
                    best = max(best, (prop & gt_mask).sum() / union)
            assert best >= 0.3

    def test_splat_table_satisfies_invariants(self):
        _, _, splats = generate_scene(SceneSpec(seed=19))
        assert splats.weights.min() >= 0.0
        triples = np.stack([splats.splat_ids, splats.views, splats.pixels], axis=1)
        assert np.unique(triples, axis=0).shape[0] == splats.num_records
        assert splats.pixels.max() < splats.height * splats.width
        assert splats.views.max() < splats.num_views

    def test_overfull_scene_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(seed=0, num_things=10_000, world_size=64)

    def test_negative_things_rejected(self):
        with pytest.raises(ValueError, match="num_things"):
            SceneSpec(num_things=-1)


class TestCorruptionSpec:
    @pytest.mark.parametrize("knob", ["softness", "class_noise"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -0.5])
    def test_non_finite_or_negative_rejected(self, knob, value):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            CorruptionSpec(**{knob: value})
