import numpy as np
import pytest

from panomerge import CorruptionSpec, SceneSpec, generate_scene


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
        for iid, cid in gt.instance_to_class.items():
            assert (gt.class_ids[gt.instance_ids == iid] == cid).all()

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
