import numpy as np
import pytest

from panomerge import ClassTable, PanopticMap, dataset_pq, iou, scene_pq


def pmap(instances, mapping, table):
    return PanopticMap.from_instances(np.asarray(instances), mapping, table)


@pytest.fixture
def table():
    return ClassTable(("chair", "bag", "wall"), (True, True, False))


class TestIou:
    def test_identical(self):
        assert iou({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint(self):
        assert iou({1, 2}, {3, 4}) == 0.0

    def test_partial(self):
        assert iou({0, 1, 2, 3}, {1, 2, 3, 4, 5}) == 0.5

    def test_both_empty(self):
        assert iou(set(), set()) == 0.0


class TestScenePq:
    def test_identity_is_100(self, table):
        rng = np.random.default_rng(0)
        inst = rng.integers(0, 4, size=(2, 8, 8))
        mapping = {1: 0, 2: 1, 3: 2}
        gt = pmap(inst, mapping, table)
        report = scene_pq(gt, gt, table)
        assert report.pq == 100.0
        assert report.sq == 100.0
        assert report.rq == 100.0

    def test_all_void_pred_is_0(self, table):
        gt = pmap(np.ones((1, 4, 4), dtype=int), {1: 0}, table)
        pred = pmap(np.zeros((1, 4, 4), dtype=int), {}, table)
        report = scene_pq(pred, gt, table)
        assert report.pq == 0.0
        assert report.per_class[0].fn == 1

    def test_eq7_hand_case_is_50(self, table):
        # gt: one class-0 segment of 8 px, 2 px void.
        # pred: a matched segment (inter 6, union 8 -> IoU 0.75) plus an
        # unmatched class-0 segment half on gt, half on void (no exemption).
        gt = np.zeros((1, 1, 10), dtype=int)
        gt[0, 0, :8] = 1
        pred = np.zeros((1, 1, 10), dtype=int)
        pred[0, 0, :6] = 1
        pred[0, 0, 6:] = 2
        report = scene_pq(
            pmap(pred, {1: 0, 2: 0}, table), pmap(gt, {1: 0}, table), table
        )
        st = report.per_class[0]
        assert st.tp == 1 and st.fp == 1 and st.fn == 0
        assert st.iou_sum == pytest.approx(0.75)
        assert report.pq == pytest.approx(50.0, abs=1e-9)

    def test_instance_permutation_invariance(self, table):
        rng = np.random.default_rng(1)
        inst = rng.integers(0, 5, size=(2, 6, 6))
        mapping = {1: 0, 2: 0, 3: 1, 4: 2}
        gt = pmap(inst, mapping, table)
        perm = {0: 0, 1: 4, 2: 3, 3: 1, 4: 2}
        rel_inst = np.vectorize(perm.get)(inst)
        rel_map = {perm[i]: c for i, c in mapping.items()}
        pred = pmap(rel_inst, rel_map, table)
        report = scene_pq(pred, gt, table)
        assert report.pq == 100.0

    def test_view_duplication_leaves_pq_unchanged(self, table):
        rng = np.random.default_rng(2)
        gt_i = rng.integers(0, 4, size=(2, 6, 6))
        pr_i = gt_i.copy()
        pr_i[0, :2] = 0  # perturb
        mapping = {1: 0, 2: 1, 3: 2}
        base = scene_pq(pmap(pr_i, mapping, table), pmap(gt_i, mapping, table), table)
        dup = scene_pq(
            pmap(np.concatenate([pr_i, pr_i]), mapping, table),
            pmap(np.concatenate([gt_i, gt_i]), mapping, table),
            table,
        )
        assert dup.pq == pytest.approx(base.pq)

    def test_pq_equals_sq_times_rq(self, table):
        rng = np.random.default_rng(3)
        gt_i = rng.integers(0, 4, size=(2, 8, 8))
        pr_i = gt_i.copy()
        pr_i[:, :3] = rng.integers(0, 4, size=(2, 3, 8))
        mapping = {1: 0, 2: 1, 3: 2}
        report = scene_pq(pmap(pr_i, mapping, table), pmap(gt_i, mapping, table), table)
        for st in report.per_class.values():
            if st.tp > 0:
                assert st.pq == pytest.approx(st.sq * st.rq / 100.0, abs=1e-9)

    def test_matching_uniqueness(self, table):
        rng = np.random.default_rng(4)
        gt_i = rng.integers(0, 6, size=(1, 12, 12))
        pr_i = gt_i.copy()
        pr_i[0, ::3] = 0
        mapping = {i: [0, 0, 1, 1, 2][i - 1] for i in range(1, 6)}
        report = scene_pq(pmap(pr_i, mapping, table), pmap(gt_i, mapping, table), table)
        total_tp = sum(st.tp for st in report.per_class.values())
        total_fn = sum(st.fn for st in report.per_class.values())
        gt_segments = 3  # 4 thing instances? classes 0,1 merged per instance
        # every gt thing instance plus one merged stuff segment
        gt_segments = 5
        assert total_tp + total_fn == gt_segments

    def test_void_majority_pred_exempt_from_fp(self, table):
        gt = np.zeros((1, 1, 10), dtype=int)
        gt[0, 0, :4] = 1
        pred = np.zeros((1, 1, 10), dtype=int)
        pred[0, 0, :4] = 1
        pred[0, 0, 4:9] = 2  # 5 px all on gt void
        exempt = scene_pq(
            pmap(pred, {1: 0, 2: 0}, table), pmap(gt, {1: 0}, table), table
        )
        assert exempt.per_class[0].fp == 0
        strict = scene_pq(
            pmap(pred, {1: 0, 2: 0}, table),
            pmap(gt, {1: 0}, table),
            table,
            void_exemption=False,
        )
        assert strict.per_class[0].fp == 1

    def test_gt_void_excluded_from_iou_denominator(self, table):
        gt = np.zeros((1, 1, 8), dtype=int)
        gt[0, 0, :4] = 1
        pred = np.zeros((1, 1, 8), dtype=int)
        pred[0, 0, :6] = 1  # 4 px on gt, 2 px on void
        report = scene_pq(pmap(pred, {1: 0}, table), pmap(gt, {1: 0}, table), table)
        # union = 6 + 4 - 4 - 2 void = 4 -> IoU 1.0
        assert report.per_class[0].iou_sum == pytest.approx(1.0)

    def test_shape_mismatch_raises(self, table):
        a = pmap(np.zeros((1, 4, 4), dtype=int), {}, table)
        b = pmap(np.zeros((1, 4, 5), dtype=int), {}, table)
        with pytest.raises(ValueError):
            scene_pq(a, b, table)

    def test_widest_instance_ids_are_not_aliased(self, table):
        top = (1 << 24) - 1
        gt = pmap([[[1, top]]], {1: 1, top: 0}, table)
        report = scene_pq(gt, gt, table)
        assert {c: st.tp for c, st in report.per_class.items()} == {0: 1, 1: 1}
        # as class << 24 | instance, instance 2^24 + 1 of class 0 is class 1
        with pytest.raises(ValueError):
            pmap([[[1, top + 2]]], {1: 1, top + 2: 0}, table)

    def test_thing_stuff_split(self, table):
        gt = np.zeros((1, 2, 4), dtype=int)
        gt[0, 0] = 1  # thing
        gt[0, 1] = 2  # stuff
        pred = gt.copy()
        pred[0, 1] = 0  # stuff missed entirely
        mapping = {1: 0, 2: 2}
        report = scene_pq(
            pmap(pred, {1: 0}, table), pmap(gt, mapping, table), table
        )
        assert report.pq_things == 100.0
        assert report.pq_stuff == 0.0
        assert report.pq == pytest.approx(50.0)


class TestDatasetPq:
    def _report(self, pq, table):
        gt = pmap(np.ones((1, 2, 2), dtype=int), {1: 0}, table)
        rep = scene_pq(gt, gt, table)
        rep.pq = pq
        rep.pq_things = pq
        rep.pq_stuff = pq
        return rep

    def test_single_scene_identity(self, table):
        rep = self._report(73.0, table)
        summary = dataset_pq([rep])
        assert summary.pq == 73.0

    def test_mean_of_two(self, table):
        summary = dataset_pq([self._report(40.0, table), self._report(60.0, table)])
        assert summary.pq == 50.0

    def test_matches_scripted_mean(self, table):
        rng = np.random.default_rng(8)
        pqs = rng.random(12) * 100.0
        reports = [self._report(v, table) for v in pqs]
        expected = sum(pqs) / 12.0
        assert dataset_pq(reports).pq == pytest.approx(expected)

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            dataset_pq([])


class TestSerialization:
    def test_json_row_keys(self, table):
        gt = pmap(np.ones((1, 2, 2), dtype=int), {1: 0}, table)
        doc = scene_pq(gt, gt, table).to_json_dict()
        row = doc["per_class"][0]
        assert set(row) == {
            "class_id", "name", "is_thing", "iou_sum",
            "tp", "fp", "fn", "pq", "sq", "rq",
        }

    def test_text_block(self, table):
        gt = pmap(np.ones((1, 2, 2), dtype=int), {1: 0}, table)
        text = scene_pq(gt, gt, table).to_text()
        assert "pq 100.0000" in text
