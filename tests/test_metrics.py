import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panomerge import ClassTable, PanopticMap, dataset_pq, iou, scene_pq
from panomerge.masks import INSTANCE_ID_LIMIT, VOID_CLASS, VOID_INSTANCE
from panomerge.metrics import MATCH_IOU, ClassStats, PqReport


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
        top = INSTANCE_ID_LIMIT - 1
        gt = pmap([[[1, top]]], {1: 1, top: 0}, table)
        report = scene_pq(gt, gt, table)
        assert {c: st.tp for c, st in report.per_class.items()} == {0: 1, 1: 1}
        # swapped IDs share no pixel: the keys 1 << 16 | top and top << 16 | 1
        swapped = pmap([[[top, 1]]], {1: 1, top: 0}, table)
        report = scene_pq(swapped, gt, table)
        assert {c: (s.tp, s.fp, s.fn) for c, s in report.per_class.items()} == {
            0: (0, 1, 1), 1: (0, 1, 1),
        }
        # as pred << 16 | gt, a gt ID of 2^16 would carry into the pred ID
        with pytest.raises(ValueError):
            pmap([[[1, top + 1]]], {1: 1, top + 1: 0}, table)

    def test_stuff_id_pairs_fold_into_one_segment_pair(self, table):
        # two wall IDs on each side: four ID pairs, one stuff segment pair
        gt = pmap([[[1, 1, 2, 2, 3]]], {1: 2, 2: 2, 3: 0}, table)
        pred = pmap([[[5, 6, 5, 6, 3]]], {5: 2, 6: 2, 3: 0}, table)
        report = scene_pq(pred, gt, table)
        wall = report.per_class[2]
        assert (wall.tp, wall.fp, wall.fn, wall.iou_sum) == (1, 0, 0, 1.0)
        assert report.pq == 100.0

    def test_pred_ids_above_largest_gt_id(self, table):
        gt = pmap([[[1, 1, 0, 0, 2]]], {1: 0, 2: 1}, table)
        pred = pmap([[[1000, 1000, 7, 7, 2]]], {1000: 0, 7: 0, 2: 1}, table)
        exempt = scene_pq(pred, gt, table)
        assert {c: (s.tp, s.fp, s.fn) for c, s in exempt.per_class.items()} == {
            0: (1, 0, 0), 1: (1, 0, 0),
        }
        strict = scene_pq(pred, gt, table, void_exemption=False)
        assert (strict.per_class[0].tp, strict.per_class[0].fp) == (1, 1)

    def test_all_void_gt(self, table):
        gt = pmap(np.zeros((2, 1, 3), dtype=int), {}, table)
        pred = pmap([[[0, 4, 4]], [[9, 9, 9]]], {4: 0, 9: 2}, table)
        exempt = scene_pq(pred, gt, table)
        assert exempt.per_class == {} and exempt.pq == 0.0
        strict = scene_pq(pred, gt, table, void_exemption=False)
        assert {c: (s.tp, s.fp, s.fn) for c, s in strict.per_class.items()} == {
            0: (0, 1, 0), 2: (0, 1, 0),
        }

    @pytest.mark.parametrize("cid", [3])
    def test_class_outside_table_raises(self, table, cid):
        # a map holds only classes of its own table; score it against another
        wider = ClassTable((*table.names, "cup"), (*table.is_thing, True))
        bad = pmap([[[1, 2]]], {1: 0, 2: cid}, wider)
        good = pmap([[[1, 1]]], {1: 0}, table)
        for pred, gt in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="outside the table"):
                scene_pq(pred, gt, table)

    def test_class_dict_refuses_edits(self, table):
        # so a scored map's classes are the ones its constructor checked
        mapping = {1: 0}
        good = pmap([[[1, 1]]], mapping, table)
        mapping[1] = -1
        with pytest.raises(TypeError):
            good.instance_to_class[1] = -1
        assert good.instance_to_class == {1: 0}
        assert scene_pq(good, good, table).pq == 100.0

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
    def _report(self, pq):
        # dataset_pq reads only these three scores of each scene report
        return SimpleNamespace(pq=pq, pq_things=pq, pq_stuff=pq)

    def test_single_scene_identity(self):
        rep = self._report(73.0)
        summary = dataset_pq([rep])
        assert summary.pq == 73.0

    def test_mean_of_two(self):
        summary = dataset_pq([self._report(40.0), self._report(60.0)])
        assert summary.pq == 50.0

    def test_matches_scripted_mean(self):
        rng = np.random.default_rng(8)
        pqs = rng.random(12) * 100.0
        reports = [self._report(v) for v in pqs]
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

    def test_undefined_split_is_null_in_both_reports(self, table):
        # a thing-only scene leaves the stuff split undefined (NaN)
        gt = pmap(np.ones((1, 2, 2), dtype=int), {1: 0}, table)
        report = scene_pq(gt, gt, table)
        for doc in (report.to_json_dict(), dataset_pq([report]).to_json_dict()):
            assert doc["pq_stuff"] is None and doc["pq_things"] == 100.0
        assert dataset_pq([report]).to_json_dict() == {
            "pq": 100.0, "pq_things": 100.0, "pq_stuff": None, "num_scenes": 1,
        }


# Reference: scene PQ as it was computed before the segment table, from
# per-pixel class * INSTANCE_ID_LIMIT + instance codes and dicts keyed by them.


def ref_segment_codes(pmap, classes):
    ids, inverse = np.unique(pmap.instance_ids, return_inverse=True)
    ids = ids.astype(np.int64)
    to_class = pmap.instance_to_class
    cls = np.array(
        [VOID_CLASS if i == VOID_INSTANCE else to_class[i] for i in ids.tolist()],
        dtype=np.int64,
    )
    valid = (ids != VOID_INSTANCE) & (cls != VOID_CLASS)
    if ((cls[valid] < 0) | (cls[valid] >= classes.num_classes)).any():
        raise ValueError("label map references a class ID outside the table")
    is_thing = np.zeros(ids.shape, dtype=bool)
    is_thing[valid] = np.asarray(classes.is_thing, dtype=bool)[cls[valid]]
    seg = np.where(is_thing, ids, 0)
    codes = np.where(valid, cls * INSTANCE_ID_LIMIT + seg, -1)
    return codes[inverse.reshape(-1)]


def ref_scene_pq(pred, gt, classes, void_exemption=True):
    pred_codes = ref_segment_codes(pred, classes)
    gt_codes = ref_segment_codes(gt, classes)

    valid = pred_codes != -1
    pred_ids, pred_inv, pred_areas = np.unique(
        pred_codes[valid], return_inverse=True, return_counts=True
    )
    gt_ids, gt_inv, gt_areas = np.unique(
        gt_codes, return_inverse=True, return_counts=True
    )
    pred_area = dict(zip(pred_ids.tolist(), pred_areas.tolist()))
    gt_area = dict(zip(gt_ids.tolist(), gt_areas.tolist()))
    gt_area.pop(-1, None)

    keys = pred_inv * gt_ids.size + gt_inv[valid]
    pair_keys, pair_counts = np.unique(keys, return_counts=True)
    pair_p, pair_g = np.divmod(pair_keys, gt_ids.size)
    inter = {}
    void_overlap = {}
    for p, g, count in zip(
        pred_ids[pair_p].tolist(), gt_ids[pair_g].tolist(), pair_counts.tolist()
    ):
        if g == -1:
            void_overlap[p] = count
        else:
            inter[(p, g)] = count

    per_class = {}

    def stats(cid):
        return per_class.setdefault(cid, ClassStats())

    matched_pred = set()
    matched_gt = set()
    for (p, g), count in inter.items():
        if p // INSTANCE_ID_LIMIT != g // INSTANCE_ID_LIMIT:
            continue
        p_void = void_overlap.get(p, 0)
        union = pred_area[p] + gt_area[g] - count - p_void
        if union <= 0:
            continue
        pair_iou = count / union
        if pair_iou > MATCH_IOU:
            st_ = stats(p // INSTANCE_ID_LIMIT)
            st_.tp += 1
            st_.iou_sum += pair_iou
            matched_pred.add(p)
            matched_gt.add(g)

    for g in gt_area:
        if g not in matched_gt:
            stats(g // INSTANCE_ID_LIMIT).fn += 1
    for p in pred_ids.tolist():
        if p in matched_pred:
            continue
        if void_exemption and void_overlap.get(p, 0) > 0.5 * pred_area[p]:
            continue
        stats(p // INSTANCE_ID_LIMIT).fp += 1

    return per_class


def ref_scores(per_class, classes):
    """The five aggregate scores as scene_pq stored them before they were
    derived: computed once, eagerly, from the finished rows."""
    scores = dict(pq=0.0, sq=0.0, rq=0.0, pq_things=math.nan, pq_stuff=math.nan)
    present = list(per_class.values())
    if present:
        scores["pq"] = float(np.mean([s.pq for s in present]))
        scores["sq"] = float(np.mean([s.sq for s in present]))
        scores["rq"] = float(np.mean([s.rq for s in present]))
    things = [s.pq for cid, s in per_class.items() if classes.is_thing[cid]]
    stuff = [s.pq for cid, s in per_class.items() if not classes.is_thing[cid]]
    if things:
        scores["pq_things"] = float(np.mean(things))
    if stuff:
        scores["pq_stuff"] = float(np.mean(stuff))
    return scores


def ref_json_rows(per_class, classes):
    """The per-class JSON rows as written field by field before they were
    built from each row's own fields."""
    rows = []
    for cid in sorted(per_class):
        st_ = per_class[cid]
        rows.append(
            {
                "class_id": cid,
                "name": classes.names[cid],
                "is_thing": classes.is_thing[cid],
                "iou_sum": st_.iou_sum,
                "tp": st_.tp,
                "fp": st_.fp,
                "fn": st_.fn,
                "pq": st_.pq,
                "sq": st_.sq,
                "rq": st_.rq,
            }
        )
    return rows


@st.composite
def scored_pairs(draw):
    """A class table and a (pred, gt) pair of small maps over one ID pool.

    Each map gives every pooled ID a class (or the void class), so some
    mapped IDs are absent from the pixels; pred may copy part of gt's pixels
    and classes so that segments match.
    """
    n_cls = draw(st.integers(1, 4))
    flags = draw(st.lists(st.booleans(), min_size=n_cls, max_size=n_cls))
    table = ClassTable(tuple("abcd"[:n_cls]), tuple(flags))
    class_of = st.one_of(st.integers(0, n_cls - 1), st.just(VOID_CLASS))
    ids = st.integers(1, INSTANCE_ID_LIMIT - 1)
    pool = draw(st.lists(ids, unique=True, max_size=6))
    shape = draw(st.tuples(st.integers(1, 2), st.integers(1, 4), st.integers(1, 5)))
    lookup = np.array([VOID_INSTANCE, *pool], dtype=np.int64)

    def draw_map():
        pick = draw(arrays(np.int64, shape, elements=st.integers(0, len(pool))))
        return lookup[pick], {i: draw(class_of) for i in pool}

    gt_inst, gt_map = draw_map()
    pred_inst, pred_map = draw_map()
    copied = draw(arrays(bool, shape))
    pred_inst = np.where(copied, gt_inst, pred_inst)
    if draw(st.booleans()):
        pred_map = gt_map
    return (
        table,
        PanopticMap.from_instances(pred_inst, pred_map, table),
        PanopticMap.from_instances(gt_inst, gt_map, table),
    )


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=400, deadline=None)
@given(scored_pairs(), st.booleans())
def test_scene_pq_matches_code_dict_reference(scene, void_exemption):
    table, pred, gt = scene
    got = scene_pq(pred, gt, table, void_exemption=void_exemption)
    want = ref_scene_pq(pred, gt, table, void_exemption=void_exemption)

    def rows(per_class):
        return {c: (s.tp, s.fp, s.fn, s.iou_sum) for c, s in per_class.items()}

    assert rows(got.per_class) == rows(want)
    for name, value in ref_scores(want, table).items():
        assert same_float(getattr(got, name), value), name


class TestDerivedScores:
    def test_hand_built_report_is_the_mean_of_its_rows(self, table):
        rows = {0: ClassStats(0.8, tp=1), 2: ClassStats(0.0, fn=1)}
        report = PqReport(rows, table)
        assert (report.pq, report.sq, report.rq) == (40.0, 40.0, 50.0)
        assert (report.pq_things, report.pq_stuff) == (80.0, 0.0)
        assert report.to_json_dict()["pq"] == 40.0

    def test_scores_cannot_be_assigned(self, table):
        report = PqReport({0: ClassStats(0.8, tp=1)}, table)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.pq = 0.0
        assert [f.name for f in dataclasses.fields(PqReport)] == [
            "per_class", "class_table",
        ]

    def test_scores_follow_the_rows(self, table):
        # ClassStats stays mutable, so a stored score would go stale
        rows = {0: ClassStats(0.8, tp=1)}
        report = PqReport(rows, table)
        rows[0].fn += 1
        assert report.pq == pytest.approx(100.0 * 0.8 / 1.5)


@st.composite
def class_rows(draw):
    """A class table and per-class rows over a random subset of its classes,
    in random insertion order: none, things only, stuff only, or both."""
    n_cls = draw(st.integers(1, 5))
    flags = draw(st.lists(st.booleans(), min_size=n_cls, max_size=n_cls))
    table = ClassTable(tuple("abcde"[:n_cls]), tuple(flags))
    cids = draw(st.permutations(range(n_cls)))[: draw(st.integers(0, n_cls))]
    counts = st.integers(0, 50)
    per_class = {}
    for cid in cids:
        tp = draw(counts)
        iou_sum = draw(st.floats(0.5, 1.0)) * tp if tp else 0.0
        per_class[cid] = ClassStats(iou_sum, tp, draw(counts), draw(counts))
    return table, per_class


@settings(max_examples=300, deadline=None)
@given(class_rows())
def test_derived_scores_match_eager_reference(rows):
    table, per_class = rows
    report = PqReport(per_class, table)
    for name, value in ref_scores(per_class, table).items():
        assert same_float(getattr(report, name), value), name
    assert report.to_json_dict()["per_class"] == ref_json_rows(per_class, table)
