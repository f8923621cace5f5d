"""Scene-level Panoptic Quality: per-class PQ/SQ/RQ, thing/stuff splits,
and per-scene dataset averaging.

Segments are unions of same-ID pixels across ALL views of a scene, so the
metric ties instance identity between views. Stuff classes are merged into a
single segment per class on both prediction and ground truth before matching.
All values are reported in percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .masks import INSTANCE_ID_LIMIT, VOID_INSTANCE, ClassTable, PanopticMap

MATCH_IOU = 0.5


def iou(pred_pixels, gt_pixels) -> float:
    """Intersection over union of two pixel-index sets; 0 if both empty."""
    p = set(map(int, pred_pixels))
    g = set(map(int, gt_pixels))
    union = len(p | g)
    if union == 0:
        return 0.0
    return len(p & g) / union


@dataclass
class ClassStats:
    """Per-class accumulators and derived PQ/SQ/RQ (percent)."""

    iou_sum: float = 0.0
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def sq(self) -> float:
        return 100.0 * self.iou_sum / self.tp if self.tp > 0 else 0.0

    @property
    def rq(self) -> float:
        denom = self.tp + 0.5 * self.fp + 0.5 * self.fn
        return 100.0 * self.tp / denom if denom > 0 else 0.0

    @property
    def pq(self) -> float:
        denom = self.tp + 0.5 * self.fp + 0.5 * self.fn
        return 100.0 * self.iou_sum / denom if denom > 0 else 0.0


@dataclass
class PqReport:
    """Per-class rows plus overall and thing/stuff aggregate scores."""

    per_class: dict[int, ClassStats]
    class_table: ClassTable
    pq: float = 0.0
    sq: float = 0.0
    rq: float = 0.0
    pq_things: float = math.nan
    pq_stuff: float = math.nan

    def to_json_dict(self) -> dict:
        rows = []
        for cid in sorted(self.per_class):
            st = self.per_class[cid]
            rows.append(
                {
                    "class_id": cid,
                    "name": self.class_table.names[cid],
                    "is_thing": self.class_table.is_thing[cid],
                    "iou_sum": st.iou_sum,
                    "tp": st.tp,
                    "fp": st.fp,
                    "fn": st.fn,
                    "pq": st.pq,
                    "sq": st.sq,
                    "rq": st.rq,
                }
            )
        return {
            "pq": self.pq,
            "sq": self.sq,
            "rq": self.rq,
            "pq_things": None if math.isnan(self.pq_things) else self.pq_things,
            "pq_stuff": None if math.isnan(self.pq_stuff) else self.pq_stuff,
            "per_class": rows,
        }

    def to_text(self) -> str:
        lines = [
            f"pq {self.pq:.4f}",
            f"sq {self.sq:.4f}",
            f"rq {self.rq:.4f}",
            f"pq_things {self.pq_things:.4f}",
            f"pq_stuff {self.pq_stuff:.4f}",
        ]
        return "\n".join(lines)


def _segment_codes(pmap: PanopticMap, classes: ClassTable) -> np.ndarray:
    """Encode each pixel as class * INSTANCE_ID_LIMIT + segment, flattened
    over all views; codes are computed once per distinct instance ID.

    Thing pixels keep their instance ID as the segment part; stuff pixels of a
    class collapse to segment 0, merging them into one scene-wide segment.
    Void pixels get code -1.
    """
    ids, inverse, cls = pmap.unique_ids()
    ids = ids.astype(np.int64)
    cls = cls.astype(np.int64)
    valid = (ids != VOID_INSTANCE) & (cls != classes.void_class)
    if ((cls[valid] < 0) | (cls[valid] >= classes.num_classes)).any():
        raise ValueError("label map references a class ID outside the table")
    is_thing = np.zeros(ids.shape, dtype=bool)
    is_thing[valid] = np.asarray(classes.is_thing, dtype=bool)[cls[valid]]
    seg = np.where(is_thing, ids, 0)
    codes = np.where(valid, cls * INSTANCE_ID_LIMIT + seg, -1)
    return codes[inverse.reshape(-1)]


def scene_pq(
    pred: PanopticMap,
    gt: PanopticMap,
    classes: ClassTable,
    void_exemption: bool = True,
) -> PqReport:
    """Panoptic Quality over the concatenation of all views of a scene.

    A (pred, gt) segment pair of the same class is a true positive iff its
    IoU exceeds 0.5, which guarantees one-to-one matching. Ground-truth void
    pixels are excluded from IoU denominators, and (unless disabled) an
    unmatched predicted segment majority-covered by gt void is exempt from
    the false-positive count.
    """
    if pred.instance_ids.shape != gt.instance_ids.shape:
        raise ValueError(
            "shape mismatch: pred "
            f"{pred.instance_ids.shape} vs gt {gt.instance_ids.shape}"
        )
    pred_codes = _segment_codes(pred, classes)
    gt_codes = _segment_codes(gt, classes)

    valid = pred_codes != -1
    pred_ids, pred_inv, pred_areas = np.unique(
        pred_codes[valid], return_inverse=True, return_counts=True
    )
    # gt void (code -1) is kept as a segment so pairs with it are counted
    gt_ids, gt_inv, gt_areas = np.unique(
        gt_codes, return_inverse=True, return_counts=True
    )
    pred_area = dict(zip(pred_ids.tolist(), pred_areas.tolist()))
    gt_area = dict(zip(gt_ids.tolist(), gt_areas.tolist()))
    gt_area.pop(-1, None)

    # joint histogram of (pred segment, gt segment) co-occurrences, one
    # collision-free key per pair of compacted segment indices
    keys = pred_inv * gt_ids.size + gt_inv[valid]
    pair_keys, pair_counts = np.unique(keys, return_counts=True)
    pair_p, pair_g = np.divmod(pair_keys, gt_ids.size)
    inter: dict[tuple[int, int], int] = {}
    void_overlap: dict[int, int] = {}
    for p, g, count in zip(
        pred_ids[pair_p].tolist(), gt_ids[pair_g].tolist(), pair_counts.tolist()
    ):
        if g == -1:
            void_overlap[p] = count
        else:
            inter[(p, g)] = count

    per_class: dict[int, ClassStats] = {}

    def stats(cid: int) -> ClassStats:
        return per_class.setdefault(cid, ClassStats())

    matched_pred: set[int] = set()
    matched_gt: set[int] = set()
    for (p, g), count in inter.items():
        if p // INSTANCE_ID_LIMIT != g // INSTANCE_ID_LIMIT:
            continue
        p_void = void_overlap.get(p, 0)
        union = pred_area[p] + gt_area[g] - count - p_void
        if union <= 0:
            continue
        pair_iou = count / union
        if pair_iou > MATCH_IOU:
            cid = p // INSTANCE_ID_LIMIT
            st = stats(cid)
            st.tp += 1
            st.iou_sum += pair_iou
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

    report = PqReport(per_class=per_class, class_table=classes)
    present = [st for st in per_class.values()]
    if present:
        report.pq = float(np.mean([st.pq for st in present]))
        report.sq = float(np.mean([st.sq for st in present]))
        report.rq = float(np.mean([st.rq for st in present]))
    things = [st.pq for cid, st in per_class.items() if classes.is_thing[cid]]
    stuff = [st.pq for cid, st in per_class.items() if not classes.is_thing[cid]]
    if things:
        report.pq_things = float(np.mean(things))
    if stuff:
        report.pq_stuff = float(np.mean(stuff))
    return report


@dataclass
class DatasetSummary:
    pq: float
    pq_things: float
    pq_stuff: float
    num_scenes: int


def dataset_pq(reports: list[PqReport]) -> DatasetSummary:
    """Arithmetic mean of per-scene PQ (and thing/stuff splits) over scenes.

    Scenes whose thing (or stuff) split is undefined are skipped when
    averaging that split.
    """
    if not reports:
        raise ValueError("dataset_pq requires at least one scene report")
    things = [r.pq_things for r in reports if not math.isnan(r.pq_things)]
    stuff = [r.pq_stuff for r in reports if not math.isnan(r.pq_stuff)]
    return DatasetSummary(
        pq=float(np.mean([r.pq for r in reports])),
        pq_things=float(np.mean(things)) if things else math.nan,
        pq_stuff=float(np.mean(stuff)) if stuff else math.nan,
        num_scenes=len(reports),
    )
