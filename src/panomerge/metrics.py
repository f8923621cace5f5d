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

from .masks import VOID_CLASS, VOID_INSTANCE, ClassTable, PanopticMap

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


def _json_number(x: float) -> float | None:
    """A number for JSON: NaN, the score of an undefined split, is null."""
    return None if math.isnan(x) else x


def _mean(values: list, empty: float) -> float:
    """The mean of `values`, or `empty` when there are none."""
    return float(np.mean(values)) if values else empty


@dataclass(frozen=True)
class PqReport:
    """Per-class rows; the overall and thing/stuff scores are derived from
    them on each access, since a `ClassStats` row stays mutable and a stored
    score could go stale. Each is the mean over the rows in insertion order,
    0 (overall) or NaN (a split) with no row to average."""

    per_class: dict[int, ClassStats]
    class_table: ClassTable

    def _split(self, thing: bool) -> float:
        is_thing = self.class_table.is_thing
        pqs = [st.pq for cid, st in self.per_class.items() if is_thing[cid] == thing]
        return _mean(pqs, math.nan)

    pq = property(lambda self: _mean([st.pq for st in self.per_class.values()], 0.0))
    sq = property(lambda self: _mean([st.sq for st in self.per_class.values()], 0.0))
    rq = property(lambda self: _mean([st.rq for st in self.per_class.values()], 0.0))
    pq_things = property(lambda self: self._split(True))
    pq_stuff = property(lambda self: self._split(False))

    def to_json_dict(self) -> dict:
        table = self.class_table
        rows = [
            {
                **vars(st),
                "class_id": cid,
                "name": table.names[cid],
                "is_thing": table.is_thing[cid],
                "pq": st.pq,
                "sq": st.sq,
                "rq": st.rq,
            }
            for cid, st in sorted(self.per_class.items())
        ]
        return {
            "pq": self.pq,
            "sq": self.sq,
            "rq": self.rq,
            "pq_things": _json_number(self.pq_things),
            "pq_stuff": _json_number(self.pq_stuff),
            "per_class": rows,
        }


def _segments(ids: np.ndarray, pmap: PanopticMap) -> tuple[np.ndarray, np.ndarray]:
    """The segment index of each entry of `ids` (instance IDs of `pmap`), and
    each segment's class, from a table over the distinct IDs.

    Every thing ID is its own segment; the stuff IDs of a class share one
    scene-wide segment. Segments are ordered by (class, instance ID). Void
    (ID 0, or an ID mapped to the void class) gets index n, the segment count.
    """
    ids, inverse = np.unique(ids, return_inverse=True)
    to_class = pmap.instance_to_class
    cls = np.array([to_class.get(i, VOID_CLASS) for i in ids.tolist()], np.int64)
    valid = np.flatnonzero((ids != VOID_INSTANCE) & (cls != VOID_CLASS))
    # IDs ascend, so a stable sort by class orders them as (class, ID)
    order = valid[np.argsort(cls[valid], kind="stable")]
    seg_cls = cls[order]
    # a thing ID opens a segment; a stuff ID only where its class starts
    opens = np.asarray(pmap.class_table.is_thing, dtype=bool)[seg_cls]
    opens[1:] |= seg_cls[1:] != seg_cls[:-1]
    opens[:1] = True
    seg = np.full(ids.size, np.count_nonzero(opens), dtype=np.int64)
    seg[order] = np.cumsum(opens) - 1
    return seg[inverse], seg_cls[opens]


def scene_pq(
    pred: PanopticMap,
    gt: PanopticMap,
    classes: ClassTable,
    void_exemption: bool = True,
) -> PqReport:
    """Panoptic Quality over the concatenation of all views of a scene. The
    ground truth is the reference: `pred` must share its shape, and both maps
    must carry `classes` as their class table (else ValueError).

    One pass over the pixels counts the (pred ID, gt ID) pairs. Folding each
    ID into its segment (things one per instance, stuff one per class; see
    `_segments`) turns them into the (pred segment, gt segment or gt void)
    pair histogram, which gives every area and intersection. A same-class
    pair is a true positive iff its IoU exceeds 0.5, which guarantees
    one-to-one matching. Ground-truth void pixels are excluded from IoU
    denominators, and (unless disabled) an unmatched predicted segment
    majority-covered by gt void is exempt from the false-positive count.
    """
    if pred.instance_ids.shape != gt.instance_ids.shape:
        raise ValueError(
            "shape mismatch: pred "
            f"{pred.instance_ids.shape} vs gt {gt.instance_ids.shape}"
        )
    if not pred.class_table == gt.class_table == classes:
        raise ValueError("class table mismatch: pred and gt must both use `classes`")
    # IDs are u16, so the key pred << 16 | gt never aliases two pairs
    keys, id_counts = np.unique(
        pred.instance_ids.astype(np.uint32).ravel() << 16 | gt.instance_ids.ravel(),
        return_counts=True,
    )
    pred_seg, pred_cls = _segments(keys >> 16, pred)
    gt_seg, gt_cls = _segments(keys & 0xFFFF, gt)
    n_pred, n_gt = pred_cls.size, gt_cls.size

    # fold the ID pairs into (pred, gt) segment pairs; index n_pred / n_gt is void
    seg_keys, fold = np.unique(pred_seg * (n_gt + 1) + gt_seg, return_inverse=True)
    counts = np.bincount(fold, id_counts, seg_keys.size)
    pair_p, pair_g = np.divmod(seg_keys, n_gt + 1)
    pred_area = np.bincount(pair_p, counts, n_pred + 1)[:n_pred]
    gt_area = np.bincount(pair_g, counts, n_gt + 1)[:n_gt]
    on_void = pair_g == n_gt
    void_overlap = np.bincount(pair_p[on_void], counts[on_void], n_pred + 1)[:n_pred]

    real = (pair_p < n_pred) & ~on_void
    p, g, inter = pair_p[real], pair_g[real], counts[real]
    # a counted pair has union >= gt area >= 1
    pair_iou = inter / (pred_area[p] + gt_area[g] - inter - void_overlap[p])
    tp = (pred_cls[p] == gt_cls[g]) & (pair_iou > MATCH_IOU)
    pred_hit = np.bincount(p[tp], minlength=n_pred) > 0
    gt_hit = np.bincount(g[tp], minlength=n_gt) > 0
    fp = ~pred_hit
    if void_exemption:
        fp &= ~(void_overlap > 0.5 * pred_area)

    n_cls = classes.num_classes
    tp_cls = pred_cls[p[tp]]
    # bincount adds the weights in pair order, as a running sum would
    iou_sum = np.bincount(tp_cls, pair_iou[tp], n_cls)
    n_tp = np.bincount(tp_cls, minlength=n_cls)
    n_fn = np.bincount(gt_cls[~gt_hit], minlength=n_cls)
    n_fp = np.bincount(pred_cls[fp], minlength=n_cls)
    # classes enter in the order they are first counted: tp, fn, then fp
    counted = np.concatenate([np.flatnonzero(n) for n in (n_tp, n_fn, n_fp)])
    per_class = {
        cid: ClassStats(
            iou_sum=float(iou_sum[cid]),
            tp=int(n_tp[cid]),
            fp=int(n_fp[cid]),
            fn=int(n_fn[cid]),
        )
        for cid in dict.fromkeys(counted.tolist())
    }

    return PqReport(per_class, classes)


@dataclass
class DatasetSummary:
    pq: float
    pq_things: float
    pq_stuff: float
    num_scenes: int

    def to_json_dict(self) -> dict:
        return {k: _json_number(v) for k, v in vars(self).items()}


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
        pq_things=_mean(things, math.nan),
        pq_stuff=_mean(stuff, math.nan),
        num_scenes=len(reports),
    )
