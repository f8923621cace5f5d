"""Turn soft multi-view mask proposals into a panoptic label map.

Two strategies are provided: globally optimal proposal selection via the
selection QUBO, and the conventional per-pixel voting scheme used by
MaskFormer-style inference. Both assign instance IDs by ascending surviving
query index, so IDs are consistent across views by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .masks import PanopticMap, SoftMaskSet
from .qubo import (
    DEFAULT_PENALTY,
    AnnealConfig,
    QuboInstance,
    build_qubo,
    solve_anneal,
    solve_exact,
)


@dataclass(frozen=True)
class MergeConfig:
    """Settings for QUBO-based merging."""

    penalty: float = DEFAULT_PENALTY
    void_threshold: float = 0.5
    confidence_prefilter: float | None = None
    solver: str = "anneal"  # anneal | exact
    anneal: AnnealConfig = field(default_factory=AnnealConfig)

    def __post_init__(self):
        if not 0.0 <= self.void_threshold <= 1.0:
            raise ValueError("void_threshold must lie in [0, 1]")
        if self.confidence_prefilter is not None and not (
            0.0 <= self.confidence_prefilter <= 1.0
        ):
            raise ValueError("confidence_prefilter must lie in [0, 1]")
        if not 1.0 < self.penalty < math.inf:
            raise ValueError("penalty must be finite and exceed 1")
        if self.solver not in ("anneal", "exact"):
            raise ValueError(f"unknown solver {self.solver!r}")


@dataclass(frozen=True)
class BaselineConfig:
    """Settings for the standard voting-based merging."""

    confidence_threshold: float = 0.5
    vote_support_threshold: float = 0.8

    def __post_init__(self):
        for name in ("confidence_threshold", "vote_support_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def _scatter_argmax(
    masks: SoftMaskSet, queries: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per flat pixel, the winner's own value values[queries[k]] and the
    winner k, the first k attaining the largest of weights[k] *
    values[queries[k]]: np.argmax over the stacked weighted rows, ties and
    all-zero pixels included, for nonnegative weights.

    Starts from weighted value 0 and winner 0, visits the queries in order and
    takes a pixel only on a strictly larger weighted value, so each query
    touches only its nonzero pixels (read from `masks.support`) and no
    (k, pixels) stack is built. A pixel no query takes keeps winner 0 and
    queries[0]'s value there, which is nonzero where weights[0] * value is 0.
    With no queries, every pixel gets winner 0 and value 0.
    """
    sup = masks.support
    ptr = sup.indptr.tolist()
    best = np.zeros(math.prod(masks.shape[1:]))
    winner = np.zeros(best.size, dtype=np.intp)
    value = np.zeros(best.size)
    if queries.size:
        q0 = queries[0]
        value[sup.pixels[ptr[q0] : ptr[q0 + 1]]] = sup.values[ptr[q0] : ptr[q0 + 1]]
    for k, q in enumerate(queries.tolist()):
        idx = sup.pixels[ptr[q] : ptr[q + 1]]
        raw = sup.values[ptr[q] : ptr[q + 1]]
        vals = weights[k] * raw
        better = vals > best[idx]
        taken = idx[better]
        best[taken] = vals[better]
        winner[taken] = k
        value[taken] = raw[better]
    return value, winner


def _assemble(
    masks: SoftMaskSet, labeled: np.ndarray, winner: np.ndarray, queries: np.ndarray
) -> PanopticMap:
    """Label each `labeled` pixel with instance winner + 1, where instance k + 1
    is query queries[k] and takes the argmax class of its row. Only instances
    that label a pixel get a class."""
    instance_ids = np.where(labeled, winner + 1, 0).reshape(masks.shape[1:])
    won = np.bincount(winner[labeled], minlength=queries.size)
    classes = masks.class_probs[queries].argmax(axis=1)
    to_class = {k + 1: int(classes[k]) for k in np.flatnonzero(won).tolist()}
    return PanopticMap(instance_ids, to_class, masks.class_table)


def merge_qubo(masks: SoftMaskSet, cfg: MergeConfig | None = None) -> PanopticMap:
    """QUBO merging: select a globally consistent subset of proposals, then
    label each pixel with the selected proposal of highest soft value.

    Pixels whose winning soft value is 0 or below the void threshold stay
    void. Selected queries become instance IDs 1..k in ascending query order,
    shared across all views.

    The QUBO is always built over the whole set. With a confidence prefilter
    the solver sees only the kept rows and columns of it, which equal the
    QUBO of the kept queries alone bit for bit; dropped queries still cost
    their overlaps in the build.
    """
    cfg = cfg or MergeConfig()
    instance = build_qubo(masks, cfg.penalty)
    keep = np.arange(masks.num_queries)
    if cfg.confidence_prefilter is not None:
        keep = np.flatnonzero(masks.class_probs.max(axis=1) >= cfg.confidence_prefilter)
        instance = QuboInstance(
            instance.linear[keep], instance.quadratic[np.ix_(keep, keep)], cfg.penalty
        )
    if cfg.solver == "exact":
        assignment = solve_exact(instance)
    else:
        assignment = solve_anneal(instance, cfg.anneal)
    chosen = keep[assignment.selected()]
    if chosen.size == 0:
        warnings.warn("no proposal was kept and selected; output is void")
    win_val, winner = _scatter_argmax(masks, chosen, np.ones(chosen.size))
    labeled = (win_val > 0.0) & (win_val >= cfg.void_threshold)
    return _assemble(masks, labeled, winner, chosen)


def merge_baseline(
    masks: SoftMaskSet, cfg: BaselineConfig | None = None
) -> PanopticMap:
    """Standard MaskFormer-style merging.

    Low-confidence queries are filtered out; each pixel votes for the query
    maximizing class confidence times soft mask value (void if the winner's
    mask value is below 0.5); in each view, queries lacking sufficient vote
    support against their own thresholded mask area there are dropped from
    that view and their pixels re-voided.

    The vote visits each kept query's nonzero pixels only (a scatter-max),
    and the per-view areas and supports are one histogram each, the areas
    over `masks.support` and the supports over the winners.
    """
    cfg = cfg or BaselineConfig()
    conf = masks.class_probs.max(axis=1)
    keep = np.flatnonzero(conf >= cfg.confidence_threshold)
    m, n = masks.num_queries, masks.num_views
    win_mask_val, winner = _scatter_argmax(masks, keep, conf[keep])
    labeled = (win_mask_val >= 0.5).reshape(n, -1)
    winner = winner.reshape(n, -1)

    # Dropping query k in view v un-labels only pixels whose winner is k, so
    # every (view, query) vote support can be counted before any is dropped.
    # A query with no area in a view has no labeled pixels there to drop.
    views = np.arange(n)[:, None]
    sup = masks.support
    rows = np.repeat(np.arange(m), np.diff(sup.indptr))
    half = sup.values >= 0.5
    cells = rows[half] * n + sup.pixels[half] // (masks.height * masks.width)
    area = np.bincount(cells, minlength=m * n).reshape(m, n)[keep].T  # (N, k)
    votes = (views * keep.size + winner)[labeled]
    support = np.bincount(votes, minlength=area.size).reshape(area.shape)
    drop = support < cfg.vote_support_threshold * area
    labeled[labeled] = ~drop.ravel()[votes]
    return _assemble(masks, labeled, winner, keep)
