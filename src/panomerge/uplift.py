"""Uplift per-pixel instance labels onto splat primitives and render them back.

Each splat i carries a distribution over instance labels (column 0 = void)
obtained as the weight-normalized sum of one-hot pixel labels over the
view-pixel pairs the splat contributes to. Rendering a view accumulates
weight-scaled splat distributions per pixel and takes the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .masks import PanopticMap


def _read_only_column(values, dtype) -> np.ndarray:
    col = np.asarray(values, dtype=dtype)
    # not ravel: its view of a 1-D array would leave the given array writable
    col = col if col.ndim == 1 else col.flatten()
    col.flags.writeable = False
    return col


@dataclass(frozen=True)
class SplatWeightTable:
    """Sparse (splat, view, pixel, weight) records of alpha-blend contributions.

    Pixel indices are flat row-major indices into an H x W view. The four
    columns are stored read-only, so the derived `view_index` cannot go
    stale; a 1-D column of the stored dtype is stored as given, not copied,
    so the caller's array becomes read-only too.
    """

    num_splats: int
    num_views: int
    height: int
    width: int
    splat_ids: np.ndarray
    views: np.ndarray
    pixels: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        sid, view, pix, w = (
            _read_only_column(self.splat_ids, np.int64),
            _read_only_column(self.views, np.int64),
            _read_only_column(self.pixels, np.int64),
            _read_only_column(self.weights, np.float64),
        )
        n = sid.shape[0]
        if not (view.shape[0] == pix.shape[0] == w.shape[0] == n):
            raise ValueError("record columns must have equal length")
        if n:
            if sid.min() < 0 or sid.max() >= self.num_splats:
                raise ValueError("splat ID out of range")
            if view.min() < 0 or view.max() >= self.num_views:
                raise ValueError("view index out of range")
            if pix.min() < 0 or pix.max() >= self.height * self.width:
                raise ValueError("pixel index out of range")
            # written so that NaN fails it too
            if not (w.min() >= 0.0 and w.max() < np.inf):
                raise ValueError("weights must be finite and nonnegative")
            # sort rather than pack: G, N and H * W come from u32 file
            # headers, so a packed triple key could overflow int64
            order = np.lexsort((pix, view, sid))
            s, v, p = sid[order], view[order], pix[order]
            if ((s[1:] == s[:-1]) & (v[1:] == v[:-1]) & (p[1:] == p[:-1])).any():
                raise ValueError("(splat, view, pixel) triples must be unique")
        object.__setattr__(self, "splat_ids", sid)
        object.__setattr__(self, "views", view)
        object.__setattr__(self, "pixels", pix)
        object.__setattr__(self, "weights", w)

    @property
    def num_records(self) -> int:
        return self.splat_ids.shape[0]

    @cached_property
    def view_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, sorted_views), built on first use: the records of view v
        are order[lo:hi], ascending, where [lo, hi) is the run of v in
        sorted_views = views[order]. Not one offset per view: num_views
        comes from a u32 file header."""
        order = np.argsort(self.views, kind="stable")
        index = (order, self.views[order])
        for a in index:
            a.flags.writeable = False
        return index


@dataclass(frozen=True)
class SplatLabelField:
    """Per-splat label distributions: each row sums to one, or is all-zero
    for a splat no labeled pixel observed. Stored read-only, so the derived
    `support` cannot go stale; a float64 array is stored as given, not
    copied, so the caller's array becomes read-only too."""

    distributions: np.ndarray  # (G, L + 1), column 0 = void

    def __post_init__(self):
        dist = np.asarray(self.distributions, dtype=np.float64)
        if dist.ndim != 2:
            raise ValueError("distributions must have shape (G, L + 1)")
        # written so that NaN fails it too
        if dist.size and not (dist.min() >= 0.0 and dist.max() < np.inf):
            raise ValueError("splat distributions must be finite and nonnegative")
        sums = dist.sum(axis=1)
        if ((sums != 0.0) & (np.abs(sums - 1.0) > 1e-6)).any():
            raise ValueError("splat distributions must sum to 0 or to 1")
        dist.flags.writeable = False
        object.__setattr__(self, "distributions", dist)

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, labels, values), built on first use: splat g's nonzero
        labels, ascending, and their masses are labels[indptr[g]:indptr[g + 1]]
        and values[indptr[g]:indptr[g + 1]]."""
        splat, label = np.nonzero(self.distributions)
        indptr = np.searchsorted(splat, np.arange(self.distributions.shape[0] + 1))
        index = (indptr, label, self.distributions[splat, label])
        for a in index:
            a.flags.writeable = False
        return index

    @property
    def observed(self) -> np.ndarray:
        """(G,) bool: splats whose distribution carries any mass."""
        return self.distributions.sum(axis=1) > 0.0


def uplift_labels(labels: PanopticMap, weights: SplatWeightTable) -> SplatLabelField:
    """Accumulate one-hot instance labels into per-splat distributions.

    g_i = sum over the splat's view-pixel support of (w / Z_w) * onehot(label),
    with Z_w the splat's total weight. Splats with empty support or zero total
    weight are flagged unobserved and left all-zero.
    """
    if (labels.num_views, labels.height, labels.width) != (
        weights.num_views,
        weights.height,
        weights.width,
    ):
        raise ValueError("label map and weight table disagree on (N, H, W)")
    num_labels = int(labels.instance_ids.max(initial=0))
    if labels.instance_to_class:
        num_labels = max(num_labels, max(labels.instance_to_class))
    flat = labels.instance_ids.reshape(labels.num_views, -1)
    # IDs lie below 2^24; intp keeps the bincount keys integer for any ID dtype
    record_labels = flat[weights.views, weights.pixels].astype(np.intp)

    # bincount adds in record order, as np.add.at would; with no records
    # it returns integer zeros
    width = num_labels + 1
    dist = np.bincount(
        weights.splat_ids * width + record_labels,
        weights=weights.weights,
        minlength=weights.num_splats * width,
    ).astype(np.float64, copy=False).reshape(weights.num_splats, width)
    totals = dist.sum(axis=1)
    observed = totals > 0.0
    dist[observed] /= totals[observed, None]
    dist[~observed] = 0.0
    return SplatLabelField(dist)


def render_labels(
    field: SplatLabelField, weights: SplatWeightTable, view: int
) -> np.ndarray:
    """Render the instance-label map of one view from splat distributions.

    Per pixel, accumulates weight * distribution over the contributing splats
    and returns the argmax label (ties toward the lower label). Pixels with no
    accumulated mass, or dominated by the void column, stay void.

    Only the nonzero distribution entries are accumulated, in (record, label)
    order: the terms skipped are exact zeros, which would add nothing.
    """
    if not 0 <= view < weights.num_views:
        raise ValueError(f"unknown view {view}")
    order, sorted_views = weights.view_index
    lo, hi = np.searchsorted(sorted_views, (view, view + 1))
    records = order[lo:hi]
    indptr, labels, values = field.support
    splats = weights.splat_ids[records]
    first = indptr[splats]
    count = indptr[splats + 1] - first
    # each record repeated once per nonzero label of its splat, and the
    # position of that label in the support
    rec = np.repeat(records, count)
    entry = np.arange(rec.size) + np.repeat(first - (np.cumsum(count) - count), count)
    width = field.distributions.shape[1]
    pixels = weights.height * weights.width
    acc = np.bincount(
        weights.pixels[rec] * width + labels[entry],
        weights=weights.weights[rec] * values[entry],
        minlength=pixels * width,
    ).reshape(pixels, width)
    out = np.argmax(acc, axis=1)
    out[acc.sum(axis=1) <= 0.0] = 0
    return out.reshape(weights.height, weights.width).astype(np.int32)
