"""Uplift per-pixel instance labels onto splat primitives and render them back.

Each splat i carries a distribution over instance labels (column 0 = void):
the weight-normalized sum of one-hot pixel labels over the view-pixel pairs
it contributes to, summed per (splat, label) pair the records hold. Rendering
a view sums weight-scaled splat distributions per pixel and takes the argmax.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass, field

import numpy as np

from .masks import INSTANCE_ID_LIMIT, PanopticMap


@dataclass(frozen=True, eq=False)
class SplatWeightTable:
    """Sparse (splat, view, pixel, weight) records of alpha-blend contributions.

    Pixel indices are flat row-major indices into an H x W view. No index
    is cached from the columns, so they stay writable.
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
        cols = (self.splat_ids, self.views, self.pixels)
        sid, view, pix = (np.asarray(c, dtype=np.int64).ravel() for c in cols)
        with np.errstate(invalid="ignore"):  # a signalling NaN is refused below
            w = np.asarray(self.weights, dtype=np.float64).ravel()
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
            same = np.ones(n - 1, dtype=bool)
            for col in (sid, view, pix):  # one sorted column held at a time
                sorted_col = col[order]
                same &= sorted_col[1:] == sorted_col[:-1]
                del sorted_col
            if same.any():
                raise ValueError("(splat, view, pixel) triples must be unique")
        object.__setattr__(self, "splat_ids", sid)
        object.__setattr__(self, "views", view)
        object.__setattr__(self, "pixels", pix)
        object.__setattr__(self, "weights", w)

    @property
    def num_records(self) -> int:
        return self.splat_ids.shape[0]


@dataclass(frozen=True, eq=False)
class SplatLabelField:
    """Per-splat label distributions (column = instance ID, 0 = void): each
    row sums to one, or is all-zero for a splat no labeled pixel observed.

    Built from the nonzero entries of a (G, L + 1) `shape`: flat `keys`
    splat * (L + 1) + label, strictly ascending, and their masses `values`,
    finite and positive (copied). Stored, read-only: `shape` and `support` =
    (indptr, labels, values), splat g's entries being indptr[g]:indptr[g + 1]
    of labels and values; `distributions` rebuilds the dense array on access."""

    shape: tuple[int, int]
    keys: InitVar[np.ndarray]
    values: InitVar[np.ndarray]
    support: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False)

    def __post_init__(self, keys, values):
        shape = tuple(map(operator.index, self.shape))
        # a column is an instance ID, so L < INSTANCE_ID_LIMIT
        if len(shape) != 2 or min(shape) < 0 or shape[1] > INSTANCE_ID_LIMIT:
            raise ValueError(f"shape must be (G, L + 1) with L < {INSTANCE_ID_LIMIT}")
        rows, width = shape
        keys = np.asarray(keys, dtype=np.int64)
        values = np.array(values, dtype=np.float64)
        if keys.ndim != 1 or keys.shape != values.shape:
            raise ValueError("keys and values must be 1-D and of equal length")
        # -1 and G * (L + 1) bracket the keys, so their range is checked too
        if (np.diff(keys, prepend=-1, append=rows * width) <= 0).any():
            raise ValueError("keys must ascend strictly within [0, G * (L + 1))")
        # written so that NaN fails it too
        if keys.size and not (values.min() > 0.0 and values.max() < np.inf):
            raise ValueError("splat masses must be nonzero, finite and nonnegative")
        splat = keys // width
        sums = np.bincount(splat, values)
        if ((sums != 0.0) & (np.abs(sums - 1.0) > 1e-6)).any():
            raise ValueError("splat distributions must sum to 0 or to 1")
        # keys ascend, so each row's entries start where its first key would
        indptr = np.searchsorted(keys, np.arange(rows + 1) * width)
        support = (indptr, keys - splat * width, values)
        for a in support:
            a.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "support", support)

    @property
    def distributions(self) -> np.ndarray:
        """The dense (G, L + 1) float64 array, rebuilt on each access."""
        indptr, labels, values = self.support
        out = np.zeros(self.shape)
        out[np.repeat(np.arange(self.shape[0]), np.diff(indptr)), labels] = values
        return out

    @property
    def observed(self) -> np.ndarray:
        """(G,) bool: splats whose distribution carries any mass."""
        return np.diff(self.support[0]) > 0


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
    # one column past the largest ID the map holds or names
    width = 1 + max([int(labels.instance_ids.max(initial=0)), *labels.instance_to_class])
    flat = labels.instance_ids.reshape(labels.num_views, -1)
    record_labels = flat[weights.views, weights.pixels]

    # np.unique pairs each record with its (splat, label) key, and bincount
    # adds each pair's weights in record order, as np.add.at would
    keys, pair = np.unique(weights.splat_ids * width + record_labels, return_inverse=True)
    mass = np.bincount(pair, weights.weights, keys.size)
    keys, mass = keys[mass > 0.0], mass[mass > 0.0]
    splat = keys // width
    values = mass / np.bincount(splat, mass, weights.num_splats)[splat]
    # a mass can underflow to 0.0 against its splat's total: then it is no entry
    keep = values != 0.0
    return SplatLabelField((weights.num_splats, width), keys[keep], values[keep])


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
    if field.shape[0] != weights.num_splats:
        raise ValueError("label field and weight table disagree on the splat count")
    records = np.flatnonzero(weights.views == view)
    indptr, labels, values = field.support
    splats = weights.splat_ids[records]
    first = indptr[splats]
    count = indptr[splats + 1] - first
    # each record repeated once per nonzero label of its splat, and the
    # position of that label in the support
    rec = np.repeat(records, count)
    entry = np.arange(rec.size) + np.repeat(first - (np.cumsum(count) - count), count)
    width = field.shape[1]
    pixels = weights.height * weights.width
    acc = np.bincount(
        weights.pixels[rec] * width + labels[entry],
        weights=weights.weights[rec] * values[entry],
        minlength=pixels * width,
    ).reshape(pixels, width)
    # acc is nonnegative and NaN-free: a massless row's argmax is already void
    out = np.argmax(acc, axis=1)
    return out.reshape(weights.height, weights.width).astype(np.uint16)
