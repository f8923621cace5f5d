"""Seeded synthetic multi-view benchmark scenes.

A scene is a world canvas of layered rectangles and disks (things) over
horizontal stuff bands; each view is a crop window of the canvas, so the same
instances genuinely appear in several views. Ground truth comes directly from
the canvas; proposals are corrupted copies of the ground-truth masks designed
to stress the merging strategies (duplicates, fragments, per-view jitter);
splat weight tables cover each view's pixels with a one-splat-per-canvas-pixel
layout so label uplifting is exactly invertible on clean scenes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .masks import ClassTable, PanopticMap, SoftMaskSet
from .uplift import SplatWeightTable

MAX_THING_CLASSES = 3


@dataclass(frozen=True)
class CorruptionSpec:
    """Knobs turning clean ground-truth masks into realistic proposals.

    duplicate_rate:    probability an instance spawns duplicate_count
                       near-identical proposals instead of one.
    fragment_rate:     probability an instance is split into two partial
                       proposals along its bounding box.
    boundary_noise_px: max per-view integer shift applied to each proposal;
                       the shift wraps around the view edge (np.roll).
    softness:          sigma of the gaussian blur turning binary masks soft,
                       in reflect mode, truncated at int(4 * sigma + 0.5) px;
                       it equals scipy.ndimage.gaussian_filter bit for bit.
    class_noise:       noise scale on class logits.
    view_gain_noise:   per-(proposal, view) confidence attenuation range;
                       makes the per-pixel vote winner flip between views.
    """

    duplicate_rate: float = 0.0
    duplicate_count: int = 2
    fragment_rate: float = 0.0
    boundary_noise_px: int = 0
    softness: float = 0.0
    class_noise: float = 0.0
    view_gain_noise: float = 0.0

    def __post_init__(self):
        for rate in (self.duplicate_rate, self.fragment_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must lie in [0, 1]")
        if not 0.0 <= self.view_gain_noise < 1.0:
            raise ValueError("view_gain_noise must lie in [0, 1)")
        # written so that NaN and infinity fail it too
        for knob in (self.softness, self.class_noise):
            if not 0.0 <= knob < math.inf:
                raise ValueError(
                    "softness and class_noise must be finite and nonnegative"
                )
        if self.boundary_noise_px < 0:
            raise ValueError("boundary noise must be nonnegative")
        if self.duplicate_count < 2:
            raise ValueError("duplicate_count must be >= 2")


@dataclass(frozen=True)
class SceneSpec:
    seed: int = 0
    num_views: int = 3
    height: int = 48
    width: int = 48
    num_things: int = 6
    num_stuff: int = 2
    world_size: int = 96
    corruption: CorruptionSpec = field(default_factory=CorruptionSpec)

    def __post_init__(self):
        if self.num_views < 1:
            raise ValueError("need at least one view")
        if self.num_things < 0:
            raise ValueError("num_things must be nonnegative")
        if self.num_stuff < 1:
            raise ValueError("need at least one stuff class")
        if self.height > self.world_size or self.width > self.world_size:
            raise ValueError("view window exceeds world canvas")
        if self.num_things > (self.world_size // 8) ** 2:
            raise ValueError("overfull scene: too many things for the canvas")
        if self.num_stuff > self.world_size:
            raise ValueError("overfull scene: too many stuff bands")


def _paint_world(spec: SceneSpec, rng: np.random.Generator):
    ws = spec.world_size
    num_thing_cls = min(spec.num_things, MAX_THING_CLASSES)
    world = np.zeros((ws, ws), dtype=np.int32)

    band = -(-ws // spec.num_stuff)  # ceil
    for s in range(spec.num_stuff):
        world[s * band : (s + 1) * band] = spec.num_things + s + 1

    inst_class: dict[int, int] = {
        spec.num_things + s + 1: num_thing_cls + s for s in range(spec.num_stuff)
    }
    lo, hi = max(3, ws // 12), max(4, ws // 6)
    yy, xx = np.mgrid[0:ws, 0:ws]
    for t in range(spec.num_things):
        iid = t + 1
        shape_kind = int(rng.integers(0, 2))
        if shape_kind == 0:
            h2 = int(rng.integers(lo, hi))
            w2 = int(rng.integers(lo, hi))
            cy = int(rng.integers(h2, ws - h2))
            cx = int(rng.integers(w2, ws - w2))
            world[cy - h2 : cy + h2, cx - w2 : cx + w2] = iid
        else:
            rad = int(rng.integers(lo, hi))
            cy = int(rng.integers(rad, ws - rad))
            cx = int(rng.integers(rad, ws - rad))
            world[(yy - cy) ** 2 + (xx - cx) ** 2 <= rad * rad] = iid
        inst_class[iid] = int(rng.integers(0, num_thing_cls)) if num_thing_cls else 0

    names = [f"thing{i}" for i in range(num_thing_cls)] + [
        f"stuff{s}" for s in range(spec.num_stuff)
    ]
    flags = [True] * num_thing_cls + [False] * spec.num_stuff
    return world, inst_class, ClassTable(tuple(names), tuple(flags))


def _split_mask(mask: np.ndarray) -> list[np.ndarray]:
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    top, bottom = rows[0], rows[-1] + 1
    left, right = cols[0], cols[-1] + 1
    a = np.zeros_like(mask)
    b = np.zeros_like(mask)
    if bottom - top >= right - left:
        mid = (top + bottom) // 2
        a[top:mid] = mask[top:mid]
        b[mid:bottom] = mask[mid:bottom]
    else:
        mid = (left + right) // 2
        a[:, left:mid] = mask[:, left:mid]
        b[:, mid:right] = mask[:, mid:right]
    return [p for p in (a, b) if p.any()]


def _gaussian_weights(sigma: float) -> np.ndarray:
    """scipy.ndimage's Gaussian kernel at truncate=4.0, built as its
    `_gaussian_kernel1d` builds it and reversed as `gaussian_filter1d` does:
    2r + 1 weights summing to one, r = int(4 * sigma + 0.5)."""
    r = int(4.0 * sigma + 0.5)
    if r == 0:
        return np.ones(1)  # 1 / sigma**2 overflows for a subnormal sigma
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return (phi / phi.sum())[::-1]


def _gaussian_blur(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """`scipy.ndimage.gaussian_filter(a, sigma)` of a 2-D float64 array, bit
    for bit, given `_gaussian_weights(sigma)`: reflect mode, axis 0 then axis
    1, each sum taken in the order of scipy's symmetric correlation loop."""
    r = weights.size // 2
    for _ in range(2):
        n = a.shape[0]
        k = np.arange(-r, n + r) % (2 * n)  # reflect: period 2n, also for n < r
        ext = a[np.minimum(k, 2 * n - 1 - k)]
        out = ext[r : r + n] * weights[r]
        for j in range(r, 0, -1):
            out += (ext[r - j : r - j + n] + ext[r + j : r + j + n]) * weights[r - j]
        a = out.T  # the second pass blurs the columns; its .T restores the shape
    return a


def _corrupt_views(
    source: np.ndarray,
    windows: list[tuple[int, int]],
    spec: SceneSpec,
    rng: np.random.Generator,
) -> list[tuple[int, slice, slice, np.ndarray]]:
    """One proposal's corrupted views as (view, rows, cols, patch): the view's
    values are `patch` at [rows, cols] and 0.0 elsewhere. A view whose shifted
    crop is empty has no patch."""
    cor = spec.corruption
    h, w = spec.height, spec.width
    weights = _gaussian_weights(cor.softness)
    pad = weights.size // 2
    patches = []
    for v, (r, c) in enumerate(windows):
        crop = source[r : r + h, c : c + w]
        if cor.boundary_noise_px > 0:
            dy, dx = rng.integers(
                -cor.boundary_noise_px, cor.boundary_noise_px + 1, size=2
            )
            crop = np.roll(crop, (int(dy), int(dx)), axis=(0, 1))
        gain = 1.0
        if cor.view_gain_noise > 0.0:
            gain = 1.0 - rng.random() * cor.view_gain_noise
        rows = np.flatnonzero(crop.any(axis=1))
        if rows.size == 0:
            continue
        cols = np.flatnonzero(crop.any(axis=0))
        # Exact: the blur is +0.0 beyond the radius, and where the padded box
        # ends inside the view, reflect mode reads only its zero padding.
        ys = slice(max(rows[0] - pad, 0), min(rows[-1] + 1 + pad, h))
        xs = slice(max(cols[0] - pad, 0), min(cols[-1] + 1 + pad, w))
        patch = _gaussian_blur(crop[ys, xs].astype(np.float64), weights)
        patches.append((v, ys, xs, np.clip(patch, 0.0, 1.0) * gain))
    return patches


def _class_row(
    class_id: int, num_classes: int, noise: float, rng: np.random.Generator
) -> np.ndarray:
    logits = np.zeros(num_classes)
    logits[class_id] = 10.0
    if noise > 0.0:
        logits = logits + rng.standard_normal(num_classes) * noise
    e = np.exp(logits - logits.max())
    return e / e.sum()


def _splat_table(spec: SceneSpec, windows: list[tuple[int, int]]) -> SplatWeightTable:
    """One splat per world-canvas pixel, contributing unit weight to the pixel
    of every view that sees it."""
    ws, n, hw = spec.world_size, spec.num_views, spec.height * spec.width
    li, lj = np.divmod(np.arange(hw), spec.width)
    rows, cols = np.array(windows).T[:, :, None]  # each (N, 1)
    return SplatWeightTable(
        num_splats=ws * ws,
        num_views=n,
        height=spec.height,
        width=spec.width,
        splat_ids=((rows + li) * ws + (cols + lj)).ravel(),
        views=np.repeat(np.arange(n), hw),
        pixels=np.tile(np.arange(hw), n),
        weights=np.ones(n * hw),
    )


def generate_scene(
    spec: SceneSpec,
) -> tuple[PanopticMap, SoftMaskSet, SplatWeightTable]:
    """Generate (ground truth, corrupted proposals, splat weights) for a scene.

    Fully deterministic from spec.seed.
    """
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
    gt = PanopticMap(gt_inst, {i: inst_class[i] for i in sorted(present)}, table)

    cor = spec.corruption
    views, prob_rows = [], []
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
            views.append(_corrupt_views(source, windows, spec, rng))
            prob_rows.append(
                _class_row(inst_class[iid], table.num_classes, cor.class_noise, rng)
            )

    def rows():
        """Each proposal's dense views, pasted into one reused buffer whose
        pasted boxes are zeroed again once SoftMaskSet has read the row."""
        row = np.zeros((spec.num_views, spec.height, spec.width))
        for patches in views:
            for v, ys, xs, patch in patches:
                row[v, ys, xs] = patch
            yield row
            for v, ys, xs, _ in patches:
                row[v, ys, xs] = 0.0

    proposals = SoftMaskSet(rows(), np.stack(prob_rows), table)
    return gt, proposals, _splat_table(spec, windows)
