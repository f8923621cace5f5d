"""Farthest-point sampling of keyframes from per-frame descriptor vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_NUM_KEYFRAMES = 50


@dataclass(frozen=True)
class FrameDescriptors:
    """An N x dim matrix of per-frame descriptors; entries must be finite."""

    vectors: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=np.float64)
        if vec.ndim != 2:
            raise ValueError("descriptors must be a 2D (N, dim) matrix")
        if not np.isfinite(vec).all():
            raise ValueError("descriptors must not contain NaN or Inf")
        object.__setattr__(self, "vectors", vec)

    @property
    def num_frames(self) -> int:
        return self.vectors.shape[0]


def fps_select(
    desc: FrameDescriptors,
    k: int = DEFAULT_NUM_KEYFRAMES,
    seed_index: int = 0,
    metric: str = "euclidean",
) -> list[int]:
    """Greedy farthest-point sampling of k frame indices.

    Starts from seed_index; each subsequent pick maximizes the minimum
    distance to all previously selected frames, ties broken by lowest index.
    Fully deterministic.
    """
    n = desc.num_frames
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= N={n}, got {k}")
    if not 0 <= seed_index < n:
        raise IndexError(f"seed_index {seed_index} out of range for N={n}")
    vec = desc.vectors
    if metric == "euclidean":
        buf = np.empty_like(vec)

        def distances_to(i: int) -> np.ndarray:
            # np.linalg.norm(vec - vec[i], axis=1), without a fresh temporary
            np.subtract(vec, vec[i], out=buf)
            np.multiply(buf, buf, out=buf)
            return np.sqrt(np.add.reduce(buf, axis=1))

    elif metric == "cosine":
        norms = np.linalg.norm(vec, axis=1)
        unit = vec / np.where(norms > 0.0, norms, 1.0)[:, None]

        def distances_to(i: int) -> np.ndarray:
            return 1.0 - unit @ unit[i]

    else:
        raise ValueError(f"unknown metric {metric!r}")
    selected = [seed_index]
    min_dist = distances_to(seed_index)
    min_dist[seed_index] = -np.inf
    for _ in range(k - 1):
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        np.minimum(min_dist, distances_to(nxt), out=min_dist)
        min_dist[nxt] = -np.inf
    return selected
