"""Farthest-point sampling of keyframes from per-frame descriptor vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_NUM_KEYFRAMES = 50


@dataclass(frozen=True, eq=False)
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
        # numpy's own loops rather than BLAS (@, np.dot): BLAS worker threads
        # slow the single-threaded stages that run after keyframe selection
        sq = np.einsum("ij,ij->i", vec, vec)
        eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
        slack = 4 * (vec.shape[1] + 4)

        def distances_to(i: int, rows=slice(None)) -> np.ndarray:
            # np.linalg.norm(vec[rows] - vec[i], axis=1), one temporary
            diff = vec[rows] - vec[i]
            np.multiply(diff, diff, out=diff)
            return np.sqrt(np.add.reduce(diff, axis=1))

        def lower(min_dist: np.ndarray, i: int) -> None:
            # A row whose exact squared distance S to vec[i] provably reaches
            # min_dist**2 keeps its minimum, as the rounded sqrt(S) cannot
            # fall below the double min_dist; only the other rows are
            # computed. The proof compares approx, the expansion
            # |a|^2 + |b|^2 - 2 a.b, less err with min_dist**2. With d = dim,
            # each rounding of x errs by at most eps/2 |x| + tiny/2 (tiny the
            # smallest subnormal). Against the true T = |vec[r] - vec[i]|^2,
            # at most 2 (sq[r] + sq[i]), S errs by at most
            # (d + 2) eps (sq[r] + sq[i]) + d tiny/2 (d differences, squares
            # and sums of nonnegative terms) and approx by
            # (d + 2) eps (sq[r] + sq[i]) + 2 d tiny (two squared norms, a
            # doubled dot product, two additions). err's relative term is
            # twice their sum, which also covers sq itself being rounded; its
            # absolute term 4 (d + 4) tiny covers their 2.5 d tiny and the
            # rounding of err, min_dist**2 and the subtraction below the
            # normal range. The relative margin covers those roundings in the
            # normal range. Overflow makes approx - err NaN or -inf, or
            # min_dist**2 inf, so those rows fail the test and are computed.
            with np.errstate(over="ignore", invalid="ignore"):
                pair = sq + sq[i]
                approx = pair - 2.0 * np.einsum("ij,j->i", vec, vec[i])
                err = slack * (eps * pair + tiny)
                unchanged = approx - err > min_dist * min_dist * (1.0 + 1e-12)
            rows = np.flatnonzero(~unchanged)
            min_dist[rows] = np.minimum(min_dist[rows], distances_to(i, rows))

    elif metric == "cosine":
        norms = np.linalg.norm(vec, axis=1)
        unit = vec / np.where(norms > 0.0, norms, 1.0)[:, None]

        def distances_to(i: int) -> np.ndarray:
            return 1.0 - unit @ unit[i]

        def lower(min_dist: np.ndarray, i: int) -> None:
            np.minimum(min_dist, distances_to(i), out=min_dist)

    else:
        raise ValueError(f"unknown metric {metric!r}")
    selected = [seed_index]
    min_dist = distances_to(seed_index)
    min_dist[seed_index] = -np.inf
    for _ in range(k - 1):
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        lower(min_dist, nxt)
        min_dist[nxt] = -np.inf
    return selected
