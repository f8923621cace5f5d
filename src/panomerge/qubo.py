"""QUBO construction and solvers for mask-proposal selection.

The objective to maximize over boolean u is

    sum_i u_i * Q_i  -  lambda_p * sum_{i<j} u_i u_j * Q_ij

where Q_i is the weighted area covered by proposal i, Q_ij the fuzzy overlap
between proposals i and j, and lambda_p > 1 penalizes double coverage.
An exhaustive solver serves as the oracle for small m; simulated annealing
is the production solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .masks import SoftMaskSet

EXACT_MAX_VARS = 24
DEFAULT_PENALTY = 2.0


@dataclass(frozen=True)
class QuboInstance:
    """Linear weights, symmetric pairwise overlaps, and the overlap penalty."""

    linear: np.ndarray
    quadratic: np.ndarray
    penalty: float = DEFAULT_PENALTY

    def __post_init__(self):
        lin = np.asarray(self.linear, dtype=np.float64).ravel()
        quad = np.asarray(self.quadratic, dtype=np.float64)
        m = lin.shape[0]
        if quad.shape != (m, m):
            raise ValueError("quadratic matrix must be m x m")
        if not (np.isfinite(lin).all() and np.isfinite(quad).all()):
            raise ValueError("weights and overlaps must be finite")
        if not np.array_equal(quad, quad.T):
            raise ValueError("quadratic matrix must be symmetric")
        if lin.min(initial=0.0) < 0.0 or quad.min(initial=0.0) < 0.0:
            raise ValueError("weights and overlaps must be nonnegative")
        if not 1.0 < self.penalty < math.inf:
            raise ValueError("penalty must be finite and exceed 1")
        # the diagonal is unused; zero it so incremental updates need no masking
        quad = quad.copy()
        np.fill_diagonal(quad, 0.0)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", quad)

    @property
    def num_vars(self) -> int:
        return self.linear.shape[0]


@dataclass(frozen=True)
class Assignment:
    """A boolean selection of proposals together with its objective value."""

    bits: np.ndarray
    objective: float

    def __post_init__(self):
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=bool).ravel())

    def selected(self) -> np.ndarray:
        return np.flatnonzero(self.bits)


@dataclass(frozen=True)
class AnnealConfig:
    """Simulated annealing schedule. Every restart starts from the greedy
    selection at temperature max(linear), or 1 if all weights are zero."""

    seed: int = 0
    cooling_rate: float = 0.97
    sweeps: int = 300
    restarts: int = 4

    def __post_init__(self):
        if not 0.0 < self.cooling_rate < 1.0:
            raise ValueError("cooling_rate must be in (0, 1)")
        if self.sweeps < 1 or self.restarts < 1:
            raise ValueError("sweeps and restarts must be >= 1")


def build_qubo(masks: SoftMaskSet, penalty: float = DEFAULT_PENALTY) -> QuboInstance:
    """Assemble the selection QUBO from a soft mask set.

    linear[i] is the weighted area of proposal i; quadratic[i, j] the pairwise
    fuzzy overlap sum_k min(M_ik, M_jk), computed once per unordered pair so
    symmetry holds exactly.

    The overlaps visit supports only: packed nonzero bits find the later
    proposals j whose support meets that of i, and the minimum is summed over
    i's support alone (outside it the minimum is 0). Pairs with disjoint
    supports stay exactly 0.
    """
    m = masks.num_queries
    flat = masks.values.reshape(m, -1)
    linear = flat.sum(axis=1)
    quad = np.zeros((m, m), dtype=np.float64)
    bits = np.packbits(flat > 0.0, axis=1)
    for i in range(m - 1):
        cols = np.flatnonzero(bits[i])
        js = i + 1 + np.flatnonzero((bits[i + 1 :, cols] & bits[i, cols]).any(axis=1))
        if js.size:
            idx = np.flatnonzero(flat[i])
            ov = np.minimum(flat[js[:, None], idx], flat[i, idx]).sum(axis=1)
            quad[i, js] = ov
            quad[js, i] = ov
    return QuboInstance(linear, quad, penalty)


def objective(q: QuboInstance, u: np.ndarray) -> float:
    """Evaluate the QUBO objective for a boolean assignment."""
    u = np.asarray(u, dtype=np.float64).ravel()
    if u.shape[0] != q.num_vars:
        raise ValueError(f"assignment length {u.shape[0]} != m={q.num_vars}")
    pair = 0.5 * float(u @ q.quadratic @ u)
    return float(u @ q.linear) - q.penalty * pair


def flip_delta(q: QuboInstance, u: np.ndarray, i: int) -> float:
    """Objective change from flipping bit i, computed in O(m)."""
    u = np.asarray(u, dtype=np.float64).ravel()
    if not 0 <= i < q.num_vars:
        raise IndexError(f"bit {i} out of range for m={q.num_vars}")
    sign = 1.0 - 2.0 * u[i]
    return float(sign * (q.linear[i] - q.penalty * (q.quadratic[i] @ u)))


def solve_exact(q: QuboInstance) -> Assignment:
    """Enumerate all 2^m assignments and return the best one.

    Ties are broken toward the assignment whose bit vector encodes the
    smallest integer (bit i has weight 2^i). Guarded to m <= 24.
    """
    m = q.num_vars
    if m > EXACT_MAX_VARS:
        raise ValueError(f"solve_exact supports m <= {EXACT_MAX_VARS}, got {m}")
    total = 1 << m
    chunk = 1 << 16
    powers = np.arange(m, dtype=np.uint32)
    best_val = -math.inf
    best_k = 0
    for start in range(0, total, chunk):
        ks = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        bits = ((ks[:, None] >> powers) & 1).astype(np.float64)
        vals = bits @ q.linear - 0.5 * q.penalty * np.einsum(
            "ij,ij->i", bits @ q.quadratic, bits
        )
        idx = int(np.argmax(vals))
        if vals[idx] > best_val:
            best_val = float(vals[idx])
            best_k = start + idx
    bits = ((best_k >> powers) & 1).astype(bool)
    return Assignment(bits, objective(q, bits))


def _greedy_bits(q: QuboInstance) -> np.ndarray:
    """Add proposals in decreasing area order while each helps."""
    u = np.zeros(q.num_vars, dtype=bool)
    h = q.linear.copy()
    order = np.argsort(-q.linear, kind="stable")
    for i in order:
        if h[i] > 0.0:
            u[i] = True
            h -= q.penalty * q.quadratic[:, i]
    return u


def _local_search(q: QuboInstance, u: np.ndarray) -> np.ndarray:
    """Greedy hill climb: flip the best improving bit until none remains.

    Objective-neutral set bits are then dropped highest-index-first, which
    canonicalizes ties toward the same smallest-integer assignment the exact
    solver returns.
    """
    u = u.astype(np.float64)
    h = q.linear - q.penalty * (q.quadratic @ u)

    def flip(i: int) -> None:
        sign = 1.0 - 2.0 * u[i]
        u[i] = 1.0 - u[i]
        h[:] -= sign * q.penalty * q.quadratic[:, i]

    while True:
        deltas = (1.0 - 2.0 * u) * h
        i = int(np.argmax(deltas))
        if deltas[i] > 0.0:
            flip(i)
            continue
        neutral = np.flatnonzero((u > 0.5) & (deltas == 0.0))
        if neutral.size:
            flip(int(neutral[-1]))
            continue
        break
    return u.astype(bool)


def _anneal_once(q: QuboInstance, cfg: AnnealConfig, seed: int) -> np.ndarray:
    m = q.num_vars
    rng = np.random.Generator(np.random.PCG64(seed))
    u = _greedy_bits(q).astype(np.float64)
    h = q.linear - q.penalty * (q.quadratic @ u)
    obj = objective(q, u)
    best_obj = obj
    best_u = u.copy()
    temp = float(q.linear.max(initial=0.0)) or 1.0

    penalty = q.penalty
    quad = q.quadratic
    for _ in range(cfg.sweeps):
        idxs = rng.integers(0, m, size=m)
        log_r = np.log(rng.random(size=m))
        for t in range(m):
            i = idxs[t]
            sign = 1.0 - 2.0 * u[i]
            delta = sign * h[i]
            if delta >= 0.0 or log_r[t] < delta / temp:
                u[i] = 1.0 - u[i]
                obj += delta
                h -= sign * penalty * quad[:, i]
                if obj > best_obj:
                    best_obj = obj
                    best_u = u.copy()
        temp *= cfg.cooling_rate
    return _local_search(q, best_u)


def solve_anneal(q: QuboInstance, cfg: AnnealConfig | None = None) -> Assignment:
    """Simulated annealing with geometric cooling, restarts, and a final
    single-flip hill climb so the returned assignment is locally optimal.

    Deterministic for a fixed config: restart r uses seed cfg.seed + r and
    ties between restarts go to the lowest restart index.
    """
    cfg = cfg or AnnealConfig()
    best_bits = None
    best_obj = -math.inf
    for r in range(cfg.restarts):
        bits = _anneal_once(q, cfg, cfg.seed + r)
        obj = objective(q, bits)
        if obj > best_obj:
            best_obj = obj
            best_bits = bits
    return Assignment(best_bits, best_obj)
