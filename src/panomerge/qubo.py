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

from .masks import SoftMaskSet, freeze

EXACT_MAX_VARS = 24
DEFAULT_PENALTY = 2.0
# sweeps per raw draw; even, so no buffered 32-bit half crosses a block edge
SWEEP_BLOCK = 64


@dataclass(frozen=True, eq=False)
class QuboInstance:
    """Linear weights, symmetric pairwise overlaps, and the overlap penalty.
    Both arrays are stored as read-only float64 copies."""

    linear: np.ndarray
    quadratic: np.ndarray
    penalty: float = DEFAULT_PENALTY

    def __post_init__(self):
        lin = np.array(np.ravel(self.linear), dtype=np.float64)
        quad = np.array(self.quadratic, dtype=np.float64)
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
        np.fill_diagonal(quad, 0.0)
        freeze(self, linear=lin, quadratic=quad)

    @property
    def num_vars(self) -> int:
        return self.linear.shape[0]


@dataclass(frozen=True, eq=False)
class Assignment:
    """A boolean selection of proposals together with its objective value.
    `bits` is stored as a read-only bool copy."""

    bits: np.ndarray
    objective: float

    def __post_init__(self):
        freeze(self, bits=np.array(self.bits, dtype=bool).ravel())

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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def build_qubo(masks: SoftMaskSet, penalty: float = DEFAULT_PENALTY) -> QuboInstance:
    """Assemble the selection QUBO from a soft mask set.

    linear[i] is the weighted area of proposal i (`masks.area`); quadratic[i, j]
    the pairwise fuzzy overlap sum_k min(M_ik, M_jk), computed once per
    unordered pair so symmetry holds exactly.

    The overlaps visit supports only (`masks.support`): packed nonzero bits
    find the pairs whose supports meet, and for each such pair i < j the
    minimum is summed over i's support alone (outside it the minimum is 0),
    reading j's values from one buffer that holds row j scattered. Pairs with
    disjoint supports stay exactly 0.
    """
    m = masks.num_queries
    sup = masks.support
    bits, ptr = sup.bits, sup.indptr.tolist()
    meets = np.zeros((m, m), dtype=bool)  # meets[i, j]: i < j and supports meet
    for i in range(m - 1):
        cols = np.flatnonzero(bits[i])
        meets[i, i + 1 :] = (bits[i + 1 :, cols] & bits[i, cols]).any(axis=1)
    quad = np.zeros((m, m), dtype=np.float64)
    row = np.zeros(math.prod(masks.shape[1:]))
    for j in range(1, m):
        earlier = np.flatnonzero(meets[:j, j]).tolist()
        if not earlier:
            continue
        idx_j = sup.pixels[ptr[j] : ptr[j + 1]]
        row[idx_j] = sup.values[ptr[j] : ptr[j + 1]]
        for i in earlier:
            idx = sup.pixels[ptr[i] : ptr[i + 1]]
            vals = sup.values[ptr[i] : ptr[i + 1]]
            quad[i, j] = quad[j, i] = np.minimum(row.take(idx), vals).sum()
        row[idx_j] = 0.0
    return QuboInstance(masks.area, quad, penalty)


def objective(q: QuboInstance, u: np.ndarray) -> float:
    """Evaluate the QUBO objective for a boolean assignment."""
    u = np.asarray(u, dtype=np.float64).ravel()
    if u.shape[0] != q.num_vars:
        raise ValueError(f"assignment length {u.shape[0]} != m={q.num_vars}")
    pair = 0.5 * float(u @ q.quadratic @ u)
    return float(u @ q.linear) - q.penalty * pair


def solve_exact(q: QuboInstance) -> Assignment:
    """Enumerate all 2^m assignments and return the best one.

    Ties are broken toward the assignment whose bit vector encodes the
    smallest integer (bit i has weight 2^i). Guarded to m <= 24.
    """
    m = q.num_vars
    if m > EXACT_MAX_VARS:
        raise ValueError(f"solve_exact supports m <= {EXACT_MAX_VARS}, got {m}")
    total = 1 << m
    chunk = 1 << 12  # bounds memory; the first maximum wins at any chunk size
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


def _field(q: QuboInstance, u: list[float]) -> list[float]:
    """Local fields h: flipping bit i changes the objective by (1 - 2 u_i) h_i."""
    return (q.linear - q.penalty * (q.quadratic @ u)).tolist()


def _neighbours(q: QuboInstance) -> list[list[tuple[int, float]]]:
    """Per variable i, (j, penalty * quadratic_ij) for the nonzero overlaps only:
    every term is nonnegative, so skipping zeros leaves every field the same."""
    w = q.penalty * q.quadratic
    return [list(zip(np.flatnonzero(r).tolist(), r[r != 0.0].tolist())) for r in w]


def _flip(u: list[float], h: list[float], nbrs, i: int) -> None:
    """Flip bit i and update its neighbours' fields, the only ones that change."""
    sign = 1.0 - 2.0 * u[i]
    u[i] = 1.0 - u[i]
    for j, w in nbrs[i]:
        h[j] -= sign * w


def _greedy_bits(q: QuboInstance, nbrs) -> list[float]:
    """Add proposals in decreasing area order while each helps."""
    u = [0.0] * q.num_vars
    h = q.linear.tolist()
    for i in np.argsort(-q.linear, kind="stable").tolist():
        if h[i] > 0.0:
            _flip(u, h, nbrs, i)
    return u


def _local_search(q: QuboInstance, u: list[float], nbrs) -> list[float]:
    """Greedy hill climb in place: flip the best improving bit (lowest index on
    ties) until none remains.

    Objective-neutral set bits are then dropped highest-index-first, which
    canonicalizes ties toward the same smallest-integer assignment the exact
    solver returns.
    """
    h = _field(q, u)
    while True:
        deltas = [(1.0 - 2.0 * ui) * hi for ui, hi in zip(u, h)]
        i = max(range(len(u)), key=deltas.__getitem__)
        if deltas[i] > 0.0:
            _flip(u, h, nbrs, i)
            continue
        neutral = [j for j, d in enumerate(deltas) if u[j] and d == 0.0]
        if neutral:
            _flip(u, h, nbrs, neutral[-1])
            continue
        return u


def _block_draws(bitgen, m: int, n: int):
    """The (indices, uniforms) that n sweeps of `integers(0, m, size=m)` then
    `random(size=m)` on `np.random.Generator(bitgen)` return, as (n, m)
    arrays from one `random_raw` call; None if an index hits a rejection.

    numpy takes each index from the next 32-bit half x of a raw word (low
    half first; the high half waits for the next index draw) by Lemire's
    method: (x * m) >> 32, rejected, and drawn again, when the low 32 bits of
    x * m fall below 2**32 % m. With m == 1 it draws no word. Each double is
    one word w mapped to (w >> 11) * 2**-53. So by the end of sweep s the
    stream holds ceil((s + 1) m / 2) index words and (s + 1) m doubles, and
    index word j sits after the doubles of the 2j // m sweeps before its own.
    """
    s = np.arange(n)[:, None]
    first = s * m + (0 if m == 1 else ((s + 1) * m + 1) // 2)  # sweep s's 1st double
    words = bitgen.random_raw(int(first[-1, 0]) + m)
    uniforms = (words[first + np.arange(m)] >> np.uint64(11)) * 2.0**-53
    if m == 1:
        return np.zeros((n, 1), dtype=np.int64), uniforms
    j = np.arange((n * m + 1) // 2)
    halves = words[j + (2 * j // m) * m].astype("<u8", copy=False).view("<u4")[: n * m]
    scaled = halves.astype(np.uint64) * m
    if ((scaled & 0xFFFFFFFF) < 2**32 % m).any():
        return None
    return (scaled >> 32).reshape(n, m), uniforms


def _sweep_draws(seed: int, m: int, sweeps: int):
    """Yield each sweep's indices and log-uniforms as lists: the values of
    `integers(0, m, size=m)` and `np.log(random(size=m))` on
    `Generator(PCG64(seed))`, taken SWEEP_BLOCK sweeps per raw draw. From a
    block with a rejection on, the Generator itself draws, per sweep."""
    bitgen = np.random.PCG64(seed)
    for start in range(0, sweeps, SWEEP_BLOCK):
        state = bitgen.state
        block = _block_draws(bitgen, m, min(SWEEP_BLOCK, sweeps - start))
        if block is None:
            bitgen.state = state
            rng = np.random.Generator(bitgen)
            for _ in range(start, sweeps):
                idxs = rng.integers(0, m, size=m)
                yield idxs.tolist(), np.log(rng.random(size=m)).tolist()
            return
        idxs, uniforms = block
        yield from zip(idxs.tolist(), np.log(uniforms).tolist())


def _anneal_once(
    q: QuboInstance, cfg: AnnealConfig, seed: int, nbrs, u, h, obj: float
) -> list[float]:
    """Anneal from bits u with fields h and objective obj, updating u and h."""
    best_obj = obj
    best_u = u.copy()
    temp = float(q.linear.max(initial=0.0)) or 1.0
    for idxs, log_r in _sweep_draws(seed, q.num_vars, cfg.sweeps):
        for i, lr in zip(idxs, log_r):
            delta = (1.0 - 2.0 * u[i]) * h[i]
            if delta >= 0.0 or lr < delta / temp:
                _flip(u, h, nbrs, i)
                obj += delta
                if obj > best_obj:
                    best_obj = obj
                    best_u = u.copy()
        temp *= cfg.cooling_rate
    return _local_search(q, best_u, nbrs)


def solve_anneal(q: QuboInstance, cfg: AnnealConfig | None = None) -> Assignment:
    """Simulated annealing with geometric cooling, restarts, and a final
    single-flip hill climb so the returned assignment is locally optimal. Flips
    update local fields through neighbour lists (Isakov et al., Comput. Phys.
    Commun. 192, 2015). Every restart starts from the same greedy selection.

    Deterministic for a fixed config: restart r draws from PCG64(cfg.seed + r),
    and ties between restarts go to the lowest restart index. Sweep s draws
    `integers(0, m, size=m)` (the proposals to try) and then
    `random(size=m)` (the acceptance uniforms) on that stream's
    `np.random.Generator`. The draws are taken SWEEP_BLOCK sweeps at a time
    from the raw stream and reproduce those calls bit for bit.
    """
    cfg = cfg or AnnealConfig()
    if q.num_vars == 0:
        return Assignment(np.zeros(0, dtype=bool), 0.0)
    nbrs = _neighbours(q)
    start = _greedy_bits(q, nbrs)
    field = _field(q, start)
    start_obj = objective(q, start)
    runs = [
        _anneal_once(q, cfg, cfg.seed + r, nbrs, start.copy(), field.copy(), start_obj)
        for r in range(cfg.restarts)
    ]
    objs = [objective(q, bits) for bits in runs]
    best = int(np.argmax(objs))
    return Assignment(runs[best], objs[best])
