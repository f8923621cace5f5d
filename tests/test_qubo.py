import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panomerge import (
    AnnealConfig,
    Assignment,
    CorruptionSpec,
    QuboInstance,
    SceneSpec,
    build_qubo,
    generate_scene,
    objective,
    pairwise_overlap,
    solve_anneal,
    solve_exact,
    weighted_area,
)
from panomerge.qubo import (
    SWEEP_BLOCK,
    _block_draws,
    _greedy_bits,
    _local_search,
    _neighbours,
    _sweep_draws,
)

from conftest import make_mask_set, random_mask_set, rounding_values


# Reference solver: the annealer as it was before every field update went
# through one neighbour-list flip, with numpy vector updates per flip.


def ref_greedy_bits(q):
    u = np.zeros(q.num_vars, dtype=bool)
    h = q.linear.copy()
    order = np.argsort(-q.linear, kind="stable")
    for i in order:
        if h[i] > 0.0:
            u[i] = True
            h -= q.penalty * q.quadratic[:, i]
    return u


def ref_local_search(q, u):
    u = u.astype(np.float64)
    h = q.linear - q.penalty * (q.quadratic @ u)

    def flip(i):
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


def ref_anneal_once(q, cfg, seed):
    m = q.num_vars
    rng = np.random.Generator(np.random.PCG64(seed))
    u = ref_greedy_bits(q).astype(np.float64)
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
    return ref_local_search(q, best_u)


def ref_solve_anneal(q, cfg):
    best_bits = None
    best_obj = -math.inf
    for r in range(cfg.restarts):
        bits = ref_anneal_once(q, cfg, cfg.seed + r)
        obj = objective(q, bits)
        if obj > best_obj:
            best_obj = obj
            best_bits = bits
    return best_bits, best_obj


def ref_sweep_draws(seed, m, sweeps):
    """Each sweep's draws as the annealer took them before block draws."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(sweeps):
        idxs = rng.integers(0, m, size=m)
        yield idxs.tolist(), np.log(rng.random(size=m)).tolist()


def first_rejected_sweep(seed, m, sweeps):
    """Replay numpy's bounded index draws one 32-bit half at a time (low half
    first, Lemire's method) and return the first sweep whose indices hit a
    rejection, or None."""
    bitgen = np.random.PCG64(seed)
    high = None
    for s in range(sweeps):
        for _ in range(m):
            if high is None:
                word = int(bitgen.random_raw())
                x, high = word & 0xFFFFFFFF, word >> 32
            else:
                x, high = high, None
            if (x * m) & 0xFFFFFFFF < 2**32 % m:
                return s
        bitgen.random_raw(m)  # the sweep's doubles
    return None


class TestSweepDraws:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 300),
        st.one_of(st.sampled_from([63, 64, 65, 129]), st.integers(1, 200)),
    )
    def test_equal_per_sweep_generator_calls(self, seed, m, sweeps):
        got = list(_sweep_draws(seed, m, sweeps))
        assert got == list(ref_sweep_draws(seed, m, sweeps))

    @pytest.mark.parametrize("seed, m, sweep", [(255, 249, 119), (313, 247, 71)])
    def test_rejection_replays_through_generator(self, seed, m, sweep):
        assert first_rejected_sweep(seed, m, 200) == sweep
        bitgen = np.random.PCG64(seed)
        for _ in range(sweep // SWEEP_BLOCK):
            assert _block_draws(bitgen, m, SWEEP_BLOCK) is not None
        assert _block_draws(bitgen, m, SWEEP_BLOCK) is None
        got = list(_sweep_draws(seed, m, 200))
        assert got == list(ref_sweep_draws(seed, m, 200))

    def test_memory_does_not_grow_with_sweeps(self):
        q = random_instance(np.random.default_rng(3), 30)

        def peak(sweeps):
            tracemalloc.start()
            try:
                solve_anneal(q, AnnealConfig(sweeps=sweeps, restarts=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(5000) <= 1.5 * peak(100)


@st.composite
def qubo_instances(draw, max_vars=30):
    """Sparse, mostly integer-valued instances, so ties and neutral bits occur;
    zero linear entries, and sometimes no overlaps at all."""
    m = draw(st.integers(1, max_vars))
    value = st.one_of(
        st.integers(0, 8).map(float), st.floats(0.0, 8.0, allow_subnormal=False)
    )
    linear = draw(arrays(np.float64, m, elements=value, fill=st.just(0.0)))
    upper = np.zeros((m, m))
    if draw(st.booleans()):
        upper = np.triu(
            draw(arrays(np.float64, (m, m), elements=value, fill=st.just(0.0))), 1
        )
    penalty = draw(st.floats(1.0, 4.0, exclude_min=True))
    return QuboInstance(linear, upper + upper.T, penalty)


def random_instance(rng, m):
    lin = rng.random(m) * 10.0
    quad = rng.random((m, m)) * 4.0
    quad = (quad + quad.T) / 2.0
    np.fill_diagonal(quad, 0.0)
    return QuboInstance(lin, quad, penalty=2.0)


def single_flip_gain(q, u, i):
    """Objective change from flipping bit i of the 0/1 float vector u."""
    return (1.0 - 2.0 * u[i]) * (q.linear[i] - q.penalty * (q.quadratic[i] @ u))


@st.composite
def sparse_masks(draw):
    """(m, N, H, W) soft masks, mostly zero, some identical or disjoint rows."""
    m = draw(st.integers(1, 6))
    shape = draw(st.tuples(*(st.integers(1, 5) for _ in range(3))))
    values = draw(
        arrays(
            np.float64,
            (m, *shape),
            elements=st.floats(0.0, 1.0, allow_subnormal=False),
            fill=st.just(0.0),
        )
    )
    if m > 1 and draw(st.booleans()):
        values[-1] = values[0]
    return values


def ref_build_qubo(masks, penalty=2.0):
    """build_qubo as it was while the set stored its dense values: dense row
    sums, and each i's overlaps with its later partners gathered from their
    dense rows at i's nonzero pixels."""
    m = masks.num_queries
    flat = masks.values.reshape(m, -1)
    bits = np.packbits(flat > 0.0, axis=1)
    quad = np.zeros((m, m))
    for i in range(m - 1):
        cols = np.flatnonzero(bits[i])
        js = i + 1 + np.flatnonzero((bits[i + 1 :, cols] & bits[i, cols]).any(axis=1))
        if js.size:
            idx = np.flatnonzero(flat[i] > 0.0)
            ov = np.minimum(flat[js[:, None], idx], flat[i, idx]).sum(axis=1)
            quad[i, js] = ov
            quad[js, i] = ov
    return QuboInstance(flat.sum(axis=1), quad, penalty)


class TestBuildQubo:
    @settings(max_examples=300, deadline=None)
    @given(rounding_values())
    def test_equals_dense_gather_reference(self, values):
        masks = make_mask_set(values)
        got, want = build_qubo(masks), ref_build_qubo(masks)
        assert np.array_equal(got.linear, want.linear)
        assert np.array_equal(got.quadratic, want.quadratic)

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_dense_gather_reference_on_scenes(self, seed):
        cor = CorruptionSpec(
            duplicate_rate=0.5, fragment_rate=0.3, boundary_noise_px=2,
            softness=1.0, view_gain_noise=0.3,
        )
        _, masks, _ = generate_scene(SceneSpec(seed=seed, corruption=cor))
        got, want = build_qubo(masks), ref_build_qubo(masks)
        assert np.array_equal(got.linear, want.linear)
        assert np.array_equal(got.quadratic, want.quadratic)

    def test_disjoint_unit_masks(self):
        values = np.zeros((2, 1, 1, 2))
        values[0, 0, 0, 0] = 1.0
        values[1, 0, 0, 1] = 1.0
        q = build_qubo(make_mask_set(values), penalty=2.0)
        assert q.linear.tolist() == [1.0, 1.0]
        assert q.quadratic[0, 1] == 0.0

    def test_identical_masks_overlap_equals_area(self):
        values = np.tile(np.full((1, 1, 3, 3), 0.5), (2, 1, 1, 1))
        masks = make_mask_set(values)
        q = build_qubo(masks)
        assert q.quadratic[0, 1] == pytest.approx(weighted_area(masks, 0))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        masks = random_mask_set(rng, m=3)
        q = build_qubo(masks, penalty=1.5)
        for i in range(3):
            assert q.linear[i] == pytest.approx(weighted_area(masks, i), abs=1e-12)
            for j in range(3):
                if i != j:
                    assert q.quadratic[i, j] == pytest.approx(
                        pairwise_overlap(masks, i, j), abs=1e-12
                    )

    def test_penalty_must_exceed_one(self):
        with pytest.raises(ValueError):
            build_qubo(make_mask_set(np.ones((1, 1, 2, 2))), penalty=1.0)

    @settings(max_examples=150, deadline=None)
    @given(sparse_masks())
    def test_support_restricted_build_matches_dense_oracles(self, values):
        masks = make_mask_set(values)
        q = build_qubo(masks)
        m = masks.num_queries
        assert np.array_equal(q.quadratic, q.quadratic.T)
        support = values.reshape(m, -1) > 0.0
        for i in range(m):
            assert q.linear[i] == pytest.approx(weighted_area(masks, i), rel=1e-9)
            for j in range(i + 1, m):
                if not (support[i] & support[j]).any():
                    assert q.quadratic[i, j] == 0.0
                else:
                    assert q.quadratic[i, j] == pytest.approx(
                        pairwise_overlap(masks, i, j), rel=1e-9
                    )


class TestObjective:
    def test_empty_selection_is_zero(self):
        rng = np.random.default_rng(0)
        q = random_instance(rng, 5)
        assert objective(q, np.zeros(5)) == 0.0

    def test_single_bit_is_linear_weight(self):
        rng = np.random.default_rng(1)
        q = random_instance(rng, 5)
        u = np.zeros(5)
        u[3] = 1
        assert objective(q, u) == pytest.approx(q.linear[3])

    def test_two_identical_masks_cancel(self):
        area = 9.0
        q = QuboInstance([area, area], [[0.0, area], [area, 0.0]], penalty=2.0)
        assert objective(q, [1, 1]) == pytest.approx(0.0)

    def test_length_mismatch(self):
        q = QuboInstance([1.0], [[0.0]])
        with pytest.raises(ValueError):
            objective(q, [1, 0])


class TestSolveExact:
    def test_single_variable(self):
        q = QuboInstance([5.0], [[0.0]])
        result = solve_exact(q)
        assert result.bits.tolist() == [True]
        assert result.objective == 5.0

    def test_identical_masks_tie_break(self):
        area = 7.0
        q = QuboInstance([area, area], [[0.0, area], [area, 0.0]], penalty=2.0)
        result = solve_exact(q)
        assert result.bits.tolist() == [True, False]
        assert result.objective == pytest.approx(area)

    def test_beats_every_enumerated_assignment(self):
        rng = np.random.default_rng(9)
        q = random_instance(rng, 8)
        best = solve_exact(q)
        for bits in itertools.product([0, 1], repeat=8):
            assert best.objective >= objective(q, np.array(bits)) - 1e-12

    def test_guard_on_large_m(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            solve_exact(random_instance(rng, 25))

    def test_ties_across_chunks_keep_the_smallest_code(self):
        # bits 0 and 12 are identical masks, the rest weigh nothing: codes 1
        # and 4096, in different chunks of 4,096 rows, tie at the optimum
        m, area = 13, 3.0
        lin = np.zeros(m)
        lin[[0, 12]] = area
        quad = np.zeros((m, m))
        quad[0, 12] = quad[12, 0] = area
        result = solve_exact(QuboInstance(lin, quad))
        assert result.selected().tolist() == [0]
        assert result.objective == area

    def test_memory_bounded_by_one_chunk(self):
        q = random_instance(np.random.default_rng(4), 18)
        tracemalloc.start()
        try:
            solve_exact(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSolveAnneal:
    def test_single_positive_variable(self):
        q = QuboInstance([5.0], [[0.0]])
        for seed in (0, 1, 42):
            result = solve_anneal(q, AnnealConfig(seed=seed))
            assert result.bits.tolist() == [True]

    def test_all_zero_weights_select_nothing(self):
        q = QuboInstance(np.zeros(6), np.zeros((6, 6)))
        result = solve_anneal(q)
        assert not result.bits.any()
        assert result.objective == 0.0

    def test_no_variables_agrees_with_exact(self):
        q = QuboInstance(np.zeros(0), np.zeros((0, 0)))
        annealed, exact = solve_anneal(q), solve_exact(q)
        assert annealed.bits.shape == exact.bits.shape == (0,)
        assert annealed.bits.dtype == exact.bits.dtype == bool
        assert annealed.objective == exact.objective == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_near_optimal_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        q = random_instance(rng, 10)
        exact = solve_exact(q)
        annealed = solve_anneal(q)
        assert annealed.objective >= 0.99 * exact.objective

    @pytest.mark.parametrize("seed", range(10))
    def test_output_is_single_flip_optimal(self, seed):
        rng = np.random.default_rng(100 + seed)
        q = random_instance(rng, 12)
        result = solve_anneal(q)
        u = result.bits.astype(float)
        for i in range(12):
            assert single_flip_gain(q, u, i) <= 0.0

    @settings(max_examples=150, deadline=None)
    @given(qubo_instances(), st.integers(0, 2**16), st.sampled_from([1, 30, 65, 300]))
    def test_matches_reference_annealer(self, q, seed, sweeps):
        cfg = AnnealConfig(seed=seed, sweeps=sweeps, restarts=4)
        result = solve_anneal(q, cfg)
        ref_bits, ref_obj = ref_solve_anneal(q, cfg)
        assert np.array_equal(result.bits, ref_bits)
        assert result.objective == ref_obj

    @settings(max_examples=60, deadline=None)
    @given(qubo_instances(max_vars=12), st.integers(0, 3))
    def test_well_formed_and_never_beats_exact(self, q, seed):
        result = solve_anneal(q, AnnealConfig(seed=seed, sweeps=30))
        assert len(result.bits) == q.num_vars
        assert result.objective == objective(q, result.bits)
        # float instances: allow rounding between two sums of equal value
        exact = solve_exact(q).objective
        assert result.objective <= exact + 1e-9 * (1.0 + abs(exact))

    @settings(max_examples=150, deadline=None)
    @given(qubo_instances(), st.data())
    def test_greedy_start_and_hill_climb_match_reference(self, q, data):
        nbrs = _neighbours(q)
        greedy = _greedy_bits(q, nbrs)
        assert np.array_equal(np.array(greedy, dtype=bool), ref_greedy_bits(q))
        start = data.draw(arrays(bool, q.num_vars))
        climbed = _local_search(q, start.astype(float).tolist(), nbrs)
        assert np.array_equal(np.array(climbed, dtype=bool), ref_local_search(q, start))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        q = random_instance(rng, 12)
        cfg = AnnealConfig(seed=3, sweeps=50)
        a = solve_anneal(q, cfg)
        b = solve_anneal(q, cfg)
        assert np.array_equal(a.bits, b.bits)
        assert a.objective == b.objective


class TestProperties:
    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_argmax_scale_invariance(self, c):
        rng = np.random.default_rng(31)
        masks = random_mask_set(rng, m=6)
        q1 = build_qubo(masks)
        q2 = build_qubo(make_mask_set(np.clip(masks.values * c, 0.0, 1.0)))
        if c <= 1.0:  # clipping would change the instance above 1
            assert np.array_equal(solve_exact(q1).bits, solve_exact(q2).bits)
        scaled = QuboInstance(q1.linear * c, q1.quadratic * c, q1.penalty)
        assert np.array_equal(solve_exact(q1).bits, solve_exact(scaled).bits)

    def test_monotone_penalty_forbids_identical_pair(self):
        area = 12.0
        for penalty in (1.01, 2.0, 5.0):
            q = QuboInstance([area, area], [[0.0, area], [area, 0.0]], penalty)
            result = solve_exact(q)
            assert result.bits.sum() == 1
            assert objective(q, [1, 1]) < objective(q, [1, 0])

    def test_disjoint_positive_masks_select_all(self):
        q = QuboInstance([3.0, 1.0, 2.0], np.zeros((3, 3)))
        assert solve_exact(q).bits.all()
        assert solve_anneal(q).bits.all()


class TestQuboInstance:
    @pytest.mark.parametrize(
        "linear, quadratic, penalty",
        [
            ([1.0, np.nan], [[0.0, 0.0], [0.0, 0.0]], 2.0),
            ([1.0, np.inf], [[0.0, 0.0], [0.0, 0.0]], 2.0),
            ([1.0, 1.0], [[0.0, np.nan], [np.nan, 0.0]], 2.0),
            ([1.0, 1.0], [[0.0, 0.0], [0.0, 0.0]], np.nan),
            ([1.0, 1.0], [[0.0, 0.0], [0.0, 0.0]], np.inf),
        ],
    )
    def test_non_finite_rejected(self, linear, quadratic, penalty):
        with pytest.raises(ValueError, match="finite"):
            QuboInstance(np.array(linear), np.array(quadratic), penalty)

    def test_owns_read_only_arrays(self):
        # a caller's later edit cannot reach the weights the solver reads
        linear = np.array([1.0, 2.0])
        quadratic = np.zeros((2, 2))
        q = QuboInstance(linear, quadratic)
        linear[0] = quadratic[0, 1] = np.nan
        assert q.linear.tolist() == [1.0, 2.0] and not q.quadratic.any()
        for stored in (q.linear, q.quadratic):
            with pytest.raises(ValueError, match="read-only"):
                stored.flat[0] = np.nan
        assert solve_anneal(q).bits.tolist() == [True, True]


class TestAssignment:
    def test_owns_a_read_only_copy_of_the_bits(self):
        bits = np.array([[True, False, True]])
        a = Assignment(bits, 2.0)
        bits[0, 0] = False
        assert a.bits.tolist() == [True, False, True]
        assert a.selected().tolist() == [0, 2]
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            a.bits[0] = False
