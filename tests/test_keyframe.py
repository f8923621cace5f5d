import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panomerge import FrameDescriptors, fps_select


# Reference: farthest-point sampling as it was before each metric was set up
# once per call, recomputing distances (and unit vectors) for every pick.


def ref_distances_to(vectors, index, metric):
    if metric == "euclidean":
        return np.linalg.norm(vectors - vectors[index], axis=1)
    norms = np.linalg.norm(vectors, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = vectors / safe[:, None]
    return 1.0 - unit @ unit[index]


def ref_fps_select(vectors, k, seed_index, metric):
    selected = [seed_index]
    min_dist = ref_distances_to(vectors, seed_index, metric)
    min_dist[seed_index] = -np.inf
    for _ in range(k - 1):
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        min_dist = np.minimum(min_dist, ref_distances_to(vectors, nxt, metric))
        min_dist[nxt] = -np.inf
    return selected


@st.composite
def descriptor_sets(draw):
    """(N, dim) descriptors, dim up to 300, with zero rows, exact duplicates
    and rows one ulp apart. Hypothesis floats (dim up to 6), Gaussian or
    integer entries (exact ties) are scaled from 1e-162, where squares go
    subnormal, to 1e155, where they overflow, and may share a common offset
    far larger than their spread."""
    n = draw(st.integers(1, 25))
    kind = draw(st.sampled_from(["floats", "integers", "gaussian"]))
    if kind == "floats":
        vec = draw(arrays(np.float64, (n, draw(st.integers(1, 6))),
                          elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        shape = (n, draw(st.integers(1, 300)))
        if kind == "integers":
            vec = rng.integers(-3, 4, shape).astype(float)
        else:
            vec = rng.standard_normal(shape)
    offset = draw(st.sampled_from([0.0, 0.0, 1e8]))
    vec = (vec + offset) * draw(
        st.sampled_from([1e-162, 1e-160, 1e-100, 1e-3, 1.0, 1e3, 1e100, 1e150, 1e155])
    )
    rows = st.integers(0, n - 1)
    for i in draw(st.lists(rows, max_size=3)):
        vec[i] = 0.0
    for i, j in draw(st.lists(st.tuples(rows, rows), max_size=3)):
        vec[i] = vec[j]
    for i, j in draw(st.lists(st.tuples(rows, rows), max_size=3)):
        vec[i] = np.nextafter(vec[j], draw(st.sampled_from([-np.inf, np.inf])))
    return vec


def descriptors(points):
    return FrameDescriptors(np.asarray(points, dtype=float))


class TestFpsSelect:
    def test_hand_computed_example(self):
        # distances to {0,1}: point 2 -> min(5,5)=5, point 3 -> min(1,sqrt(101))=1
        desc = descriptors([(0, 0), (10, 0), (5, 0), (0, 1)])
        assert fps_select(desc, k=3, seed_index=0) == [0, 1, 2]

    def test_k_equals_n_exhausts_all_indices(self):
        rng = np.random.default_rng(0)
        desc = descriptors(rng.random((12, 3)))
        result = fps_select(desc, k=12)
        assert sorted(result) == list(range(12))

    def test_k_one_is_seed(self):
        desc = descriptors([(0, 0), (1, 1)])
        assert fps_select(desc, k=1, seed_index=1) == [1]

    def test_first_element_is_seed(self):
        rng = np.random.default_rng(1)
        desc = descriptors(rng.random((20, 4)))
        assert fps_select(desc, k=5, seed_index=7)[0] == 7

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_each_pick_maximizes_min_distance(self, metric):
        rng = np.random.default_rng(2)
        pts = rng.random((30, 3)) + 0.1
        desc = descriptors(pts)
        selected = fps_select(desc, k=10, metric=metric)

        def dist(a, b):
            if metric == "euclidean":
                return np.linalg.norm(pts[a] - pts[b])
            ua = pts[a] / np.linalg.norm(pts[a])
            ub = pts[b] / np.linalg.norm(pts[b])
            return 1.0 - ua @ ub

        for step in range(1, len(selected)):
            prior = selected[:step]
            chosen = selected[step]
            chosen_d = min(dist(chosen, p) for p in prior)
            for cand in range(30):
                if cand in prior:
                    continue
                cand_d = min(dist(cand, p) for p in prior)
                assert chosen_d >= cand_d - 1e-12

    def test_coverage_monotonicity(self):
        rng = np.random.default_rng(3)
        pts = rng.random((40, 5))
        desc = descriptors(pts)
        selected = fps_select(desc, k=15)
        dists = []
        for step in range(1, len(selected)):
            prior = pts[selected[:step]]
            dists.append(
                float(np.min(np.linalg.norm(prior - pts[selected[step]], axis=1)))
            )
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_unique_and_exact_length(self):
        rng = np.random.default_rng(4)
        desc = descriptors(rng.random((60, 8)))
        result = fps_select(desc, k=25)
        assert len(result) == 25
        assert len(set(result)) == 25

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        desc = descriptors(rng.random((50, 6)))
        assert fps_select(desc, k=20) == fps_select(desc, k=20)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=400, deadline=None)
    @given(descriptor_sets(), st.sampled_from(["euclidean", "cosine"]), st.data())
    def test_matches_reference(self, vec, metric, data):
        n = vec.shape[0]
        k = data.draw(st.integers(1, n))
        seed_index = data.draw(st.integers(0, n - 1))
        assert fps_select(FrameDescriptors(vec), k, seed_index, metric) == (
            ref_fps_select(vec, k, seed_index, metric)
        )

    # The benchmark's descriptor sets; a common offset far above the spread,
    # where the squared-norm expansion cancels; and entries whose products
    # are subnormal, where every rounding is absolute, with integer entries
    # so that distances tie often; and duplicated rows whose squares
    # overflow, so that the expansion is NaN.
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "make, k",
        [
            (lambda rng: rng.standard_normal((2000, 256)), 50),
            (lambda rng: rng.standard_normal((25, 64)) + 1e8, 25),
            (lambda rng: rng.integers(-3, 4, (25, 64)) * 1e-162, 25),
            (lambda rng: np.repeat(rng.standard_normal((5, 64)), 5, axis=0) * 1e155, 25),
        ],
        ids=["gaussian", "offset", "subnormal", "overflow"],
    )
    def test_matches_reference_on_fixed_sets(self, make, k, seed):
        vec = make(np.random.default_rng(seed))
        assert fps_select(FrameDescriptors(vec), k) == ref_fps_select(
            vec, k, 0, "euclidean"
        )

    # The euclidean path recomputes only some rows of (vec - vec[c])**2 and
    # reduces them alone; that must give each row's full-array value bitwise.
    @pytest.mark.parametrize("shape", [(2000, 256), (25, 300), (25, 7), (25, 1), (1, 300)])
    def test_subset_row_sums_match_full_array(self, shape):
        rng = np.random.default_rng(shape[1])
        sq = np.square(rng.standard_normal(shape) * 1e3)
        full = np.add.reduce(sq, axis=1)
        n = shape[0]
        for rows in [np.arange(n), np.arange(0, n, 3), np.array([n - 1]),
                     np.sort(rng.choice(n, (n + 1) // 2, replace=False))]:
            np.testing.assert_array_equal(np.add.reduce(sq[rows], axis=1), full[rows])

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            fps_select(descriptors([(0, 0), (1, 1)]), k=1, metric="manhattan")

    def test_k_out_of_range(self):
        desc = descriptors([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            fps_select(desc, k=3)
        with pytest.raises(ValueError):
            fps_select(desc, k=0)

    def test_nan_descriptors_rejected(self):
        with pytest.raises(ValueError):
            descriptors([(0.0, np.nan)])


def test_vectors_are_a_read_only_view():
    given = np.array([[0.0, 1.0], [2.0, 3.0]])
    desc = FrameDescriptors(given)
    with pytest.raises(ValueError, match="read-only"):
        desc.vectors[0, 0] = 5.0
    # the caller's float64 array is viewed, never locked
    assert given.flags.writeable
    given[0, 0] = 7.0
    assert desc.vectors[0, 0] == 7.0
    assert not FrameDescriptors(given.astype(np.float32)).vectors.flags.writeable
