import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carsopt.knn import NeighborStore


def brute_force_estimate(points, fitness, query, k):
    d2 = [float(np.sum((np.asarray(p) - np.asarray(query)) ** 2)) for p in points]
    order = sorted(range(len(points)), key=lambda i: (d2[i], i))[: min(k, len(points))]
    return float(np.mean([fitness[i] for i in order]))


def reference_estimate_many(points, fitness, queries, k):
    """The broadcast + stable-argsort estimator that the store must match bit for bit."""
    pts = np.asarray(points, dtype=float)
    fit = np.asarray(fitness, dtype=float)
    queries = np.asarray(queries, dtype=float)
    k = min(k, len(fit))
    out = np.empty(len(queries))
    chunk = max(1, 2_000_000 // max(1, len(fit)))
    for start in range(0, len(queries), chunk):
        q = queries[start : start + chunk]
        d2 = ((q[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        out[start : start + chunk] = fit[order].mean(axis=1)
    return out


class TestEstimate:
    def test_single_point_fallback(self):
        s = NeighborStore(2)
        s.append([0.5, 0.5], 0.6)
        assert s.estimate([0.1, 0.9], k=5) == pytest.approx(0.6)

    def test_nearest_point_1d(self):
        s = NeighborStore(1)
        s.append([0.0], 0.0)
        s.append([1.0], 1.0)
        assert s.estimate([0.1], k=1) == 0.0
        assert s.estimate(0.9, k=1) == 1.0

    def test_mean_of_two(self):
        s = NeighborStore(1)
        s.append([0.0], 0.0)
        s.append([1.0], 1.0)
        assert s.estimate([0.5], k=2) == pytest.approx(0.5)

    def test_tie_broken_by_insertion_order(self):
        s = NeighborStore(1)
        s.append([0.2], 10.0)
        s.append([0.8], 20.0)
        assert s.estimate([0.5], k=1) == 10.0

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            NeighborStore(1).estimate([0.5], k=1)

    @pytest.mark.parametrize("n_dim", [1, 2, 5])
    def test_oracle_equivalence(self, n_dim):
        rng = np.random.default_rng(n_dim)
        for _ in range(20):
            n = rng.integers(1, 80)
            pts = rng.random((n, n_dim))
            fit = rng.random(n)
            s = NeighborStore(n_dim)
            s.extend(pts, fit)
            q = rng.random(n_dim)
            k = int(rng.integers(1, 12))
            assert s.estimate(q, k) == pytest.approx(brute_force_estimate(pts, fit, q, k), rel=1e-12)
            assert s.estimate_many(q[None, :], k)[0] == pytest.approx(
                brute_force_estimate(pts, fit, q, k), rel=1e-12
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((30, 3))
        fit = rng.random(30)
        q = rng.random(3)
        s1 = NeighborStore(3)
        s1.extend(pts, fit)
        perm = rng.permutation(30)
        s2 = NeighborStore(3)
        s2.extend(pts[perm], fit[perm])
        # Distinct distances almost surely; estimates must agree.
        assert s1.estimate(q, 7) == pytest.approx(s2.estimate(q, 7), rel=1e-12)


class TestBitIdentity:
    @settings(max_examples=200, deadline=None)
    @given(
        n_dim=st.integers(1, 12),
        m=st.integers(1, 60),
        k=st.integers(1, 30),
        lattice=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, n_dim, m, k, lattice, seed):
        # Covers k < m and k >= m, both sides of numpy's 8-term summation
        # boundary, and (on a coarse lattice) many exact distance ties.
        rng = np.random.default_rng(seed)
        if lattice:
            steps = int(rng.integers(1, 4))
            pts = rng.integers(0, steps + 1, (m, n_dim)) / steps
            queries = rng.integers(0, steps + 1, (25, n_dim)) / steps
        else:
            pts = rng.random((m, n_dim))
            queries = rng.random((25, n_dim))
        fit = rng.random(m)
        s = NeighborStore(n_dim)
        s.extend(pts, fit)
        assert np.array_equal(s.estimate_many(queries, k), reference_estimate_many(pts, fit, queries, k))

    def test_wide_points_across_pairwise_block(self):
        # Above 128 dimensions numpy sums the two halves separately.
        rng = np.random.default_rng(4)
        for n_dim in (127, 128, 129, 200):
            pts = rng.random((30, n_dim))
            fit = rng.random(30)
            queries = rng.random((10, n_dim))
            s = NeighborStore(n_dim)
            s.extend(pts, fit)
            assert np.array_equal(s.estimate_many(queries, 7), reference_estimate_many(pts, fit, queries, 7))

    def test_queries_split_into_chunks(self):
        # 2,000 stored points put only a few dozen queries in each chunk.
        rng = np.random.default_rng(6)
        pts = rng.integers(0, 3, (2000, 3)) / 2
        fit = rng.random(2000)
        queries = np.vstack([rng.integers(0, 3, (60, 3)) / 2, rng.random((60, 3))])
        s = NeighborStore(3)
        s.extend(pts, fit)
        assert np.array_equal(s.estimate_many(queries, 7), reference_estimate_many(pts, fit, queries, 7))

    def test_non_finite_query_matches_reference(self):
        pts = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
        fit = np.array([1.0, 2.0, 3.0, 4.0])
        queries = np.array([[np.nan, 0.5], [np.inf, 0.5], [0.4, 0.4]])
        s = NeighborStore(2)
        s.extend(pts, fit)
        want = reference_estimate_many(pts, fit, queries, 2)
        assert np.array_equal(s.estimate_many(queries, 2), want, equal_nan=True)

    def test_estimate_is_estimate_many_row(self):
        rng = np.random.default_rng(9)
        s = NeighborStore(4)
        s.extend(rng.random((40, 4)), rng.random(40))
        queries = rng.random((6, 4))
        batch = s.estimate_many(queries, 9)
        assert [s.estimate(q, 9) for q in queries] == batch.tolist()


class TestStore:
    def test_growth_keeps_every_point(self):
        # One-row appends and uneven batches across several capacity doublings.
        rng = np.random.default_rng(5)
        pts, fit = rng.random((300, 3)), rng.random(300)
        s = NeighborStore(3)
        for i in range(20):
            s.append(pts[i], fit[i])
        for lo, hi in ((20, 21), (21, 90), (90, 91), (91, 300)):
            s.extend(pts[lo:hi], fit[lo:hi])
        assert len(s) == 300
        queries = rng.random((50, 3))
        assert np.array_equal(s.estimate_many(queries, 7), reference_estimate_many(pts, fit, queries, 7))

    @pytest.mark.parametrize(
        "points,fitnesses,match",
        [
            ([[0.1, 0.2], [0.3, 0.4, 0.5]], [1.0, 2.0], None),
            ([[0.1, 0.2, 0.3], [0.3, 0.4, 0.5]], [1.0, 2.0], "shape"),
            ([[0.1, 0.2], [0.3, 0.4]], [1.0], "shape"),
            ([[0.1, 0.2], [0.3, 1.5]], [1.0, 2.0], "hypercube"),
            ([[0.1, 0.2], [-0.1, 0.5]], [1.0, 2.0], "hypercube"),
            ([[0.1, 0.2], [np.nan, 0.5]], [1.0, 2.0], "hypercube"),
            ([[0.1, 0.2], [0.3, 0.4]], [1.0, np.inf], "finite"),
            ([[0.1, 0.2], [0.3, 0.4]], [np.nan, 1.0], "finite"),
        ],
    )
    def test_bad_batch_stores_nothing(self, points, fitnesses, match):
        s = NeighborStore(2)
        s.append([0.5, 0.5], 0.25)
        with pytest.raises(ValueError, match=match):
            s.extend(points, fitnesses)
        assert len(s) == 1
        assert s.estimate([0.1, 0.2], k=5) == 0.25

    def test_append_checks_like_extend(self):
        s = NeighborStore(2)
        with pytest.raises(ValueError, match="shape"):
            s.append([0.5], 1.0)
        with pytest.raises(ValueError, match="hypercube"):
            s.append([0.5, 2.0], 1.0)
        with pytest.raises(ValueError, match="finite"):
            s.append([0.5, 0.5], float("nan"))
        assert len(s) == 0

    def test_empty_batch(self):
        s = NeighborStore(2)
        s.extend(np.empty((0, 2)), [])
        assert len(s) == 0

    def test_bad_query_shape_or_k(self):
        s = NeighborStore(2)
        s.append([0.5, 0.5], 1.0)
        with pytest.raises(ValueError, match="shape"):
            s.estimate_many(np.zeros((3, 3)), 1)
        with pytest.raises(ValueError, match="k must be"):
            s.estimate_many(np.zeros((3, 2)), 0)


class TestSelectOversampled:
    def test_worked_shape(self):
        # 2 rows x 3 candidates reduce to 2 selected points.
        rng = np.random.default_rng(0)
        s = NeighborStore(2)
        s.extend(rng.random((50, 2)), rng.random(50))
        cands = rng.random((2, 3, 2))
        cols = s.select_oversampled(cands, k=5)
        assert cols.shape == (2,)
        assert all(0 <= c < 3 for c in cols)
        assert cands[np.arange(2), cols].shape == (2, 2)

    def test_identity_with_one_candidate(self):
        s = NeighborStore(2)
        cands = np.random.default_rng(1).random((4, 1, 2))
        cols = s.select_oversampled(cands, k=3)
        assert np.array_equal(cols, np.zeros(4))
        assert np.array_equal(cands[np.arange(4), cols], cands[:, 0, :])

    def test_empty_store_picks_column_zero(self):
        s = NeighborStore(2)
        cands = np.random.default_rng(2).random((4, 3, 2))
        cols = s.select_oversampled(cands, k=3)
        assert np.array_equal(cols, np.zeros(4))
        assert np.array_equal(cands[np.arange(4), cols], cands[:, 0, :])

    def test_tie_picks_first_column(self):
        s = NeighborStore(1)
        s.extend([[0.2], [0.8]], [1.0, 1.0])
        cands = np.array([[[0.1], [0.5], [0.9]]])
        assert s.select_oversampled(cands, k=1).tolist() == [0]

    def test_monotone_surrogate(self):
        # Dense store where fitness equals the x-coordinate: the candidate
        # with the largest x must win.
        s = NeighborStore(1)
        xs = np.linspace(0, 1, 201)
        s.extend(xs[:, None], xs)
        cands = np.array([[[0.1], [0.9], [0.5]]])
        cols = s.select_oversampled(cands, k=1)
        assert cols.tolist() == [1]
        assert cands[0, cols[0], 0] == pytest.approx(0.9)

    def test_selection_dominance(self):
        rng = np.random.default_rng(3)
        s = NeighborStore(3)
        s.extend(rng.random((100, 3)), rng.random(100))
        cands = rng.random((10, 5, 3))
        cols = s.select_oversampled(cands, k=7)
        for row in range(10):
            best = s.estimate(cands[row, cols[row]], 7)
            for col in range(5):
                assert best >= s.estimate(cands[row, col], 7) - 1e-12
