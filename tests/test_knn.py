import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import carsopt
from carsopt import knn
from carsopt.engine import RunConfig
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

    def test_queries_split_into_blocks(self, monkeypatch):
        # Blocks of 12 queries here (100 // (k + 1)); lattice ties put
        # fallback rows between the proven ones.
        monkeypatch.setattr(knn, "_BLOCK_ELEMENTS", 100)
        rng = np.random.default_rng(10)
        pts = np.vstack([rng.random((150, 4)), rng.integers(0, 3, (50, 4)) / 2])
        fit = rng.random(200)
        queries = np.vstack([rng.random((40, 4)), rng.integers(0, 3, (20, 4)) / 2])[rng.permutation(60)]
        s = NeighborStore(4)
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

    @settings(max_examples=200, deadline=None)
    @given(
        n_dim=st.integers(1, 12),
        m=st.integers(2, 60),
        k=st.integers(1, 30),
        scale=st.sampled_from([1.0, 10.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_near_duplicates_and_far_queries(self, n_dim, m, k, scale, seed):
        # Stored points about 1e-12 apart put distances within the prefilter's
        # rounding margin; queries up to |q| = 1e3 widen that margin.
        rng = np.random.default_rng(seed)
        base = rng.random((max(1, m // 4), n_dim))
        pts = np.clip(base[rng.integers(0, len(base), m)] + rng.integers(-3, 4, (m, n_dim)) * 1e-12, 0, 1)
        near = pts[rng.integers(0, m, 10)] + rng.integers(-3, 4, (10, n_dim)) * 1e-12
        far = (rng.random((15, n_dim)) - 0.5) * 2 * scale
        queries = np.vstack([near, far])
        fit = rng.random(m)
        s = NeighborStore(n_dim)
        s.extend(pts, fit)
        assert np.array_equal(s.estimate_many(queries, k), reference_estimate_many(pts, fit, queries, k))

    @pytest.mark.parametrize("n_dim", [1, 2, 6])
    def test_overflowing_queries_match_reference(self, n_dim):
        rng = np.random.default_rng(n_dim)
        pts = rng.random((40, n_dim))
        fit = rng.random(40)
        big = np.sqrt(np.finfo(float).max)  # the squared norm sits at the overflow edge
        rows = [1e200, -1e200, np.inf, -np.inf, big, -big, 1e150, -1e150]
        queries = rng.random((len(rows), n_dim))
        queries[:, 0] = rows
        s = NeighborStore(n_dim)
        s.extend(pts, fit)
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_estimate_many(pts, fit, queries, 5)
            got = s.estimate_many(queries, 5)
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("layout", ["random", "lattice", "near_duplicate"])
    def test_margin_absorbs_any_summation_order(self, layout, monkeypatch):
        # Shift every Gram distance by up to half the margin, as a BLAS with
        # another summation order might: the estimates must not move.
        rng = np.random.default_rng(["random", "lattice", "near_duplicate"].index(layout))
        gram_distances, prefilter, proven_rows = knn._gram_distances, knn._prefilter, []

        def perturbed(lifted, gram):  # lifted rows are [q, ‖q‖², 1]
            approx = gram_distances(lifted, gram)
            half = knn._margin(lifted[:, :-2], np.sqrt(gram[-1].max()))[:, None] / 2
            return approx + rng.uniform(-1, 1, approx.shape) * half

        def counted(queries, gram, max_norm, k):
            cols, proven = prefilter(queries, gram, max_norm, k)
            proven_rows.append(int(proven.sum()))
            return cols, proven

        monkeypatch.setattr(knn, "_gram_distances", perturbed)
        monkeypatch.setattr(knn, "_prefilter", counted)
        for n_dim in (1, 3, 6, 9):
            for m in (20, 300):
                if layout == "lattice":
                    pts = rng.integers(0, 3, (m, n_dim)) / 2
                    queries = rng.integers(0, 3, (50, n_dim)) / 2
                elif layout == "near_duplicate":
                    base = rng.random((m // 5, n_dim))
                    pts = base[rng.integers(0, len(base), m)] + rng.normal(0, 1e-12, (m, n_dim))
                    pts = np.clip(pts, 0, 1)
                    queries = pts[rng.integers(0, m, 50)] + rng.normal(0, 1e-12, (50, n_dim))
                else:
                    pts = rng.random((m, n_dim))
                    queries = rng.random((50, n_dim))
                fit = rng.random(m)
                s = NeighborStore(n_dim)
                s.extend(pts, fit)
                for k in (1, 7):
                    want = reference_estimate_many(pts, fit, queries, k)
                    assert np.array_equal(s.estimate_many(queries, k), want)
        assert sum(proven_rows) > 0  # the shifted distances still reach the fast path

    def test_estimate_is_estimate_many_row(self):
        rng = np.random.default_rng(9)
        s = NeighborStore(4)
        s.extend(rng.random((40, 4)), rng.random(40))
        queries = rng.random((6, 4))
        batch = s.estimate_many(queries, 9)
        assert [s.estimate(q, 9) for q in queries] == batch.tolist()


def prefilter_proves(pts, queries, k):
    """Per query, whether the prefilter proves its k nearest among ``pts``."""
    gram = knn._gram(pts.T)
    return knn._prefilter(queries, gram, np.sqrt(gram[-1].max()), k)[1]


class TestPrefilter:
    def fallback_rows(self, monkeypatch):
        # Only fallback rows get exact distances, to every point; a proven
        # row is averaged in key order and calls _squared_distances never.
        rows, squared_distances = [], knn._squared_distances

        def counted(queries, points):
            rows.append(len(queries))
            return squared_distances(queries, points)

        monkeypatch.setattr(knn, "_squared_distances", counted)
        return rows

    @pytest.mark.parametrize("name,n_dim,n_total", [("sphere_ring", 6, 1500), ("boost", 3, 5000)])
    def test_seeded_runs_compute_no_exact_distance(self, name, n_dim, n_total, monkeypatch):
        # The fallback serves degenerate inputs only: the prefilter proves
        # every row a seeded run scores, pooling and oversampling on.
        fallback = self.fallback_rows(monkeypatch)
        prefiltered, prefilter = [], knn._prefilter

        def counted(queries, gram, max_norm, k):
            prefiltered.append(len(queries))
            return prefilter(queries, gram, max_norm, k)

        monkeypatch.setattr(knn, "_prefilter", counted)
        spec, ev = carsopt.builtin_problem(name, n_dim)
        carsopt.run(spec, RunConfig(n_total=n_total, seed=0), ev)
        assert sum(prefiltered) > 0
        assert fallback == []

    @pytest.mark.parametrize("n_dim,m,k", [(1, 20, 1), (3, 200, 7), (6, 1400, 13), (12, 500, 25)])
    def test_random_points_are_all_proven(self, n_dim, m, k, monkeypatch):
        rng = np.random.default_rng(m)
        pts, fit, queries = rng.random((m, n_dim)), rng.random(m), rng.random((300, n_dim))
        proven = prefilter_proves(pts, queries, k)
        assert proven.all()
        fallback = self.fallback_rows(monkeypatch)
        s = NeighborStore(n_dim)
        s.extend(pts, fit)
        assert np.array_equal(s.estimate_many(queries, k), reference_estimate_many(pts, fit, queries, k))
        assert sum(fallback) == 0

    def test_ties_and_nan_fall_back(self, monkeypatch):
        # Points 0 and 1 are equally far from the first query, so slot k = 1
        # holds an exact tie; the NaN query has no order at all.
        pts = np.array([[0.25, 0.5], [0.75, 0.5], [0.0, 0.0], [1.0, 1.0], [0.9, 0.1]])
        fit = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        queries = np.array([[0.5, 0.5], [np.nan, 0.5], [0.1, 0.1]])
        proven = prefilter_proves(pts, queries, 1)
        assert proven.tolist() == [False, False, True]
        fallback = self.fallback_rows(monkeypatch)
        s = NeighborStore(2)
        s.extend(pts, fit)
        got = s.estimate_many(queries, 1)
        assert np.array_equal(got, reference_estimate_many(pts, fit, queries, 1), equal_nan=True)
        assert got[0] == 1.0 and sum(fallback) == 2

    def test_lattice_ties_fall_back(self, monkeypatch):
        rng = np.random.default_rng(8)
        pts, fit = rng.integers(0, 3, (200, 3)) / 2, rng.random(200)
        queries = rng.integers(0, 3, (40, 3)) / 2
        proven = prefilter_proves(pts, queries, 7)
        assert not proven.all()
        fallback = self.fallback_rows(monkeypatch)
        s = NeighborStore(3)
        s.extend(pts, fit)
        assert np.array_equal(s.estimate_many(queries, 7), reference_estimate_many(pts, fit, queries, 7))
        assert sum(fallback) == int((~proven).sum())

    @pytest.mark.parametrize("m", [2, 64, 65, 1024, 1025, 2**16, 2**16 + 1])
    def test_packed_index_names_its_column(self, m, monkeypatch):
        # The index field is 16 bits wide up to 2**16 stored points and 32
        # bits past that; whatever the store's size, every proven row's
        # columns must be the reference's k nearest, in the reference's order.
        # The two large sizes take fewer queries to keep the dense d2 small.
        rng = np.random.default_rng(m)
        n_q = 200 if m <= 1025 else 20
        pts, fit, queries = rng.random((m, 3)), rng.random(m), rng.random((n_q, 3))
        k = min(5, m - 1)
        gram = knn._gram(pts.T)
        cols, proven = knn._prefilter(queries, gram, np.sqrt(gram[-1].max()), k)
        assert proven.all()
        d2 = ((queries[:, None, :] - pts[None]) ** 2).sum(axis=2)
        assert np.array_equal(cols, np.argsort(d2, axis=1, kind="stable")[:, :k])
        fallback = self.fallback_rows(monkeypatch)
        s = NeighborStore(3)
        s.extend(pts, fit)
        assert np.array_equal(s.estimate_many(queries, k), reference_estimate_many(pts, fit, queries, k))
        assert sum(fallback) == 0

    def test_duplicates_and_stored_queries(self, monkeypatch):
        # Queries equal to stored points have Gram distances of zero or a
        # little below, whose keys sort first; duplicated points tie exactly.
        rng = np.random.default_rng(12)
        pts = rng.random((300, 6))
        pts[200:] = pts[:100]  # the first 100 points are stored twice
        fit = rng.random(300)
        queries = np.vstack([pts[100:200], pts[:20]])  # stored once, then stored twice
        gram = knn._gram(pts.T)
        assert (knn._gram_distances(knn._lift(queries), gram) < 0).any()
        proven = prefilter_proves(pts, queries, 1)
        assert proven[:100].all() and not proven[100:].any()
        fallback = self.fallback_rows(monkeypatch)
        s = NeighborStore(6)
        s.extend(pts, fit)
        for k in (1, 2, 13):
            assert np.array_equal(s.estimate_many(queries, k), reference_estimate_many(pts, fit, queries, k))
        assert fallback[0] == 20

    def test_near_tie_inside_packing_slack_falls_back(self, monkeypatch):
        # From the query 0, points 0 and 1 are 0.25 and about 0.25 + 1e-13
        # away (squared): a gap wider than 2δ but narrower than what packing
        # a 16-bit index may move two keys by, 0.25 * 2**(16 - 51).
        far = np.linspace(0.6, 1.0, 1023)
        pts = np.concatenate([[0.5, 0.5 + 1e-13], far])[:, None]
        fit = np.arange(len(pts), dtype=float)
        queries = np.array([[0.0], [far[100] + 1e-4]])
        gap = pts[1, 0] ** 2 - pts[0, 0] ** 2
        assert 2 * knn._margin(queries[:1], 1.0)[0] < gap < 0.25 * 2.0 ** (16 - 51)
        assert prefilter_proves(pts, queries, 1).tolist() == [False, True]
        fallback = self.fallback_rows(monkeypatch)
        s = NeighborStore(1)
        s.extend(pts, fit)
        got = s.estimate_many(queries, 1)
        assert np.array_equal(got, reference_estimate_many(pts, fit, queries, 1))
        assert got[0] == 0.0 and sum(fallback) == 1

    def test_inner_near_tie_falls_back(self, monkeypatch):
        # From the query 0, points 1 and 0 are 0.25 and about 0.25 + 1e-13
        # away (squared): a near-tie inside the packing slack among the k = 3
        # nearest, whose boundary with point 5 (0.5625) is clear.  Their keys
        # share their high bits, so key order puts point 0 first, against
        # the exact order; the fitnesses make the two orders' means differ.
        pts = np.array([[0.5 + 1e-13], [0.5], [0.25], [0.9], [1.0], [0.75]])
        fit = np.array([-1e16, 0.5, 1e16, 7.0, 9.0, 3.0])
        queries = np.array([[0.0], [0.92]])
        assert prefilter_proves(pts, queries, 3).tolist() == [False, True]
        fallback = self.fallback_rows(monkeypatch)
        s = NeighborStore(1)
        s.extend(pts, fit)
        got = s.estimate_many(queries, 3)
        assert np.array_equal(got, reference_estimate_many(pts, fit, queries, 3))
        assert got[0] == 0.0 and sum(fallback) == 1

    def test_wide_index_field_matches_reference(self, monkeypatch):
        # 2**16 + 1 points are the fewest with a 32-bit index field; lattice
        # points, duplicates and stored queries put fallback rows among the
        # proven ones.
        rng = np.random.default_rng(16)
        m = 2**16 + 1
        pts = np.vstack([rng.random((m - 2000, 3)), rng.integers(0, 5, (1000, 3)) / 4, rng.random((1000, 3))])
        pts[-500:] = pts[:500]
        fit = rng.random(m)
        queries = np.vstack([rng.random((12, 3)), rng.integers(0, 5, (6, 3)) / 4, pts[rng.integers(0, m, 6)]])
        fallback = self.fallback_rows(monkeypatch)
        s = NeighborStore(3)
        s.extend(pts, fit)
        assert np.array_equal(s.estimate_many(queries, 7), reference_estimate_many(pts, fit, queries, 7))
        assert 0 < sum(fallback) < len(queries)

    def test_chunks_keep_a_floor_of_rows(self, monkeypatch):
        # Past 65,536 / _CHUNK_ROWS stored points the cache-sized chunk would
        # be under _CHUNK_ROWS rows; one GEMM and one partition per row is the
        # slowest way to run the prefilter.
        rows, gram_distances = [], knn._gram_distances

        def counted(lifted, gram):
            rows.append(len(lifted))
            return gram_distances(lifted, gram)

        monkeypatch.setattr(knn, "_gram_distances", counted)
        rng = np.random.default_rng(40)
        pts, fit = rng.random((40_000, 6)), rng.random(40_000)
        queries = rng.random((3 * knn._CHUNK_ROWS, 6))
        s = NeighborStore(6)
        s.extend(pts, fit)
        assert np.array_equal(s.estimate_many(queries, 13), reference_estimate_many(pts, fit, queries, 13))
        assert len(rows) == 3 and min(rows) >= knn._CHUNK_ROWS > 1


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

    def test_estimate_memory_is_bounded_by_blocks(self):
        # 40,000 queries would hold 13 MiB of (query, k+1) keys at k = 41, and
        # as much again in their order, gaps and fitnesses; blocks of at most
        # 2**18 keys (2 MiB) keep the call's peak below 16 MiB.
        rng = np.random.default_rng(11)
        s = NeighborStore(20)
        s.extend(rng.random((1000, 20)), rng.random(1000))
        queries = rng.random((40_000, 20))
        tracemalloc.start()
        try:
            s.estimate_many(queries, 41)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        # Lattice queries against 20,000 lattice points in 6-D all fall back;
        # chunks of at most 65,536 (rows, m, d) difference elements, but one
        # row, keep the peak under 4 MiB.
        pts, queries = rng.integers(0, 3, (20_000, 6)) / 2, rng.integers(0, 3, (200, 6)) / 2
        assert not prefilter_proves(pts, queries, 13).any()
        s = NeighborStore(6)
        s.extend(pts, rng.random(20_000))
        tracemalloc.start()
        try:
            s.estimate_many(queries, 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

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
