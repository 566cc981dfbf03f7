import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carsopt import tensor as tensor_module
from carsopt.engine import iteration_rng
from carsopt.tensor import OPTIMISTIC_INIT, SubdomainTensor, TensorError


class TestSizeLaw:
    @pytest.mark.parametrize(
        "n_dim,n_sub,expected",
        [(6, 10, 1_000_000), (9, 9, 387_420_489), (9, 8, 134_217_728)],
    )
    def test_cell_counts(self, n_dim, n_sub, expected):
        # Only count, never allocate the big ones here.
        assert n_sub**n_dim == expected

    def test_construction_reports_size(self):
        t = SubdomainTensor(6, 10)
        assert t.n_cells == 1_000_000

    def test_cell_cap(self):
        with pytest.raises(TensorError, match="cell cap"):
            SubdomainTensor(10, 9)


class TestIndexing:
    def test_flat_index_2d(self):
        t = SubdomainTensor(2, 9)
        assert t.flat_index((2, 3)) == 21

    def test_origin(self):
        t = SubdomainTensor(4, 9)
        assert t.flat_index((0, 0, 0, 0)) == 0

    def test_inverse(self):
        t = SubdomainTensor(2, 9)
        assert t.multi_indices([21]).tolist() == [[2, 3]]

    @given(st.integers(0, 9**3 - 1))
    def test_bijection(self, flat):
        t = SubdomainTensor(3, 9)
        assert t.flat_index(t.multi_indices(flat)) == flat

    def test_out_of_range(self):
        t = SubdomainTensor(2, 9)
        with pytest.raises(TensorError):
            t.flat_index((9, 0))


class TestUpdate:
    def test_first_observation_overwrites_prior(self):
        t = SubdomainTensor(1, 9)
        t.update_fitness((0,), 0.2)
        assert t.cells[0] == pytest.approx(0.2)

    def test_max_after_first(self):
        t = SubdomainTensor(1, 9)
        t.update_fitness((0,), 0.2)
        t.update_fitness((0,), 0.9)
        assert t.cells[0] == pytest.approx(0.9)
        t.update_fitness((0,), 0.2)
        assert t.cells[0] == pytest.approx(0.9)

    def test_nan_rejected(self):
        t = SubdomainTensor(1, 9)
        with pytest.raises(TensorError):
            t.update_fitness((0,), float("nan"))

    def test_idempotent(self):
        t1, t2 = SubdomainTensor(2, 9), SubdomainTensor(2, 9)
        t1.update_fitness((1, 2), 0.4)
        t2.update_fitness((1, 2), 0.4)
        t2.update_fitness((1, 2), 0.4)
        assert np.array_equal(t1.cells, t2.cells)

    def test_batch_matches_sequential(self):
        rng = np.random.default_rng(0)
        mis = rng.integers(0, 9, size=(200, 2))
        fs = rng.random(200)
        t1, t2 = SubdomainTensor(2, 9), SubdomainTensor(2, 9)
        t1.update_many(mis, fs)
        for mi, f in zip(mis, fs):
            t2.update_fitness(tuple(mi), f)
        assert np.array_equal(t1.cells, t2.cells)


class TestSoftmax:
    def test_worked_example(self):
        t = SubdomainTensor(1, 3)
        t.update_many(np.array([[0], [1], [2]]), np.array([1.0, 0.75, 0.0]))
        probs = t.softmax_probabilities(alpha=1.0)
        assert probs == pytest.approx([0.4658, 0.3628, 0.1714], abs=1e-3)

    def test_alpha_zero_uniform(self):
        t = SubdomainTensor(2, 9)
        t.update_many(np.array([[0, 0], [5, 5]]), np.array([10.0, -3.0]))
        probs = t.softmax_probabilities(alpha=0.0)
        assert np.all(probs == 1.0 / 81)

    def test_constant_cells_uniform(self):
        t = SubdomainTensor(2, 3)
        probs = t.softmax_probabilities(alpha=7.0)
        assert probs == pytest.approx(np.full(9, 1 / 9), abs=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(1)
        t = SubdomainTensor(3, 9)
        t.cells = rng.random(t.n_cells).astype(np.float32)
        for alpha in (0.5, 5.0, 50.0):
            assert abs(t.softmax_probabilities(alpha).sum() - 1.0) < 1e-9

    def test_monotonicity(self):
        rng = np.random.default_rng(2)
        t = SubdomainTensor(2, 9)
        t.cells = rng.random(81).astype(np.float32)
        probs = t.softmax_probabilities(alpha=3.0)
        order_cells = np.argsort(t.cells, kind="stable")
        assert np.all(np.diff(probs[order_cells]) >= 0)

    def test_negative_alpha_rejected(self):
        t = SubdomainTensor(1, 3)
        with pytest.raises(TensorError):
            t.softmax_probabilities(alpha=-1.0)

    def test_large_values_stable(self):
        t = SubdomainTensor(1, 3)
        t.update_many(np.array([[0], [1], [2]]), np.array([1000.0, 999.0, 0.0]))
        probs = t.softmax_probabilities(alpha=10.0)
        assert np.all(np.isfinite(probs)) and abs(probs.sum() - 1.0) < 1e-9


def brute_force_pool(cells, n_dim, n_sub, n_pool):
    """Nested-loop block-max oracle."""
    blocks = n_sub // n_pool
    pooled = np.empty(blocks**n_dim, dtype=cells.dtype)
    grid = cells.reshape((n_sub,) * n_dim)
    for out_idx, block in enumerate(itertools.product(range(blocks), repeat=n_dim)):
        best = -np.inf
        for offset in itertools.product(range(n_pool), repeat=n_dim):
            coord = tuple(b * n_pool + o for b, o in zip(block, offset))
            best = max(best, grid[coord])
        pooled[out_idx] = best
    return pooled


class TestMaxPool:
    def test_pool_counts_8x8(self):
        t = SubdomainTensor(2, 8)
        assert len(t.max_pool(4)) == 4

    def test_1d_hand_example(self):
        t = SubdomainTensor(1, 6)
        t.update_many(np.array([[3], [4]]), np.array([0.9, 0.2]))
        assert t.max_pool(3) == pytest.approx([0.75, 0.9])
        assert t.effective_cells(3) == pytest.approx([1.5, 1.5, 1.5, 1.8, 1.1, 1.65])

    def test_constant_tensor(self):
        t = SubdomainTensor(2, 9)
        assert t.effective_cells(3) == pytest.approx(np.full(81, 2 * OPTIMISTIC_INIT))

    def test_non_divisible_rejected(self):
        t = SubdomainTensor(2, 9)
        with pytest.raises(TensorError):
            t.max_pool(4)

    @pytest.mark.parametrize("n_dim,n_sub,n_pool", [(1, 6, 3), (2, 9, 3), (3, 6, 2), (3, 9, 3)])
    def test_oracle_equivalence(self, n_dim, n_sub, n_pool):
        rng = np.random.default_rng(n_dim * 100 + n_sub)
        for _ in range(25):
            t = SubdomainTensor(n_dim, n_sub)
            t.cells = rng.random(t.n_cells).astype(np.float32)
            assert np.array_equal(t.max_pool(n_pool), brute_force_pool(t.cells, n_dim, n_sub, n_pool))


class TestSampling:
    def test_degenerate_distribution(self):
        t = SubdomainTensor(1, 3)
        mis = t.sample_subdomains(np.array([1.0, 0.0, 0.0]), 5, np.random.default_rng(0))
        assert np.all(mis == 0)

    def test_uniform_counts_within_5_sigma(self):
        t = SubdomainTensor(2, 3)
        probs = np.full(9, 1 / 9)
        mis = t.sample_subdomains(probs, 90_000, np.random.default_rng(7))
        flats = t.flat_indices(mis)
        counts = np.bincount(flats, minlength=9)
        sigma = np.sqrt(90_000 * (1 / 9) * (8 / 9))
        assert np.all(np.abs(counts - 10_000) < 5 * sigma)

    def test_deterministic_golden_sequence(self):
        t = SubdomainTensor(1, 2)
        rng = iteration_rng(42, 0)
        mis = t.sample_subdomains(np.array([0.75, 0.25]), 10, rng)
        assert mis.ravel().tolist() == [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]


class TestSeedPrior:
    def test_default_prior_identity(self):
        t1, t2 = SubdomainTensor(2, 3), SubdomainTensor(2, 3)
        t2.seed_prior(np.full(9, OPTIMISTIC_INIT))
        assert np.array_equal(t1.cells, t2.cells)

    def test_prior_probability_ratio(self):
        alpha = 2.0
        t = SubdomainTensor(1, 4)
        t.seed_prior(np.array([0.0, 0.0, 0.75, 0.75]))
        probs = t.softmax_probabilities(alpha)
        assert probs[2] / probs[0] == pytest.approx(np.exp(0.75 * alpha), rel=1e-5)

    def test_dominant_prior_cell(self):
        t = SubdomainTensor(2, 3)
        prior = np.full(9, 0.75)
        prior[4] = 10.0
        t.seed_prior(prior)
        probs = t.softmax_probabilities(alpha=5.0)
        assert probs[4] > 0.999

    def test_seeded_cells_still_untouched(self):
        t = SubdomainTensor(1, 3)
        t.seed_prior(np.array([5.0, 5.0, 5.0]))
        t.update_fitness((0,), 0.1)
        assert t.cells[0] == pytest.approx(0.1)

    def test_rejected_after_updates(self):
        t = SubdomainTensor(1, 3)
        t.update_fitness((0,), 0.1)
        with pytest.raises(TensorError):
            t.seed_prior(np.zeros(3))


@settings(max_examples=30, deadline=None)
@given(
    n_dim=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_pooling_property(n_dim, seed):
    rng = np.random.default_rng(seed)
    t = SubdomainTensor(n_dim, 9)
    t.cells = rng.random(t.n_cells).astype(np.float32)
    assert np.array_equal(t.max_pool(3), brute_force_pool(t.cells, n_dim, 9, 3))


# Reference: the allocating implementation of effective_cells,
# softmax_probabilities and sample_subdomains that the single-buffer code
# replaced.  Probabilities and draws must match it bit for bit.

def reference_effective_cells(t, n_pool):
    if not n_pool:
        return t.cells
    blocks = t.n_sub // n_pool
    pooled = t.max_pool(n_pool).reshape((blocks,) * t.n_dim)
    for axis in range(t.n_dim):
        pooled = pooled.repeat(n_pool, axis=axis)
    return t.cells + pooled.reshape(-1)


def reference_softmax(t, alpha, n_pool=None):
    if alpha == 0:
        return np.full(t.n_cells, 1.0 / t.n_cells)
    eff = reference_effective_cells(t, n_pool).astype(np.float64)
    z = eff * alpha
    z -= z.max()
    e = np.exp(z)
    return e / e.sum(dtype=np.float64)


def reference_draw(t, probs, n, rng):
    cdf = np.cumsum(probs, dtype=np.float64)
    cdf /= cdf[-1]
    flats = np.searchsorted(cdf, rng.random(n), side="right")
    np.clip(flats, 0, t.n_cells - 1, out=flats)
    return t.multi_indices(flats)


@st.composite
def tensor_cases(draw):
    n_dim = draw(st.integers(1, 7))
    max_sub = int(round(100_000 ** (1 / n_dim)))
    n_pool = draw(st.integers(1, 3))
    blocks = draw(st.integers(2 if n_pool == 1 else 1, max(1, max_sub // n_pool)))
    pooling = draw(st.booleans())
    return n_dim, n_pool * blocks, n_pool if pooling else None


class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        case=tensor_cases(),
        prior=st.booleans(),
        alpha=st.floats(1e-3, 50.0),
        row=st.sampled_from([1, 7, 64, tensor_module._ROW_ELEMENTS]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, case, prior, alpha, row, seed):
        n_dim, n_sub, n_pool = case
        rng = np.random.default_rng(seed)
        t = SubdomainTensor(n_dim, n_sub)
        if prior:
            t.seed_prior(rng.normal(OPTIMISTIC_INIT, 0.5, t.n_cells))
        n = max(1, t.n_cells // 4)
        mis = t.multi_indices(rng.integers(0, t.n_cells, size=n))
        # The row length sets how much of the pooling overlay is repeated
        # before it broadcasts; small rows reach the block-wise path.
        with mock.patch.object(tensor_module, "_ROW_ELEMENTS", row):
            for a in (0.0, alpha):
                t.update_many(mis, rng.normal(0.0, 2.0, len(mis)))
                cells = t.cells.copy()
                want = reference_softmax(t, a, n_pool)
                got = t.softmax_probabilities(a, n_pool)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                assert np.array_equal(t.cells, cells) and not np.shares_memory(got, t.cells)
                draw_seed = int(rng.integers(2**32))
                want_mis = reference_draw(t, want, 3 * n, np.random.default_rng(draw_seed))
                mis = t.sample_subdomains(got, 3 * n, np.random.default_rng(draw_seed))
                assert np.array_equal(mis, want_mis)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
