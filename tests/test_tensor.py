import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carsopt.engine import iteration_rng
from carsopt.tensor import OPTIMISTIC_INIT, SubdomainTensor, TensorError
from dense_view import cells, effective, entry_of_cells, flat, grid, probabilities, set_cells


class TestSizeLaw:
    @pytest.mark.parametrize(
        "n_dim,n_sub,expected",
        [(6, 10, 1_000_000), (9, 9, 387_420_489), (9, 8, 134_217_728)],
    )
    def test_cell_counts(self, n_dim, n_sub, expected):
        assert n_sub**n_dim == expected

    def test_construction_reports_size(self):
        t = SubdomainTensor(6, 10)
        assert t.n_cells == 1_000_000

    def test_flat_index_overflow(self):
        # Only an int64 flat index bounds the size: 9^10 cells construct.
        assert SubdomainTensor(10, 9).n_cells == 9**10
        with pytest.raises(TensorError, match="int64"):
            SubdomainTensor(20, 9)


class TestIndexing:
    """Cells are stored under their block-major numbers (see ``Entries``)."""

    def test_flat_index_2d(self):
        # Without pooling a block is one cell: the row-major flat index.
        t = SubdomainTensor(2, 9)
        t.update_fitness((2, 3), 0.5)
        assert t.keys.tolist() == [21]

    def test_origin(self):
        t = SubdomainTensor(4, 9, 3)
        t.update_fitness((0, 0, 0, 0), 0.5)
        assert t.keys.tolist() == [0]

    def test_inverse(self):
        # (2, 3) is cell (2, 0) of block (0, 1) in 3-wide blocks: 1 * 9 + 6.
        t = SubdomainTensor(2, 9, 3)
        t.update_fitness((2, 3), 0.5)
        assert t.keys.tolist() == [15]
        entries = t.effective_cells()
        one = dataclasses.replace(entries, values=np.eye(len(entries))[0])
        assert t.sample_subdomains(one, 3, np.random.default_rng(0)).tolist() == [[2, 3]] * 3

    @given(st.integers(0, 9**3 - 1), st.sampled_from([0, 3]))
    def test_bijection(self, cell, n_pool):
        # A stored cell's number decodes back to its multi-index in a draw.
        t = SubdomainTensor(3, 9, n_pool)
        mi = np.unravel_index(cell, (9,) * 3)
        t.update_fitness(mi, 0.5)
        entries = t.effective_cells()
        one = dataclasses.replace(entries, values=np.eye(len(entries))[0])
        assert flat(t, t.sample_subdomains(one, 1, np.random.default_rng(0))).tolist() == [cell]

    def test_out_of_range(self):
        t = SubdomainTensor(2, 9)
        with pytest.raises(TensorError):
            t.update_fitness((9, 0), 0.5)
        with pytest.raises(TensorError):
            t.update_fitness((1, 2, 3), 0.5)


class TestUpdate:
    def test_first_observation_overwrites_prior(self):
        t = SubdomainTensor(1, 9)
        t.update_fitness((0,), 0.2)
        assert cells(t)[0][0] == pytest.approx(0.2)

    def test_max_after_first(self):
        t = SubdomainTensor(1, 9)
        t.update_fitness((0,), 0.2)
        t.update_fitness((0,), 0.9)
        assert cells(t)[0][0] == pytest.approx(0.9)
        t.update_fitness((0,), 0.2)
        assert cells(t)[0][0] == pytest.approx(0.9)

    def test_nan_rejected(self):
        t = SubdomainTensor(1, 9)
        with pytest.raises(TensorError):
            t.update_fitness((0,), float("nan"))

    def test_idempotent(self):
        t1, t2 = SubdomainTensor(2, 9), SubdomainTensor(2, 9)
        t1.update_fitness((1, 2), 0.4)
        t2.update_fitness((1, 2), 0.4)
        t2.update_fitness((1, 2), 0.4)
        assert np.array_equal(cells(t1), cells(t2))

    def test_batch_matches_sequential(self):
        rng = np.random.default_rng(0)
        mis = rng.integers(0, 9, size=(200, 2))
        fs = rng.random(200)
        t1, t2 = SubdomainTensor(2, 9), SubdomainTensor(2, 9)
        t1.update_many(mis, fs)
        for mi, f in zip(mis, fs):
            t2.update_fitness(tuple(mi), f)
        assert np.array_equal(cells(t1), cells(t2))
        assert np.array_equal(t1.keys, t2.keys) and np.array_equal(t1.values, t2.values)


class TestSoftmax:
    def test_worked_example(self):
        t = SubdomainTensor(1, 3)
        t.update_many(np.array([[0], [1], [2]]), np.array([1.0, 0.75, 0.0]))
        probs = probabilities(t, alpha=1.0)
        assert probs == pytest.approx([0.4658, 0.3628, 0.1714], abs=1e-3)

    def test_alpha_zero_uniform(self):
        t = SubdomainTensor(2, 9)
        t.update_many(np.array([[0, 0], [5, 5]]), np.array([10.0, -3.0]))
        assert len(t.softmax_probabilities(alpha=0.0)) == 1
        assert np.all(probabilities(t, alpha=0.0) == 1.0 / 81)

    def test_constant_cells_uniform(self):
        t = SubdomainTensor(2, 3)
        probs = probabilities(t, alpha=7.0)
        assert probs == pytest.approx(np.full(9, 1 / 9), abs=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(1)
        t = SubdomainTensor(3, 9)
        set_cells(t, rng.random(t.n_cells))
        for alpha in (0.5, 5.0, 50.0):
            assert abs(probabilities(t, alpha).sum() - 1.0) < 1e-9

    def test_monotonicity(self):
        rng = np.random.default_rng(2)
        t = SubdomainTensor(2, 9)
        set_cells(t, rng.random(81))
        probs = probabilities(t, alpha=3.0)
        order_cells = np.argsort(cells(t)[0], kind="stable")
        assert np.all(np.diff(probs[order_cells]) >= 0)

    def test_negative_alpha_rejected(self):
        t = SubdomainTensor(1, 3)
        with pytest.raises(TensorError):
            t.softmax_probabilities(alpha=-1.0)

    @pytest.mark.parametrize("alpha,cell", [(1e308, 1.0), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_non_finite_exponent_rejected(self, alpha, cell):
        # 1e308 times the observed cell's pooled value of 2.0 overflows:
        # without the check the masses are [nan, 0, 0] and every draw lands
        # in that cell.
        t = SubdomainTensor(1, 9, 3)
        t.update_fitness([0], cell)
        with pytest.raises(TensorError, match="not finite"):
            t.softmax_probabilities(alpha)

    def test_masses_are_libm_exponents(self):
        # Each live entry's mass is its count times math.exp of its exponent,
        # bit for bit, whatever SIMD kernels numpy picks for np.exp.
        t = SubdomainTensor(3, 9, 3)
        spread_cells(t, np.random.default_rng(3))
        entries = t.effective_cells()
        z = entries.values.astype(np.float64) * 2.5
        z -= z[entries.counts > 0].max()
        want = [n * math.exp(v) if n else 0.0 for n, v in zip(entries.counts.tolist(), z.tolist())]
        got = t.softmax_probabilities(2.5).values.tolist()
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_large_values_stable(self):
        t = SubdomainTensor(1, 3)
        t.update_many(np.array([[0], [1], [2]]), np.array([1000.0, 999.0, 0.0]))
        probs = probabilities(t, alpha=10.0)
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


# Oracle: the dense implementation the sparse tensor replaced, on a float32
# array of every cell.  Effective values must match it bit for bit, and
# per-cell probabilities to 1e-12 (the sparse masses sum in another order).

def dense_max_pool(cells, n_dim, n_sub, n_pool):
    blocks = n_sub // n_pool
    pooled = cells.reshape(sum(((blocks, n_pool),) * n_dim, ()))
    for axis in range(n_dim):
        pooled = pooled.max(axis=axis + 1)
    return pooled.reshape(-1)


def dense_effective_cells(cells, n_dim, n_sub, n_pool):
    if not n_pool:
        return cells
    blocks = n_sub // n_pool
    pooled = dense_max_pool(cells, n_dim, n_sub, n_pool).reshape((blocks,) * n_dim)
    for axis in range(n_dim):
        pooled = pooled.repeat(n_pool, axis=axis)
    return cells + pooled.reshape(-1)


def dense_softmax(cells, n_dim, n_sub, alpha, n_pool=None):
    if alpha == 0:
        return np.full(len(cells), 1.0 / len(cells))
    z = dense_effective_cells(cells, n_dim, n_sub, n_pool).astype(np.float64) * alpha
    z -= z.max()
    e = np.exp(z)
    return e / e.sum(dtype=np.float64)


def dense_draw(probs, n, rng):
    cdf = np.cumsum(probs, dtype=np.float64)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), len(probs) - 1)


def spread_cells(t, rng):
    """Observe a quarter of ``t``'s cells (with repeats)."""
    n = max(1, t.n_cells // 4)
    t.update_many(grid(t)[rng.integers(0, t.n_cells, size=n)], rng.normal(0.0, 2.0, n))


class TestMaxPool:
    def test_pool_counts_8x8(self):
        # One observed cell in each of the four 4x4 blocks: four entries of
        # 15 plain cells each, and none left for blocks holding no special.
        t = SubdomainTensor(2, 8, 4)
        t.update_many(np.array([[0, 0], [0, 4], [4, 0], [7, 7]]), np.ones(4))
        entries = t.effective_cells()
        assert len(entries.blocks) == 4
        assert entries.counts.tolist() == [1] * 4 + [15] * 4 + [0]

    def test_1d_hand_example(self):
        t = SubdomainTensor(1, 6, 3)
        t.update_many(np.array([[3], [4]]), np.array([0.9, 0.2]))
        assert effective(t) == pytest.approx([1.5, 1.5, 1.5, 1.8, 1.1, 1.65])
        assert len(t.effective_cells()) == 4  # two special cells, block 1's plain cell, block 0

    def test_constant_tensor(self):
        t = SubdomainTensor(2, 9, 3)
        assert len(t.effective_cells()) == 1
        assert effective(t) == pytest.approx(np.full(81, 2 * OPTIMISTIC_INIT))

    def test_non_divisible_rejected(self):
        for n_pool in (4, -3):
            with pytest.raises(TensorError, match="n_pool"):
                SubdomainTensor(2, 9, n_pool)

    @pytest.mark.parametrize("n_dim,n_sub,n_pool", [(1, 6, 3), (2, 9, 3), (3, 6, 2), (3, 9, 3)])
    def test_oracle_equivalence(self, n_dim, n_sub, n_pool):
        rng = np.random.default_rng(n_dim * 100 + n_sub)
        for _ in range(25):
            t = SubdomainTensor(n_dim, n_sub, n_pool)
            spread_cells(t, rng)
            values = cells(t)[0]
            want = dense_effective_cells(values, n_dim, n_sub, n_pool)
            assert np.array_equal(effective(t), want)


class TestSampling:
    def test_degenerate_distribution(self):
        t = SubdomainTensor(1, 3)
        t.update_fitness((0,), 100.0)
        mis = t.sample_subdomains(t.softmax_probabilities(1.0), 5, np.random.default_rng(0))
        assert np.all(mis == 0)

    def test_uniform_counts_within_5_sigma(self):
        t = SubdomainTensor(2, 3)
        t.update_many(np.array([[0, 0], [2, 1]]), np.array([5.0, -5.0]))
        mis = t.sample_subdomains(t.softmax_probabilities(0.0), 90_000, np.random.default_rng(7))
        counts = np.bincount(flat(t, mis), minlength=9)
        sigma = np.sqrt(90_000 * (1 / 9) * (8 / 9))
        assert np.all(np.abs(counts - 10_000) < 5 * sigma)

    def test_deterministic_golden_sequence(self):
        # Masses 3 : 1 pick their entries as the oracle picks cells of
        # probability 0.75 and 0.25.
        golden = [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]
        assert dense_draw(np.array([0.75, 0.25]), 10, iteration_rng(42, 0)).tolist() == golden
        t = SubdomainTensor(1, 2)
        t.update_many(np.array([[0], [1]]), np.array([np.log(3.0), 0.0]))
        mis = t.sample_subdomains(t.softmax_probabilities(1.0), 10, iteration_rng(42, 0))
        assert mis.ravel().tolist() == golden

    def test_frequencies_match_the_oracle(self):
        # 200k seeded draws over a pooled 3-D tensor with observed cells and
        # plain ones: chi-square against the oracle's per-cell probabilities,
        # at the 1e-4 upper quantile (Wilson-Hilferty).
        rng = np.random.default_rng(3)
        t = SubdomainTensor(3, 6, 3)
        spread_cells(t, rng)
        want = dense_softmax(cells(t)[0], 3, 6, 0.5, 3)
        mis = t.sample_subdomains(t.softmax_probabilities(0.5), 200_000, np.random.default_rng(4))
        counts = np.bincount(flat(t, mis), minlength=t.n_cells)
        expected = 200_000 * want
        assert expected.min() > 5
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        df = t.n_cells - 1
        bound = df * (1 - 2 / (9 * df) + 3.719 * np.sqrt(2 / (9 * df))) ** 3
        assert chi2 < bound

    @settings(max_examples=40, deadline=None)
    @given(n_pool=st.sampled_from([0, 1, 3]), seed=st.integers(0, 2**32 - 1))
    def test_each_entry_draws_only_its_own_cells(self, n_pool, seed):
        # A draw from an entry lands in that entry's cells: never on a special
        # cell from a plain-cell entry, never in another block.
        rng = np.random.default_rng(seed)
        t = SubdomainTensor(3, 6, n_pool)
        spread_cells(t, rng)
        entries = t.effective_cells()
        owner = entry_of_cells(t, entries)
        for e in np.flatnonzero(entries.counts):
            one = np.zeros(len(entries))
            one[e] = 1.0
            mis = t.sample_subdomains(dataclasses.replace(entries, values=one), 30, rng)
            assert np.all(owner[flat(t, mis)] == e)


@settings(max_examples=30, deadline=None)
@given(
    n_dim=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_pooling_property(n_dim, seed):
    rng = np.random.default_rng(seed)
    t = SubdomainTensor(n_dim, 9, 3)
    set_cells(t, rng.random(t.n_cells))
    values = cells(t)[0]
    pooled = brute_force_pool(values, n_dim, 9, 3)
    blocks = np.ravel_multi_index(tuple((grid(t) // 3).T), (3,) * n_dim)
    assert np.array_equal(effective(t), values + pooled[blocks])


@st.composite
def tensor_cases(draw):
    n_dim = draw(st.integers(1, 6))
    n_pool = draw(st.sampled_from([0, 1, 2, 3]))
    step = max(n_pool, 1)
    widths = [s for s in range(step, 13, step) if s >= 2 and s**n_dim <= 4096]
    return n_dim, draw(st.sampled_from(widths)), n_pool


class TestBitIdentity:
    @settings(max_examples=100, deadline=None)
    @given(
        case=tensor_cases(),
        alpha=st.sampled_from([0.0, 0.5, 7.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, case, alpha, seed):
        n_dim, n_sub, n_pool = case
        rng = np.random.default_rng(seed)
        t = SubdomainTensor(n_dim, n_sub, n_pool)
        spread_cells(t, rng)
        values = cells(t)[0]
        entries = t.effective_cells()
        assert np.array_equal(np.bincount(entry_of_cells(t, entries), minlength=len(entries)), entries.counts)
        assert np.array_equal(effective(t), dense_effective_cells(values, n_dim, n_sub, n_pool))
        want = dense_softmax(values, n_dim, n_sub, alpha, n_pool)
        np.testing.assert_allclose(probabilities(t, alpha), want, rtol=1e-12, atol=0)
        # Draws land only where the oracle puts probability.
        mis = t.sample_subdomains(t.softmax_probabilities(alpha), 500, rng)
        assert np.all(want[flat(t, mis)] > 0)
        assert np.array_equal(cells(t)[0], values)
