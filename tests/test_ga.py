import hashlib
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import carsopt as c
from carsopt import ga
from carsopt.engine import EngineError, read_log
from carsopt.ga import (
    IslandConfig,
    crowding_distance,
    gaussian_mutate,
    nondominated_sort,
    run_islands,
    sbx_crossover,
)
from carsopt.problem import ProblemError
from test_engine import sample_lines


def reference_nondominated_sort(objectives):
    """The per-index front peeling that the vectorized sort replaced."""
    objectives = np.asarray(objectives, dtype=float)
    n = len(objectives)
    ge = np.all(objectives[:, None, :] >= objectives[None, :, :], axis=2)
    gt = np.any(objectives[:, None, :] > objectives[None, :, :], axis=2)
    dom = ge & gt
    counts = dom.sum(axis=0)
    fronts = []
    assigned = np.zeros(n, dtype=bool)
    while not assigned.all():
        current = [i for i in range(n) if not assigned[i] and counts[i] == 0]
        if not current:
            current = [i for i in range(n) if not assigned[i]]
        fronts.append(current)
        for i in current:
            assigned[i] = True
            counts[dom[i]] -= 1
    return fronts


def reference_crowding_distance(objectives):
    """Crowding within one front, one objective at a time, as it was before
    every front was crowded in one call; an objective whose range is not
    finite adds nothing, as one that is constant."""
    objectives = np.asarray(objectives, dtype=float)
    n, m = objectives.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(m):
        order = np.argsort(objectives[:, j], kind="stable")
        lo, hi = objectives[order[0], j], objectives[order[-1], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        if hi == lo or not math.isfinite(float(hi) - float(lo)):
            continue
        gaps = (objectives[order[2:], j] - objectives[order[:-2], j]) / (hi - lo)
        dist[order[1:-1]] += gaps
    return dist


def brute_force_front0(objs):
    """Index set of points not dominated by any other (maximization)."""
    front = []
    for i, a in enumerate(objs):
        dominated = any(
            np.all(b >= a) and np.any(b > a) for j, b in enumerate(objs) if j != i
        )
        if not dominated:
            front.append(i)
    return sorted(front)


class TestNondominatedSort:
    def test_worked_example(self):
        objs = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 2.0]])
        fronts = nondominated_sort(objs)
        assert fronts == [[2], [1], [0]]

    def test_incomparable_share_front(self):
        objs = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert nondominated_sort(objs) == [[0, 1]]

    def test_duplicates_share_front(self):
        objs = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        fronts = nondominated_sort(objs)
        assert sorted(fronts[0]) == [0, 1]
        assert fronts[1] == [2]

    def test_partition(self):
        rng = np.random.default_rng(0)
        objs = rng.random((40, 3))
        fronts = nondominated_sort(objs)
        flat = sorted(i for f in fronts for i in f)
        assert flat == list(range(40))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(1, 60), m=st.integers(1, 4))
    def test_front0_oracle(self, seed, n, m):
        objs = np.random.default_rng(seed).random((n, m))
        assert sorted(nondominated_sort(objs)[0]) == brute_force_front0(objs)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_later_fronts_dominated(self, seed):
        # Every point in front k+1 is dominated by someone in front k.
        objs = np.random.default_rng(seed).random((30, 2))
        fronts = nondominated_sort(objs)
        for prev, cur in zip(fronts, fronts[1:]):
            for i in cur:
                assert any(
                    np.all(objs[j] >= objs[i]) and np.any(objs[j] > objs[i])
                    for j in prev
                )


def canonical_bits(x):
    """The bits of ``x`` with every NaN made +NaN: numpy's add returns either
    operand's NaN depending on the SIMD lane, so only a NaN's place is defined."""
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


objective_value = st.one_of(
    st.integers(-3, 3).map(float),  # ties and duplicates
    st.floats(-10, 10),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
objective_rows = st.integers(0, 4).flatmap(  # no objectives: only small fronts are crowded
    lambda m: st.lists(
        st.one_of(st.lists(objective_value, min_size=m, max_size=m), st.just([math.nan] * m)),
        min_size=1,
        max_size=30,
    )
)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(rows=objective_rows)
    @example(rows=[[0.0, 0.0], [1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])  # fronts of 2, 1 and 1 rows
    @example(rows=[[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])  # a front of duplicates
    @example(  # ±inf rows, and rows NaN in one objective only
        rows=[[math.inf, -math.inf], [math.inf, math.inf], [-math.inf, -math.inf], [0.0, 0.0],
              [math.inf, 0.0], [math.nan, 1.0], [1.0, math.nan], [-math.inf, math.nan]]
    )
    def test_fronts_and_crowding(self, rows):
        objs = np.array(rows)
        fronts = nondominated_sort(objs)
        assert fronts == reference_nondominated_sort(objs)
        rank = np.empty(len(objs), dtype=np.intp)
        want = np.empty(len(objs))
        with np.errstate(invalid="ignore"):
            for r, front in enumerate(fronts):
                rank[front] = r
                want[front] = reference_crowding_distance(objs[front])
            got = crowding_distance(objs, rank)
        assert np.array_equal(canonical_bits(got), canonical_bits(want))


class TestCrowding:
    def test_no_rows(self):
        assert nondominated_sort(np.empty((0, 2))) == []
        assert crowding_distance(np.empty((0, 2)), np.empty(0, dtype=np.intp)).shape == (0,)

    def test_small_front_all_infinite(self):
        assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0], [3.0, 0.0]]), np.zeros(2, dtype=np.intp))))

    def test_middle_of_three(self):
        d = crowding_distance(np.array([[0.0], [5.0], [10.0]]), np.zeros(3, dtype=np.intp))
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == pytest.approx(1.0)

    def test_degenerate_objective_ignored(self):
        d = crowding_distance(np.array([[0.0, 7.0], [5.0, 7.0], [10.0, 7.0]]), np.zeros(3, dtype=np.intp))
        assert d[1] == pytest.approx(1.0)

    def test_infinite_range_adds_nothing(self):
        # inf / inf would make the interior row NaN, with a RuntimeWarning.
        for column in ([0.0, 1.0, 2.0, np.inf], [-np.inf, 1.0, 2.0, np.inf], [-1e308, 1.0, 2.0, 1e308]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                d = crowding_distance(np.array(column)[:, None], np.zeros(4, dtype=np.intp))
            assert d.tolist() == [np.inf, 0.0, 0.0, np.inf]
        # Only the objective with the infinite range drops out.
        objs = np.array([[0.0, 0.0], [1.0, 5.0], [2.0, 7.0], [np.inf, 10.0]])
        d = crowding_distance(objs, np.zeros(4, dtype=np.intp))
        assert d[1:3].tolist() == [0.7, 0.5]

    def test_uneven_spacing(self):
        d = crowding_distance(np.array([[0.0], [1.0], [10.0]]), np.zeros(3, dtype=np.intp))
        assert d[1] == pytest.approx(1.0)  # (10 - 0) / (10 - 0)
        d = crowding_distance(np.array([[0.0], [1.0], [2.0], [10.0]]), np.zeros(4, dtype=np.intp))
        assert d[1] == pytest.approx(0.2)
        assert d[2] == pytest.approx(0.9)


def reference_better(a, b):
    """The per-individual tournament rule that the index tournament replaced."""
    if a.rank != b.rank:
        return a if a.rank < b.rank else b
    if a.crowding != b.crowding:
        return a if a.crowding > b.crowding else b
    return a


def reference_survivors(fronts, crowding, size):
    """The survivor loop that the index-array selection replaced."""
    survivors = []
    for front in fronts:
        if len(survivors) + len(front) <= size:
            survivors.extend(front)
        else:
            room = size - len(survivors)
            survivors.extend(sorted(front, key=lambda i: -crowding[i])[:room])
            break
    return survivors


class TestSelectionMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), m=st.integers(1, 3))
    def test_survivors(self, seed, n, m):
        # Half the values are small integers, so rows repeat, fronts tie and
        # many rows are infinitely crowded.
        rng = np.random.default_rng(seed)
        objs = np.where(rng.random((n, m)) < 0.5, rng.integers(0, 4, (n, m)), 4 * rng.random((n, m)))
        rank, crowding = ga._ranked(objs)
        fronts = nondominated_sort(objs)
        for size in range(1, n):
            want = reference_survivors(fronts, crowding.tolist(), size)
            assert ga._survivors(rank, crowding, size).tolist() == want

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    def test_tournament(self, seed, n):
        rng = np.random.default_rng(seed)
        rank = rng.integers(0, 3, n)
        crowding = rng.choice([0.0, 0.5, 1.0, math.inf, math.nan], n)
        pop = [SimpleNamespace(index=i, rank=r, crowding=d) for i, (r, d) in enumerate(zip(rank, crowding))]
        pairs = rng.integers(0, n, size=(50, 2))
        want = [reference_better(pop[i], pop[j]).index for i, j in pairs.tolist()]
        assert ga._tournament(rank, crowding, pairs).tolist() == want


def make_cfg(**kw):
    base = dict(n_islands=1, population_size=8, generations=3)
    base.update(kw)
    return IslandConfig(**base)


class Replay:
    """A stand-in for ``np.random.Generator`` that returns prescribed draws in
    order, each checked against the size asked for."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def _next(self, size):
        value = np.asarray(self.draws.pop(0), dtype=float)
        assert value.shape == (() if size is None else np.empty(size).shape)
        return value[()] if size is None else value

    def random(self, size=None):
        return self._next(size)

    def normal(self, loc, scale, size=None):
        return self._next(size)


def reference_sbx_crossover(a, b, rng, cfg):
    """Crossover of one parent pair, as it was before pairs were batched."""
    if rng.random() >= cfg.p_crossover:
        return a.copy(), b.copy()
    u = rng.random(len(a))
    exp = 1.0 / (cfg.eta_crossover + 1.0)
    root = math.sqrt if exp == 0.5 else lambda x: math.pow(x, exp)
    base = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u)))
    beta = np.array([root(x) for x in base.tolist()])
    c1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
    c2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
    gamma = (1.0 + 2.0 * cfg.alpha_crossover) * rng.random(len(a)) - cfg.alpha_crossover
    d1 = (1.0 - gamma) * c1 + gamma * c2
    d2 = gamma * c1 + (1.0 - gamma) * c2
    return np.clip(d1, 0.0, 1.0), np.clip(d2, 0.0, 1.0)


def reference_gaussian_mutate(genome, rng, cfg):
    """Mutation of one genome, as it was before children were batched."""
    if rng.random() >= cfg.p_mutate:
        return genome.copy()
    out = genome.copy()
    mask = rng.random(len(genome)) < cfg.p_mutate_val
    out[mask] += rng.normal(0.0, cfg.sigma_mutate, size=mask.sum())
    return np.clip(out, 0.0, 1.0)


def hex_rows(a):
    return [list(map(float.hex, row)) for row in np.asarray(a).tolist()]


unit_value = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 5e-324, 1.0 - 2**-53]), st.floats(0.0, 1.0))
draw_value = st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 2**-53]), st.floats(0.0, 1.0, exclude_max=True))


def unit_rows(data, elements, n, d):
    return np.array(data.draw(st.lists(st.lists(elements, min_size=d, max_size=d), min_size=n, max_size=n)))


class TestOracle:
    """The batched operators against the per-pair and per-child code they
    replaced, fed the same draws row by row."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), d=st.integers(1, 4), eta=st.sampled_from([1.0, 2.0]))
    def test_crossover_rows_equal_reference(self, data, n, d, eta):
        cfg = make_cfg(
            p_crossover=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
            alpha_crossover=data.draw(st.sampled_from([0.0, 0.2, 0.5])),
            eta_crossover=eta,
        )
        a, b = unit_rows(data, unit_value, n, d), unit_rows(data, unit_value, n, d)
        flags = unit_rows(data, draw_value, n, 1)[:, 0]
        u, gamma = unit_rows(data, draw_value, n, d), unit_rows(data, draw_value, n, d)
        rng = Replay(flags, u, gamma)
        c1, c2 = sbx_crossover(a, b, rng, cfg)
        assert rng.draws == []
        for k in range(n):
            r1, r2 = reference_sbx_crossover(a[k], b[k], Replay(flags[k], u[k], gamma[k]), cfg)
            assert hex_rows([c1[k], c2[k]]) == hex_rows([r1, r2])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), d=st.integers(1, 4))
    def test_mutation_rows_equal_reference(self, data, n, d):
        cfg = make_cfg(
            p_mutate=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
            p_mutate_val=data.draw(st.sampled_from([0.0, 0.3, 1.0])),
        )
        genomes = unit_rows(data, unit_value, n, d)
        flags, masks = unit_rows(data, draw_value, n, 1)[:, 0], unit_rows(data, draw_value, n, d)
        hit = (masks < cfg.p_mutate_val) & (flags < cfg.p_mutate)[:, None]
        count = int(hit.sum())
        normals = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=count, max_size=count)))
        rng = Replay(flags, masks, normals)
        got = gaussian_mutate(genomes, rng, cfg)
        assert rng.draws == []
        row_normals = np.split(normals, np.cumsum(hit.sum(axis=1))[:-1])
        for k in range(n):
            draws = (flags[k], masks[k], row_normals[k]) if flags[k] < cfg.p_mutate else (flags[k],)
            assert hex_rows([got[k]]) == hex_rows([reference_gaussian_mutate(genomes[k], Replay(*draws), cfg)])


class TestVariation:
    def test_mutate_identity_when_disabled(self):
        g = np.array([[0.2, 0.8, 0.5], [0.0, 1.0, 0.3]])
        out = gaussian_mutate(g, np.random.default_rng(0), make_cfg(p_mutate=0.0))
        assert np.array_equal(out, g)
        assert out is not g

    def test_mutate_small_sigma_near_identity(self):
        g = np.full((3, 4), 0.5)
        cfg = make_cfg(p_mutate=1.0, p_mutate_val=1.0, sigma_mutate=1e-8)
        out = gaussian_mutate(g, np.random.default_rng(1), cfg)
        assert np.allclose(out, g, atol=1e-6)
        assert not np.array_equal(out, g)

    def test_mutate_clamped(self):
        cfg = make_cfg(p_mutate=1.0, p_mutate_val=1.0, sigma_mutate=5.0)
        out = gaussian_mutate(np.tile([0.0, 1.0, 0.5], (50, 1)), np.random.default_rng(2), cfg)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_crossover_disabled_returns_parents(self):
        a, b = np.array([[0.1, 0.9], [0.4, 0.2]]), np.array([[0.7, 0.3], [0.5, 0.5]])
        c1, c2 = sbx_crossover(a, b, np.random.default_rng(0), make_cfg(p_crossover=0.0))
        assert np.array_equal(c1, a) and np.array_equal(c2, b)

    def test_crossover_identical_parents(self):
        a = np.tile([0.4, 0.6, 0.5], (5, 1))
        c1, c2 = sbx_crossover(a, a.copy(), np.random.default_rng(3), make_cfg(p_crossover=1.0))
        assert np.allclose(c1, a, atol=1e-12) and np.allclose(c2, a, atol=1e-12)

    def test_midpoint_conserved_without_clamping(self):
        cfg = make_cfg(p_crossover=1.0)
        a, b = np.tile([0.48, 0.52], (200, 1)), np.tile([0.52, 0.48], (200, 1))
        c1, c2 = sbx_crossover(a, b, np.random.default_rng(4), cfg)
        inside = np.all((c1 > 0) & (c1 < 1) & (c2 > 0) & (c2 < 1), axis=1)
        assert np.allclose((c1 + c2)[inside] / 2, ((a + b) / 2)[inside], atol=1e-12)
        assert inside.sum() > 100

    def test_crossover_in_unit_box(self):
        rng = np.random.default_rng(5)
        cfg = make_cfg(p_crossover=1.0)
        for child in sbx_crossover(rng.random((100, 4)), rng.random((100, 4)), rng, cfg):
            assert np.all(child >= 0.0) and np.all(child <= 1.0)


class TestRunIslands:
    def test_evaluation_accounting(self, counting):
        assert IslandConfig(5, 20, 50).total_evaluations == 5100
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cev = counting(ev)
        records = []
        cfg = make_cfg(n_islands=2, population_size=6, generations=2)
        res = run_islands(spec, cfg, cev, seed=0, sink=records.extend)
        assert cev.samples == 2 * 6 * 3
        assert len(records) == cev.samples
        assert res.total_evaluations == cev.samples

    def test_unique_sample_ids(self):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        records = []
        run_islands(spec, make_cfg(n_islands=3, population_size=5, generations=2), ev, seed=1, sink=records.extend)
        ids = [r["id"] for r in records]
        assert len(set(ids)) == len(ids)

    def test_no_variation_keeps_initial_genomes(self):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = make_cfg(p_crossover=0.0, p_mutate=0.0, population_size=6, generations=3)
        records = []
        run_islands(spec, cfg, ev, seed=2, sink=records.extend)
        initial = {tuple(r["unit"]) for r in records if r["iteration"] == 0}
        later = {tuple(r["unit"]) for r in records if r["iteration"] > 0}
        assert later <= initial

    def test_single_objective_elitism(self):
        spec, ev = c.builtin_problem("rosenbrock_box", 2)
        records = []
        res = run_islands(spec, make_cfg(population_size=10, generations=5), ev, seed=3, sink=records.extend)
        best_seen = max(r["fitness"] for r in records)
        best_front = max(float(ind.objectives[0]) for ind in res.front0)
        assert best_front == pytest.approx(best_seen)

    def test_front0_mutually_nondominated(self):
        spec, ev = c.builtin_problem("rastrigin_multi", 3)
        res = run_islands(spec, make_cfg(n_islands=2, population_size=8, generations=3), ev, seed=4)
        objs = [ind.objectives for ind in res.front0]
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not (np.all(a >= b) and np.any(a > b))

    def test_island_zero_independent_of_island_count(self):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg1 = make_cfg(n_islands=1, population_size=6, generations=2)
        cfg3 = make_cfg(n_islands=3, population_size=6, generations=2)
        r1, r3 = [], []
        run_islands(spec, cfg1, ev, seed=5, sink=r1.extend)
        run_islands(spec, cfg3, ev, seed=5, sink=r3.extend)
        island0 = [r for r in r3 if r["id"] // 6 % 3 == 0]
        assert [r["island"] for r in island0] == [0] * len(r1)
        assert [r["unit"] for r in island0] == [r["unit"] for r in r1]
        assert [r["fitness"] for r in island0] == [r["fitness"] for r in r1]
        assert [r["iteration"] for r in island0] == [r["iteration"] for r in r1]

    def test_log_written(self, tmp_path):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = make_cfg(n_islands=2, population_size=4, generations=1)
        run_islands(spec, cfg, ev, seed=6, log_path=tmp_path / "ga.log")
        lines = [json.loads(l) for l in (tmp_path / "ga.log").read_text().splitlines()]
        assert lines[0]["method"] == "ga"
        samples = [l for l in lines if l["type"] == "sample"]
        assert len(samples) == cfg.total_evaluations
        assert {s["island"] for s in samples} == {0, 1}

    def test_records_are_log_sample_lines(self, tmp_path):
        # A run's sink receives its log's sample lines as records, whether
        # the run is logged or not.
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = make_cfg(n_islands=2, population_size=4, generations=2)
        logged, unlogged = [], []
        run_islands(spec, cfg, ev, seed=6, log_path=tmp_path / "ga.log", sink=logged.extend)
        lines = sample_lines(tmp_path / "ga.log")
        assert len(lines) == cfg.total_evaluations
        run_islands(spec, cfg, ev, seed=6, sink=unlogged.extend)
        for records in (logged, unlogged):
            assert [json.dumps(r) for r in records] == lines
            assert all(list(r)[-1] == "island" for r in records)

    @pytest.mark.parametrize("islands,size,generations", [(3, 5, 2), (1, 4, 3), (2, 7, 0)])
    def test_generation_major_log(self, tmp_path, islands, size, generations):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = make_cfg(n_islands=islands, population_size=size, generations=generations)
        batches = []
        run_islands(spec, cfg, ev, seed=7, log_path=tmp_path / "ga.log", sink=batches.append)
        entries = read_log(tmp_path / "ga.log")[1:]
        samples = [e for e in entries if e["type"] == "sample"]
        assert [s["id"] for s in samples] == list(range(cfg.total_evaluations))
        assert [len(b) for b in batches] == [islands * size] * (generations + 1)
        block = islands * size
        assert len(entries) == (generations + 1) * (block + 1)
        for g in range(generations + 1):
            head, *members = entries[g * (block + 1) : (g + 1) * (block + 1)]
            assert head == {"type": "generation", "generation": g}
            assert [m["type"] for m in members] == ["sample"] * block
            assert [m["iteration"] for m in members] == [g] * block
            assert [m["island"] for m in members] == [k // size for k in range(block)]

    def test_killed_run_keeps_complete_generations(self, tmp_path, killed_run):
        # Generations of 2 islands x 10; the 75th evaluation is in generation 3.
        log = killed_run("c.run_islands(spec, c.IslandConfig(2, 10, 4), ev, seed=1, log_path=log)", die_at=75)
        spec, ev = c.builtin_problem("sphere_ring", 2)
        run_islands(spec, IslandConfig(2, 10, 4), ev, seed=1, log_path=tmp_path / "full.log")
        assert (tmp_path / "full.log").read_bytes().startswith(log.read_bytes())
        assert sum(e["type"] == "sample" for e in read_log(log)) == 60

    @pytest.mark.parametrize(
        "values",
        [
            (1, 0, 2),
            (1, 3, -1),
            (0, 4, 1),
            (1, 4, 1, 0.1, 0.3, 0.4, 0.95, 0.2, -1.0),
            (1, 4, 1, 0.1, 0.3, math.nan),
            (1, 4, 1, 0.1, 0.3, 0.4, 0.95, math.nan),
            (1, 4, 1, 0.1, 0.3, 0.4, 0.95, 0.2, math.nan),
        ],
    )
    def test_settings_that_cannot_run_rejected(self, values):
        with pytest.raises(ProblemError):
            IslandConfig(*values)

    def test_pinned_log(self, tmp_path):
        # Boost over 3 islands: the digest pins the GA log bytes (header,
        # generation markers, sample records and their order).
        spec, ev = c.builtin_problem("boost")
        run_islands(spec, IslandConfig(3, 10, 4), ev, seed=3, log_path=tmp_path / "ga.log")
        digest = hashlib.sha256((tmp_path / "ga.log").read_bytes()).hexdigest()
        assert digest == "747eafe350ef9e9866605dbf108566e2e61c08f018b100c1d2b8b969e487a7f0"

    def test_pinned_log_many_fronts(self, tmp_path):
        # The benchmark's island shape: combined populations of 80 split into
        # dozens of fronts, so the digest pins the ranking and crowding order.
        spec, ev = c.builtin_problem("boost")
        run_islands(spec, IslandConfig(5, 40, 10), ev, seed=0, log_path=tmp_path / "ga.log")
        digest = hashlib.sha256((tmp_path / "ga.log").read_bytes()).hexdigest()
        assert digest == "2b3a9fb32ca0138f835e39053263494944d699c175a213e3ba9db99d5578bb4c"

    def test_pinned_log_eta_2(self, tmp_path):
        # eta = 2 takes a cube root per gene; libm's pow gives these bytes on
        # every CPU, where numpy's vectorized power differs on AVX-512 hosts.
        spec, ev = c.builtin_problem("boost")
        run_islands(spec, IslandConfig(5, 40, 10, eta_crossover=2.0), ev, seed=0, log_path=tmp_path / "ga.log")
        digest = hashlib.sha256((tmp_path / "ga.log").read_bytes()).hexdigest()
        assert digest == "c1a79e4e1aa98e93c8ae9c44937dc24858c2edfb295df67430f622236c09945f"

    def test_dropped_sample_id_raises(self, dropping):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        with pytest.raises(EngineError, match="dropped sample ids \\[3\\]"):
            run_islands(spec, make_cfg(population_size=6), dropping(ev, 3), seed=0)
