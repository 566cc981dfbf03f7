import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import carsopt as c
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


class TestCrowding:
    def test_small_front_all_infinite(self):
        assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0], [3.0, 0.0]]))))

    def test_middle_of_three(self):
        d = crowding_distance(np.array([[0.0], [5.0], [10.0]]))
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == pytest.approx(1.0)

    def test_degenerate_objective_ignored(self):
        d = crowding_distance(np.array([[0.0, 7.0], [5.0, 7.0], [10.0, 7.0]]))
        assert d[1] == pytest.approx(1.0)

    def test_uneven_spacing(self):
        d = crowding_distance(np.array([[0.0], [1.0], [10.0]]))
        assert d[1] == pytest.approx(1.0)  # (10 - 0) / (10 - 0)
        d = crowding_distance(np.array([[0.0], [1.0], [2.0], [10.0]]))
        assert d[1] == pytest.approx(0.2)
        assert d[2] == pytest.approx(0.9)


def make_cfg(**kw):
    base = dict(n_islands=1, population_size=8, generations=3)
    base.update(kw)
    return IslandConfig(**base)


class TestVariation:
    def test_mutate_identity_when_disabled(self):
        g = np.array([0.2, 0.8, 0.5])
        out = gaussian_mutate(g, np.random.default_rng(0), make_cfg(p_mutate=0.0))
        assert np.array_equal(out, g)
        assert out is not g

    def test_mutate_small_sigma_near_identity(self):
        g = np.array([0.5, 0.5, 0.5, 0.5])
        cfg = make_cfg(p_mutate=1.0, p_mutate_val=1.0, sigma_mutate=1e-8)
        out = gaussian_mutate(g, np.random.default_rng(1), cfg)
        assert np.allclose(out, g, atol=1e-6)
        assert not np.array_equal(out, g)

    def test_mutate_clamped(self):
        cfg = make_cfg(p_mutate=1.0, p_mutate_val=1.0, sigma_mutate=5.0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            out = gaussian_mutate(np.array([0.0, 1.0, 0.5]), rng, cfg)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_crossover_disabled_returns_parents(self):
        a, b = np.array([0.1, 0.9]), np.array([0.7, 0.3])
        c1, c2 = sbx_crossover(a, b, np.random.default_rng(0), make_cfg(p_crossover=0.0))
        assert np.array_equal(c1, a) and np.array_equal(c2, b)

    def test_crossover_identical_parents(self):
        a = np.array([0.4, 0.6, 0.5])
        c1, c2 = sbx_crossover(a, a.copy(), np.random.default_rng(3), make_cfg(p_crossover=1.0))
        assert np.allclose(c1, a, atol=1e-12) and np.allclose(c2, a, atol=1e-12)

    def test_midpoint_conserved_without_clamping(self):
        rng = np.random.default_rng(4)
        cfg = make_cfg(p_crossover=1.0)
        a, b = np.array([0.48, 0.52]), np.array([0.52, 0.48])
        checked = 0
        for _ in range(200):
            c1, c2 = sbx_crossover(a, b, rng, cfg)
            if np.all(c1 > 0) and np.all(c1 < 1) and np.all(c2 > 0) and np.all(c2 < 1):
                assert np.allclose((c1 + c2) / 2, (a + b) / 2, atol=1e-12)
                checked += 1
        assert checked > 100

    def test_crossover_in_unit_box(self):
        rng = np.random.default_rng(5)
        cfg = make_cfg(p_crossover=1.0)
        for _ in range(100):
            c1, c2 = sbx_crossover(rng.random(4), rng.random(4), rng, cfg)
            for child in (c1, c2):
                assert np.all(child >= 0.0) and np.all(child <= 1.0)


class TestRunIslands:
    def test_evaluation_accounting(self, counting):
        assert IslandConfig(5, 20, 50).total_evaluations == 5100
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cev = counting(ev)
        res = run_islands(spec, make_cfg(n_islands=2, population_size=6, generations=2), cev, seed=0)
        assert cev.samples == 2 * 6 * 3
        assert len(res.records) == cev.samples
        assert res.total_evaluations == cev.samples

    def test_unique_sample_ids(self):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        res = run_islands(spec, make_cfg(n_islands=3, population_size=5, generations=2), ev, seed=1)
        ids = [r.sample_id for r in res.records]
        assert len(set(ids)) == len(ids)

    def test_no_variation_keeps_initial_genomes(self):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = make_cfg(p_crossover=0.0, p_mutate=0.0, population_size=6, generations=3)
        res = run_islands(spec, cfg, ev, seed=2)
        initial = {r.unit for r in res.records if r.iteration == 0}
        later = {r.unit for r in res.records if r.iteration > 0}
        assert later <= initial

    def test_single_objective_elitism(self):
        spec, ev = c.builtin_problem("rosenbrock_box", 2)
        res = run_islands(spec, make_cfg(population_size=10, generations=5), ev, seed=3)
        best_seen = max(r.fitness for r in res.records)
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
        r1 = run_islands(spec, cfg1, ev, seed=5)
        r3 = run_islands(spec, cfg3, ev, seed=5)
        block = cfg1.total_evaluations
        assert [r.unit for r in r3.records[:block]] == [r.unit for r in r1.records]
        assert [r.fitness for r in r3.records[:block]] == [r.fitness for r in r1.records]

    def test_log_written(self, tmp_path):
        import json

        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = make_cfg(n_islands=2, population_size=4, generations=1)
        run_islands(spec, cfg, ev, seed=6, log_path=tmp_path / "ga.log")
        lines = [json.loads(l) for l in (tmp_path / "ga.log").read_text().splitlines()]
        assert lines[0]["method"] == "ga"
        samples = [l for l in lines if l["type"] == "sample"]
        assert len(samples) == cfg.total_evaluations
        assert {s["island"] for s in samples} == {0, 1}

    def test_killed_run_keeps_complete_generations(self, tmp_path, killed_run):
        # Generations of 10; the 75th evaluation is in island 1's generation 2.
        log = killed_run("c.run_islands(spec, c.IslandConfig(2, 10, 4), ev, seed=1, log_path=log)", die_at=75)
        spec, ev = c.builtin_problem("sphere_ring", 2)
        run_islands(spec, IslandConfig(2, 10, 4), ev, seed=1, log_path=tmp_path / "full.log")
        assert (tmp_path / "full.log").read_bytes().startswith(log.read_bytes())
        assert sum(e["type"] == "sample" for e in read_log(log)) == 70

    @pytest.mark.parametrize(
        "values", [(1, 0, 2), (1, 3, -1), (0, 4, 1), (1, 4, 1, 0.1, 0.3, 0.4, 0.95, 0.2, -1.0)]
    )
    def test_settings_that_cannot_run_rejected(self, values):
        with pytest.raises(ProblemError):
            IslandConfig(*values)

    def test_pinned_log(self, tmp_path):
        # Boost over 3 islands: the digest pins the GA log bytes (header,
        # island markers, sample records and their order).
        spec, ev = c.builtin_problem("boost")
        run_islands(spec, IslandConfig(3, 10, 4), ev, seed=3, log_path=tmp_path / "ga.log")
        digest = hashlib.sha256((tmp_path / "ga.log").read_bytes()).hexdigest()
        assert digest == "cfc0e57e85da6cc8ddab8dfe1cbbfd8a7b74d45ec65e4d0cc0e8aeb779eaac8b"

    def test_dropped_sample_id_raises(self, dropping):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        with pytest.raises(EngineError, match="dropped sample ids \\[3\\]"):
            run_islands(spec, make_cfg(population_size=6), dropping(ev, 3), seed=0)
