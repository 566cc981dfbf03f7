"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The slow entries (the extension study and the constraint-focusing run) take a
few minutes combined on a small machine.
"""

import gc
import math
import statistics
import time

import numpy as np
import pytest

import carsopt as c
from carsopt.cli import STUDY_VARIANTS, bench_sampling
from carsopt.engine import (
    RunConfig,
    heuristic_schedule,
    iteration_sizes,
    neighbor_count,
    oversampling_width,
)
from carsopt.fitness import NormalizationConstants, evaluate_breakdown
from carsopt.ga import IslandConfig, nondominated_sort, sbx_crossover
from carsopt.knn import NeighborStore
from carsopt.problem import BoundaryDef, ObjectiveDef, ParameterDef, ProblemSpec
from carsopt.tensor import SubdomainTensor
from dense_view import cells, effective, probabilities, set_cells


def verdict(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_tensor_size_law():
    sizes = {}
    for n_dim, n_sub, expected in ((6, 10, 1_000_000), (9, 9, 387_420_489), (9, 8, 134_217_728)):
        t = SubdomainTensor(n_dim, n_sub)
        sizes[(n_dim, n_sub)] = (t.n_cells, expected)
        del t
        gc.collect()
    ok = all(got == want for got, want in sizes.values())
    verdict(1, "tensor size law for (6,10), (9,9), (9,8)", ok, str(sizes))


def test_02_sampling_step_runtime():
    rows = bench_sampling(max_params=6, batch_sizes=[1_000_000], repeats=3)
    small = [r for r in rows if r["n_params"] == 6][0]
    ok_small = small["t_min"] < 10.0
    detail = f"6 params / 10^6 batch: min {small['t_min']:.2f} s"

    big = bench_sampling(max_params=9, batch_sizes=[100_000], repeats=1)
    big = [r for r in big if r["n_params"] == 9][0]
    ok_big = big["t_min"] < 120.0
    detail += f"; 9 params / 10^5 batch: min {big['t_min']:.2f} s"
    verdict(2, "one full sampling step within runtime budget", ok_small and ok_big, detail)


def test_03_heuristic_table():
    got = (
        heuristic_schedule(100_000),
        heuristic_schedule(5000),
        heuristic_schedule(20),
        neighbor_count(9),
        oversampling_width(9),
    )
    want = ((100, 1000), (30, 166), (3, 6), 19, 27)
    verdict(3, "heuristic schedule, neighbor count and oversampling width", got == want, f"{got}")


def test_04_softmax_correctness():
    t = SubdomainTensor(1, 3)
    t.update_many(np.array([[0], [1], [2]]), np.array([1.0, 0.75, 0.0]))
    worked = probabilities(t, alpha=1.0)
    ok = np.allclose(worked, [0.4658, 0.3628, 0.1714], atol=1e-3)

    rng = np.random.default_rng(0)
    t2 = SubdomainTensor(3, 9)
    set_cells(t2, rng.random(t2.n_cells))
    probs = probabilities(t2, alpha=4.0)
    ok &= abs(float(probs.sum()) - 1.0) < 1e-9
    uniform = probabilities(t2, alpha=0.0)
    ok &= bool(np.all(uniform == 1.0 / t2.n_cells))
    order = np.argsort(cells(t2)[0], kind="stable")
    ok &= bool(np.all(np.diff(probs[order]) >= 0))
    verdict(4, "softmax normalization, uniformity, monotonicity, worked example", ok)


def brute_force_effective(cells, n_dim, n_sub, n_pool):
    import itertools

    grid = np.asarray(cells).reshape((n_sub,) * n_dim)
    out = np.empty_like(grid)
    for coord in itertools.product(range(n_sub), repeat=n_dim):
        block = tuple(slice(ci // n_pool * n_pool, ci // n_pool * n_pool + n_pool) for ci in coord)
        out[coord] = grid[coord] + grid[block].max()
    return out.ravel()


def test_05_pooling_oracle():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    mismatches = 0
    for i in range(1000):
        n_dim = int(rng.integers(1, 4))
        n_sub = int(rng.choice([6, 9]))
        t = SubdomainTensor(n_dim, n_sub, 3)
        set_cells(t, rng.random(t.n_cells))
        got = effective(t)
        want = brute_force_effective(cells(t)[0], n_dim, n_sub, 3)
        if not np.array_equal(got, want):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    verdict(5, "1,000 random tensors match the block-max add-back oracle",
            mismatches == 0 and elapsed < 10.0, f"{mismatches} mismatches in {elapsed:.1f} s")


def test_06_knn_oracle():
    rng = np.random.default_rng(12)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(500):
        n_dim = int(rng.integers(1, 6))
        n = int(rng.integers(1, 60))
        pts = rng.random((n, n_dim))
        fits = rng.random(n)
        store = NeighborStore(n_dim)
        store.extend(pts, fits)
        q = rng.random(n_dim)
        k = int(rng.integers(1, 10))
        d2 = np.sum((pts - q) ** 2, axis=1)
        order = sorted(range(n), key=lambda i: (d2[i], i))[: min(k, n)]
        want = float(np.mean(fits[order]))
        if not math.isclose(store.estimate(q, k), want, rel_tol=1e-12, abs_tol=1e-15):
            bad += 1
    elapsed = time.perf_counter() - t0
    verdict(6, "500 random kNN stores match the brute-force sort oracle",
            bad == 0 and elapsed < 10.0, f"{bad} mismatches in {elapsed:.1f} s")


def _study_stats():
    """Per (variant, seed): list of (mean, std) per iteration."""
    spec, ev = c.builtin_problem("sphere_ring", 4)
    stats = {}
    for variant, overrides in STUDY_VARIANTS.items():
        for seed in range(5):
            cfg = RunConfig(n_total=5000, seed=seed, **overrides)
            records = []
            c.run(spec, cfg, ev, sink=records.extend)
            per_iter = {}
            for r in records:
                per_iter.setdefault(r["iteration"], []).append(r["fitness"])
            stats[(variant, seed)] = [
                (float(np.mean(v)), float(np.std(v))) for _, v in sorted(per_iter.items())
            ]
    return stats


def _iterations_to_90pct(means):
    final = means[-1]
    lo = min(means)
    target = lo + 0.9 * (final - lo)
    for i, m in enumerate(means):
        if m >= target:
            return i
    return len(means) - 1


def test_07_extension_study():
    stats = _study_stats()

    gains = {}
    for variant in STUDY_VARIANTS:
        first = np.mean([stats[(variant, s)][0][0] for s in range(5)])
        last = np.mean([stats[(variant, s)][-1][0] for s in range(5)])
        gains[variant] = last - first
    ok_a = all(g > 0 for g in gains.values())

    speed = {
        variant: statistics.median(
            _iterations_to_90pct([m for m, _ in stats[(variant, s)]]) for s in range(5)
        )
        for variant in ("both", "none")
    }
    ok_b = speed["both"] <= speed["none"]

    def median_tail_std(variant):
        vals = []
        for s in range(5):
            vals.extend(sd for i, (_, sd) in enumerate(stats[(variant, s)]) if i > 2)
        return statistics.median(vals)

    std_over = median_tail_std("oversampling_only")
    std_none = median_tail_std("none")
    ok_c = std_over <= std_none

    detail = (
        f"gains {dict((k, round(v, 3)) for k, v in gains.items())}; "
        f"iters to 90%: both {speed['both']} vs none {speed['none']}; "
        f"median std: oversampling {std_over:.4f} vs none {std_none:.4f}"
    )
    verdict(7, "extensions improve fitness, speed and variance on the ring surrogate",
            ok_a and ok_b and ok_c, detail)


def test_08_nsga2_correctness():
    rng = np.random.default_rng(13)
    bad = 0
    for _ in range(200):
        n = int(rng.integers(2, 40))
        objs = rng.random((n, 3))
        front0 = sorted(nondominated_sort(objs)[0])
        oracle = [
            i
            for i in range(n)
            if not any(np.all(objs[j] >= objs[i]) and np.any(objs[j] > objs[i]) for j in range(n) if j != i)
        ]
        if front0 != oracle:
            bad += 1
    ok_front = bad == 0

    cfg = IslandConfig(5, 20, 50, p_crossover=1.0)
    checked = 0
    ok_sbx = True
    for _ in range(300):
        a, b = np.array([0.45, 0.55]), np.array([0.55, 0.45])
        c1, c2 = sbx_crossover(a, b, rng, cfg)
        if np.all((c1 > 0) & (c1 < 1) & (c2 > 0) & (c2 < 1)):
            ok_sbx &= bool(np.allclose((c1 + c2) / 2, (a + b) / 2, atol=1e-12))
            checked += 1
    ok_sbx &= checked > 100

    ok_count = IslandConfig(5, 20, 50).total_evaluations == 5100
    verdict(8, "front-0 oracle on 200 populations, SBX midpoint, 5100-evaluation accounting",
            ok_front and ok_sbx and ok_count,
            f"{bad} front mismatches; {checked} SBX pairs checked")


def test_09_constraint_focusing():
    spec, ev = c.builtin_problem("boost")
    records = []
    c.run(spec, RunConfig(n_total=5000, seed=0), ev, sink=records.extend)
    n_iter = max(r["iteration"] for r in records) + 1
    tail_start = math.ceil(n_iter * 0.8)
    tail = [r["valid"] for r in records if r["iteration"] >= tail_start]
    first = [r["valid"] for r in records if r["iteration"] == 0]
    tail_frac = sum(tail) / len(tail)
    first_frac = sum(first) / len(first)
    ok = tail_frac >= 0.95 and first_frac <= tail_frac
    verdict(9, "boost run ends with >= 95% boundary-valid samples",
            ok, f"tail {tail_frac:.4f} vs iteration 0 {first_frac:.4f}")


def test_10_determinism_and_resume(tmp_path):
    spec, ev = c.builtin_problem("sphere_ring", 2)
    cfg = RunConfig(n_total=200, seed=7)
    c.run(spec, cfg, ev, log_path=tmp_path / "a.log")
    c.run(spec, cfg, ev, log_path=tmp_path / "b.log")
    ok_repeat = (tmp_path / "a.log").read_bytes() == (tmp_path / "b.log").read_bytes()

    c.run(spec, cfg, ev, log_path=tmp_path / "part.log", stop_after_iteration=2)
    c.resume(tmp_path / "part.log", spec, cfg, ev)
    ok_resume = (tmp_path / "part.log").read_bytes() == (tmp_path / "a.log").read_bytes()
    verdict(10, "byte-identical repeated and interrupted-then-resumed logs",
            ok_repeat and ok_resume)


def test_11_per_formula_goldens():
    def raw(item, meas, n_ops=1):
        """The raw column of a one-item spec's only objective or boundary."""
        is_obj = isinstance(item, ObjectiveDef)
        spec = ProblemSpec(
            parameters=(ParameterDef("x", "linear", (0.0, 1.0)),),
            objectives=(item,) if is_obj else (),
            boundaries=() if is_obj else (item,),
            n_operating_points=n_ops,
        )
        bd = evaluate_breakdown(spec, [meas])
        return (bd.objective_raw if is_obj else bd.penalty_raw)[0, 0]

    checks = [
        # The Canberra root of a one-point target objective is its negated fitness.
        -raw(ObjectiveDef("p", "target", target_values=(2300.0,)), {"p": [2300.0]}) == 0.0,
        math.isclose(raw(BoundaryDef("p", "target", (2300.0,)), {"p": [2400.0]}), 14.587, abs_tol=1e-3),
        math.isclose(raw(BoundaryDef("p", "range", ((2600.0, 2700.0),)), {"p": [2300.0]}), 24.74, abs_tol=1e-2),
        math.isclose(
            raw(ObjectiveDef("fsw", "min_range"), {"fsw": [250e3, 300e3, 280e3]}, 3),
            -50e3, rel_tol=1e-12,
        ),
        math.isclose(NormalizationConstants.normalize(10.0, (-5.0, 15.0)), 0.75, rel_tol=1e-12),
    ]
    verdict(11, "penalty, min-range and normalization golden values", all(checks), str(checks))
