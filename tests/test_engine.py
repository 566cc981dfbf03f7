import collections
import hashlib

import numpy as np
import pytest

import carsopt as c
from carsopt.engine import (
    EngineError,
    RunConfig,
    heuristic_schedule,
    iteration_sizes,
    neighbor_count,
    oversampling_width,
    parse_alpha_schedule,
    read_log,
    restore_state,
)


class TestHeuristics:
    @pytest.mark.parametrize(
        "n_total,expected",
        [(100_000, (100, 1000)), (5000, (30, 166)), (20, (3, 6))],
    )
    def test_schedule_table(self, n_total, expected):
        assert heuristic_schedule(n_total) == expected

    def test_minimum_one_iteration(self):
        assert heuristic_schedule(1) == (1, 1)

    def test_budget_exactness(self):
        for n_total in (1, 7, 20, 333, 5000, 100_000):
            assert sum(iteration_sizes(n_total)) == n_total

    @pytest.mark.parametrize("n_dim,expected", [(4, 8), (1, 1), (9, 27)])
    def test_oversampling_width(self, n_dim, expected):
        assert oversampling_width(n_dim) == expected

    @pytest.mark.parametrize("n_dim,expected", [(3, 7), (1, 3), (9, 19)])
    def test_neighbor_count(self, n_dim, expected):
        assert neighbor_count(n_dim) == expected

    def test_alpha_schedules(self):
        assert parse_alpha_schedule("identity")(4) == 4.0
        assert parse_alpha_schedule("const:2.5")(9) == 2.5
        assert parse_alpha_schedule("scale:0.5")(4) == 2.0
        with pytest.raises(EngineError):
            parse_alpha_schedule("nope")


class TestRun:
    def test_budget_exactness(self):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        st = c.run(spec, RunConfig(n_total=333, seed=0), ev)
        assert len(st.records) == 333

    def test_in_cell_containment(self):
        spec, ev = c.builtin_problem("sphere_ring", 3)
        st = c.run(spec, RunConfig(n_total=300, seed=1), ev)
        for r in st.records:
            for coord, cell in zip(r.unit, r.subdomain):
                assert cell / 9 <= coord < (cell + 1) / 9

    def test_uniform_when_alpha_zero(self):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100_000, seed=5, n_pool=0, oversampling=False, alpha_schedule="const:0")
        st = c.run(spec, cfg, ev)
        counts = collections.Counter(r.subdomain for r in st.records)
        observed = np.array([counts.get((i, j), 0) for i in range(9) for j in range(9)])
        expected = 100_000 / 81
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        # chi-square critical value for 80 dof at p = 0.001
        assert chi2 < 124.84

    def test_greedy_concentration(self, hit_problem):
        spec, ev = hit_problem
        cfg = RunConfig(n_total=2000, seed=3, n_pool=0, oversampling=False)
        st = c.run(spec, cfg, ev)
        frac = {}
        for r in st.records:
            frac.setdefault(r.iteration, []).append(r.subdomain == (0, 0))
        frac = {i: sum(v) / len(v) for i, v in frac.items()}
        assert frac[5] > frac[2]
        assert frac[8] > frac[5]
        assert frac[11] > frac[8]
        assert frac[max(frac)] >= 0.95

    def test_oversampling_does_not_increase_evaluations(self, counting):
        spec, ev = c.builtin_problem("sphere_ring", 3)
        cev = counting(ev)
        cfg = RunConfig(n_total=200, seed=2, oversampling=True)
        st = c.run(spec, cfg, cev)
        assert cev.samples == 200
        assert cev.batches == len(iteration_sizes(200))

    def test_failed_samples_do_not_abort(self):
        from carsopt import BuiltinEvaluator, ObjectiveDef, ParameterDef, ProblemSpec

        spec = ProblemSpec(
            parameters=(ParameterDef("x", "linear", (0.0, 1.0)),),
            objectives=(ObjectiveDef("m", "max"),),
            boundaries=(),
        )

        def flaky(params):
            if params["x"][0] > 0.5:
                raise RuntimeError("diverged")
            return {"m": [params["x"][0]]}

        st = c.run(spec, RunConfig(n_total=100, seed=0), BuiltinEvaluator(flaky))
        assert len(st.records) == 100
        failed = [r for r in st.records if r.meas is None]
        assert failed and all(r.fitness == 0.0 for r in failed)


class TestDeterminismAndResume:
    def test_byte_identical_logs(self, tmp_path):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=400, seed=7)
        c.run(spec, cfg, ev, log_path=tmp_path / "a.log")
        c.run(spec, cfg, ev, log_path=tmp_path / "b.log")
        assert (tmp_path / "a.log").read_bytes() == (tmp_path / "b.log").read_bytes()

    def test_resume_equals_uninterrupted(self, tmp_path):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=400, seed=7)  # 10 iterations of 40
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log")
        c.run(spec, cfg, ev, log_path=tmp_path / "part.log", stop_after_iteration=4)
        c.resume(tmp_path / "part.log", spec, cfg, ev)
        assert (tmp_path / "full.log").read_bytes() == (tmp_path / "part.log").read_bytes()

    def test_pinned_log_with_oversampling(self, tmp_path):
        # sphere_ring 6-D with pooling and oversampling: 10 iterations of 60,
        # each scoring 60 x 14 candidates by kNN.  The digest pins the log
        # bytes, so any change in kNN estimates or selection shows here.
        spec, ev = c.builtin_problem("sphere_ring", 6)
        c.run(spec, RunConfig(n_total=600, seed=11), ev, log_path=tmp_path / "r.log")
        digest = hashlib.sha256((tmp_path / "r.log").read_bytes()).hexdigest()
        assert digest == "565b8ac8b26cb6c7e79ebb354c1e7d09df1d6bd6e1a8253c11fe052bae0a0df8"

    def test_resume_after_completion_is_identity(self, tmp_path):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100, seed=1)
        st = c.run(spec, cfg, ev, log_path=tmp_path / "r.log")
        st2 = c.resume(tmp_path / "r.log", spec, cfg, ev)
        assert len(st2.records) == len(st.records)
        assert [r.fitness for r in st2.records] == [r.fitness for r in st.records]
        assert np.array_equal(st2.tensor.cells, st.tensor.cells)

    def test_tensor_reconstruction(self, tmp_path):
        spec, ev = c.builtin_problem("boost")
        cfg = RunConfig(n_total=300, seed=9)
        st = c.run(spec, cfg, ev, log_path=tmp_path / "r.log")
        rs = restore_state(tmp_path / "r.log", spec, cfg)
        assert np.array_equal(rs.tensor.cells, st.tensor.cells)
        assert np.array_equal(rs.tensor.touched, st.tensor.touched)
        assert rs.consts.to_dict() == st.consts.to_dict()

    def test_geometry_mismatch_rejected(self, tmp_path):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100, seed=1)
        c.run(spec, cfg, ev, log_path=tmp_path / "r.log")
        other = RunConfig(n_total=100, seed=1, n_subdomain=6, n_pool=3)
        with pytest.raises(EngineError, match="geometry"):
            c.resume(tmp_path / "r.log", spec, other, ev)
        spec3, ev3 = c.builtin_problem("sphere_ring", 3)
        with pytest.raises(EngineError, match="geometry"):
            c.resume(tmp_path / "r.log", spec3, cfg, ev3)

    def test_resume_with_exploitative_schedule(self, tmp_path, hit_problem):
        spec, ev = hit_problem
        cfg = RunConfig(n_total=2000, seed=3, n_pool=0, oversampling=False)
        c.run(spec, cfg, ev, log_path=tmp_path / "h.log", stop_after_iteration=5)
        greedy = RunConfig(n_total=2000, seed=3, n_pool=0, oversampling=False, alpha_schedule="const:20")
        st = c.resume(tmp_path / "h.log", spec, greedy, ev)
        post = [r for r in st.records if r.iteration >= 6]
        counts = collections.Counter(r.subdomain for r in post)
        top, n = counts.most_common(1)[0]
        assert top == (0, 0)
        assert n / len(post) > 0.9


class TestLog:
    def test_read_log_round_trip(self, tmp_path):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=60, seed=4)
        st = c.run(spec, cfg, ev, log_path=tmp_path / "r.log")
        entries = read_log(tmp_path / "r.log")
        assert entries[0]["type"] == "run"
        samples = [e for e in entries if e["type"] == "sample"]
        assert len(samples) == 60
        assert [s["fitness"] for s in samples] == [r.fitness for r in st.records]

    def test_corrupt_log_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text('{"type": "run", "oops\n')
        with pytest.raises(EngineError):
            read_log(path)

    def test_csv_exports(self, tmp_path):
        from carsopt.engine import export_summary_csv, export_valid_samples_csv

        spec, ev = c.builtin_problem("boost")
        st = c.run(spec, RunConfig(n_total=100, seed=0), ev)
        export_summary_csv(st.records, tmp_path / "s.csv")
        export_valid_samples_csv(spec, st.records, tmp_path / "v.csv")
        header = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert header == "iteration,fit_min,fit_mean,fit_max,valid,n"
        n_valid = sum(r.valid for r in st.records)
        assert len((tmp_path / "v.csv").read_text().splitlines()) == n_valid + 1
