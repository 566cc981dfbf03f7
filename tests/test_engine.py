import collections
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import carsopt as c
from carsopt import BoundaryDef, BuiltinEvaluator, ObjectiveDef, ParameterDef, ProblemSpec
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
from carsopt.tensor import OPTIMISTIC_INIT, SubdomainTensor


def two_op_problem():
    """Two operating points, a log and a linear parameter beside a grid one,
    and one boundary of each kind.  The model raises for L > 0.9 (failed
    sample), returns NaN ripple when fsw[0] < 2e3, and clamps eff at the
    strict ``larger`` threshold for large L (penalty 0, yet invalid)."""
    spec = ProblemSpec(
        parameters=(
            ParameterDef("fsw", "log", (1e3, 1e6), op_count=2),
            ParameterDef("L", "linear", (0.0, 1.0)),
            ParameterDef("V", "grid", grid_values=(300.0, 350.0), op_count=2),
        ),
        objectives=(ObjectiveDef("eff", "max"), ObjectiveDef("ripple", "min")),
        boundaries=(
            BoundaryDef("eff", "larger", (0.5,)),
            BoundaryDef("vout", "target", (12.0,), op_scope=(1,)),
            BoundaryDef("ripple", "range", ((0.0, 0.5),)),
        ),
        n_operating_points=2,
    )

    def model(params):
        L = params["L"][0]
        if L > 0.9:
            raise RuntimeError("diverged")
        f0, f1 = params["fsw"]
        ripple = [1e3 / f0, 1e3 / f1]
        if f0 < 2e3:
            ripple[0] = math.nan
        eff = [max(0.5, 1.0 - L), max(0.5, 0.9 - L * params["V"][1] / 350.0)]
        vout = [12.0 + L, 12.0 if L < 0.7 else 12.0 + L]
        return {"eff": eff, "vout": vout, "ripple": ripple}

    return spec, BuiltinEvaluator(model, "two_op")


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

    def test_dropped_sample_id_raises(self, dropping):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        with pytest.raises(EngineError, match="dropped sample ids \\[3\\]"):
            c.run(spec, RunConfig(n_total=100, seed=0), dropping(ev, 3))

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

    def test_pinned_log_pooled_7d(self, tmp_path):
        # rosenbrock_box 7-D with pooling: 5 iterations whose softmax and draw
        # run over 9^7 cells.  The digest pins the log bytes, so any change in
        # probabilities or drawn sub-domains shows here.
        spec, ev = c.builtin_problem("rosenbrock_box", 7)
        c.run(spec, RunConfig(n_total=300, seed=5, oversampling=False), ev, log_path=tmp_path / "r.log")
        digest = hashlib.sha256((tmp_path / "r.log").read_bytes()).hexdigest()
        assert digest == "24d4fd40d27a3b45c366490d7b44c848db4968a1083397c7070f1ca36698879b"

    def test_pinned_log_with_failed_samples(self, tmp_path):
        # Failed, NaN-measurement and valid samples over two operating
        # points; the digest pins how each is scored, flagged and logged.
        spec, ev = two_op_problem()
        c.run(spec, RunConfig(n_total=200, seed=4), ev, log_path=tmp_path / "r.log")
        samples = [e for e in read_log(tmp_path / "r.log") if e["type"] == "sample"]
        assert any(e["meas"] is None for e in samples)
        assert any(e["meas"] and math.isnan(e["meas"]["ripple"][0]) for e in samples)
        assert any(e["valid"] for e in samples)
        assert any(not e["valid"] and e["meas"] and not any(e["penalty_raw"]) for e in samples)
        digest = hashlib.sha256((tmp_path / "r.log").read_bytes()).hexdigest()
        assert digest == "8b48953a3b68e337850875c8fb9a7b495eb755cfe64ffc4d307f847abd8def4c"

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

    def test_restore_equals_per_sample_fold(self, tmp_path):
        # 4 cells and 200 samples: cells repeat with falling fitness, and some
        # first observations lie below the 0.75 prior they must overwrite.
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=200, seed=3, n_subdomain=2, n_pool=0)
        c.run(spec, cfg, ev, log_path=tmp_path / "r.log")
        samples = [e for e in read_log(tmp_path / "r.log") if e["type"] == "sample"]
        first, last, falls = {}, {}, 0
        for e in samples:
            cell = tuple(e["subdomain"])
            falls += cell in last and e["fitness"] < last[cell]
            last[cell] = e["fitness"]
            first.setdefault(cell, e["fitness"])
        assert falls > 0 and min(first.values()) < OPTIMISTIC_INIT

        fold = SubdomainTensor(2, 2)
        for e in samples:
            fold.update_fitness(e["subdomain"], e["fitness"])
        rs = restore_state(tmp_path / "r.log", spec, cfg)
        assert np.array_equal(rs.tensor.cells, fold.cells)
        assert np.array_equal(rs.tensor.touched, fold.touched)

    def test_restore_log_without_samples(self, tmp_path):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100, seed=1)
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log")
        header, iteration = (tmp_path / "full.log").read_text().splitlines()[:2]
        (tmp_path / "r.log").write_text(header + "\n" + iteration + "\n")
        rs = restore_state(tmp_path / "r.log", spec, cfg)
        assert rs.records == [] and rs.iteration == 0 and len(rs.store) == 0
        assert np.all(rs.tensor.cells == OPTIMISTIC_INIT) and not rs.tensor.touched.any()

    @pytest.mark.parametrize(
        "keep,torn",
        [(2, 0), (49, 0), (44, 1)],
        ids=["bare-first-header", "mid-iteration-2", "unterminated-iteration-1"],
    )
    def test_resume_cut_log_equals_uninterrupted(self, tmp_path, keep, torn):
        # 5 iterations of 20: line 2 is iteration 0's header, lines 45-49
        # are iteration 2's header and its first 4 samples, and line 44 is
        # iteration 1's last sample; ``torn`` bytes are cut off the end.
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100, seed=0)
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log")
        full = (tmp_path / "full.log").read_bytes()
        assert len(full.splitlines()) == 107
        cut = b"".join(full.splitlines(keepends=True)[:keep])
        (tmp_path / "cut.log").write_bytes(cut[: len(cut) - torn])
        c.resume(tmp_path / "cut.log", spec, cfg, ev)
        assert (tmp_path / "cut.log").read_bytes() == full

    def test_restore_drops_incomplete_iteration(self, tmp_path):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100, seed=0)
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log")
        lines = (tmp_path / "full.log").read_text().splitlines(keepends=True)
        (tmp_path / "r.log").write_text("".join(lines[:49]))
        rs = restore_state(tmp_path / "r.log", spec, cfg)
        assert rs.iteration == 2 and len(rs.records) == 40 and len(rs.store) == 40
        (tmp_path / "r.log").write_text("".join(lines[:13]))  # normalization + 10 samples
        rs = restore_state(tmp_path / "r.log", spec, cfg)
        assert rs.iteration == 0 and rs.records == [] and rs.consts is None

    @pytest.mark.parametrize(
        "field,value", [("n_total", 3000), ("n_pool", 0), ("oversampling", False)]
    )
    def test_config_drift_rejected(self, tmp_path, field, value):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=2000, seed=0)
        c.run(spec, cfg, ev, log_path=tmp_path / "r.log", stop_after_iteration=1)
        before = (tmp_path / "r.log").read_bytes()
        drifted = dataclasses.replace(cfg, **{field: value})
        with pytest.raises(EngineError, match=field):
            c.resume(tmp_path / "r.log", spec, drifted, ev)
        assert (tmp_path / "r.log").read_bytes() == before

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

    def test_other_problem_rejected(self, tmp_path):
        # Both problems label their dimensions x0[0], x1[0]; their bounds differ.
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100, seed=0)
        c.run(spec, cfg, ev, log_path=tmp_path / "r.log", stop_after_iteration=1)
        before = (tmp_path / "r.log").read_bytes()
        other, other_ev = c.builtin_problem("rosenbrock_box", 2)
        with pytest.raises(EngineError, match="dimensions"):
            c.resume(tmp_path / "r.log", other, cfg, other_ev)
        assert (tmp_path / "r.log").read_bytes() == before

    def test_ga_log_rejected(self, tmp_path):
        spec, ev = c.builtin_problem("boost")
        c.run_islands(spec, c.IslandConfig(2, 4, 1), ev, seed=0, log_path=tmp_path / "r.log")
        before = (tmp_path / "r.log").read_bytes()
        with pytest.raises(EngineError, match="method"):
            c.resume(tmp_path / "r.log", spec, RunConfig(n_total=100, seed=0), ev)
        assert (tmp_path / "r.log").read_bytes() == before

    @settings(max_examples=60, deadline=None)
    @given(removed=st.integers(min_value=0))
    @example(removed=1)  # only the final newline
    def test_resume_log_cut_at_any_byte(self, tmp_path_factory, removed):
        # A crash may stop the log at any byte after the run header; resuming
        # must give the uninterrupted log back.
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100, seed=0)
        path = tmp_path_factory.mktemp("cut") / "r.log"
        c.run(spec, cfg, ev, log_path=path)
        full = path.read_bytes()
        after_header = len(full) - full.index(b"\n") - 1
        path.write_bytes(full[: len(full) - removed % (after_header + 1)])
        c.resume(path, spec, cfg, ev)
        assert path.read_bytes() == full

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

    def test_killed_run_keeps_complete_iterations(self, tmp_path, killed_run):
        # 10 iterations of 40 samples; the 300th evaluation is in iteration 7.
        log = killed_run("c.run(spec, c.RunConfig(n_total=400, seed=1), ev, log_path=log)", die_at=300)
        spec, ev = c.builtin_problem("sphere_ring", 2)
        c.run(spec, RunConfig(n_total=400, seed=1), ev, log_path=tmp_path / "full.log")
        assert (tmp_path / "full.log").read_bytes().startswith(log.read_bytes())
        assert sum(e["type"] == "sample" for e in read_log(log)) == 280

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
