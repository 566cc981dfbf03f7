import collections
import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import carsopt as c
from carsopt import BoundaryDef, BuiltinEvaluator, ObjectiveDef, ParameterDef, ProblemSpec
from carsopt.engine import (
    EngineError,
    RunConfig,
    _physical_params,
    heuristic_schedule,
    iter_log,
    iteration_sizes,
    neighbor_count,
    oversampling_width,
    parse_alpha_schedule,
    read_log,
    restore_state,
)
from carsopt.problem import ProblemError, parse_problem, sampled_dimensions
from carsopt.tensor import OPTIMISTIC_INIT, SubdomainTensor
from dense_view import cells


def sample_lines(path, size: int | None = None) -> list[str]:
    """The sample lines of a run log (of its first ``size`` bytes), as written."""
    text = path.read_bytes()[:size].decode()
    return [line for line in text.splitlines() if line.startswith('{"type": "sample"')]


def boost_log_lines(tmp_path) -> list[str]:
    """The lines of a seeded 60-sample boost run log; line 4 is its first sample."""
    spec, ev = c.builtin_problem("boost")
    c.run(spec, RunConfig(n_total=60, seed=0), ev, log_path=tmp_path / "boost.log")
    return (tmp_path / "boost.log").read_text().splitlines(keepends=True)


def corrupt_logs(boost: list[str], restore: bool = False) -> list[tuple[bytes, str]]:
    """(log bytes, pattern of its EngineError) for corrupt versions of the
    ``boost_log_lines`` log; with ``restore``, also those only
    ``restore_state`` rejects."""
    rows = [
        ('{"type": "run", "oops\n', "line 1"),
        # A line that parses but is not a JSON object with a type.
        ("[1, 2]\n", "line 1"),
        ("".join(boost[:2] + ['{"note": "x"}\n'] + boost[2:]), "line 3"),
        # A sample line without a key that sample_records writes.
        ("".join(boost[:3] + ['{"type": "sample", "id": 0}\n'] + boost[3:]), "line 4: .*'error'"),
        # JSON nested deeper than the interpreter's recursion limit.
        ("".join(boost[:4] + ["[" * 100_000 + "]" * 100_000 + "\n"] + boost[4:]), "line 5: maximum recursion depth"),
    ]
    first = json.loads(boost[3])
    assert first["type"] == "sample" and first["valid"]
    for key in sorted(first.keys() - {"type"}):
        line = json.dumps({k: v for k, v in first.items() if k != key}) + "\n"
        rows.append(("".join(boost[:3] + [line] + boost[4:]), f"line 4: sample without key '{key}'"))
    # Values report and resume cannot read: params not a mapping of lists of
    # numbers, meas neither null nor a mapping.
    malformed = [
        ({"params": ["C1"]}, "params is not a mapping"),
        ({"params": {**first["params"], "C1": "abc"}}, "param 'C1' is not a list of numbers"),
        ({"params": {**first["params"], "C1": 1e-6}}, "param 'C1' is not a list of numbers"),
        ({"params": {**first["params"], "C1": [1e-6, None]}}, "param 'C1' is not a list of numbers"),
        ({"params": {**first["params"], "C1": [True]}}, "param 'C1' is not a list of numbers"),
        ({"meas": [1.0]}, "meas is neither null nor a mapping"),
        ({"meas": "x"}, "meas is neither null nor a mapping"),
        # Scalars report and resume cannot read.
        ({"id": "0"}, "id has type str"),
        ({"iteration": "1"}, "iteration has type str"),
        ({"iteration": 0.0}, "iteration has type float"),
        ({"fitness": "x"}, "fitness has type str"),
        ({"fitness": None}, "fitness has type NoneType"),
        ({"valid": "yes"}, "valid has type str"),
        ({"valid": 1}, "valid has type int"),
        # Ints that have no float.
        ({"fitness": 10**400}, "fitness is too large for a float"),
        ({"params": {**first["params"], "C1": [-(10**400)]}}, "param 'C1' is too large for a float"),
    ]
    if restore:  # a point restore_state cannot fold: not n_dim (3) ints or numbers
        malformed += [
            ({"subdomain": "ab"}, "subdomain is not 3 ints"),
            ({"subdomain": first["subdomain"][:2]}, "subdomain is not 3 ints"),
            ({"subdomain": [0, 1, 2.0]}, "subdomain is not 3 ints"),
            ({"subdomain": [0, True, 2]}, "subdomain is not 3 ints"),
            ({"unit": None}, "unit is not 3 numbers"),
            ({"unit": first["unit"] + [0.5]}, "unit is not 3 numbers"),
            ({"unit": [0.5, 0.5, "x"]}, "unit is not 3 numbers"),
            # The first sample's point is checked before it is mapped.
            ({"unit": [1.5, *first["unit"][1:]]}, r"unit is outside \[0, 1\]"),
            ({"unit": [10**400, *first["unit"][1:]]}, r"unit is outside \[0, 1\]"),
            # Parameters that are not the unit point's, measurements that are
            # not lists of numbers, and measurements that do not score the
            # logged fitness of a valid sample.
            ({"params": {k.replace("C1", "C9"): v for k, v in first["params"].items()}}, "params are not this"),
            ({"params": {**first["params"], "C1": []}}, "params are not this"),
            ({"meas": {**first["meas"], "vmean": []}}, "fitness is not what its measurements score"),
            ({"meas": {**first["meas"], "vrip": 5}}, "meas does not map names to lists of numbers"),
            ({"meas": {**first["meas"], "eff_tot": ["0.5"]}}, "meas does not map names to lists of numbers"),
            ({"meas": None}, "fitness is not what its measurements score"),
        ]
    for edit, message in malformed:
        line = json.dumps({**first, **edit}) + "\n"
        rows.append(("".join(boost[:3] + [line] + boost[4:]), f"line 4: sample {message}"))
    if restore:  # a folded sample's point, or fitness, that restore_state does not fold
        second = json.loads(boost[4])
        assert second["type"] == "sample" and second["iteration"] == 0
        neighbour = second["subdomain"][0] + (1 if second["subdomain"][0] < 8 else -1)
        for edit, message in [
            ({"unit": [1.5, *second["unit"][1:]]}, r"unit is outside \[0, 1\]"),
            ({"unit": [*second["unit"][:2], math.nan]}, r"unit is outside \[0, 1\]"),
            ({"fitness": math.inf}, "fitness is not finite"),
            ({"fitness": math.nan}, "fitness is not finite"),
            ({"unit": [*second["unit"][:2], 10**400]}, r"unit is outside \[0, 1\]"),
            ({"subdomain": [99, *second["subdomain"][1:]]}, r"subdomain is outside \[0, 9\)"),
            ({"subdomain": [*second["subdomain"][:2], -1]}, r"subdomain is outside \[0, 9\)"),
            ({"subdomain": [10**31, *second["subdomain"][1:]]}, r"subdomain is outside \[0, 9\)"),
            # Values the log states and restore_state recomputes.
            ({"subdomain": [neighbour, *second["subdomain"][1:]]}, "unit is outside its subdomain's cell"),
            ({"fitness": math.nextafter(second["fitness"], math.inf)}, "fitness is not what its measurements score"),
            ({"valid": not second["valid"]}, "valid is not what its measurements score"),
        ]:
            line = json.dumps({**second, **edit}) + "\n"
            rows.append(("".join(boost[:4] + [line] + boost[5:]), f"line 5: sample {message}"))
    rows = [(text.encode(), message) for text, message in rows]
    # A line that is not UTF-8: a byte 0xff as the second sample's "error".
    line = boost[4].encode().replace(b'"error": null', b'"error": "\xff"')
    assert b"\xff" in line
    rows.append(("".join(boost[:4]).encode() + line + "".join(boost[5:]).encode(), "line 5: .*0xff"))
    return rows


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
        for bad in ("const:nan", "const:inf", "const:-0.5", "scale:nan", "scale:-1"):
            with pytest.raises(EngineError, match="finite and >= 0"):
                parse_alpha_schedule(bad)


class TestRun:
    def test_budget_exactness(self):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        records = []
        c.run(spec, RunConfig(n_total=333, seed=0), ev, sink=records.extend)
        assert len(records) == 333

    def test_in_cell_containment(self):
        spec, ev = c.builtin_problem("sphere_ring", 3)
        records = []
        c.run(spec, RunConfig(n_total=300, seed=1), ev, sink=records.extend)
        for r in records:
            for coord, cell in zip(r["unit"], r["subdomain"]):
                assert cell / 9 <= coord < (cell + 1) / 9

    def test_uniform_when_alpha_zero(self):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100_000, seed=5, n_pool=0, oversampling=False, alpha_schedule="const:0")
        records = []
        c.run(spec, cfg, ev, sink=records.extend)
        counts = collections.Counter(tuple(r["subdomain"]) for r in records)
        observed = np.array([counts.get((i, j), 0) for i in range(9) for j in range(9)])
        expected = 100_000 / 81
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        # chi-square critical value for 80 dof at p = 0.001
        assert chi2 < 124.84

    def test_greedy_concentration(self, hit_problem):
        spec, ev = hit_problem
        cfg = RunConfig(n_total=2000, seed=3, n_pool=0, oversampling=False)
        records = []
        c.run(spec, cfg, ev, sink=records.extend)
        frac = {}
        for r in records:
            frac.setdefault(r["iteration"], []).append(r["subdomain"] == [0, 0])
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

        records = []
        c.run(spec, RunConfig(n_total=100, seed=0), BuiltinEvaluator(flaky), sink=records.extend)
        assert len(records) == 100
        failed = [r for r in records if r["meas"] is None]
        assert failed and all(r["fitness"] == 0.0 for r in failed)


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

    def test_resumed_records_equal_uninterrupted(self, tmp_path):
        # A NaN radius makes a failed sample whose measurements are logged:
        # its resumed sample line must be the one the uninterrupted run wrote.
        # A run's sink receives its log's sample lines as records, whether
        # the run is logged or not, uninterrupted or resumed.
        spec, inner = c.builtin_problem("sphere_ring", 2)

        def model(params):
            meas = inner.evaluate_batch([c.EvaluationRequest(0, params)])[0].meas
            return {**meas, "radius": [math.nan]} if params["x0"][0] > 0.5 else meas

        ev = BuiltinEvaluator(model, "nan_ring")
        cfg = RunConfig(n_total=100, seed=3)
        full, resumed = [], []
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log", sink=full.extend)
        c.run(spec, cfg, ev, log_path=tmp_path / "part.log", stop_after_iteration=1)
        c.resume(tmp_path / "part.log", spec, cfg, ev, sink=resumed.extend)
        assert (tmp_path / "full.log").read_bytes() == (tmp_path / "part.log").read_bytes()
        samples = [e for e in read_log(tmp_path / "part.log") if e["type"] == "sample"]
        assert any(s["meas"] and math.isnan(s["meas"]["radius"][0]) and s["iteration"] <= 1 for s in samples)
        lines = sample_lines(tmp_path / "full.log")
        assert len(lines) == 100
        unlogged = []
        c.run(spec, cfg, ev, sink=unlogged.extend)
        for records in (full, resumed, unlogged):
            assert [json.dumps(r) for r in records] == lines

    def test_pinned_log_with_oversampling(self, tmp_path):
        # sphere_ring 6-D with pooling and oversampling: 10 iterations of 60,
        # each scoring 60 x 14 candidates by kNN.  The digest pins the log
        # bytes, so any change in kNN estimates or selection shows here.
        spec, ev = c.builtin_problem("sphere_ring", 6)
        c.run(spec, RunConfig(n_total=600, seed=11), ev, log_path=tmp_path / "r.log")
        digest = hashlib.sha256((tmp_path / "r.log").read_bytes()).hexdigest()
        assert digest == "c42d182960fd39e852225944d8b2d6608b168484f3184c399da69664be304565"

    def test_pinned_log_pooled_7d(self, tmp_path):
        # rosenbrock_box 7-D with pooling: 5 iterations whose draws range
        # over 9^7 cells.  The digest pins the log bytes, so any change in
        # probabilities or drawn sub-domains shows here.
        spec, ev = c.builtin_problem("rosenbrock_box", 7)
        c.run(spec, RunConfig(n_total=300, seed=5, oversampling=False), ev, log_path=tmp_path / "r.log")
        digest = hashlib.sha256((tmp_path / "r.log").read_bytes()).hexdigest()
        assert digest == "e88b68b69f5f93fca2da28677987595b4579892d820acd6108f8fa12464947d3"

    def test_pinned_log_rastrigin(self, tmp_path):
        # rastrigin_multi 4-D with pooling and oversampling: the digest pins
        # its table row's spec and the model's measurement bits.
        spec, ev = c.builtin_problem("rastrigin_multi", 4)
        c.run(spec, RunConfig(n_total=300, seed=7), ev, log_path=tmp_path / "r.log")
        digest = hashlib.sha256((tmp_path / "r.log").read_bytes()).hexdigest()
        assert digest == "ff7130c089028bcbab63dcf2cb99976ec0157fcaea789f46069a98ade24ce90c"

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
        assert digest == "503c5f9299240a6d9b09d2bb8279b1a103a412f657cdf6788194c0a9a5f0b551"

    def test_resume_after_completion_is_identity(self, tmp_path):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100, seed=1)
        st = c.run(spec, cfg, ev, log_path=tmp_path / "r.log")
        before = (tmp_path / "r.log").read_bytes()
        st2 = c.resume(tmp_path / "r.log", spec, cfg, ev)
        assert (tmp_path / "r.log").read_bytes() == before
        assert st2.iteration == st.iteration and len(st2.store) == len(st.store) == 100
        assert np.array_equal(cells(st2.tensor), cells(st.tensor))

    def test_tensor_reconstruction(self, tmp_path):
        spec, ev = c.builtin_problem("boost")
        cfg = RunConfig(n_total=300, seed=9)
        st = c.run(spec, cfg, ev, log_path=tmp_path / "r.log")
        rs = restore_state(tmp_path / "r.log", spec, cfg)
        assert np.array_equal(cells(rs.tensor), cells(st.tensor))
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
        assert np.array_equal(cells(rs.tensor), cells(fold))

    def test_restore_log_without_samples(self, tmp_path):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100, seed=1)
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log")
        header, iteration = (tmp_path / "full.log").read_text().splitlines()[:2]
        (tmp_path / "r.log").write_text(header + "\n" + iteration + "\n")
        records = []
        rs = restore_state(tmp_path / "r.log", spec, cfg, sink=records.extend)
        assert records == [] and rs.iteration == 0 and len(rs.store) == 0
        values, touched = cells(rs.tensor)
        assert np.all(values == OPTIMISTIC_INIT) and not touched.any()

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

    @pytest.mark.parametrize(
        "after,done", [(44, 2), (107, 5), (30, 1)], ids=["end-of-iteration-1", "end-of-log", "mid-iteration-1"]
    )
    def test_resume_log_with_stray_sample_copy(self, tmp_path, after, done):
        # 5 iterations of 20: line 44 is iteration 1's last sample, line 107
        # iteration 4's and line 30 one in between.  A stray copy of line
        # ``after`` ends the kept prefix; the restored store holds, and the
        # kept bytes end, the sample lines of the iterations complete before it.
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100, seed=0)
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log")
        full = (tmp_path / "full.log").read_bytes()
        lines = full.splitlines(keepends=True)
        (tmp_path / "r.log").write_bytes(b"".join(lines[:after] + [lines[after - 1]] + lines[after:]))
        records = []
        rs = restore_state(tmp_path / "r.log", spec, cfg, sink=records.extend)
        assert rs.iteration == done
        kept = sample_lines(tmp_path / "r.log", rs.kept_bytes)
        assert kept == sample_lines(tmp_path / "full.log")[: 20 * rs.iteration]
        assert [json.dumps(r) for r in records] == kept and len(rs.store) == len(kept)
        c.resume(tmp_path / "r.log", spec, cfg, ev)
        assert (tmp_path / "r.log").read_bytes() == full

    @pytest.mark.parametrize("at", [1, 10, 55], ids=["after-header", "iteration-0", "last-kept-iteration"])
    @pytest.mark.parametrize(
        "extra", [b"\n", b" \t \n", b'{"type": "note"}\n', None], ids=["blank", "whitespace", "note", "normalization"]
    )
    def test_resume_keeps_non_sample_lines(self, tmp_path, at, extra):
        # 5 iterations of 20, stopped after iteration 2: line 3 is the
        # normalization line and lines 46-65 are iteration 2's samples.  A
        # line that is not a sample inside the kept prefix stays where it is,
        # and no kept sample is cut.
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100, seed=0)
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log")
        c.run(spec, cfg, ev, log_path=tmp_path / "r.log", stop_after_iteration=2)
        full = (tmp_path / "full.log").read_bytes().splitlines(keepends=True)
        part = (tmp_path / "r.log").read_bytes().splitlines(keepends=True)
        assert len(part) == 65 and part == full[:65]
        extra = extra or full[2]
        (tmp_path / "r.log").write_bytes(b"".join(part[:at] + [extra] + part[at:]))
        c.resume(tmp_path / "r.log", spec, cfg, ev)
        assert (tmp_path / "r.log").read_bytes() == b"".join(full[:at] + [extra] + full[at:])

    @pytest.mark.parametrize("edit", ["deleted", "edited"])
    def test_resume_does_not_read_the_normalization_line(self, tmp_path, edit):
        # 300 samples stopped after iteration 2; line 3 is the normalization
        # line.  Resume scores iteration 0 again for its constants, so a cut
        # log whose line 3 is deleted or edited resumes to the samples of the
        # uninterrupted run.
        spec, ev = c.builtin_problem("boost")
        cfg = RunConfig(n_total=300, seed=3)
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log")
        c.run(spec, cfg, ev, log_path=tmp_path / "r.log", stop_after_iteration=2)
        lines = (tmp_path / "r.log").read_text().splitlines(keepends=True)
        norm = json.loads(lines[2])
        assert norm["type"] == "normalization"
        if edit == "deleted":
            del lines[2]
        else:
            lines[2] = json.dumps({**norm, "scalar": [norm["scalar"][0], 2 * norm["scalar"][1]]}) + "\n"
        (tmp_path / "r.log").write_text("".join(lines))
        c.resume(tmp_path / "r.log", spec, cfg, ev)
        assert sample_lines(tmp_path / "r.log") == sample_lines(tmp_path / "full.log")

    def test_restore_checks_lines_past_the_kept_prefix(self, tmp_path, monkeypatch):
        # One pass: the log is not read into a list, and a corrupt line past
        # the incomplete iteration 2 is still rejected.
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100, seed=0)
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log")
        lines = (tmp_path / "full.log").read_text().splitlines(keepends=True)
        monkeypatch.setattr(c.engine, "read_log", None)
        (tmp_path / "r.log").write_text("".join(lines[:49]))
        assert restore_state(tmp_path / "r.log", spec, cfg).iteration == 2
        (tmp_path / "r.log").write_text("".join(lines[:49] + ["[1, 2]\n"]))
        with pytest.raises(EngineError, match="line 50"):
            c.resume(tmp_path / "r.log", spec, cfg, ev)
        assert (tmp_path / "r.log").read_text() == "".join(lines[:49] + ["[1, 2]\n"])

    def test_restore_drops_incomplete_iteration(self, tmp_path):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=100, seed=0)
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log")
        lines = (tmp_path / "full.log").read_text().splitlines(keepends=True)
        (tmp_path / "r.log").write_text("".join(lines[:49]))
        rs = restore_state(tmp_path / "r.log", spec, cfg)
        assert rs.iteration == 2 and len(rs.store) == 40
        (tmp_path / "r.log").write_text("".join(lines[:13]))  # normalization + 10 samples
        rs = restore_state(tmp_path / "r.log", spec, cfg)
        assert rs.iteration == 0 and len(rs.store) == 0 and rs.consts is None

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

    def test_version_1_log_rejected(self, tmp_path):
        # Version 1 drew from the dense tensor; resuming it under the sparse
        # sampler would continue another random stream.
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=2000, seed=0)
        c.run(spec, cfg, ev, log_path=tmp_path / "r.log", stop_after_iteration=1)
        text = (tmp_path / "r.log").read_text()
        (tmp_path / "r.log").write_text(text.replace('"version": 2,', '"version": 1,', 1))
        before = (tmp_path / "r.log").read_bytes()
        with pytest.raises(EngineError, match="version"):
            c.resume(tmp_path / "r.log", spec, cfg, ev)
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
        c.resume(tmp_path / "h.log", spec, greedy, ev)
        post = [e for e in read_log(tmp_path / "h.log") if e["type"] == "sample" and e["iteration"] >= 6]
        counts = collections.Counter(tuple(r["subdomain"]) for r in post)
        top, n = counts.most_common(1)[0]
        assert top == (0, 0)
        assert n / len(post) > 0.9

    def test_resume_stops_at_a_stop_the_log_is_past(self, tmp_path):
        # 20 iterations of 100, logged up to iteration 4: a stop after
        # iteration 2 runs nothing more, however often it is resumed, and
        # a stop after iteration 6 runs up to it.
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=2000, seed=0)
        log = tmp_path / "r.log"
        c.run(spec, cfg, ev, log_path=log, stop_after_iteration=4)
        before = log.read_bytes()
        for _ in range(2):
            assert c.resume(log, spec, cfg, ev, stop_after_iteration=2).iteration == 5
            assert log.read_bytes() == before
        assert c.resume(log, spec, cfg, ev, stop_after_iteration=6).iteration == 7
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log")
        full = (tmp_path / "full.log").read_bytes()
        assert full.startswith(log.read_bytes()) and len(sample_lines(log)) == 700


class TestSink:
    """A run's sink receives each iteration's (or generation's) records once,
    in order; they are the log's sample lines."""

    @pytest.mark.parametrize("logged", [True, False], ids=["logged", "unlogged"])
    def test_run(self, tmp_path, logged):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=400, seed=7)  # 10 iterations of 40
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log")
        batches = []
        c.run(spec, cfg, ev, log_path=tmp_path / "r.log" if logged else None, sink=batches.append)
        assert [{r["iteration"] for r in b} for b in batches] == [{i} for i in range(10)]
        assert [len(b) for b in batches] == iteration_sizes(400)
        assert [json.dumps(r) for b in batches for r in b] == sample_lines(tmp_path / "full.log")

    def test_resume_of_a_log_cut_mid_iteration(self, tmp_path):
        # The restored iterations reach the sink before the first new
        # batch is evaluated, then each new one after its evaluation.
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=400, seed=7)
        c.run(spec, cfg, ev, log_path=tmp_path / "full.log")
        full = (tmp_path / "full.log").read_bytes()
        (tmp_path / "cut.log").write_bytes(full[: len(full) // 2])
        kept = restore_state(tmp_path / "cut.log", spec, cfg).iteration
        assert 0 < kept < 10 and len(sample_lines(tmp_path / "cut.log")) > 40 * kept

        events = []

        class Marking:
            def evaluate_batch(self, requests):
                events.append("evaluate")
                return ev.evaluate_batch(requests)

            def close(self):
                pass

        c.resume(tmp_path / "cut.log", spec, cfg, Marking(), sink=events.append)
        assert ["evaluate" if e == "evaluate" else "batch" for e in events] == (
            ["batch"] * kept + ["evaluate", "batch"] * (10 - kept)
        )
        batches = [e for e in events if e != "evaluate"]
        assert [b[0]["iteration"] for b in batches] == list(range(10))
        assert [json.dumps(r) for b in batches for r in b] == sample_lines(tmp_path / "full.log")

    def test_ga_run(self, tmp_path):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = c.IslandConfig(n_islands=2, population_size=5, generations=3)
        batches = []
        c.run_islands(spec, cfg, ev, seed=1, log_path=tmp_path / "ga.log", sink=batches.append)
        assert [{r["iteration"] for r in b} for b in batches] == [{g} for g in range(4)]
        assert [len(b) for b in batches] == [10] * 4
        assert [json.dumps(r) for b in batches for r in b] == sample_lines(tmp_path / "ga.log")


class TestLog:
    def test_read_log_round_trip(self, tmp_path):
        spec, ev = c.builtin_problem("sphere_ring", 2)
        cfg = RunConfig(n_total=60, seed=4)
        c.run(spec, cfg, ev, log_path=tmp_path / "r.log")
        entries = read_log(tmp_path / "r.log")
        assert entries[0]["type"] == "run"
        samples = [e for e in entries if e["type"] == "sample"]
        assert len(samples) == 60
        records = []
        c.run(spec, cfg, ev, sink=records.extend)
        assert samples == records

    def test_killed_run_keeps_complete_iterations(self, tmp_path, killed_run):
        # 10 iterations of 40 samples; the 300th evaluation is in iteration 7.
        log = killed_run("c.run(spec, c.RunConfig(n_total=400, seed=1), ev, log_path=log)", die_at=300)
        spec, ev = c.builtin_problem("sphere_ring", 2)
        c.run(spec, RunConfig(n_total=400, seed=1), ev, log_path=tmp_path / "full.log")
        assert (tmp_path / "full.log").read_bytes().startswith(log.read_bytes())
        assert sum(e["type"] == "sample" for e in read_log(log)) == 280

    def test_corrupt_log_rejected(self, tmp_path):
        boost = boost_log_lines(tmp_path)
        path = tmp_path / "bad.log"
        for text, line in corrupt_logs(boost):
            path.write_bytes(text)
            with pytest.raises(EngineError, match=line):
                read_log(path)
        # A GA sample line's extra "island" key is no corruption.
        first = json.loads(boost[3])
        path.write_text("".join(boost[:3] + [json.dumps({**first, "island": 0}) + "\n"] + boost[4:]))
        assert read_log(path)[3]["island"] == 0

    def test_iter_log_reads_as_it_yields(self, tmp_path):
        # A fault past the lines already yielded is raised when it is reached.
        boost = boost_log_lines(tmp_path)
        path = tmp_path / "bad.log"
        path.write_text("".join(boost[:5] + ["[1, 2]\n"] + boost[5:]))
        lines = iter_log(path)
        assert [next(lines)["type"] for _ in range(5)] == ["run", "iteration", "normalization", "sample", "sample"]
        with pytest.raises(EngineError, match="line 6"):
            next(lines)
        # A log cut inside its first line has no run header.
        path.write_text(boost[0][:10])
        with pytest.raises(EngineError, match="run header"):
            list(iter_log(path))

    def test_torn_undecodable_last_line_dropped(self, tmp_path):
        # A crash mid-write may tear a line inside a multi-byte character.
        boost = boost_log_lines(tmp_path)
        path = tmp_path / "torn.log"
        path.write_bytes("".join(boost).encode() + b'{"type": "sample", "error": "\xff')
        assert read_log(path) == read_log(tmp_path / "boost.log")

    def test_csv_exports(self, tmp_path, capsys):
        from carsopt.cli import _export

        spec, ev = c.builtin_problem("boost")
        with _export(spec, tmp_path, tmp_path / "r.log") as sink:
            c.run(spec, RunConfig(n_total=100, seed=0), ev, log_path=tmp_path / "r.log", sink=sink)
        header = (tmp_path / "summary.csv").read_text().splitlines()[0]
        assert header == "iteration,fit_min,fit_mean,fit_max,valid,n"
        n_valid = sum(e["valid"] for e in read_log(tmp_path / "r.log") if e["type"] == "sample")
        assert len((tmp_path / "valid_samples.csv").read_text().splitlines()) == n_valid + 1
        assert f"samples: 100  valid: {n_valid}  " in capsys.readouterr().out


def per_value_params(spec, dims, unit):
    """Reference: one unit point's parameters, ``to_physical`` per value."""
    params = {p.name: [0.0] * p.op_count if p.is_sampled else list(p.grid_values) for p in spec.parameters}
    for d, u in zip(dims, unit):
        params[d.parameter][d.op_index] = c.to_physical(d, u)
    return params


def bits(params):
    """Parameters as their log line would order them, each value by type and bits."""
    return [(k, [(type(v), v.hex() if type(v) is float else v) for v in vals]) for k, vals in params.items()]


@st.composite
def parameter_yaml(draw, n_ops):
    """A YAML problem: linear, log and grid parameters with float or int
    bounds, each shared or one per operating point."""
    entries = []
    for i in range(draw(st.integers(1, 4))):
        scale = draw(st.sampled_from(["linear", "log", "grid"]))
        op_count = draw(st.sampled_from([1, n_ops]))
        entry = {"name": f"p{i}", "scale": scale, "op_count": op_count}
        if scale == "grid":
            value = st.integers(-9, 9) | st.floats(-1e3, 1e3)
            entry["grid_values"] = draw(st.lists(value, min_size=op_count, max_size=op_count))
        else:
            small = 1e-12 if scale == "log" else -1e6
            number = st.integers(math.ceil(small), 10**6) | st.floats(small, 1e6)
            entry["bounds"] = sorted(draw(st.lists(number, min_size=2, max_size=2, unique=True)))
        entries.append(entry)
    return yaml.safe_dump({"n_operating_points": n_ops, "parameters": entries})


class TestPhysicalParams:
    """The batch parameter map equals ``to_physical`` per value, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_batch_equals_per_value(self, data):
        spec = parse_problem(yaml.safe_load(data.draw(parameter_yaml(data.draw(st.sampled_from([1, 3]))))))
        dims = sampled_dimensions(spec)
        unit = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
        units = data.draw(st.lists(st.lists(unit, min_size=len(dims), max_size=len(dims)), min_size=1, max_size=6))
        batch = _physical_params(spec, dims, np.array(units).reshape(len(units), len(dims)))
        assert [bits(p) for p in batch] == [bits(per_value_params(spec, dims, u)) for u in units]

    @given(st.integers(0, 11), st.floats(allow_nan=True).filter(lambda u: not 0.0 <= u <= 1.0))
    def test_unit_outside_range_is_problem_error(self, at, bad):
        spec, _ = c.builtin_problem("sphere_ring", 4)
        dims = sampled_dimensions(spec)
        units = np.full((3, 4), 0.5)
        units.flat[at] = bad
        with pytest.raises(ProblemError) as oracle:
            c.to_physical(dims[at % 4], bad)
        with pytest.raises(ProblemError, match=re.escape(str(oracle.value))):
            _physical_params(spec, dims, units)
