import json
import math
import sys
import textwrap
import time

import numpy as np
import pytest

from carsopt.engine import RunConfig, read_log, resume, run
from carsopt.evaluators import (
    BuiltinEvaluator,
    EvaluationRequest,
    EvaluatorTransportError,
    ExternalEvaluator,
    _parse_response,
    builtin_problem,
    make_evaluator,
    surrogate_boost,
)
from carsopt.fitness import evaluate_breakdown
from carsopt.problem import BoundaryDef, ObjectiveDef, ParameterDef, ProblemError, ProblemSpec


FEASIBLE_BOOST = {"C1": [1e-5], "L1": [10**-4.5], "fsw": [1e5]}


def is_valid(spec, meas):
    return bool(evaluate_breakdown(spec, [meas]).valid[0])


class TestSurrogateBoost:
    def test_feasible_design(self):
        meas = surrogate_boost(FEASIBLE_BOOST)
        assert meas["vmean"][0] == pytest.approx(12.0, abs=1e-12)
        assert meas["vrip"][0] == pytest.approx(2e-3, rel=1e-12)
        spec, _ = builtin_problem("boost")
        assert is_valid(spec, meas)

    def test_deterministic(self):
        a = surrogate_boost(FEASIBLE_BOOST)
        b = surrogate_boost(FEASIBLE_BOOST)
        assert a == b

    def test_ripple_decreases_with_capacitance(self):
        base = dict(FEASIBLE_BOOST)
        rips = []
        for c1 in (1e-7, 1e-6, 1e-5, 1e-4):
            base["C1"] = [c1]
            rips.append(surrogate_boost(base)["vrip"][0])
        assert rips == sorted(rips, reverse=True)

    def test_efficiency_decreases_with_frequency(self):
        base = dict(FEASIBLE_BOOST)
        effs = []
        for fsw in (1e3, 1e4, 1e5, 1e6):
            base["fsw"] = [fsw]
            effs.append(surrogate_boost(base)["eff_tot"][0])
        assert effs == sorted(effs, reverse=True)

    def test_vmean_range(self):
        low = surrogate_boost({"C1": [1e-5], "L1": [1e-6], "fsw": [100.0]})
        high = surrogate_boost({"C1": [1e-5], "L1": [0.1], "fsw": [1e6]})
        assert 5.0 < low["vmean"][0] < 12.0 < high["vmean"][0] < 19.0


# The analytic problems as three hand-built factories, before they became
# rows of one table: the oracle their specs and measurement bits must equal.


def oracle_coordinates(params):
    x = []
    while (name := f"x{len(x)}") in params:
        x.append(params[name][0])
    return x


def oracle_sphere_ring(n_dim):
    def fn(params):
        s = sum(v * v for v in oracle_coordinates(params))
        return {"sphere": [s], "radius": [math.sqrt(s)]}

    spec = ProblemSpec(
        parameters=tuple(ParameterDef(f"x{i}", "linear", (-1.0, 1.0)) for i in range(n_dim)),
        objectives=(ObjectiveDef("sphere", "min"),),
        boundaries=(BoundaryDef("radius", "range", ((0.3, 0.8),)),),
    )
    return spec, fn


def oracle_rosenbrock_box(n_dim):
    def fn(params):
        x = [v - 0.5 for v in oracle_coordinates(params)]
        r = sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2 for i in range(len(x) - 1))
        return {"rosen": [r], "max_abs": [max(abs(v + 0.5) for v in x)]}

    spec = ProblemSpec(
        parameters=tuple(ParameterDef(f"x{i}", "linear", (-2.0, 2.0)) for i in range(n_dim)),
        objectives=(ObjectiveDef("rosen", "min"),),
        boundaries=(BoundaryDef("max_abs", "range", ((0.0, 1.8),)),),
    )
    return spec, fn


def oracle_rastrigin_multi(n_dim):
    def fn(params):
        x = [v - 0.5 for v in oracle_coordinates(params)]
        r = 10.0 * len(x) + sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) for v in x)
        return {"rastrigin": [r], "radius": [math.sqrt(sum(v * v for v in x))]}

    spec = ProblemSpec(
        parameters=tuple(ParameterDef(f"x{i}", "linear", (-5.12, 5.12)) for i in range(n_dim)),
        objectives=(ObjectiveDef("rastrigin", "min"),),
        boundaries=(BoundaryDef("radius", "range", ((0.0, 4.5),)),),
    )
    return spec, fn


ORACLES = {
    "sphere_ring": oracle_sphere_ring,
    "rosenbrock_box": oracle_rosenbrock_box,
    "rastrigin_multi": oracle_rastrigin_multi,
}


class TestAnalyticTable:
    @pytest.mark.parametrize("name", ORACLES)
    def test_spec_equals_oracle(self, name):
        for n_dim in range(1, 10):
            assert builtin_problem(name, n_dim)[0] == ORACLES[name](n_dim)[0]
        assert builtin_problem(name)[0] == ORACLES[name](4)[0]

    @pytest.mark.parametrize("name", ORACLES)
    def test_measurements_equal_oracle_bits(self, name):
        # 50 seeded points per n_dim, each also with an extra x{n} and
        # without its last x: the request, not the spec, fixes the dimension.
        # repr tells every float's bits apart, and 0 from 0.0.
        for n_dim in range(1, 10):
            spec, ev = builtin_problem(name, n_dim)
            _, oracle = ORACLES[name](n_dim)
            points = np.random.default_rng(n_dim).uniform(*spec.parameters[0].bounds, (50, n_dim)).tolist()
            requests = []
            for point in points:
                params = {f"x{i}": [v] for i, v in enumerate(point)}
                requests += [params, {**params, f"x{n_dim}": [0.25]}, dict(list(params.items())[:-1])]
            results = ev.evaluate_batch([EvaluationRequest(i, p) for i, p in enumerate(requests)])
            for params, res in zip(requests, results):
                try:
                    want = (repr(oracle(params)), None)
                except Exception as exc:  # a 1-D request without x0 has no max_abs
                    want = (repr(None), str(exc))
                assert (repr(res.meas), res.error) == want


class TestAnalyticProblems:
    def test_sphere_center_infeasible(self):
        spec, ev = builtin_problem("sphere_ring", 3)
        meas = ev._fn({f"x{i}": [0.0] for i in range(3)})
        assert meas["sphere"][0] == 0.0
        assert not is_valid(spec, meas)

    def test_sphere_constrained_optimum(self):
        spec, ev = builtin_problem("sphere_ring", 4)
        meas = ev._fn({f"x{i}": [0.15] for i in range(4)})
        assert meas["radius"][0] == pytest.approx(0.3)
        assert meas["sphere"][0] == pytest.approx(0.09)
        assert is_valid(spec, meas)

    def test_rosenbrock_optimum(self):
        spec, ev = builtin_problem("rosenbrock_box", 4)
        meas = ev._fn({f"x{i}": [1.5] for i in range(4)})
        assert meas["rosen"][0] == pytest.approx(0.0, abs=1e-12)
        assert is_valid(spec, meas)

    def test_rastrigin_optimum(self):
        spec, ev = builtin_problem("rastrigin_multi", 4)
        meas = ev._fn({f"x{i}": [0.5] for i in range(4)})
        assert meas["rastrigin"][0] == pytest.approx(0.0, abs=1e-9)
        assert is_valid(spec, meas)

    def test_unknown_name(self):
        with pytest.raises(ValueError) as err:
            builtin_problem("nope")
        assert str(err.value) == (
            "unknown built-in problem 'nope'; have ['boost', 'rastrigin_multi', 'rosenbrock_box', 'sphere_ring']"
        )

    @pytest.mark.parametrize(
        "name,n_dim", [("boost", 5), ("boost", 2), ("sphere_ring", 0), ("rosenbrock_box", -1), ("rastrigin_multi", 0)]
    )
    def test_dimension_it_cannot_honour_rejected(self, name, n_dim):
        with pytest.raises(ProblemError) as err:
            builtin_problem(name, n_dim)
        assert str(err.value) == f"built-in problem {name!r} cannot have {n_dim} dimensions"

    @pytest.mark.parametrize("name,n_dim", [("boost", 3), ("boost", None), ("sphere_ring", 1), ("rastrigin_multi", 6)])
    def test_dimension_honoured(self, name, n_dim):
        spec, _ = builtin_problem(name, n_dim)
        assert len(spec.parameters) == (n_dim or 3)


class TestBuiltinEvaluator:
    def test_per_sample_failure_isolated(self):
        def fn(params):
            if params["x"][0] < 0:
                raise ValueError("negative input")
            return {"y": [params["x"][0] ** 2]}

        ev = BuiltinEvaluator(fn)
        res = ev.evaluate_batch(
            [EvaluationRequest(0, {"x": [2.0]}), EvaluationRequest(1, {"x": [-1.0]})]
        )
        assert res[0].ok and res[0].meas["y"] == [4.0]
        assert not res[1].ok and "negative" in res[1].error

    def test_measurements_must_be_number_lists(self):
        # Sample i's model returns RETURNS[i]; as from an external child, only
        # a dict of lists of numbers is a measurement.  A valid one keeps its
        # ints and numpy floats as returned; a tuple becomes a list.
        returns = [
            {"y": [1, 2.5]},
            {"y": [np.sqrt(2.0)], "z": (1.0, np.float64(-3.5))},
            {"y": ["oops"]},
            {"y": [True]},
            {"y": 3.0},
            {"y": [None]},
            {"y": [10**400]},
            [1.0],
            None,
        ]
        ev = BuiltinEvaluator(lambda params: returns[int(params["i"][0])])
        res = ev.evaluate_batch([EvaluationRequest(i, {"i": [i]}) for i in range(len(returns))])
        assert res[0].ok and res[0].meas == returns[0] and type(res[0].meas["y"][0]) is int
        assert res[1].ok and res[1].meas == {"y": [np.sqrt(2.0)], "z": [1.0, -3.5]}
        assert [type(x) for x in res[1].meas["z"]] == [float, np.float64]
        assert [(r.meas, r.error) for r in res[2:]] == [(None, "malformed measurements")] * (len(returns) - 2)

    def test_numpy_floats_log_as_floats(self, tmp_path):
        spec, inner = builtin_problem("sphere_ring", 2)

        def model(params):
            meas = inner.evaluate_batch([EvaluationRequest(0, params)])[0].meas
            return {k: tuple(np.float64(v) for v in vals) for k, vals in meas.items()}

        for name, ev in (("plain", inner), ("numpy", BuiltinEvaluator(model))):
            run(spec, RunConfig(n_total=60, seed=0), ev, log_path=tmp_path / f"{name}.log")
        assert (tmp_path / "numpy.log").read_bytes() == (tmp_path / "plain.log").read_bytes()

    def test_tuple_measurements_record_as_logged(self, tmp_path):
        # A record is the dict its log line encodes, so a model returning
        # tuples gives the same records live, in the log and once resumed.
        spec, inner = builtin_problem("sphere_ring", 3)
        ev = BuiltinEvaluator(lambda params: {k: tuple(v) for k, v in inner._fn(params).items()})
        cfg, log = RunConfig(n_total=40, seed=1), tmp_path / "run.log"
        live, resumed = [], []
        run(spec, cfg, ev, log_path=log, sink=live.extend)
        logged = [r for r in read_log(log) if r["type"] == "sample"]
        log.write_bytes(log.read_bytes()[: log.stat().st_size // 2])
        resume(log, spec, cfg, ev, sink=resumed.extend)
        assert live == logged == resumed

    def test_malformed_measurements_fail_only_their_samples(self):
        spec, inner = builtin_problem("sphere_ring", 2)

        def model(params):
            if params["x0"][0] > 0.5:
                return {"sphere": ["oops"], "radius": [0.5]}
            if params["x0"][0] < -0.5:
                return "oops"
            return inner.evaluate_batch([EvaluationRequest(0, params)])[0].meas

        records = []
        run(spec, RunConfig(n_total=60, seed=0), BuiltinEvaluator(model), sink=records.extend)
        bad = [r for r in records if abs(r["params"]["x0"][0]) > 0.5]
        assert len(records) == 60 and bad
        assert all(r["error"] == "malformed measurements" and not r["valid"] for r in bad)
        assert all(r["error"] is None for r in records if r not in bad)


def child_script(tmp_path, body):
    path = tmp_path / "child.py"
    path.write_text(textwrap.dedent(body))
    return f"{sys.executable} {path}"


ECHO_CHILD = """\
    import sys, json
    for line in sys.stdin:
        req = json.loads(line)
        total = sum(v[0] for v in req["params"].values())
        print(json.dumps({"id": req["id"], "meas": {"y": [total]}}), flush=True)
"""


SLOW_CHILD = """\
    import sys, json, time
    for line in sys.stdin:
        req = json.loads(line)
        time.sleep(0.2)
        print(json.dumps({"id": req["id"], "meas": {"y": [1.0]}}), flush=True)
"""


def hang_child(tmp_path, hang_id):
    """A serial child answering sphere/radius that sleeps forever on ``hang_id``."""
    body = """\
        import sys, json, math, time
        for line in sys.stdin:
            req = json.loads(line)
            if req["id"] == HANG_ID:
                while True:
                    time.sleep(1)
            s = sum(v[0] ** 2 for v in req["params"].values())
            print(json.dumps({"id": req["id"], "meas": {"sphere": [s], "radius": [math.sqrt(s)]}}), flush=True)
    """
    return child_script(tmp_path, body.replace("HANG_ID", str(hang_id)))


class TestExternalEvaluator:
    def requests(self, n):
        return [EvaluationRequest(i, {"a": [float(i)], "b": [0.5]}) for i in range(n)]

    def test_round_trip(self, tmp_path):
        ev = ExternalEvaluator(child_script(tmp_path, ECHO_CHILD), timeout=10.0)
        try:
            res = ev.evaluate_batch(self.requests(5))
        finally:
            ev.close()
        assert [r.sample_id for r in res] == [0, 1, 2, 3, 4]
        assert all(r.ok for r in res)
        assert [r.meas["y"][0] for r in res] == [0.5, 1.5, 2.5, 3.5, 4.5]

    def test_empty_batch(self, tmp_path):
        ev = ExternalEvaluator(child_script(tmp_path, ECHO_CHILD))
        try:
            assert ev.evaluate_batch([]) == []
        finally:
            ev.close()

    def test_duplicate_params_identical(self, tmp_path):
        ev = ExternalEvaluator(child_script(tmp_path, ECHO_CHILD), timeout=10.0)
        try:
            reqs = [EvaluationRequest(i, {"a": [3.0], "b": [0.5]}) for i in range(4)]
            res = ev.evaluate_batch(reqs)
        finally:
            ev.close()
        assert all(r.meas == res[0].meas for r in res)

    def test_out_of_order_responses(self, tmp_path):
        body = """\
            import sys, json
            buf = []
            for line in sys.stdin:
                buf.append(json.loads(line))
                if len(buf) == 4:
                    for req in reversed(buf):
                        print(json.dumps({"id": req["id"], "meas": {"y": [float(req["id"])]}}), flush=True)
                    buf = []
        """
        ev = ExternalEvaluator(child_script(tmp_path, body), timeout=10.0)
        try:
            res = ev.evaluate_batch(self.requests(4))
        finally:
            ev.close()
        assert [r.sample_id for r in res] == [0, 1, 2, 3]
        assert [r.meas["y"][0] for r in res] == [0.0, 1.0, 2.0, 3.0]

    def test_error_response(self, tmp_path):
        body = """\
            import sys, json
            for line in sys.stdin:
                req = json.loads(line)
                if req["id"] == 1:
                    print(json.dumps({"id": 1, "error": "diverged"}), flush=True)
                else:
                    print(json.dumps({"id": req["id"], "meas": {"y": [1.0]}}), flush=True)
        """
        ev = ExternalEvaluator(child_script(tmp_path, body), timeout=10.0)
        try:
            res = ev.evaluate_batch(self.requests(3))
        finally:
            ev.close()
        assert res[0].ok and res[2].ok
        assert not res[1].ok and res[1].error == "diverged"

    def test_measurements_must_be_number_lists(self, tmp_path):
        # Sample i gets MEAS[i]; only lists of JSON numbers are measurements.
        body = """\
            import sys, json
            MEAS = [
                '{"y": [1, 2.5]}',
                '{"radius": "12"}',
                '{"y": [true]}',
                '{"y": 3.0}',
                '{"y": [null]}',
                '{"y": ["1.0"]}',
                '{"y": [[1.0]]}',
                '{"y": [1%s]}' % ("0" * 400),
            ]
            for line in sys.stdin:
                req = json.loads(line)
                print('{"id": %d, "meas": %s}' % (req["id"], MEAS[req["id"]]), flush=True)
        """
        ev = ExternalEvaluator(child_script(tmp_path, body), timeout=10.0)
        try:
            res = ev.evaluate_batch(self.requests(8))
        finally:
            ev.close()
        assert res[0].ok and res[0].meas == {"y": [1.0, 2.5]}
        assert [(r.meas, r.error) for r in res[1:]] == [(None, "malformed measurements")] * 7

    def test_noise_lines_ignored(self, tmp_path):
        body = """\
            import sys, json
            for line in sys.stdin:
                req = json.loads(line)
                print("WARNING: solver chatter", flush=True)
                print("{not json", flush=True)
                print(json.dumps({"id": req["id"], "meas": {"y": [7.0]}}), flush=True)
        """
        ev = ExternalEvaluator(child_script(tmp_path, body), timeout=10.0)
        try:
            res = ev.evaluate_batch(self.requests(3))
        finally:
            ev.close()
        assert all(r.ok and r.meas["y"] == [7.0] for r in res)

    def test_non_integer_id_attributes_nothing(self, tmp_path):
        # 1.5 would truncate to sample 1; it names no sample, so sample 1
        # times out and no other sample takes its measurements.
        body = """\
            import sys, json
            for line in sys.stdin:
                req = json.loads(line)
                sid = req["id"] + 0.5 if req["id"] == 1 else req["id"]
                print(json.dumps({"id": sid, "meas": {"y": [float(sid)]}}), flush=True)
        """
        ev = ExternalEvaluator(child_script(tmp_path, body), timeout=0.5)
        try:
            res = ev.evaluate_batch(self.requests(4))
        finally:
            ev.close()
        assert [r.error for r in res] == [None, "timeout", None, None]
        assert [r.meas["y"][0] for r in res if r.ok] == [0.0, 2.0, 3.0]

    @pytest.mark.parametrize("sid", [2.5, 2.0, "2", True])
    def test_only_an_int_id_names_a_sample(self, sid):
        assert _parse_response(bytearray(json.dumps({"id": sid, "meas": {"y": [1.0]}}).encode())) is None

    def test_undecodable_line_ignored(self, tmp_path):
        body = """\
            import sys, json
            sys.stdout.buffer.write(b"\\xff\\xfe garbage\\n")
            sys.stdout.flush()
            for line in sys.stdin:
                req = json.loads(line)
                print(json.dumps({"id": req["id"], "meas": {"y": [7.0]}}), flush=True)
        """
        ev = ExternalEvaluator(child_script(tmp_path, body), timeout=2.0)
        try:
            res = ev.evaluate_batch(self.requests(4))
        finally:
            ev.close()
        assert [r.error for r in res] == [None] * 4

    def test_deeply_nested_line_ignored(self, tmp_path):
        # Nesting deeper than the recursion limit is noise, not a crash.
        deep = "[" * 100_000 + "]" * 100_000
        assert _parse_response(bytearray(deep.encode())) is None
        body = f"""\
            import sys, json
            for line in sys.stdin:
                req = json.loads(line)
                print("{deep}", flush=True)
                print(json.dumps({{"id": req["id"], "meas": {{"y": [7.0]}}}}), flush=True)
        """
        ev = ExternalEvaluator(child_script(tmp_path, body), timeout=10.0)
        try:
            res = ev.evaluate_batch(self.requests(3))
        finally:
            ev.close()
        assert all(r.ok and r.meas["y"] == [7.0] for r in res)

    def test_response_split_across_writes(self, tmp_path):
        body = """\
            import sys, json, time
            for line in sys.stdin:
                req = json.loads(line)
                out = json.dumps({"id": req["id"], "meas": {"y": [float(req["id"])]}}) + "\\n"
                sys.stdout.write(out[:10])
                sys.stdout.flush()
                time.sleep(0.05)
                sys.stdout.write(out[10:])
                sys.stdout.flush()
        """
        ev = ExternalEvaluator(child_script(tmp_path, body), timeout=10.0)
        try:
            res = ev.evaluate_batch(self.requests(3))
        finally:
            ev.close()
        assert [r.meas["y"][0] for r in res] == [0.0, 1.0, 2.0]

    def test_several_responses_in_one_write(self, tmp_path):
        body = """\
            import sys, json
            reqs = [json.loads(sys.stdin.readline()) for _ in range(5)]
            out = "".join(json.dumps({"id": r["id"], "meas": {"y": [float(r["id"])]}}) + "\\n" for r in reqs)
            sys.stdout.write("chatter\\n" + out)
            sys.stdout.flush()
            sys.stdin.read()
        """
        ev = ExternalEvaluator(child_script(tmp_path, body), timeout=10.0)
        try:
            res = ev.evaluate_batch(self.requests(5))
        finally:
            ev.close()
        assert [r.meas["y"][0] for r in res] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_unterminated_last_line_raises_transport_error(self, tmp_path):
        # The last response lacks its newline, so it never arrives whole.
        body = """\
            import sys, json
            reqs = [json.loads(sys.stdin.readline()) for _ in range(2)]
            print(json.dumps({"id": reqs[0]["id"], "meas": {"y": [1.0]}}), flush=True)
            sys.stdout.write(json.dumps({"id": reqs[1]["id"], "meas": {"y": [1.0]}}))
        """
        ev = ExternalEvaluator(child_script(tmp_path, body), timeout=10.0)
        try:
            with pytest.raises(EvaluatorTransportError, match="exited mid-batch"):
                ev.evaluate_batch(self.requests(2))
        finally:
            ev.close()

    def test_silent_sample_times_out(self, tmp_path):
        body = """\
            import sys, json
            for line in sys.stdin:
                req = json.loads(line)
                if req["id"] == 1:
                    continue
                print(json.dumps({"id": req["id"], "meas": {"y": [1.0]}}), flush=True)
        """
        ev = ExternalEvaluator(child_script(tmp_path, body), timeout=1.0)
        try:
            res = ev.evaluate_batch(self.requests(3))
        finally:
            ev.close()
        assert res[0].ok and res[2].ok
        assert not res[1].ok and res[1].error == "timeout"

    def test_child_death_raises_transport_error(self, tmp_path):
        body = """\
            import sys, json
            reqs = [json.loads(sys.stdin.readline()) for _ in range(4)]
            print(json.dumps({"id": reqs[0]["id"], "meas": {"y": [1.0]}}), flush=True)
            sys.exit(1)
        """
        ev = ExternalEvaluator(child_script(tmp_path, body), timeout=10.0)
        try:
            with pytest.raises(EvaluatorTransportError, match="exited mid-batch"):
                ev.evaluate_batch(self.requests(4))
        finally:
            ev.close()

    def test_timeout_clocks_each_sample_not_the_queue(self, tmp_path):
        # A batch of 12 at 0.2 s a sample takes 2.4 s, but no sample takes 1 s.
        ev = ExternalEvaluator(child_script(tmp_path, SLOW_CHILD), timeout=1.0)
        try:
            res = ev.evaluate_batch(self.requests(12))
        finally:
            ev.close()
        assert [r.error for r in res] == [None] * 12

    def test_hang_costs_only_its_sample(self, tmp_path):
        ev = ExternalEvaluator(hang_child(tmp_path, 3), timeout=1.0)
        try:
            start = time.monotonic()
            res = ev.evaluate_batch(self.requests(12))
            elapsed = time.monotonic() - start
        finally:
            ev.close()
        assert [(r.sample_id, r.error) for r in res if not r.ok] == [(3, "timeout")]
        assert elapsed < 3.0

    def test_close_reaps_killed_child_and_successor(self, tmp_path):
        ev = ExternalEvaluator(hang_child(tmp_path, 3), timeout=1.0)
        first = ev._proc
        try:
            ev.evaluate_batch(self.requests(12))
            assert first.stdout.closed and not ev._proc.stdout.closed
        finally:
            ev.close()
        assert ev._proc is not first
        assert first.returncode is not None and ev._proc.returncode is not None
        assert ev._proc.stdout.closed

    def test_cars_run_loses_only_the_hung_sample(self, tmp_path):
        spec, _ = builtin_problem("sphere_ring", 2)
        ev = ExternalEvaluator(hang_child(tmp_path, 25), timeout=1.0)
        try:
            run(spec, RunConfig(n_total=100, seed=0), ev, log_path=tmp_path / "run.log")
        finally:
            ev.close()
        samples = [r for r in read_log(tmp_path / "run.log") if r["type"] == "sample"]
        assert len(samples) == 100
        assert [(s["id"], s["error"]) for s in samples if s["error"] is not None] == [(25, "timeout")]
        assert all(s["meas"] is not None for s in samples if s["id"] != 25)

    def test_close_kills_stuck_child(self, tmp_path):
        body = """\
            import signal, sys, time
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            sys.stdin.read()
            while True:
                time.sleep(1)
        """
        ev = ExternalEvaluator(child_script(tmp_path, body))
        ev.close()
        assert ev._proc.poll() is not None

    def test_missing_command(self):
        with pytest.raises(EvaluatorTransportError):
            ExternalEvaluator("/no/such/binary-xyz")

    @pytest.mark.parametrize("timeout", [0, 0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_timeout_rejected_before_spawn(self, tmp_path, monkeypatch, timeout):
        spawned = []
        monkeypatch.setattr("carsopt.evaluators.subprocess.Popen", lambda *a, **kw: spawned.append(a))
        with pytest.raises(ValueError, match="timeout"):
            ExternalEvaluator(child_script(tmp_path, ECHO_CHILD), timeout=timeout)
        assert spawned == []


class TestMakeEvaluator:
    def test_builtin_reference(self):
        ev = make_evaluator("builtin:boost")
        res = ev.evaluate_batch([EvaluationRequest(0, FEASIBLE_BOOST)])
        assert res[0].meas["vmean"][0] == pytest.approx(12.0)

    def test_cmd_reference(self, tmp_path):
        ev = make_evaluator("cmd:" + child_script(tmp_path, ECHO_CHILD), timeout=10.0)
        try:
            res = ev.evaluate_batch([EvaluationRequest(0, {"a": [1.0]})])
        finally:
            ev.close()
        assert res[0].meas["y"] == [1.0]

    def test_bad_reference(self):
        with pytest.raises(ValueError):
            make_evaluator("ftp:whatever")
