"""Sample evaluators: analytic surrogates and an external subprocess protocol.

Built-in evaluators are pure algebraic models, cheap enough for desk-scale
experiments.  Real simulators plug in through :class:`ExternalEvaluator`,
which speaks one JSON object per line on the child's stdin/stdout:

    request:  {"id": <int>, "params": {"<name>": [<value per operating point>]}}
    response: {"id": <int>, "meas": {"<name>": [<value per operating point>]}}
          or  {"id": <int>, "error": "<text>"}
"""

from __future__ import annotations

import json
import math
import queue
import shlex
import subprocess
import threading
import time
from dataclasses import dataclass

from .problem import BoundaryDef, ObjectiveDef, ParameterDef, ProblemError, ProblemSpec

__all__ = [
    "EvaluationRequest",
    "EvaluationResult",
    "EvaluatorTransportError",
    "BuiltinEvaluator",
    "ExternalEvaluator",
    "surrogate_boost",
    "builtin_problem",
    "BUILTIN_PROBLEMS",
    "make_evaluator",
]


@dataclass(frozen=True)
class EvaluationRequest:
    sample_id: int
    params: dict  # name -> list of physical values, one per operating point


@dataclass(frozen=True)
class EvaluationResult:
    sample_id: int
    meas: dict | None  # name -> list per operating point; None on failure
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.meas is not None


class EvaluatorTransportError(RuntimeError):
    """The evaluator itself failed (not an individual sample).

    ``results`` carries whatever completed before the failure.
    """

    def __init__(self, message: str, results: list[EvaluationResult] = ()):  # noqa: D401
        super().__init__(message)
        self.results = list(results)


class BuiltinEvaluator:
    """Pure evaluator wrapping an algebraic measurement model."""

    def __init__(self, fn, name: str = "builtin"):
        self._fn = fn
        self.name = name

    def evaluate_batch(self, requests: list[EvaluationRequest]) -> list[EvaluationResult]:
        results = []
        for req in requests:
            try:
                meas = self._fn(req.params)
            except Exception as exc:  # model blew up: sample fails, batch continues
                results.append(EvaluationResult(req.sample_id, None, str(exc)))
                continue
            results.append(EvaluationResult(req.sample_id, meas))
        return results

    def close(self):
        pass


# ---------------------------------------------------------------------------
# Surrogate boost converter
# ---------------------------------------------------------------------------

def surrogate_boost(params: dict) -> dict:
    """Algebraic stand-in for a boost-converter simulation.

    Inputs (one operating point): C1 [F], L1 [H], fsw [Hz].  Outputs:

    - ``vmean`` = 5 + 14 / (1 + exp(-z)) with z = (log10(L1*fsw) - 0.5) / 6;
      the 12 V target sits at L1*fsw = 10^0.5.
    - ``vrip``  = 2e-3 / (C1*fsw): ripple shrinks with more capacitance and
      faster switching.
    - ``eff_tot`` = 0.97 / ((1 + C1/2.5e-4) * (1 + fsw/2e7)): efficiency
      favors small capacitors, so vrip and eff_tot compete.

    A documented feasible design: C1=1e-5, L1=10**-4.5 (~3.1623e-5), fsw=1e5
    gives vmean=12.0, vrip=2e-3, eff_tot~0.928.
    """
    c1 = params["C1"][0]
    l1 = params["L1"][0]
    fsw = params["fsw"][0]
    z = (math.log10(l1 * fsw) - 0.5) / 6.0
    vmean = 5.0 + 14.0 / (1.0 + math.exp(-z))
    vrip = 2e-3 / (c1 * fsw)
    eff_tot = 0.97 / ((1.0 + c1 / 2.5e-4) * (1.0 + fsw / 2e7))
    return {"vmean": [vmean], "vrip": [vrip], "eff_tot": [eff_tot]}


def _boost_problem(n_dim=None) -> tuple[ProblemSpec, BuiltinEvaluator]:
    spec = ProblemSpec(
        parameters=(
            ParameterDef("C1", "log", (1e-9, 1e-3)),
            ParameterDef("L1", "log", (1e-6, 100e-3)),
            ParameterDef("fsw", "log", (100.0, 1e6)),
        ),
        objectives=(
            ObjectiveDef("vmean", "target", target_values=(12.0,)),
            ObjectiveDef("eff_tot", "max"),
        ),
        boundaries=(
            BoundaryDef("vmean", "range", ((11.5, 12.5),)),
            BoundaryDef("vrip", "range", ((0.0, 2.0),)),
        ),
    )
    return spec, BuiltinEvaluator(surrogate_boost, "boost")


# ---------------------------------------------------------------------------
# Constrained analytic test functions
# ---------------------------------------------------------------------------

def _coordinates(params: dict) -> list[float]:
    """x0, x1, ... in order: the request, not the model, fixes the dimension."""
    x = []
    while f"x{len(x)}" in params:
        x.append(params[f"x{len(x)}"][0])
    return x


def _sphere_ring_problem(n_dim: int = 4) -> tuple[ProblemSpec, BuiltinEvaluator]:
    """Sphere minimization constrained to a spherical shell.

    x in [-1, 1]^n; sphere = sum(x^2), radius = ||x||, boundary
    0.3 <= radius <= 0.8.  The unconstrained optimum (origin) is infeasible;
    the constrained optimum is any point at radius 0.3 with value 0.09.
    """

    def fn(params):
        s = sum(v * v for v in _coordinates(params))
        return {"sphere": [s], "radius": [math.sqrt(s)]}

    spec = ProblemSpec(
        parameters=tuple(ParameterDef(f"x{i}", "linear", (-1.0, 1.0)) for i in range(n_dim)),
        objectives=(ObjectiveDef("sphere", "min"),),
        boundaries=(BoundaryDef("radius", "range", ((0.3, 0.8),)),),
    )
    return spec, BuiltinEvaluator(fn, "sphere_ring")


def _rosenbrock_box_problem(n_dim: int = 4) -> tuple[ProblemSpec, BuiltinEvaluator]:
    """Shifted Rosenbrock with a box-radius boundary.

    x in [-2, 2]^n; rosen = Rosenbrock(x - 0.5), optimum 0 at x = 1.5 * ones;
    boundary max|x_i| <= 1.8 keeps the optimum feasible.
    """

    def fn(params):
        x = [v - 0.5 for v in _coordinates(params)]
        r = sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2 for i in range(len(x) - 1))
        return {"rosen": [r], "max_abs": [max(abs(v + 0.5) for v in x)]}

    spec = ProblemSpec(
        parameters=tuple(ParameterDef(f"x{i}", "linear", (-2.0, 2.0)) for i in range(n_dim)),
        objectives=(ObjectiveDef("rosen", "min"),),
        boundaries=(BoundaryDef("max_abs", "range", ((0.0, 1.8),)),),
    )
    return spec, BuiltinEvaluator(fn, "rosenbrock_box")


def _rastrigin_multi_problem(n_dim: int = 4) -> tuple[ProblemSpec, BuiltinEvaluator]:
    """Shifted Rastrigin (many local basins) with a radius boundary.

    x in [-5.12, 5.12]^n; rastrigin = Rastrigin(x - 0.5), optimum 0 at
    x = 0.5 * ones; boundary ||x - 0.5|| <= 4.5.
    """

    def fn(params):
        x = [v - 0.5 for v in _coordinates(params)]
        r = 10.0 * len(x) + sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) for v in x)
        return {"rastrigin": [r], "radius": [math.sqrt(sum(v * v for v in x))]}

    spec = ProblemSpec(
        parameters=tuple(
            ParameterDef(f"x{i}", "linear", (-5.12, 5.12)) for i in range(n_dim)
        ),
        objectives=(ObjectiveDef("rastrigin", "min"),),
        boundaries=(BoundaryDef("radius", "range", ((0.0, 4.5),)),),
    )
    return spec, BuiltinEvaluator(fn, "rastrigin_multi")


BUILTIN_PROBLEMS = {
    "boost": _boost_problem,
    "sphere_ring": _sphere_ring_problem,
    "rosenbrock_box": _rosenbrock_box_problem,
    "rastrigin_multi": _rastrigin_multi_problem,
}


def builtin_problem(name: str, n_dim: int | None = None) -> tuple[ProblemSpec, BuiltinEvaluator]:
    """Problem spec plus evaluator for a named built-in problem."""
    try:
        factory = BUILTIN_PROBLEMS[name]
    except KeyError:
        raise ProblemError(f"unknown built-in problem {name!r}; have {sorted(BUILTIN_PROBLEMS)}") from None
    if n_dim is None:
        return factory()
    return factory(n_dim)


# ---------------------------------------------------------------------------
# External subprocess evaluator
# ---------------------------------------------------------------------------

class ExternalEvaluator:
    """Drives a child process speaking the line-delimited JSON protocol.

    Requests are streamed with at most ``max_inflight`` outstanding; responses
    may arrive in any order and are matched by id.  A sample that times out or
    comes back malformed fails individually; a dead child or EOF raises
    :class:`EvaluatorTransportError` carrying the results completed so far.
    """

    def __init__(self, command: str, timeout: float = 60.0, max_inflight: int = 16):
        self.command = command
        self.timeout = timeout
        self.max_inflight = max_inflight
        try:
            self._proc = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise EvaluatorTransportError(f"cannot spawn evaluator {command!r}: {exc}")
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()
        self._lock = threading.Lock()

    def _read_loop(self):
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)  # EOF marker

    def evaluate_batch(self, requests: list[EvaluationRequest]) -> list[EvaluationResult]:
        with self._lock:
            return self._evaluate_batch(requests)

    def _evaluate_batch(self, requests):
        results: dict[int, EvaluationResult] = {}
        pending: dict[int, float] = {}  # id -> deadline
        it = iter(requests)

        def send_next():
            for req in it:
                line = json.dumps({"id": req.sample_id, "params": req.params}) + "\n"
                try:
                    self._proc.stdin.write(line)
                    self._proc.stdin.flush()
                except (BrokenPipeError, OSError):
                    raise EvaluatorTransportError(
                        "evaluator process closed its stdin",
                        [results[r.sample_id] for r in requests if r.sample_id in results],
                    )
                pending[req.sample_id] = time.monotonic() + self.timeout
                return True
            return False

        for _ in range(self.max_inflight):
            if not send_next():
                break

        while pending:
            wait = max(0.01, min(pending.values()) - time.monotonic())
            try:
                line = self._lines.get(timeout=wait)
            except queue.Empty:
                line = ""
            now = time.monotonic()
            if line is None:
                done = [results[r.sample_id] for r in requests if r.sample_id in results]
                raise EvaluatorTransportError("evaluator process exited mid-batch", done)
            if line:
                self._handle_line(line, pending, results)
                while len(pending) < self.max_inflight and send_next():
                    pass
            # Expire overdue samples.
            for sid in [s for s, dl in pending.items() if dl <= now]:
                del pending[sid]
                results[sid] = EvaluationResult(sid, None, "timeout")
                send_next()
        ordered = []
        for req in requests:
            ordered.append(
                results.get(req.sample_id)
                or EvaluationResult(req.sample_id, None, "no response")
            )
        return ordered

    @staticmethod
    def _handle_line(line: str, pending: dict, results: dict):
        line = line.strip()
        if not line:
            return
        try:
            obj = json.loads(line)
            sid = int(obj["id"])
        except (ValueError, TypeError, KeyError):
            return  # unattributable noise; the affected sample times out
        if sid not in pending:
            return  # duplicate or unknown id
        del pending[sid]
        if "meas" in obj and isinstance(obj["meas"], dict):
            try:
                meas = {str(k): [float(x) for x in v] for k, v in obj["meas"].items()}
            except (TypeError, ValueError):
                results[sid] = EvaluationResult(sid, None, "malformed measurements")
                return
            results[sid] = EvaluationResult(sid, meas)
        else:
            results[sid] = EvaluationResult(sid, None, str(obj.get("error", "evaluator error")))

    def close(self):
        """Close the child's stdin and reap it; a child still running 5 s
        later is killed."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def make_evaluator(ref: str, timeout: float = 60.0):
    """Resolve an evaluator reference: ``builtin:<name>`` or ``cmd:<command>``."""
    if ref.startswith("builtin:"):
        _, evaluator = builtin_problem(ref.split(":", 1)[1])
        return evaluator
    if ref.startswith("cmd:"):
        return ExternalEvaluator(ref.split(":", 1)[1], timeout=timeout)
    raise ProblemError(f"unknown evaluator reference {ref!r} (use builtin:<name> or cmd:<command>)")
