"""Sample evaluators: analytic surrogates and an external subprocess protocol.

Built-in evaluators are pure algebraic models, cheap enough for desk-scale
experiments.  Real simulators plug in through :class:`ExternalEvaluator`,
which speaks one JSON object per line on the child's stdin/stdout:

    request:  {"id": <int>, "params": {"<name>": [<value per operating point>]}}
    response: {"id": <int>, "meas": {"<name>": [<value per operating point>]}}
          or  {"id": <int>, "error": "<text>"}
"""

from __future__ import annotations

import collections
import json
import math
import os
import select
import shlex
import subprocess
import sys
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
    """The evaluator itself failed (not an individual sample)."""


class BuiltinEvaluator:
    """Pure evaluator wrapping an algebraic measurement model.  As from an
    external child, a return value that is not a dict of lists of numbers
    fails its own sample with ``"malformed measurements"``."""

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
            if _is_number_lists(meas):  # kept as returned, so a model's ints log as ints
                results.append(EvaluationResult(req.sample_id, meas))
            else:
                results.append(EvaluationResult(req.sample_id, None, "malformed measurements"))
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


def _boost_problem() -> tuple[ProblemSpec, BuiltinEvaluator]:
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
    while (name := f"x{len(x)}") in params:
        x.append(params[name][0])
    return x


def _sphere_ring(x: list[float]) -> dict:
    """Sphere minimization constrained to a spherical shell.

    x in [-1, 1]^n; sphere = sum(x^2), radius = ||x||, boundary
    0.3 <= radius <= 0.8.  The unconstrained optimum (origin) is infeasible;
    the constrained optimum is any point at radius 0.3 with value 0.09.
    """
    s = sum(v * v for v in x)
    return {"sphere": [s], "radius": [math.sqrt(s)]}


def _rosenbrock_box(x: list[float]) -> dict:
    """Shifted Rosenbrock with a box-radius boundary.

    x in [-2, 2]^n; rosen = Rosenbrock(x - 0.5), optimum 0 at x = 1.5 * ones;
    boundary max|x_i| <= 1.8 keeps the optimum feasible.
    """
    x = [v - 0.5 for v in x]
    r = sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2 for i in range(len(x) - 1))
    return {"rosen": [r], "max_abs": [max(abs(v + 0.5) for v in x)]}


def _rastrigin_multi(x: list[float]) -> dict:
    """Shifted Rastrigin (many local basins) with a radius boundary.

    x in [-5.12, 5.12]^n; rastrigin = Rastrigin(x - 0.5), optimum 0 at
    x = 0.5 * ones; boundary ||x - 0.5|| <= 4.5.
    """
    x = [v - 0.5 for v in x]
    r = 10.0 * len(x) + sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) for v in x)
    return {"rastrigin": [r], "radius": [math.sqrt(sum(v * v for v in x))]}


# name: (model, bounds of every x_i, minimized measurement, bounded measurement, its range)
_ANALYTIC = {
    "sphere_ring": (_sphere_ring, (-1.0, 1.0), "sphere", "radius", (0.3, 0.8)),
    "rosenbrock_box": (_rosenbrock_box, (-2.0, 2.0), "rosen", "max_abs", (0.0, 1.8)),
    "rastrigin_multi": (_rastrigin_multi, (-5.12, 5.12), "rastrigin", "radius", (0.0, 4.5)),
}


def _analytic_problem(name: str, n_dim: int) -> tuple[ProblemSpec, BuiltinEvaluator]:
    model, bounds, minimized, bounded, limits = _ANALYTIC[name]
    spec = ProblemSpec(
        parameters=tuple(ParameterDef(f"x{i}", "linear", bounds) for i in range(n_dim)),
        objectives=(ObjectiveDef(minimized, "min"),),
        boundaries=(BoundaryDef(bounded, "range", (limits,)),),
    )
    return spec, BuiltinEvaluator(lambda params: model(_coordinates(params)), name)


def builtin_problem(name: str, n_dim: int | None = None) -> tuple[ProblemSpec, BuiltinEvaluator]:
    """Problem spec plus evaluator for a named built-in problem.

    ``n_dim`` sizes the analytic problems (at least 1); boost has exactly 3
    dimensions.  None takes the problem's default: 4 for the analytic ones.
    """
    if name != "boost" and name not in _ANALYTIC:
        raise ProblemError(f"unknown built-in problem {name!r}; have {sorted(['boost', *_ANALYTIC])}")
    if name == "boost" and n_dim in (None, 3):
        return _boost_problem()
    if name == "boost" or (n_dim is not None and n_dim < 1):
        raise ProblemError(f"built-in problem {name!r} cannot have {n_dim} dimensions")
    return _analytic_problem(name, 4 if n_dim is None else n_dim)


# ---------------------------------------------------------------------------
# External subprocess evaluator
# ---------------------------------------------------------------------------

_WINDOW = 16  # requests outstanding per child
_FLOAT_MAX = int(sys.float_info.max)  # the largest int a measurement may be
# json.dumps's bytes without its per-call circular check: carsopt encodes
# only fresh dicts of lists, which cannot hold a cycle.
_encode = json.JSONEncoder(check_circular=False).encode


def _is_number_lists(meas) -> bool:
    """Whether ``meas`` is a dict of lists (or tuples) of floats or of ints
    within float range, subclasses such as ``numpy.float64`` included, bools
    not; plain loops, as this runs once per sample."""
    if not isinstance(meas, dict):
        return False
    for vals in meas.values():
        if not isinstance(vals, (list, tuple)):
            return False
        for x in vals:
            if not (isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX)):
                return False
    return True


def _parse_response(line: bytearray) -> EvaluationResult | None:
    """The result a response line carries; None for a line naming no integer id."""
    try:
        obj = json.loads(line.decode())  # UnicodeDecodeError is a ValueError
        sid = obj["id"]
    except (ValueError, TypeError, KeyError, RecursionError):
        return None  # unattributable noise, or nested too deep to parse
    if type(sid) is not int:
        return None  # an id of 2.5, "2" or true names no sample
    meas = obj.get("meas")
    if isinstance(meas, dict):
        if not _is_number_lists(meas):
            return EvaluationResult(sid, None, "malformed measurements")
        return EvaluationResult(sid, {k: [float(x) for x in vals] for k, vals in meas.items()})
    return EvaluationResult(sid, None, str(obj.get("error", "evaluator error")))


class ExternalEvaluator:
    """Drives a child process speaking the line-delimited JSON protocol.

    Up to 16 requests are outstanding at once; responses may arrive in any
    order and are matched by id.  Batches must not overlap: the child's
    stdout is read in the calling thread, by ``select`` on its pipe (POSIX
    only), and a response counts once its newline arrives.  A line that is not UTF-8 JSON naming an
    integer id is ignored as noise.  The child has one clock of ``timeout``
    seconds, restarted at each response and at a write into an idle child.
    When it runs out, the oldest outstanding request fails with
    ``"timeout"`` and the child is killed and respawned; the requests queued
    behind it are sent again.  A malformed response (one whose measurement values are not
    all lists of numbers, for one) fails its sample only; a child that
    exits or closes its stdin mid-batch raises
    :class:`EvaluatorTransportError`.  A ``timeout`` that is not a finite
    number of seconds > 0 raises ``ValueError`` before any child is spawned.
    """

    def __init__(self, command: str, timeout: float = 60.0):
        if not 0 < timeout < math.inf:  # also false for NaN
            raise ValueError(f"timeout must be a finite number of seconds > 0, not {timeout!r}")
        self.command = command
        self.timeout = timeout
        self._spawn()

    def _spawn(self):
        try:
            self._proc = subprocess.Popen(shlex.split(self.command), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise EvaluatorTransportError(f"cannot spawn evaluator {self.command!r}: {exc}")
        # Each child has its own buffer, so a killed child's late output
        # never reaches its successor.
        self._partial = bytearray()  # the bytes after the last newline

    def _read_lines(self, deadline: float) -> list[bytearray]:
        """Every complete stdout line of the child's next read that completes
        one; empty if ``deadline`` passes first."""
        fd = self._proc.stdout.fileno()
        while True:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                return []
            chunk = os.read(fd, 65536)
            if not chunk:
                raise EvaluatorTransportError("evaluator process exited mid-batch")
            self._partial += chunk  # in place: a long line costs no copies
            if b"\n" in chunk:
                *lines, self._partial = self._partial.split(b"\n")
                return lines

    def evaluate_batch(self, requests: list[EvaluationRequest]) -> list[EvaluationResult]:
        results: dict[int, EvaluationResult] = {}
        unsent = collections.deque(requests)
        pending: dict[int, EvaluationRequest] = {}  # sent and unanswered, oldest first
        deadline = 0.0
        while unsent or pending:
            if unsent and len(pending) < _WINDOW:
                if not pending:
                    deadline = time.monotonic() + self.timeout
                refill = []
                while unsent and len(pending) < _WINDOW:
                    req = unsent.popleft()
                    refill.append(_encode({"id": req.sample_id, "params": req.params}) + "\n")
                    pending[req.sample_id] = req
                try:
                    self._proc.stdin.write("".join(refill).encode())
                    self._proc.stdin.flush()
                except OSError:
                    raise EvaluatorTransportError("evaluator process closed its stdin") from None
            lines = self._read_lines(deadline)
            if not lines:
                # The child spent a whole timeout on its oldest request: fail
                # that one and hand the rest, uncharged, to a fresh child.
                sid = next(iter(pending))
                del pending[sid]
                results[sid] = EvaluationResult(sid, None, "timeout")
                unsent.extendleft(reversed(pending.values()))
                pending.clear()
                self._stop(grace=0)
                self._spawn()
                continue
            for line in lines:
                res = _parse_response(line)
                if res is not None and pending.pop(res.sample_id, None) is not None:
                    results[res.sample_id] = res
                    deadline = time.monotonic() + self.timeout
        return [results[req.sample_id] for req in requests]

    def _stop(self, grace: float):
        """Close the child's stdin, reap it (killing it if it is still
        running ``grace`` seconds later) and close its stdout."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def close(self):
        """Close the child's stdin and reap it; a child still running 5 s
        later is killed."""
        self._stop(grace=5)


def make_evaluator(ref: str, timeout: float = 60.0):
    """Resolve an evaluator reference: ``builtin:<name>`` or ``cmd:<command>``."""
    if ref.startswith("builtin:"):
        _, evaluator = builtin_problem(ref.split(":", 1)[1])
        return evaluator
    if ref.startswith("cmd:"):
        return ExternalEvaluator(ref.split(":", 1)[1], timeout=timeout)
    raise ProblemError(f"unknown evaluator reference {ref!r} (use builtin:<name> or cmd:<command>)")
