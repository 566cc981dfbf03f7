import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carsopt
from carsopt import (
    BuiltinEvaluator,
    ObjectiveDef,
    ParameterDef,
    ProblemSpec,
)


@pytest.fixture
def hit_problem():
    """2-D problem whose fitness is 1 only inside the (0, 0) sub-domain of a
    9x9 grid, 0 elsewhere."""
    spec = ProblemSpec(
        parameters=(
            ParameterDef("a", "linear", (0.0, 1.0)),
            ParameterDef("b", "linear", (0.0, 1.0)),
        ),
        objectives=(ObjectiveDef("hit", "max"),),
        boundaries=(),
    )

    def fn(params):
        hit = 1.0 if params["a"][0] < 1 / 9 and params["b"][0] < 1 / 9 else 0.0
        return {"hit": [hit]}

    return spec, BuiltinEvaluator(fn)


class CountingEvaluator:
    """Wraps an evaluator and counts batch dispatches and samples."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = 0
        self.samples = 0

    def evaluate_batch(self, requests):
        self.batches += 1
        self.samples += len(requests)
        return self.inner.evaluate_batch(requests)

    def close(self):
        self.inner.close()


@pytest.fixture
def counting():
    return CountingEvaluator


class DroppingEvaluator:
    """Wraps an evaluator and leaves out the result for sample id ``drop``."""

    def __init__(self, inner, drop):
        self.inner = inner
        self.drop = drop

    def evaluate_batch(self, requests):
        return [r for r in self.inner.evaluate_batch(requests) if r.sample_id != self.drop]

    def close(self):
        self.inner.close()


@pytest.fixture
def dropping():
    return DroppingEvaluator


_DYING_CHILD = """
import itertools, os, sys
import carsopt as c

spec, inner = c.builtin_problem("sphere_ring", 2)
calls = itertools.count(1)


def model(params):
    if next(calls) == int(sys.argv[2]):
        os._exit(1)
    return inner.evaluate_batch([c.EvaluationRequest(0, params)])[0].meas


ev = c.BuiltinEvaluator(model)
log = sys.argv[1]
"""


@pytest.fixture
def killed_run(tmp_path):
    """``killed_run(call, die_at)`` runs ``call`` in a child process, with
    ``spec`` (sphere_ring 2-D), ``ev`` and ``log`` defined; the evaluator
    kills the child on its ``die_at``-th sample.  Returns the log path."""

    def run(call: str, die_at: int) -> Path:
        log = tmp_path / "killed.log"
        src = str(Path(carsopt.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        args = [sys.executable, "-c", _DYING_CHILD + call, str(log), str(die_at)]
        assert subprocess.run(args, env=env, timeout=120).returncode == 1
        return log

    return run
