import numpy as np
import pytest

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

    return spec, BuiltinEvaluator(fn, "hit")


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
