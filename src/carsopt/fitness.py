"""Fitness of a batch of samples: penalties, objectives, normalization,
aggregation.

``evaluate_breakdown`` scores a whole batch at once and returns columns: one
row per sample, one column per objective (its raw fitness) or per boundary
condition (its raw penalty).  Boundary violations are penalized with the
square root of the Canberra distance, weighted by rho (100 on the scalar
sampling path, 10,000 on the GA path) so that boundary conditions dominate
objectives.  The scalar aggregate is mean(normalized objective fitness) -
mean(normalized penalty); the GA path keeps objectives separate and subtracts
the summed raw penalties from each.

A sample fails when its measurements are None, or when a measurement the
spec reads is missing, holds fewer values than there are operating points,
or holds a value that is not finite.  A failed sample is invalid, its raw
columns are NaN, its scalar fitness is 0 and every GA objective is
``FAILED_GA_OBJECTIVE``.

Summation rule: every mean (over operating points, objectives or penalties)
is a left-to-right column sum that starts from 0.0 and is then divided by
the count, which is how ``sum(row) / len(row)`` rounds, so a sample scores
the same bits in any batch.  Python floats overflow to inf silently, so the
column arithmetic runs with numpy's overflow and invalid warnings off.

Normalization constants are min/max values captured from the first batch and
frozen afterwards; later values may fall outside [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import BoundaryDef, ObjectiveDef, ProblemSpec

__all__ = [
    "RHO_SCALAR",
    "RHO_GA",
    "FAILED_GA_OBJECTIVE",
    "NormalizationConstants",
    "FitnessBreakdown",
    "evaluate_breakdown",
    "ga_objective_vector",
]

RHO_SCALAR = 100.0
RHO_GA = 10_000.0
FAILED_GA_OBJECTIVE = -1e6


def _quiet():
    """Float arithmetic as Python does it: overflow and NaN without a warning."""
    return np.errstate(over="ignore", invalid="ignore")


def _mean(cols, n: int) -> np.ndarray:
    """Row means of ``n``-row columns, summed left to right from 0.0 and then
    divided by their count (a column may be a scalar)."""
    return sum(cols, np.zeros(n)) / len(cols)


def _sqrt_canberra(value: np.ndarray, target) -> np.ndarray:
    """sqrt(|value - target| / (|value| + |target|)), with 0/0 := 0."""
    num = np.abs(value - target)
    return np.where(num == 0.0, 0.0, np.sqrt(num / (np.abs(value) + np.abs(target))))


def _measurements(spec: ProblemSpec, metas: list) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Each measurement the spec reads as an (n, n_ops) array, and which
    samples failed.  A failed sample's row may hold anything."""
    n_ops = spec.n_operating_points
    nan_row = [math.nan] * n_ops
    failed = np.array([meas is None for meas in metas], dtype=bool)
    arrays = {}
    for name in spec.measurement_names():
        column = [None if meas is None else meas.get(name) for meas in metas]
        try:  # one array for the whole column ...
            x = np.array(column, dtype=float)
        except ValueError:  # ... unless it is ragged or holds a None beside a list
            x = None
        if x is None or x.ndim != 2 or x.shape[1] < n_ops:  # row by row; a row that fails is NaN
            ok = [v is not None and len(v) >= n_ops and all(map(math.isfinite, v)) for v in column]
            x = np.array([v[:n_ops] if k else nan_row for v, k in zip(column, ok)], dtype=float).reshape(-1, n_ops)
        failed |= ~np.isfinite(x).all(axis=1)
        arrays[name] = x[:, :n_ops]
    return arrays, failed


def _objective(o: ObjectiveDef, x: np.ndarray) -> np.ndarray:
    """Raw fitness of one objective from its (n, ops) measured values."""
    n = len(x)
    if o.kind == "max":
        return _mean(x.T, n)
    if o.kind == "min":
        return -_mean(x.T, n)
    if o.kind == "target":
        return -_mean(_sqrt_canberra(x, np.array(o.target_values, dtype=float)).T, n)
    # min_range: spread across all covered operating points.  Python's max
    # and min would pick the first of equal values; + 0.0 makes the only
    # case where numpy's pick could differ, an all-zero row, give +0.0 too.
    return -x.max(axis=1) + x.min(axis=1) + 0.0


def _boundary(b: BoundaryDef, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean penalty of one boundary condition from its (n, ops) measured
    values, and whether it holds at every one of those operating points.

    The ``larger`` kind is strict, so a value exactly at the threshold does
    not hold even though its distance-based penalty is 0.
    """
    bound = np.array(b.per_op_values(v.shape[1]), dtype=float)
    if b.kind == "range":
        lo, hi = bound[:, 0], bound[:, 1]
        holds = (lo <= v) & (v <= hi)
        pen = np.where(holds, 0.0, RHO_SCALAR * _sqrt_canberra(v, np.where(v < lo, lo, hi)))
    elif b.kind == "target":
        holds = v == bound
        pen = RHO_SCALAR * _sqrt_canberra(v, bound)
    else:  # larger: strict threshold
        holds = v > bound
        pen = np.where(holds, 0.0, RHO_SCALAR * _sqrt_canberra(v, bound))
    return _mean(pen.T, len(v)), holds.all(axis=1)


# ---------------------------------------------------------------------------
# Normalization (first-batch min/max, frozen afterwards)
# ---------------------------------------------------------------------------

@dataclass
class NormalizationConstants:
    """Per-objective / per-boundary / scalar-aggregate first-batch min and max."""

    objective: dict[str, tuple[float, float]] = field(default_factory=dict)
    boundary: dict[str, tuple[float, float]] = field(default_factory=dict)
    scalar: tuple[float, float] | None = None

    @staticmethod
    def normalize(value, lo_hi: tuple[float, float]):
        """``value`` (a float or an array) mapped so that lo -> 0 and hi -> 1."""
        lo, hi = lo_hi
        if hi == lo:
            return 0.5  # degenerate first batch: contribute no gradient
        return (value - lo) / (hi - lo)

    @classmethod
    def from_first_batch(cls, spec: ProblemSpec, bd: "FitnessBreakdown") -> "NormalizationConstants":
        """Capture min/max of the batch's finite raw objective fitnesses,
        penalties and aggregates, over its samples that did not fail."""
        consts = cls()
        ok = ~bd.failed
        for i, o in enumerate(spec.objectives):
            consts.objective[f"obj{i}:{o.name}"] = _min_max(bd.objective_raw[ok, i])
        for i, b in enumerate(spec.boundaries):
            consts.boundary[f"bnd{i}:{b.name}"] = _min_max(bd.penalty_raw[ok, i])
        consts.scalar = _min_max(bd.pre_scalar(consts)[ok])
        return consts

    def to_dict(self) -> dict:
        return {"objective": self.objective, "boundary": self.boundary, "scalar": self.scalar}


def _min_max(vals: np.ndarray) -> tuple[float, float]:
    """Min and max of the finite values; Python's min and max keep the
    first of equal values, which fixes the sign of a zero."""
    finite = vals[np.isfinite(vals)].tolist()
    if not finite:
        return (0.0, 0.0)
    return (min(finite), max(finite))


# ---------------------------------------------------------------------------
# Batch breakdown and aggregation
# ---------------------------------------------------------------------------

@dataclass
class FitnessBreakdown:
    """Raw fitnesses and penalties of a batch, one row per sample: shapes
    (n, objectives), (n, boundaries), (n,) and (n,)."""

    objective_raw: np.ndarray
    penalty_raw: np.ndarray
    valid: np.ndarray
    failed: np.ndarray

    def pre_scalar(self, consts: NormalizationConstants) -> np.ndarray:
        """Normalized-objective mean minus normalized-penalty mean (before the
        final aggregate normalization); 0 for a failed sample."""
        n = len(self.failed)
        with _quiet():
            obj = [consts.normalize(c, lo_hi) for c, lo_hi in zip(self.objective_raw.T, consts.objective.values())]
            fit = _mean(obj, n) if obj else np.zeros(n)
            if self.penalty_raw.shape[1]:
                pen = [consts.normalize(c, lo_hi) for c, lo_hi in zip(self.penalty_raw.T, consts.boundary.values())]
                fit = fit - _mean(pen, n)
        return np.where(self.failed, 0.0, fit)

    def scalar(self, consts: NormalizationConstants) -> np.ndarray:
        """The batch's scalar fitness: each pre-scalar passed through its own
        first-batch normalization; 0 for a failed sample."""
        pre = self.pre_scalar(consts)
        with _quiet():
            return np.where(self.failed, 0.0, consts.normalize(pre, consts.scalar))


def evaluate_breakdown(spec: ProblemSpec, metas: list) -> FitnessBreakdown:
    """Raw objectives, penalties and validity of a batch from its samples'
    ``meas`` dicts (None for a sample the evaluator failed)."""
    n, n_ops = len(metas), spec.n_operating_points
    with _quiet():
        arrays, failed = _measurements(spec, metas)
        objective_raw = np.empty((n, len(spec.objectives)))
        for i, o in enumerate(spec.objectives):
            objective_raw[:, i] = _objective(o, arrays[o.name][:, o.ops(n_ops)])
        penalty_raw = np.empty((n, len(spec.boundaries)))
        valid = ~failed
        for i, b in enumerate(spec.boundaries):
            penalty_raw[:, i], holds = _boundary(b, arrays[b.name][:, b.ops(n_ops)])
            valid &= holds
    objective_raw[failed] = math.nan
    penalty_raw[failed] = math.nan
    return FitnessBreakdown(objective_raw, penalty_raw, valid, failed)


def ga_objective_vector(bd: FitnessBreakdown) -> np.ndarray:
    """GA objective rows, (n, objectives): raw objectives minus the summed GA
    penalties; every objective of a failed sample is FAILED_GA_OBJECTIVE."""
    with _quiet():
        total_pen = sum(bd.penalty_raw.T, np.zeros(len(bd.failed))) * (RHO_GA / RHO_SCALAR)
        vecs = bd.objective_raw - total_pen[:, None]
    vecs[bd.failed] = FAILED_GA_OBJECTIVE
    return vecs
