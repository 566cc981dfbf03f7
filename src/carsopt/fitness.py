"""Fitness computation: penalties, objectives, normalization, aggregation.

Boundary violations are penalized with the square root of the Canberra
distance, weighted by rho (100 on the scalar sampling path, 10,000 on the GA
path) so that boundary conditions dominate objectives.  The scalar aggregate
is mean(normalized objective fitness) - mean(normalized penalty); the GA path
keeps objectives separate and subtracts the summed raw penalties from each.

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
    "canberra_sqrt",
    "boundary_penalty",
    "objective_fitness",
    "is_valid",
    "NormalizationConstants",
    "FitnessBreakdown",
    "evaluate_breakdown",
    "ga_objective_vector",
]

RHO_SCALAR = 100.0
RHO_GA = 10_000.0
FAILED_GA_OBJECTIVE = -1e6


def canberra_sqrt(value: float, target: float) -> float:
    """sqrt(|value - target| / (|value| + |target|)), with 0/0 := 0."""
    num = abs(value - target)
    if num == 0.0:
        return 0.0
    return math.sqrt(num / (abs(value) + abs(target)))


def _op_values(meas: dict, name: str, ops) -> list[float]:
    vals = meas[name]
    return [vals[i] for i in ops]


def _boundary_pass(b: BoundaryDef, meas: dict, n_ops: int, rho: float) -> tuple[float, bool]:
    """Mean penalty of one boundary condition over its operating points, and
    whether it holds at every one of them.

    The ``larger`` kind is strict, so a value exactly at the threshold does
    not hold even though its distance-based penalty is 0.
    """
    ops = b.ops(n_ops)
    pens, holds = [], True
    for v, bound in zip(_op_values(meas, b.name, ops), b.per_op_values(len(ops))):
        if not math.isfinite(v):
            pens.append(rho)  # failed measurement counts as maximal unit distance
            holds = False
            continue
        if b.kind == "range":
            lo, hi = bound
            ok = lo <= v <= hi
            pens.append(0.0 if ok else rho * canberra_sqrt(v, lo if v < lo else hi))
        elif b.kind == "target":
            ok = v == bound
            pens.append(rho * canberra_sqrt(v, bound))
        else:  # larger: strict threshold
            ok = v > bound
            pens.append(0.0 if ok else rho * canberra_sqrt(v, bound))
        holds = holds and ok
    return sum(pens) / len(pens), holds


def boundary_penalty(b: BoundaryDef, meas: dict, n_ops: int, rho: float) -> float:
    """Mean penalty of one boundary condition over its operating points."""
    return _boundary_pass(b, meas, n_ops, rho)[0]


def objective_fitness(o: ObjectiveDef, meas: dict, n_ops: int) -> float:
    """Raw (unnormalized) fitness of one objective, reduced over operating points."""
    ops = o.ops(n_ops)
    vals = _op_values(meas, o.name, ops)
    if o.kind == "max":
        return sum(vals) / len(vals)
    if o.kind == "min":
        return -sum(vals) / len(vals)
    if o.kind == "target":
        targets = o.target_values
        if len(targets) == 1:
            targets = targets * len(ops)
        return -sum(canberra_sqrt(v, t) for v, t in zip(vals, targets)) / len(vals)
    # min_range: spread across all covered operating points
    return -max(vals) + min(vals)


def _measured(spec: ProblemSpec, meas: dict | None) -> bool:
    """True iff every measurement the spec reads is present and finite."""
    if meas is None:
        return False
    for name in spec.measurement_names():
        vals = meas.get(name)
        if vals is None or any(not math.isfinite(v) for v in vals):
            return False
    return True


def is_valid(spec: ProblemSpec, meas: dict) -> bool:
    """True iff every boundary condition holds at every covered operating point."""
    return _measured(spec, meas) and all(
        _boundary_pass(b, meas, spec.n_operating_points, RHO_SCALAR)[1] for b in spec.boundaries
    )


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
    def normalize(value: float, lo_hi: tuple[float, float]) -> float:
        lo, hi = lo_hi
        if hi == lo:
            return 0.5  # degenerate first batch: contribute no gradient
        return (value - lo) / (hi - lo)

    @classmethod
    def from_first_batch(
        cls,
        spec: ProblemSpec,
        breakdowns: list["FitnessBreakdown"],
    ) -> "NormalizationConstants":
        """Capture min/max of raw objective fitnesses, penalties and aggregates."""
        consts = cls()
        ok = [bd for bd in breakdowns if not bd.failed]
        if not ok:
            ok = breakdowns  # all failed: fall back to degenerate constants
        for i, o in enumerate(spec.objectives):
            vals = [bd.objective_raw[i] for bd in ok if math.isfinite(bd.objective_raw[i])]
            consts.objective[_obj_key(o, i)] = _min_max(vals)
        for i, b in enumerate(spec.boundaries):
            vals = [bd.penalty_raw[i] for bd in ok if math.isfinite(bd.penalty_raw[i])]
            consts.boundary[_bnd_key(b, i)] = _min_max(vals)
        scalars = [bd.pre_scalar(consts) for bd in ok]
        consts.scalar = _min_max([s for s in scalars if math.isfinite(s)])
        return consts

    def to_dict(self) -> dict:
        return {"objective": self.objective, "boundary": self.boundary, "scalar": self.scalar}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationConstants":
        return cls(
            objective={k: tuple(v) for k, v in d["objective"].items()},
            boundary={k: tuple(v) for k, v in d["boundary"].items()},
            scalar=tuple(d["scalar"]) if d.get("scalar") else None,
        )


def _min_max(vals) -> tuple[float, float]:
    if not vals:
        return (0.0, 0.0)
    return (min(vals), max(vals))


def _obj_key(o: ObjectiveDef, i: int) -> str:
    return f"obj{i}:{o.name}"


def _bnd_key(b: BoundaryDef, i: int) -> str:
    return f"bnd{i}:{b.name}"


# ---------------------------------------------------------------------------
# Per-sample breakdown and aggregation
# ---------------------------------------------------------------------------

@dataclass
class FitnessBreakdown:
    """Raw per-objective fitnesses and per-boundary penalties for one sample."""

    objective_raw: list[float]
    penalty_raw: list[float]
    valid: bool
    failed: bool

    def pre_scalar(self, consts: NormalizationConstants) -> float:
        """Normalized-objective mean minus normalized-penalty mean (before the
        final aggregate normalization)."""
        if self.failed:
            return 0.0
        obj = [
            consts.normalize(v, lo_hi)
            for v, lo_hi in zip(self.objective_raw, consts.objective.values())
        ]
        fit = sum(obj) / len(obj) if obj else 0.0
        if self.penalty_raw:
            pen = [
                consts.normalize(v, lo_hi)
                for v, lo_hi in zip(self.penalty_raw, consts.boundary.values())
            ]
            fit -= sum(pen) / len(pen)
        return fit

    def scalar(self, consts: NormalizationConstants) -> float:
        """Final scalar fitness: the pre-scalar passed through its own
        first-batch normalization."""
        if self.failed:
            return 0.0
        pre = self.pre_scalar(consts)
        if consts.scalar is None:
            return pre
        return consts.normalize(pre, consts.scalar)

    def ga_vector(self) -> list[float]:
        """GA objective vector: raw objectives minus the summed GA penalties."""
        if self.failed:
            return [FAILED_GA_OBJECTIVE] * len(self.objective_raw)
        total_pen = sum(self.penalty_raw) * (RHO_GA / RHO_SCALAR)
        return [v - total_pen for v in self.objective_raw]


def evaluate_breakdown(spec: ProblemSpec, meas: dict | None) -> FitnessBreakdown:
    """Compute raw objectives and penalties for one sample's measurements.

    ``meas`` of None, missing measurements or non-finite values mark the
    sample failed (scalar fitness 0, GA vector heavily penalized).
    """
    if not _measured(spec, meas):
        return FitnessBreakdown(
            objective_raw=[math.nan] * len(spec.objectives),
            penalty_raw=[math.nan] * len(spec.boundaries),
            valid=False,
            failed=True,
        )
    n_ops = spec.n_operating_points
    passes = [_boundary_pass(b, meas, n_ops, RHO_SCALAR) for b in spec.boundaries]
    return FitnessBreakdown(
        objective_raw=[objective_fitness(o, meas, n_ops) for o in spec.objectives],
        penalty_raw=[pen for pen, _ in passes],
        valid=all(holds for _, holds in passes),
        failed=False,
    )


def ga_objective_vector(bd: FitnessBreakdown) -> np.ndarray:
    return np.asarray(bd.ga_vector(), dtype=float)
