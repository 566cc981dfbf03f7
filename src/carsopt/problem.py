"""Problem definition: parameters, objectives, boundary conditions.

All sampling happens in the unit hypercube [0, 1]^n_dim; physical parameter
values exist only at the evaluator boundary.  Each non-grid parameter
contributes one sampled dimension per operating point, so a parameter that is
varied independently at 5 operating points adds 5 dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import yaml

__all__ = [
    "ParameterDef",
    "ObjectiveDef",
    "BoundaryDef",
    "ProblemSpec",
    "DimensionDescriptor",
    "ProblemError",
    "sampled_dimensions",
    "to_physical",
    "from_physical",
    "subdomain_unit_interval",
    "load_problem",
    "parse_problem",
]

PARAM_SCALES = ("linear", "log", "grid")
OBJECTIVE_KINDS = ("max", "min", "target", "min_range")
BOUNDARY_KINDS = ("range", "target", "larger")


class ProblemError(ValueError):
    """Invalid problem definition or configuration file."""


@dataclass(frozen=True)
class ParameterDef:
    """One design parameter.

    ``linear``/``log`` parameters are sampled within ``bounds`` and expand to
    ``op_count`` independent dimensions.  ``grid`` parameters are fixed
    constants, one value per operating point, and are never sampled.
    """

    name: str
    scale: str
    bounds: tuple[float, float] | None = None
    grid_values: tuple[float, ...] | None = None
    op_count: int = 1

    def __post_init__(self):
        if self.scale not in PARAM_SCALES:
            raise ProblemError(f"parameter {self.name}: unknown scale {self.scale!r}")
        if self.op_count < 1:
            raise ProblemError(f"parameter {self.name}: op_count must be >= 1")
        if self.scale == "grid":
            if self.grid_values is None or len(self.grid_values) != self.op_count:
                raise ProblemError(
                    f"parameter {self.name}: grid requires exactly one value "
                    f"per operating point ({self.op_count})"
                )
        else:
            if self.bounds is None:
                raise ProblemError(f"parameter {self.name}: bounds required")
            lo, hi = self.bounds
            if not lo < hi:
                raise ProblemError(f"parameter {self.name}: bounds must satisfy lo < hi")
            if self.scale == "log" and lo <= 0:
                raise ProblemError(f"parameter {self.name}: log scale requires lo > 0")

    @property
    def is_sampled(self) -> bool:
        return self.scale != "grid"


@dataclass(frozen=True)
class ObjectiveDef:
    """One optimization objective over a named measurement."""

    name: str
    kind: str
    target_values: tuple[float, ...] | None = None
    op_scope: tuple[int, ...] | str = "all"

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ProblemError(f"objective {self.name}: unknown kind {self.kind!r}")
        if self.kind == "target" and not self.target_values:
            raise ProblemError(f"objective {self.name}: target kind requires target_values")

    def ops(self, n_ops: int) -> tuple[int, ...]:
        if self.op_scope == "all":
            return tuple(range(n_ops))
        return tuple(self.op_scope)


@dataclass(frozen=True)
class BoundaryDef:
    """One hard boundary condition over a named measurement.

    kinds: ``range`` with [lo, hi] per operating point, ``target`` with one
    value per operating point, ``larger`` with a strict scalar threshold.
    """

    name: str
    kind: str
    values: tuple = ()
    op_scope: tuple[int, ...] | str = "all"

    def __post_init__(self):
        if self.kind not in BOUNDARY_KINDS:
            raise ProblemError(f"boundary {self.name}: unknown kind {self.kind!r}")
        if self.kind == "range":
            for lo, hi in self.per_op_values(self._n_ops_hint()):
                if lo > hi:
                    raise ProblemError(f"boundary {self.name}: range lo > hi")

    def _n_ops_hint(self) -> int:
        # Enough to validate whatever values were supplied.
        if self.values and isinstance(self.values[0], (tuple, list)):
            return len(self.values)
        return 1

    def per_op_values(self, n_ops: int):
        """Expand ``values`` to one entry per covered operating point."""
        vals = self.values
        if self.kind == "range":
            if vals and not isinstance(vals[0], (tuple, list)):
                vals = (tuple(vals),)  # single [lo, hi] shared by all ops
            if len(vals) == 1:
                vals = vals * n_ops
            return [tuple(v) for v in vals]
        # target / larger: scalar per op
        if not isinstance(vals, (tuple, list)):
            vals = (vals,)
        if len(vals) == 1:
            vals = tuple(vals) * n_ops
        return list(vals)

    def ops(self, n_ops: int) -> tuple[int, ...]:
        if self.op_scope == "all":
            return tuple(range(n_ops))
        return tuple(self.op_scope)


@dataclass(frozen=True)
class DimensionDescriptor:
    """One sampled dimension of the unit hypercube."""

    parameter: str
    op_index: int
    scale: str
    lo: float
    hi: float

    @property
    def label(self) -> str:
        return f"{self.parameter}[{self.op_index}]"


@dataclass(frozen=True)
class ProblemSpec:
    """Complete problem: parameters, objectives, boundaries, operating points."""

    parameters: tuple[ParameterDef, ...]
    objectives: tuple[ObjectiveDef, ...]
    boundaries: tuple[BoundaryDef, ...]
    n_operating_points: int = 1
    run_settings: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.n_operating_points < 1:
            raise ProblemError("n_operating_points must be >= 1")
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ProblemError("duplicate parameter names")
        for item in (*self.objectives, *self.boundaries):
            if any(not 0 <= op < self.n_operating_points for op in item.ops(self.n_operating_points)):
                raise ProblemError(
                    f"{item.name}: op_scope {item.op_scope} outside the {self.n_operating_points} operating points"
                )
        for b in self.boundaries:
            n_ops = len(b.ops(self.n_operating_points))
            if len(b.per_op_values(n_ops)) != n_ops:
                raise ProblemError(f"boundary {b.name}: needs one value or one per operating point ({n_ops})")
        for o in self.objectives:
            if o.kind == "min_range" and len(o.ops(self.n_operating_points)) < 2:
                raise ProblemError(f"objective {o.name}: min_range needs >= 2 operating points")
            if o.kind == "target":
                need = len(o.ops(self.n_operating_points))
                if len(o.target_values) not in (1, need):
                    raise ProblemError(f"objective {o.name}: needs one target per operating point")

    @property
    def n_dim(self) -> int:
        return sum(p.op_count for p in self.parameters if p.is_sampled)

    def measurement_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for item in (*self.objectives, *self.boundaries):
            seen.setdefault(item.name)
        return list(seen)


def sampled_dimensions(spec: ProblemSpec) -> list[DimensionDescriptor]:
    """Expand non-grid parameters into per-operating-point sampled dimensions.

    Order is deterministic: parameter declaration order, operating points
    ascending within each parameter.
    """
    dims = []
    for p in spec.parameters:
        if not p.is_sampled:
            continue
        lo, hi = p.bounds
        for op in range(p.op_count):
            dims.append(DimensionDescriptor(p.name, op, p.scale, lo, hi))
    return dims


def to_physical(dim: DimensionDescriptor, u: float) -> float:
    """Map a unit coordinate to the physical parameter value."""
    if not 0.0 <= u <= 1.0:
        raise ProblemError(f"unit coordinate {u} outside [0, 1]")
    if dim.scale == "log":
        return math.exp(math.log(dim.lo) + u * (math.log(dim.hi) - math.log(dim.lo)))
    return dim.lo + u * (dim.hi - dim.lo)


def from_physical(dim: DimensionDescriptor, value: float) -> float:
    """Inverse of :func:`to_physical`."""
    if dim.scale == "log":
        return (math.log(value) - math.log(dim.lo)) / (math.log(dim.hi) - math.log(dim.lo))
    return (value - dim.lo) / (dim.hi - dim.lo)


def subdomain_unit_interval(j: int, n_sub: int) -> tuple[float, float]:
    """Unit-space interval [j/n_sub, (j+1)/n_sub] of sub-domain ``j``."""
    if not 0 <= j < n_sub:
        raise ProblemError(f"sub-domain index {j} out of range for {n_sub}")
    return (j / n_sub, (j + 1) / n_sub)


# ---------------------------------------------------------------------------
# Configuration file parsing (YAML key/value tree)
# ---------------------------------------------------------------------------

def parse_problem(data: dict) -> ProblemSpec:
    """Build a :class:`ProblemSpec` from a parsed configuration tree.

    Expected sections::

        n_operating_points: 1
        parameters:
          - {name: C1, scale: log, bounds: [1e-9, 1e-3], op_count: 1}
          - {name: V_out, scale: grid, grid_values: [300, 350], op_count: 2}
        objectives:
          - {name: vmean, kind: target, target_values: [12]}
          - {name: eff_tot, kind: max}
        boundaries:
          - {name: vmean, kind: range, values: [11.5, 12.5]}
          - {name: i_off, kind: larger, values: 0}
        run:            # optional engine overrides
          n_total: 5000
          seed: 0
          n_subdomain: 9
          n_pool: 3
          oversampling: true
    """
    if not isinstance(data, dict):
        raise ProblemError("configuration root must be a mapping")
    try:
        params = []
        for p in data.get("parameters", []):
            params.append(
                ParameterDef(
                    name=str(p["name"]),
                    scale=str(p["scale"]),
                    bounds=tuple(p["bounds"]) if "bounds" in p else None,
                    grid_values=tuple(p["grid_values"]) if "grid_values" in p else None,
                    op_count=int(p.get("op_count", 1)),
                )
            )
        objectives = []
        for o in data.get("objectives", []):
            objectives.append(
                ObjectiveDef(
                    name=str(o["name"]),
                    kind=str(o["kind"]),
                    target_values=tuple(o["target_values"]) if "target_values" in o else None,
                    op_scope=_parse_scope(o.get("op_scope", "all")),
                )
            )
        boundaries = []
        for b in data.get("boundaries", []):
            vals = b.get("values", ())
            if isinstance(vals, (int, float)):
                vals = (vals,)
            else:
                vals = tuple(tuple(v) if isinstance(v, (list, tuple)) else v for v in vals)
            boundaries.append(
                BoundaryDef(
                    name=str(b["name"]),
                    kind=str(b["kind"]),
                    values=vals,
                    op_scope=_parse_scope(b.get("op_scope", "all")),
                )
            )
    except (KeyError, TypeError) as exc:
        raise ProblemError(f"malformed problem configuration: {exc}") from exc
    return ProblemSpec(
        parameters=tuple(params),
        objectives=tuple(objectives),
        boundaries=tuple(boundaries),
        n_operating_points=int(data.get("n_operating_points", 1)),
        run_settings=dict(data.get("run", {})),
    )


def _parse_scope(scope):
    if scope == "all":
        return "all"
    return tuple(int(i) for i in scope)


def load_problem(path) -> ProblemSpec:
    """Load a problem configuration from a YAML file."""
    with open(path) as fh:
        data = yaml.safe_load(fh)
    return parse_problem(data)
