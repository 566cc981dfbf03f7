"""Problem definition: parameters, objectives, boundary conditions.

All sampling happens in the unit hypercube [0, 1]^n_dim; physical parameter
values exist only at the evaluator boundary.  Each non-grid parameter
contributes one sampled dimension per operating point, so a parameter that is
varied independently at 5 operating points adds 5 dimensions.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

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
    "load_problem",
    "parse_problem",
    "from_mapping",
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


class _Scoped:
    """An objective or boundary, over the operating points in ``op_scope``."""

    def ops(self, n_ops: int) -> tuple[int, ...]:
        if self.op_scope == "all":
            return tuple(range(n_ops))
        return tuple(self.op_scope)


@dataclass(frozen=True)
class ObjectiveDef(_Scoped):
    """One optimization objective over a named measurement."""

    name: str
    kind: str
    target_values: tuple[float, ...] | None = None
    op_scope: tuple[int, ...] | Literal["all"] = "all"

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ProblemError(f"objective {self.name}: unknown kind {self.kind!r}")
        if self.kind == "target" and not self.target_values:
            raise ProblemError(f"objective {self.name}: target kind requires target_values")


@dataclass(frozen=True)
class BoundaryDef(_Scoped):
    """One hard boundary condition over a named measurement.

    kinds: ``range`` with [lo, hi] per operating point, ``target`` with one
    value per operating point, ``larger`` with a strict scalar threshold.
    One value (one [lo, hi] for ``range``) serves every operating point.
    ``values`` is kept as a tuple of (lo, hi) pairs for ``range`` and of
    numbers otherwise.
    """

    name: str
    kind: str
    values: float | tuple[float | tuple[float, float], ...] = ()
    op_scope: tuple[int, ...] | Literal["all"] = "all"

    def __post_init__(self):
        if self.kind not in BOUNDARY_KINDS:
            raise ProblemError(f"boundary {self.name}: unknown kind {self.kind!r}")
        vals = tuple(self.values) if isinstance(self.values, (tuple, list)) else (self.values,)
        if self.kind == "range":
            if _is_pair(vals):
                vals = (vals,)
            if not all(map(_is_pair, vals)):
                raise ProblemError(
                    f"boundary {self.name}: range values must be [lo, hi] or one [lo, hi] "
                    f"per operating point, not {self.values!r}"
                )
            vals = tuple(map(tuple, vals))
            if any(lo > hi for lo, hi in vals):
                raise ProblemError(f"boundary {self.name}: range lo > hi")
        elif not all(isinstance(v, numbers.Real) for v in vals):
            raise ProblemError(f"boundary {self.name}: {self.kind} values must be numbers, not {self.values!r}")
        object.__setattr__(self, "values", vals)

    def per_op_values(self, n_ops: int) -> list:
        """``values`` with one entry per covered operating point."""
        return list(self.values * n_ops if len(self.values) == 1 else self.values)


def _is_pair(v) -> bool:
    return isinstance(v, (tuple, list)) and len(v) == 2 and all(isinstance(x, numbers.Real) for x in v)


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

    parameters: tuple[ParameterDef, ...] = ()
    objectives: tuple[ObjectiveDef, ...] = ()
    boundaries: tuple[BoundaryDef, ...] = ()
    n_operating_points: int = 1
    run: dict = field(default_factory=dict, compare=False)  # the config's ``run:`` section

    def __post_init__(self):
        if self.n_operating_points < 1:
            raise ProblemError("n_operating_points must be >= 1")
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ProblemError("duplicate parameter names")
        n_ops = self.n_operating_points
        for p in self.parameters:
            if p.op_count not in (1, n_ops):
                raise ProblemError(f"parameter {p.name}: op_count {p.op_count} must be 1 or n_operating_points ({n_ops})")
        for item in (*self.objectives, *self.boundaries):
            ops = item.ops(n_ops)
            if not ops or not all(0 <= op < n_ops for op in ops):
                raise ProblemError(
                    f"{item.name}: op_scope {item.op_scope} must list some of the {n_ops} operating points"
                )
        for b in self.boundaries:
            if len(b.values) not in (1, len(b.ops(n_ops))):
                raise ProblemError(f"boundary {b.name}: needs one value or one per operating point in its op_scope")
        for o in self.objectives:
            if o.kind == "min_range" and len(o.ops(n_ops)) < 2:
                raise ProblemError(f"objective {o.name}: min_range needs >= 2 operating points")
            if o.kind == "target" and len(o.target_values) not in (1, len(o.ops(n_ops))):
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


# ---------------------------------------------------------------------------
# Configuration file parsing (YAML key/value tree)
# ---------------------------------------------------------------------------

def parse_problem(data: dict) -> ProblemSpec:
    """Build a :class:`ProblemSpec` from a parsed configuration tree.

    Every section is optional, and every key in it is checked by
    :func:`from_mapping`::

        n_operating_points: 2
        parameters:
          - {name: C1, scale: log, bounds: [1e-9, 1e-3], op_count: 1}
          - {name: V_out, scale: grid, grid_values: [300, 350], op_count: 2}
        objectives:
          - {name: vmean, kind: target, target_values: [12]}
          - {name: eff_tot, kind: max}
        boundaries:
          - {name: vmean, kind: range, values: [11.5, 12.5]}
          - {name: i_off, kind: larger, values: 0}
        run:            # RunConfig keys, plus evaluator and ga; read by the CLI
          n_total: 5000
          seed: 0
    """
    return from_mapping(ProblemSpec, data, "")


def from_mapping(cls, mapping, prefix: str, **given):
    """``cls`` built from the YAML ``mapping`` at ``prefix`` by field name,
    each value read as its field's annotated type; ``given`` values win.  An
    unknown key, or a missing one whose field has no default, is an error
    naming it."""
    if not isinstance(mapping, dict):
        raise ProblemError(f"{prefix or 'configuration root'} must be a mapping, not {mapping!r}")
    dot = f"{prefix}." if prefix else ""
    fields = dataclasses.fields(cls)
    unknown = sorted(set(mapping) - {f.name for f in fields}, key=str)
    if unknown:
        raise ProblemError(f"unknown key(s) in the config: {', '.join(f'{dot}{k}' for k in unknown)}")
    # A field without a default has both default and default_factory MISSING.
    missing = [f.name for f in fields if f.default is f.default_factory and f.name not in {**mapping, **given}]
    if missing:
        raise ProblemError(f"missing key(s) in the config: {', '.join(dot + k for k in missing)}")
    hints = get_type_hints(cls)
    values = {f.name: _coerce(mapping[f.name], hints[f.name], dot + f.name) for f in fields if f.name in mapping}
    return cls(**{**values, **given})


def _coerce(value, kind, key: str):
    """``value`` read as type ``kind`` without loss: a bool only from a YAML
    boolean, an int only from a 64-bit int, a float also from an int (kept as
    given, so it logs as written) or from a string ``float()`` parses
    (PyYAML reads ``1e-3`` as a string).  Unions, ``Literal``, tuples (from
    YAML lists) and dataclasses (from mappings) are read part by part."""
    origin, args = get_origin(kind), get_args(kind)
    if origin in (Union, UnionType):
        alternatives = [a for a in args if a is not type(None)]
        if value is None and len(alternatives) < len(args):
            return None
        if len(alternatives) == 1:
            return _coerce(value, alternatives[0], key)
        for alternative in alternatives:
            try:
                return _coerce(value, alternative, key)
            except ProblemError:
                pass
    elif origin is Literal:
        if any(type(value) is type(a) and value == a for a in args):
            return value
    elif origin is tuple and type(value) in (list, tuple):
        kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(kinds) == len(value):
            return tuple(_coerce(v, k, f"{key}[{i}]") for i, (v, k) in enumerate(zip(value, kinds)))
    elif dataclasses.is_dataclass(kind):
        return from_mapping(kind, value, key)
    elif type(value) is kind and (kind is not int or -(2**63) <= value < 2**63):
        return value
    elif kind is float and type(value) in (int, str):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            return value if type(value) is int else number
    raise ProblemError(f"{key}: expected {kind.__name__ if isinstance(kind, type) else kind}, got {value!r}")


def load_problem(path) -> ProblemSpec:
    """Load a problem configuration from a UTF-8 YAML file; one that cannot be
    opened (missing, a directory), decoded or parsed is a ProblemError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ProblemError(f"{path}: not valid YAML: {exc}") from exc
    except (OSError, UnicodeError) as exc:
        raise ProblemError(f"cannot read config {str(path)!r}: {getattr(exc, 'strerror', None) or exc}") from None
    return parse_problem(data)
