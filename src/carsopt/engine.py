"""Batch sampling loop: heuristic schedule, prioritized sampling, logging, resume.

Each iteration recomputes sub-domain probabilities from the fitness tensor
(optionally with the pooling overlay), draws a batch of sub-domains, places a
uniform random point inside each, optionally filters candidates with the
k-nearest-neighbor oversampling extension, evaluates the batch, and writes
fitness back into the tensor by per-cell maximum.

Normalization constants are captured from iteration 0 (which is effectively
uniform random sampling) and frozen; iteration-0 fitnesses are computed under
the frozen constants before tensor insertion so all cells share one scale.

Per-iteration RNG streams are derived from (seed, iteration) with a
counter-based generator, so a resumed run replays the exact sample sequence of
an uninterrupted one.
"""

from __future__ import annotations

import collections
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import fitness as fit
from .evaluators import EvaluationRequest
from .knn import NeighborStore
from .problem import ProblemSpec, sampled_dimensions, to_physical
from .tensor import SubdomainTensor

__all__ = [
    "RunConfig",
    "RunState",
    "SampleRecord",
    "EngineError",
    "heuristic_schedule",
    "iteration_sizes",
    "oversampling_width",
    "neighbor_count",
    "parse_alpha_schedule",
    "run",
    "resume",
    "read_log",
    "evaluate_units",
    "sample_records",
    "run_header",
    "open_log",
    "sample_json",
    "iteration_stats",
    "export_summary_csv",
    "export_valid_samples_csv",
]

LOG_VERSION = 1


class EngineError(RuntimeError):
    """Run configuration or log consistency failure."""


# ---------------------------------------------------------------------------
# Heuristics
# ---------------------------------------------------------------------------

def heuristic_schedule(n_total: int) -> tuple[int, int]:
    """(n_iter, n_samples) from the total budget.

    Iteration counts prefer multiples of 5: n_iter = floor(n_total^0.4 / 5)*5
    when that reaches 5, else floor(n_total^0.4) (minimum 1).  Residual
    samples are appended to the final iteration (see iteration_sizes).
    """
    if n_total < 1:
        raise EngineError("n_total must be >= 1")
    raw = n_total**0.4
    n_iter = math.floor(raw / 5) * 5
    if n_iter < 5:
        n_iter = max(1, math.floor(raw))
    n_samples = n_total // n_iter
    return n_iter, n_samples


def iteration_sizes(n_total: int) -> list[int]:
    """Per-iteration batch sizes; residual samples go to the last iteration."""
    n_iter, n_samples = heuristic_schedule(n_total)
    sizes = [n_samples] * n_iter
    sizes[-1] += n_total - n_iter * n_samples
    return sizes


def oversampling_width(n_dim: int) -> int:
    """Candidates per selected sample: floor(n_dim^1.5), at least 1."""
    return max(1, math.floor(n_dim**1.5))


def neighbor_count(n_dim: int) -> int:
    """Neighbors for the kNN fitness estimate: 2*n_dim + 1."""
    return 2 * n_dim + 1


def parse_alpha_schedule(spec_str: str):
    """Schedule string -> callable(iteration) -> alpha.

    ``identity`` (alpha = iteration, the default), ``const:<v>`` or
    ``scale:<k>`` (alpha = k * iteration).
    """
    if spec_str == "identity":
        return lambda i: float(i)
    kind, _, arg = spec_str.partition(":")
    try:
        val = float(arg)
    except ValueError:
        raise EngineError(f"bad alpha schedule {spec_str!r}")
    if kind == "const":
        return lambda i: val
    if kind == "scale":
        return lambda i: val * i
    raise EngineError(f"bad alpha schedule {spec_str!r}")


# ---------------------------------------------------------------------------
# Configuration and state
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Every setting of a CARS run."""

    n_total: int = 1000
    seed: int = 0
    n_subdomain: int = 9
    n_pool: int = 3  # 0 disables pooling
    oversampling: bool = True
    alpha_schedule: str = "identity"

    def __post_init__(self):
        if self.n_subdomain < 2:
            raise EngineError("n_subdomain must be >= 2")
        if self.n_pool and self.n_subdomain % self.n_pool != 0:
            raise EngineError("n_pool must divide n_subdomain")


@dataclass
class SampleRecord:
    sample_id: int
    iteration: int
    subdomain: tuple[int, ...]
    unit: tuple[float, ...]
    params: dict
    meas: dict | None
    error: str | None
    breakdown: fit.FitnessBreakdown
    fitness: float

    @property
    def valid(self) -> bool:
        return self.breakdown.valid


@dataclass
class RunState:
    spec: ProblemSpec
    config: RunConfig
    tensor: SubdomainTensor
    store: NeighborStore
    consts: fit.NormalizationConstants | None = None
    iteration: int = 0  # next iteration to execute
    alpha: float = 0.0
    records: list[SampleRecord] = field(default_factory=list)

    def iteration_stats(self) -> list[dict]:
        return iteration_stats(self.records)


def iteration_stats(records: list[SampleRecord]) -> list[dict]:
    """Per-iteration (min, mean, max) fitness and valid count."""
    by_iter: dict[int, list[SampleRecord]] = {}
    for r in records:
        by_iter.setdefault(r.iteration, []).append(r)
    stats = []
    for i in sorted(by_iter):
        fs = [r.fitness for r in by_iter[i]]
        stats.append(
            {
                "iteration": i,
                "fit_min": min(fs),
                "fit_mean": sum(fs) / len(fs),
                "fit_max": max(fs),
                "valid": sum(r.valid for r in by_iter[i]),
                "n": len(fs),
            }
        )
    return stats


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

def iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    """Counter-based per-iteration stream; independent of other iterations."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(iteration,)))
    )


# ---------------------------------------------------------------------------
# The sample pipeline shared with the GA: unit points -> requests -> results
# -> breakdowns -> records -> log lines
# ---------------------------------------------------------------------------

def _physical_params(spec: ProblemSpec, dims, unit: np.ndarray) -> dict:
    """Physical per-operating-point values for one unit-space point."""
    params: dict[str, list[float]] = {}
    for p in spec.parameters:
        if p.is_sampled:
            params[p.name] = [0.0] * p.op_count
        else:
            params[p.name] = list(p.grid_values)
    for d, u in zip(dims, unit):
        params[d.parameter][d.op_index] = to_physical(d, float(u))
    return params


def evaluate_units(spec: ProblemSpec, dims, evaluator, units, first_id: int):
    """Evaluate unit points as samples ``first_id, first_id + 1, ...``.

    Returns (requests, results, breakdowns), each in the order of ``units``;
    results are re-associated by sample id.
    """
    requests = [EvaluationRequest(first_id + i, _physical_params(spec, dims, u)) for i, u in enumerate(units)]
    by_id = {r.sample_id: r for r in evaluator.evaluate_batch(requests)}
    missing = [req.sample_id for req in requests if req.sample_id not in by_id]
    if missing:
        raise EngineError(f"evaluator dropped sample ids {missing[:5]}")
    results = [by_id[req.sample_id] for req in requests]
    return requests, results, [fit.evaluate_breakdown(spec, r.meas) for r in results]


def sample_records(iteration: int, units, subdomains, requests, results, breakdowns, fitnesses) -> list[SampleRecord]:
    """One record per evaluated sample, all from the same iteration."""
    return [
        SampleRecord(
            sample_id=req.sample_id,
            iteration=iteration,
            subdomain=tuple(int(c) for c in sub),
            unit=tuple(float(u) for u in unit),
            params=req.params,
            meas=res.meas,
            error=res.error,
            breakdown=bd,
            fitness=float(f),
        )
        for unit, sub, req, res, bd, f in zip(units, subdomains, requests, results, breakdowns, fitnesses)
    ]


def run_header(method: str, seed: int, n_total: int, dims, config: RunConfig | None) -> dict:
    """A log's first line; without a CARS ``config`` the sampling fields are empty."""
    return {
        "type": "run",
        "version": LOG_VERSION,
        "method": method,
        "seed": seed,
        "n_total": n_total,
        "n_subdomain": config.n_subdomain if config else 0,
        "n_pool": config.n_pool if config else 0,
        "oversampling": config.oversampling if config else False,
        "alpha_schedule": config.alpha_schedule if config else "",
        "n_dim": len(dims),
        "dimensions": [d.label for d in dims],
    }


@contextmanager
def open_log(path, mode: str):
    """Yield ``emit(objs)``, which writes ``objs`` as JSON lines to ``path`` in
    one write and flushes them (a no-op without a path); the file is closed
    on exit.  Emitting once per iteration or generation means a killed
    process loses at most the one in progress."""
    if not path:
        yield lambda objs: None
        return
    with open(path, mode) as fh:

        def emit(objs):
            fh.write("".join(json.dumps(obj) + "\n" for obj in objs))
            fh.flush()

        yield emit


def sample_json(rec: SampleRecord) -> dict:
    """A record as its log line."""
    return {
        "type": "sample",
        "id": rec.sample_id,
        "iteration": rec.iteration,
        "subdomain": list(rec.subdomain),
        "unit": list(rec.unit),
        "params": rec.params,
        "meas": rec.meas,
        "error": rec.error,
        "objective_raw": _nan_safe(rec.breakdown.objective_raw),
        "penalty_raw": _nan_safe(rec.breakdown.penalty_raw),
        "fitness": rec.fitness,
        "valid": rec.valid,
    }


def _nan_safe(vals):
    return [None if (v is None or not math.isfinite(v)) else v for v in vals]


def _nan_restore(vals):
    return [math.nan if v is None else v for v in vals]


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------

def _sample_iteration(state: RunState, iteration: int, n: int):
    """Draw the unit points and sub-domain indices for one iteration."""
    cfg = state.config
    rng = iteration_rng(cfg.seed, iteration)
    n_dim = state.tensor.n_dim
    n_sub = cfg.n_subdomain

    use_over = cfg.oversampling and iteration > 0 and len(state.store) > 0
    n_over = oversampling_width(n_dim) if use_over else 1

    probs = state.tensor.softmax_probabilities(state.alpha, cfg.n_pool)
    mis = state.tensor.sample_subdomains(probs, n * n_over, rng)
    offsets = rng.random((n * n_over, n_dim))
    units = (mis + offsets) / n_sub

    cols = state.store.select_oversampled(units.reshape(n, n_over, n_dim), neighbor_count(n_dim))
    picked = np.arange(n) * n_over + cols
    return mis[picked], units[picked]


def run(
    spec: ProblemSpec,
    config: RunConfig,
    evaluator,
    log_path=None,
    stop_after_iteration: int | None = None,
    _initial: RunState | None = None,
    _log_mode: str = "w",
) -> RunState:
    """Execute the sampling loop for ``config.n_total`` samples.

    ``stop_after_iteration`` ends the run early (the log stays resumable).
    """
    dims = sampled_dimensions(spec)
    n_dim = len(dims)
    if n_dim < 1:
        raise EngineError("problem has no sampled dimensions")
    schedule = parse_alpha_schedule(config.alpha_schedule)
    sizes = iteration_sizes(config.n_total)

    if _initial is None:
        state = RunState(
            spec=spec,
            config=config,
            tensor=SubdomainTensor(n_dim, config.n_subdomain),
            store=NeighborStore(n_dim),
        )
    else:
        state = _initial

    with open_log(log_path, _log_mode) as emit:
        if _initial is None:
            emit([run_header("cars", config.seed, config.n_total, dims, config)])
        for iteration in range(state.iteration, len(sizes)):
            n = sizes[iteration]
            state.alpha = schedule(iteration)
            lines = [{"type": "iteration", "iteration": iteration, "alpha": state.alpha, "n_samples": n}]

            mis, units = _sample_iteration(state, iteration, n)
            requests, results, breakdowns = evaluate_units(spec, dims, evaluator, units, len(state.records))
            if state.consts is None:
                state.consts = fit.NormalizationConstants.from_first_batch(spec, breakdowns)
                lines.append({"type": "normalization", **state.consts.to_dict()})
            fitnesses = np.array([bd.scalar(state.consts) for bd in breakdowns])

            state.tensor.update_many(mis, fitnesses)
            state.store.extend(units, fitnesses)
            records = sample_records(iteration, units, mis, requests, results, breakdowns, fitnesses)
            state.records.extend(records)
            emit(lines + [sample_json(rec) for rec in records])
            state.iteration = iteration + 1
            if stop_after_iteration is not None and iteration >= stop_after_iteration:
                break
    return state


# ---------------------------------------------------------------------------
# Log reading and resume
# ---------------------------------------------------------------------------

def read_log(path) -> list[dict]:
    """Parse a run log into its records; raises EngineError on corruption.

    A last line without its newline that does not parse is what a crash
    mid-write leaves; it is dropped.
    """
    records = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if not raw.endswith("\n"):
                    break
                raise EngineError(f"corrupt log line {lineno}: {exc}")
    if not records or records[0].get("type") != "run":
        raise EngineError("log does not start with a run header")
    return records


def _record_from_json(obj: dict) -> SampleRecord:
    bd = fit.FitnessBreakdown(
        objective_raw=_nan_restore(obj["objective_raw"]),
        penalty_raw=_nan_restore(obj["penalty_raw"]),
        valid=obj["valid"],
        failed=obj["meas"] is None,
    )
    return SampleRecord(
        sample_id=obj["id"],
        iteration=obj["iteration"],
        subdomain=tuple(obj["subdomain"]),
        unit=tuple(obj["unit"]),
        params=obj["params"],
        meas=obj["meas"],
        error=obj.get("error"),
        breakdown=bd,
        fitness=obj["fitness"],
    )


def restore_state(log_path, spec: ProblemSpec, config: RunConfig) -> RunState:
    """Rebuild engine state from a run log (no new samples).

    Raises EngineError unless the log header equals this run's ``run_header``
    but for the alpha schedule, and the first sample's parameters match.
    An iteration counts as done once all of its ``iteration_sizes`` samples
    are logged.  A trailing incomplete one (what a run killed mid-iteration
    leaves) is left out, and so are the normalization constants if that is
    iteration 0; resuming redoes it.
    """
    entries = read_log(log_path)
    dims = sampled_dimensions(spec)
    for key, want in run_header("cars", config.seed, config.n_total, dims, config).items():
        if key != "alpha_schedule" and entries[0].get(key) != want:
            raise EngineError(
                "log geometry or settings mismatch: log was written with "
                f"{key}={entries[0].get(key)!r}, this run has {want!r}"
            )
    # Dimension labels do not pin bounds or scales; the parameter values
    # logged for the first sample's unit point do.
    first = next((obj for obj in entries if obj["type"] == "sample"), None)
    if first and first["params"] != _physical_params(spec, dims, first["unit"]):
        raise EngineError(f"log dimensions mismatch: this problem maps sample {first['id']}'s unit point elsewhere")
    sizes = iteration_sizes(config.n_total)
    logged = collections.Counter(obj["iteration"] for obj in entries if obj["type"] == "sample")
    done = 0
    while done < len(sizes) and logged[done] == sizes[done]:
        done += 1

    state = RunState(
        spec=spec,
        config=config,
        tensor=SubdomainTensor(len(dims), config.n_subdomain),
        store=NeighborStore(len(dims)),
        iteration=done,
    )
    for obj in entries[1:]:
        kind = obj["type"]
        if kind == "normalization" and done:
            state.consts = fit.NormalizationConstants.from_dict(obj)
        elif kind == "iteration" and obj["iteration"] < done:
            state.alpha = obj["alpha"]
        elif kind == "sample" and obj["iteration"] < done:
            state.records.append(_record_from_json(obj))
    # One max-fold of all kept samples; reshape keeps the (0, n_dim) shape
    # when there are none.
    n = len(state.records)
    fitnesses = [r.fitness for r in state.records]
    subdomains = np.array([r.subdomain for r in state.records], dtype=np.intp).reshape(n, len(dims))
    state.tensor.update_many(subdomains, fitnesses)
    units = np.array([r.unit for r in state.records], dtype=float).reshape(n, len(dims))
    state.store.extend(units, fitnesses)
    return state


def resume(
    log_path,
    spec: ProblemSpec,
    config: RunConfig,
    evaluator,
    stop_after_iteration: int | None = None,
) -> RunState:
    """Continue a logged run up to ``config.n_total`` samples.

    The tensor is re-established as the max-fold of logged (sub-domain,
    fitness) pairs; normalization constants and the iteration counter are
    restored, and per-iteration RNG streams make the continuation identical
    to an uninterrupted one.  The log must match ``config`` except for the
    alpha schedule, which may change.  Lines past the last complete
    iteration are cut off before new ones are appended.
    """
    state = restore_state(log_path, spec, config)
    sizes = iteration_sizes(config.n_total)
    # Kept lines: the run header, then each complete iteration's header and
    # samples, plus the normalization line that follows iteration 0's header.
    keep = 1 + sum(1 + n for n in sizes[: state.iteration]) + (state.consts is not None)
    with open(log_path, "r+b") as fh:
        for _ in range(keep):
            line = fh.readline()
        fh.truncate(fh.tell())
        if not line.endswith(b"\n"):  # cut just before the last kept newline
            fh.write(b"\n")
    return run(
        spec,
        config,
        evaluator,
        log_path=log_path,
        stop_after_iteration=stop_after_iteration,
        _initial=state,
        _log_mode="a",
    )


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def export_summary_csv(records: list[SampleRecord], path) -> None:
    """Per-iteration min/mean/max fitness and valid count."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "fit_min", "fit_mean", "fit_max", "valid", "n"])
        for s in iteration_stats(records):
            w.writerow([s["iteration"], s["fit_min"], s["fit_mean"], s["fit_max"], s["valid"], s["n"]])


def export_valid_samples_csv(spec: ProblemSpec, records: list[SampleRecord], path) -> None:
    """Parameter and measurement table of boundary-valid samples."""
    import csv

    param_cols = []
    for p in spec.parameters:
        param_cols.extend((p.name, op) for op in range(p.op_count))
    meas_cols = []
    for name in spec.measurement_names():
        meas_cols.extend((name, op) for op in range(spec.n_operating_points))

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["id", "iteration", "fitness"]
            + [f"{n}[{op}]" for n, op in param_cols]
            + [f"{n}[{op}]" for n, op in meas_cols]
        )
        for rec in records:
            if not rec.valid:
                continue
            row = [rec.sample_id, rec.iteration, rec.fitness]
            row += [rec.params[n][op] for n, op in param_cols]
            row += [rec.meas[n][op] if rec.meas and n in rec.meas else "" for n, op in meas_cols]
            w.writerow(row)
