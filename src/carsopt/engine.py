"""Batch sampling loop: heuristic schedule, prioritized sampling, logging, resume.

Each iteration recomputes sub-domain probabilities from the fitness tensor
(optionally with the pooling overlay), draws a batch of sub-domains, places a
uniform random point inside each, optionally filters candidates with the
k-nearest-neighbor oversampling extension, evaluates the batch, and writes
fitness back into the tensor by per-cell maximum.

Normalization constants are captured from iteration 0 (which is effectively
uniform random sampling) and frozen; iteration-0 fitnesses are computed under
the frozen constants before tensor insertion so all cells share one scale.
A restored run recomputes them, and every fitness, from the logged measurements.

Per-iteration RNG streams are derived from (seed, iteration) with a
counter-based generator, so a resumed run replays the exact sample sequence of
an uninterrupted one.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import fitness as fit
from .evaluators import _FLOAT_MAX, EvaluationRequest, _encode, _is_number_lists
from .knn import NeighborStore
from .problem import ProblemError, ProblemSpec, sampled_dimensions
from .tensor import SubdomainTensor

__all__ = [
    "RunConfig",
    "RunState",
    "EngineError",
    "heuristic_schedule",
    "iteration_sizes",
    "oversampling_width",
    "neighbor_count",
    "parse_alpha_schedule",
    "run",
    "resume",
    "iter_log",
    "read_log",
    "evaluate_units",
    "sample_records",
    "run_header",
    "open_log",
    "iteration_stats",
]

# Version 2 draws sub-domains from the sparse tensor's entries; a version-1
# log would resume under another random stream, so restore_state refuses it.
LOG_VERSION = 2


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
    ``scale:<k>`` (alpha = k * iteration), with v and k finite and >= 0.
    """
    if spec_str == "identity":
        return lambda i: float(i)
    kind, _, arg = spec_str.partition(":")
    try:
        val = float(arg)
    except ValueError:
        raise EngineError(f"bad alpha schedule {spec_str!r}")
    if not (math.isfinite(val) and val >= 0):
        raise EngineError(f"bad alpha schedule {spec_str!r}: alpha must be finite and >= 0")
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
        if not 0 <= self.seed < 2**63:
            raise EngineError(f"seed must be in [0, 2**63), got {self.seed}")
        if self.n_subdomain < 2:
            raise EngineError("n_subdomain must be >= 2")
        if self.n_pool < 0:
            raise EngineError(f"n_pool must be >= 0, got {self.n_pool}")
        if self.n_pool and self.n_subdomain % self.n_pool != 0:
            raise EngineError("n_pool must divide n_subdomain")
        parse_alpha_schedule(self.alpha_schedule)


@dataclass
class RunState:
    """A CARS run after ``iteration`` iterations; its tensor and kNN store fold
    its samples, scored under iteration 0's normalization constants, one
    iteration at a time.  It keeps no samples: each iteration's go to the run's ``sink``."""

    spec: ProblemSpec
    config: RunConfig
    consts: fit.NormalizationConstants | None = None
    iteration: int = field(default=0, init=False)  # next iteration to execute
    kept_bytes: int = field(default=0, init=False)  # log bytes restore_state folded, kept by resume
    tensor: SubdomainTensor = field(init=False)
    store: NeighborStore = field(init=False)

    def __post_init__(self):
        n_dim = len(sampled_dimensions(self.spec))
        self.tensor = SubdomainTensor(n_dim, self.config.n_subdomain, self.config.n_pool)
        self.store = NeighborStore(n_dim)

    def _score(self, bd: fit.FitnessBreakdown) -> np.ndarray:
        """The batch's scalar fitnesses; the first batch sets the normalization constants."""
        self.consts = self.consts or fit.NormalizationConstants.from_first_batch(self.spec, bd)
        return bd.scalar(self.consts)

    def _commit(self, records: list[dict], subdomains, units, fitnesses: np.ndarray, sink) -> None:
        """Close the open iteration on its samples: max-fold their fitnesses
        into the tensor at their sub-domains, append their unit points to
        the store (one row per sample, so ``len(store)`` counts the samples)
        and pass their records to ``sink``."""
        self.tensor.update_many(subdomains, fitnesses)
        self.store.extend(units, fitnesses)
        sink(records)
        self.iteration += 1


def iteration_stats(samples) -> list[dict]:
    """Per-iteration (min, mean, max) fitness and valid count of the sample
    dicts ``samples`` yields, read once; only the fitnesses are kept."""
    fitnesses: dict[int, list] = {}
    valid: dict[int, int] = {}
    for s in samples:
        i = s["iteration"]
        fitnesses.setdefault(i, []).append(s["fitness"])
        valid[i] = valid.get(i, 0) + s["valid"]
    return [
        dict(iteration=i, fit_min=min(fs), fit_mean=sum(fs) / len(fs), fit_max=max(fs), valid=valid[i], n=len(fs))
        for i, fs in sorted(fitnesses.items())
    ]


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
# -> one batch breakdown -> records, each the dict its log line encodes
# ---------------------------------------------------------------------------

def _sampled_dims(spec: ProblemSpec) -> list:
    """The problem's sampled dimensions; EngineError when it has none."""
    if dims := sampled_dimensions(spec):
        return dims
    raise EngineError("problem has no sampled dimensions")


def _physical_params(spec: ProblemSpec, dims, units) -> list[dict]:
    """Physical per-operating-point values for each row of ``units``, mapped
    one dimension's column at a time to the bits ``to_physical`` gives."""
    units = np.asarray(units, dtype=float)
    outside = ~((units >= 0.0) & (units <= 1.0))  # also true for NaN
    if outside.any():
        raise ProblemError(f"unit coordinate {float(units[outside][0])} outside [0, 1]")
    columns: dict[str, list] = {}
    for d, u in zip(dims, units.T):
        if d.scale == "log":
            lo = math.log(d.lo)
            col = list(map(math.exp, (lo + u * (math.log(d.hi) - lo)).tolist()))
        else:  # float() rounds an int bound as Python's mixed arithmetic does
            col = (float(d.lo) + u * float(d.hi - d.lo)).tolist()
        columns.setdefault(d.parameter, []).append(col)
    params = [{} for _ in units]
    for p in spec.parameters:
        values = zip(*columns[p.name]) if p.is_sampled else [p.grid_values] * len(units)
        for row, v in zip(params, values):
            row[p.name] = list(v)
    return params


def evaluate_units(spec: ProblemSpec, dims, evaluator, units, first_id: int):
    """Evaluate unit points as samples ``first_id, first_id + 1, ...``.

    Returns the requests and results, each in the order of ``units``
    (results are re-associated by sample id), and the batch's breakdown.
    """
    requests = [EvaluationRequest(first_id + i, p) for i, p in enumerate(_physical_params(spec, dims, units))]
    by_id = {r.sample_id: r for r in evaluator.evaluate_batch(requests)}
    missing = [req.sample_id for req in requests if req.sample_id not in by_id]
    if missing:
        raise EngineError(f"evaluator dropped sample ids {missing[:5]}")
    results = [by_id[req.sample_id] for req in requests]
    return requests, results, fit.evaluate_breakdown(spec, [r.meas for r in results])


def sample_records(iteration: int, units, subdomains, requests, results, bd, fitnesses) -> list[dict]:
    """One record per evaluated sample, all from the same iteration; ``bd``
    is the batch's breakdown.  A record is the dict its log line encodes; a
    raw objective or penalty that is not finite is None in it."""
    columns = (
        np.asarray(subdomains).tolist(),
        np.asarray(units).tolist(),
        requests,
        results,
        _nan_safe(bd.objective_raw),
        _nan_safe(bd.penalty_raw),
        np.asarray(fitnesses).tolist(),
        bd.valid.tolist(),
    )
    return [
        {
            "type": "sample",
            "id": req.sample_id,
            "iteration": iteration,
            "subdomain": sub,
            "unit": unit,
            "params": req.params,
            "meas": res.meas,
            "error": res.error,
            "objective_raw": obj,
            "penalty_raw": pen,
            "fitness": f,
            "valid": valid,
        }
        for sub, unit, req, res, obj, pen, f, valid in zip(*columns)
    ]


# The keys of every record sample_records builds; a GA sample adds "island".
_SAMPLE_KEYS = frozenset(
    "type id iteration subdomain unit params meas error objective_raw penalty_raw fitness valid".split()
)
_NUMBER_TYPES = {int, float}
_SCALAR_TYPES = {"id": {int}, "iteration": {int}, "fitness": _NUMBER_TYPES, "valid": {bool}}


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
    process loses at most the one in progress.  A run emits each batch
    before its sink gets it: a sink sees only batches the log holds."""
    if not path:
        yield lambda objs: None
        return
    with open(path, mode) as fh:

        def emit(objs):
            fh.write("".join(_encode(obj) + "\n" for obj in objs))
            fh.flush()

        yield emit


def _nan_safe(a: np.ndarray) -> list[list]:
    """``a``'s rows as logged: a value that is not finite becomes None."""
    finite = np.isfinite(a).all(axis=1).tolist()
    return [row if ok else [v if math.isfinite(v) else None for v in row] for row, ok in zip(a.tolist(), finite)]


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------

def _sample_iteration(state: RunState, iteration: int, alpha: float, n: int):
    """Draw the unit points and sub-domain indices for one iteration."""
    cfg = state.config
    rng = iteration_rng(cfg.seed, iteration)
    n_dim = state.tensor.n_dim
    n_sub = cfg.n_subdomain

    use_over = cfg.oversampling and iteration > 0 and len(state.store) > 0
    n_over = oversampling_width(n_dim) if use_over else 1

    probs = state.tensor.softmax_probabilities(alpha)
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
    sink=lambda records: None,
    _resumed: RunState | None = None,
) -> RunState:
    """Execute the sampling loop for ``config.n_total`` samples.

    ``stop_after_iteration`` ends the run after that iteration (the log stays
    resumable).  ``sink`` receives each iteration's records once, in order,
    after they are written to the log: it sees only batches the log holds.
    """
    dims = _sampled_dims(spec)
    schedule = parse_alpha_schedule(config.alpha_schedule)
    sizes = iteration_sizes(config.n_total)
    state = RunState(spec, config) if _resumed is None else _resumed
    end = len(sizes) if stop_after_iteration is None else min(len(sizes), stop_after_iteration + 1)

    with open_log(log_path, "w" if _resumed is None else "a") as emit:
        if _resumed is None:
            emit([run_header("cars", config.seed, config.n_total, dims, config)])
        for iteration in range(state.iteration, end):
            n = sizes[iteration]
            alpha = schedule(iteration)
            lines = [{"type": "iteration", "iteration": iteration, "alpha": alpha, "n_samples": n}]

            mis, units = _sample_iteration(state, iteration, alpha, n)
            requests, results, bd = evaluate_units(spec, dims, evaluator, units, len(state.store))
            fitnesses = state._score(bd)
            if iteration == 0:
                lines.append({"type": "normalization", **state.consts.to_dict()})

            records = sample_records(iteration, units, mis, requests, results, bd, fitnesses)
            emit(lines + records)
            state._commit(records, mis, units, fitnesses, sink)
    return state


# ---------------------------------------------------------------------------
# Log reading and resume
# ---------------------------------------------------------------------------

def iter_log(path):
    """Yield a run log's lines one at a time, parsed and checked; raises
    EngineError on corruption: a line that is not a JSON object with a
    ``type``, a first line that is not the run header, or a sample line that
    ``_check_sample`` rejects; also, naming ``path``, when it cannot be
    opened (missing, a directory).

    A last line without its newline that does not parse is what a crash
    mid-write leaves; it is dropped.
    """
    return (obj for _, _, obj in _numbered_log(path))


def _numbered_log(path):
    """``iter_log``'s lines, each with its line number and end offset."""
    header, end = False, 0
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise EngineError(f"cannot read log {str(path)!r}: {exc.strerror or exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            end += len(raw)
            try:
                line = raw.decode().strip()
                if not line:
                    continue
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # undecodable bytes or JSON, or too deeply nested
                if not raw.endswith(b"\n"):
                    break
                raise EngineError(f"corrupt log line {lineno}: {exc}")
            if not (isinstance(obj, dict) and "type" in obj):
                raise EngineError(f"corrupt log line {lineno}: not a JSON object with a type")
            if not header:
                if obj["type"] != "run":
                    break
                header = True
            elif obj["type"] == "sample":
                _check_sample(obj, lineno)
            yield lineno, end, obj
    if not header:
        raise EngineError("log does not start with a run header")


def _check_sample(obj: dict, lineno: int) -> None:
    """Raise EngineError unless ``obj`` has every key of a ``sample_records``
    record, an int ``id`` and ``iteration``, a numeric ``fitness``, a bool
    ``valid``, ``params`` that map names to lists of numbers, and ``meas``
    that is null or a mapping; an int ``fitness`` or parameter value must
    have a float."""
    if not _SAMPLE_KEYS <= obj.keys():
        raise EngineError(f"corrupt log line {lineno}: sample without key {min(_SAMPLE_KEYS - obj.keys())!r}")
    for key, types in _SCALAR_TYPES.items():
        if type(obj[key]) not in types:
            raise EngineError(f"corrupt log line {lineno}: sample {key} has type {type(obj[key]).__name__}")
    if type(obj["fitness"]) is int and not -_FLOAT_MAX <= obj["fitness"] <= _FLOAT_MAX:
        raise EngineError(f"corrupt log line {lineno}: sample fitness is too large for a float")
    params, meas = obj["params"], obj["meas"]
    if type(params) is not dict:
        raise EngineError(f"corrupt log line {lineno}: sample params is not a mapping")
    for name, vals in params.items():
        if type(vals) is not list or not (types := {*map(type, vals)}) <= _NUMBER_TYPES:
            raise EngineError(f"corrupt log line {lineno}: sample param {name!r} is not a list of numbers")
        if int in types and not all(-_FLOAT_MAX <= v <= _FLOAT_MAX for v in vals if type(v) is int):
            raise EngineError(f"corrupt log line {lineno}: sample param {name!r} is too large for a float")
    if meas is not None and type(meas) is not dict:
        raise EngineError(f"corrupt log line {lineno}: sample meas is neither null nor a mapping")


def read_log(path) -> list[dict]:
    """A run log's lines, parsed and checked by ``iter_log``."""
    return list(iter_log(path))


def restore_state(log_path, spec: ProblemSpec, config: RunConfig, sink=lambda records: None) -> RunState:
    """Rebuild engine state from a run log (no new samples) in one pass,
    scoring each folded iteration's logged measurements as ``run`` does; the
    log's normalization line is not read.

    Raises EngineError unless the log header equals this run's ``run_header``
    but for the alpha schedule, and each sample it folds has ``n_dim``
    sub-domain ints and unit numbers and ``meas`` that is null or maps names
    to lists of numbers.  It folds whole iterations up to the first sample
    that is not the open iteration's next (by id), and rejects a folded
    sample whose sub-domain leaves [0, n_subdomain), whose unit point leaves
    [0, 1] or its sub-domain's cell, whose fitness is not finite, whose
    parameters are not this problem's at its unit point, or whose fitness or
    validity is not what its measurements score; a trailing incomplete
    iteration is left out, and so are the normalization constants if that is
    iteration 0; resuming redoes it.  ``kept_bytes`` ends the last folded
    sample line (or the run header).  ``sink`` receives each folded
    iteration's parsed sample lines, as ``run`` passes its records.
    """
    dims = _sampled_dims(spec)
    sizes = iteration_sizes(config.n_total)
    n_sub = config.n_subdomain

    def reject(bad, what):
        """Raise EngineError naming the first of the open iteration's samples that ``bad`` flags."""
        if np.any(bad):
            raise EngineError(f"corrupt log line {linenos[np.argmax(bad)]}: sample {what}")

    state = RunState(spec, config)
    lines = _numbered_log(log_path)
    _, state.kept_bytes, header = next(lines)
    for key, want in run_header("cars", config.seed, config.n_total, dims, config).items():
        if key != "alpha_schedule" and header.get(key) != want:
            raise EngineError(
                "log geometry or settings mismatch: log header has "
                f"{key}={header.get(key)!r}, this run has {want!r}"
            )
    batch: list[dict] = []  # the open iteration's samples
    linenos: list[int] = []  # and their line numbers
    for lineno, end, obj in lines:
        if obj["type"] != "sample":
            continue
        sub, unit = obj["subdomain"], obj["unit"]
        if type(sub) is not list or len(sub) != len(dims) or not {*map(type, sub)} <= {int}:
            raise EngineError(f"corrupt log line {lineno}: sample subdomain is not {len(dims)} ints")
        if type(unit) is not list or len(unit) != len(dims) or not (types := {*map(type, unit)}) <= _NUMBER_TYPES:
            raise EngineError(f"corrupt log line {lineno}: sample unit is not {len(dims)} numbers")
        # The batch check below comes too late for an int coordinate, which
        # may have no float.
        if int in types and not all(0 <= u <= 1 for u in unit):
            raise EngineError(f"corrupt log line {lineno}: sample unit is outside [0, 1]")
        if not (obj["iteration"] == state.iteration < len(sizes) and obj["id"] == len(state.store) + len(batch)):
            break  # the kept prefix ends here
        if obj["meas"] is not None and not _is_number_lists(obj["meas"]):  # what the evaluators pass on
            raise EngineError(f"corrupt log line {lineno}: sample meas does not map names to lists of numbers")
        batch.append(obj)
        linenos.append(lineno)
        if len(batch) == sizes[state.iteration]:
            subdomains = np.array([r["subdomain"] for r in batch])
            units, logged = (np.array([r[key] for r in batch], dtype=float) for key in ("unit", "fitness"))
            reject(~((subdomains >= 0) & (subdomains < n_sub)).all(axis=1), f"subdomain is outside [0, {n_sub})")
            reject(~((units >= 0) & (units <= 1)).all(axis=1), "unit is outside [0, 1]")  # also true for NaN
            off_centre = np.abs(units * n_sub - subdomains - 0.5).max(axis=1)  # 0.5 on the cell's edge
            reject(off_centre > 0.5 + 1e-9, "unit is outside its subdomain's cell")
            reject(~np.isfinite(logged), "fitness is not finite")
            # Dimension labels do not pin bounds or scales; the parameters
            # logged for each unit point do.
            moved = [p != r["params"] for p, r in zip(_physical_params(spec, dims, units), batch)]
            reject(moved, "params are not this problem's (dimensions mismatch)")
            bd = fit.evaluate_breakdown(spec, [r["meas"] for r in batch])
            fitnesses = state._score(bd)
            reject(fitnesses.view(np.int64) != logged.view(np.int64), "fitness is not what its measurements score")
            reject(bd.valid != [r["valid"] for r in batch], "valid is not what its measurements score")
            state._commit(batch, subdomains, units, fitnesses, sink)
            state.kept_bytes = end
            batch, linenos = [], []
    for _ in lines:  # past the kept prefix, lines are checked, not folded
        pass
    return state


def resume(
    log_path,
    spec: ProblemSpec,
    config: RunConfig,
    evaluator,
    stop_after_iteration: int | None = None,
    sink=lambda records: None,
) -> RunState:
    """Continue a logged run up to ``config.n_total`` samples.

    The state is ``restore_state``'s, and per-iteration RNG streams make the
    continuation identical to an uninterrupted one; ``sink`` receives the
    restored iterations' records, then the new ones'.  The log must match
    ``config`` except for the alpha schedule, which may change.  The log is
    cut at its ``kept_bytes`` before new iterations are appended.
    """
    state = restore_state(log_path, spec, config, sink)
    with open(log_path, "r+b") as fh:
        fh.truncate(state.kept_bytes)
        fh.seek(state.kept_bytes - 1)
        if fh.read(1) != b"\n":  # the last kept line lost only its newline
            fh.write(b"\n")
    return run(spec, config, evaluator, log_path, stop_after_iteration, sink, _resumed=state)
