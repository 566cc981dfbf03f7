"""Command-line front end.

Subcommands::

    carsopt run     --config problem.yaml --method cars|ga [overrides]
    carsopt resume  --config problem.yaml --log out/run.log [overrides]
    carsopt bench   --max-params 6 --batch-sizes 1000,100000 --repeats 20
    carsopt study   --config problem.yaml --seeds 0,1,2
    carsopt report  --log out/run.log

Exit codes: 0 ok, 2 configuration error, 3 evaluator error, 4 interrupted
(the run log stays resumable).  The default output directory comes from
--out-dir or the CARSOPT_OUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import engine
from .engine import EngineError, RunConfig
from .evaluators import EvaluatorTransportError, make_evaluator
from .ga import IslandConfig, run_islands
from .problem import ProblemError, load_problem
from .tensor import MAX_CELLS, SubdomainTensor, TensorError

EXIT_CONFIG = 2
EXIT_EVALUATOR = 3
EXIT_INTERRUPTED = 4

# Traced peak bytes per cell of the sampling step (construction, then an
# alpha = 0 and a pooled alpha = 2 step of a 7-D tensor measured 22.8): float32
# cells, bool touched flags, the float64 probabilities, the float64 draw
# scratch and the pooling temporaries.
_BYTES_PER_CELL = 23


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get("CARSOPT_OUT_DIR") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# The flags --method ga refuses, by the RunConfig field they set.
_CARS_FLAGS = {
    "n_total": "--n-total",
    "n_pool": "--no-pooling",
    "oversampling": "--no-oversampling",
    "alpha_schedule": "--alpha-schedule",
}


def _from_mapping(cls, mapping, prefix: str, other_keys=(), **given):
    """``cls`` built from the YAML ``mapping`` at ``prefix`` by field name,
    each value coerced by its field's type; ``given`` values win.  Keys in
    ``other_keys`` belong to the caller."""
    if not isinstance(mapping, dict):
        raise ProblemError(f"{prefix} must be a mapping, not {mapping!r}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(mapping) - {f.name for f in fields} - set(other_keys))
    if unknown:
        raise ProblemError(f"unknown key(s) in the config: {', '.join(f'{prefix}.{k}' for k in unknown)}")
    values = {}
    for f in fields:
        if f.name in mapping:
            try:
                values[f.name] = type(f.default)(mapping[f.name])
            except (TypeError, ValueError) as exc:
                raise ProblemError(f"{prefix}.{f.name}: {exc}") from exc
    return cls(**{**values, **given})


def _load(args):
    """The problem, its RunConfig (flags given over ``run:`` keys over the
    defaults), its IslandConfig (``run.ga`` keys over the defaults) and its
    evaluator."""
    spec = load_problem(args.config)
    run = spec.run_settings
    flags = {f.name: v for f in dataclasses.fields(RunConfig) if (v := getattr(args, f.name, None)) is not None}
    cfg = _from_mapping(RunConfig, run, "run", ("evaluator", "ga"), **flags)
    ga_cfg = _from_mapping(IslandConfig, run.get("ga", {}), "run.ga")
    evaluator_ref = args.evaluator or run.get("evaluator")
    if evaluator_ref is None:
        raise ProblemError("no evaluator: pass --evaluator or set run.evaluator in the config")
    evaluator = make_evaluator(evaluator_ref, timeout=args.timeout)
    return spec, cfg, ga_cfg, evaluator


def cmd_run(args) -> int:
    if args.method == "ga":
        refused = [flag for name, flag in _CARS_FLAGS.items() if getattr(args, name) is not None]
        if refused:
            raise ProblemError(f"--method ga does not take {', '.join(refused)}")
    spec, cfg, ga_cfg, evaluator = _load(args)
    out = _out_dir(args)
    log_path = out / "run.log"
    try:
        if args.method == "cars":
            records = engine.run(spec, cfg, evaluator, log_path=log_path).records
        else:
            result = run_islands(spec, ga_cfg, evaluator, seed=cfg.seed, log_path=log_path)
            records = result.records
            print(f"evaluations: {result.total_evaluations}")
    finally:
        evaluator.close()
    engine.export_summary_csv(records, out / "summary.csv")
    engine.export_valid_samples_csv(spec, records, out / "valid_samples.csv")
    valid = sum(r.valid for r in records)
    print(f"samples: {len(records)}  valid: {valid}  log: {log_path}")
    return 0


def cmd_resume(args) -> int:
    spec, cfg, _, evaluator = _load(args)
    try:
        state = engine.resume(args.log, spec, cfg, evaluator)
    finally:
        evaluator.close()
    out = _out_dir(args)
    engine.export_summary_csv(state.records, out / "summary.csv")
    engine.export_valid_samples_csv(spec, state.records, out / "valid_samples.csv")
    valid = sum(r.valid for r in state.records)
    print(f"samples: {len(state.records)}  valid: {valid}  log: {args.log}")
    return 0


# ---------------------------------------------------------------------------
# bench: time the sampling step itself (no evaluator involved)
# ---------------------------------------------------------------------------

def _available_memory() -> int:
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        return 1 << 62


def bench_sampling(max_params: int, batch_sizes: list[int], repeats: int = 20, n_sub: int = 9) -> list[dict]:
    """Time one full sampling step per (n_params, batch_size) configuration.

    A step = assign the previous batch's fitness, recompute the pooling
    overlay (RunConfig's default width, when it divides ``n_sub``), softmax,
    draw the batch and place in-cell points.  Evaluation is excluded.
    Configurations whose tensor exceeds the cell cap or 70% of the available
    memory are reported as skipped instead of attempted.
    """
    memory_budget = int(_available_memory() * 0.7)
    pool = RunConfig.n_pool if n_sub % RunConfig.n_pool == 0 else 0
    rows = []
    for n_params in range(1, max_params + 1):
        n_cells = n_sub**n_params
        for batch in batch_sizes:
            row = {
                "n_params": n_params,
                "n_sub": n_sub,
                "n_cells": n_cells,
                "batch_size": batch,
            }
            if n_cells > MAX_CELLS:
                row.update(skipped=f"exceeds cell cap {MAX_CELLS}")
                rows.append(row)
                continue
            if n_cells * _BYTES_PER_CELL > memory_budget:
                row.update(
                    skipped=(
                        f"estimated {n_cells * _BYTES_PER_CELL / 1e9:.1f} GB exceeds "
                        f"memory budget {memory_budget / 1e9:.1f} GB"
                    )
                )
                rows.append(row)
                continue
            tensor = SubdomainTensor(n_params, n_sub)
            rng = np.random.default_rng(0)
            mis = tensor.multi_indices(rng.integers(0, n_cells, size=batch))
            fits = rng.random(batch)
            times = []
            for rep in range(repeats):
                t0 = time.perf_counter()
                tensor.update_many(mis, fits)
                probs = tensor.softmax_probabilities(alpha=float(rep), n_pool=pool)
                mis = tensor.sample_subdomains(probs, batch, rng)
                offsets = rng.random((batch, n_params))
                _ = (mis + offsets) / n_sub
                times.append(time.perf_counter() - t0)
                fits = rng.random(batch)
            row.update(
                t_min=min(times),
                t_mean=sum(times) / len(times),
                t_max=max(times),
                skipped="",
            )
            rows.append(row)
            del tensor
    return rows


def cmd_bench(args) -> int:
    rows = bench_sampling(args.max_params, args.batch_sizes, repeats=args.repeats, n_sub=args.n_subdomain)
    out = _out_dir(args)
    path = out / "bench.csv"
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(
            fh,
            fieldnames=["n_params", "n_sub", "n_cells", "batch_size", "t_min", "t_mean", "t_max", "skipped"],
        )
        w.writeheader()
        for row in rows:
            w.writerow({k: row.get(k, "") for k in w.fieldnames})
    for row in rows:
        if row.get("skipped"):
            print(f"n_params={row['n_params']} batch={row['batch_size']}: skipped ({row['skipped']})")
        else:
            print(
                f"n_params={row['n_params']} batch={row['batch_size']}: "
                f"mean {row['t_mean']:.3f}s (min {row['t_min']:.3f}, max {row['t_max']:.3f})"
            )
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# study: extension ablation (pooling / oversampling on and off)
# ---------------------------------------------------------------------------

# The pooled variants keep the config's own n_pool.
STUDY_VARIANTS = {
    "both": dict(oversampling=True),
    "pooling_only": dict(oversampling=False),
    "oversampling_only": dict(n_pool=0, oversampling=True),
    "none": dict(n_pool=0, oversampling=False),
}


def run_study(spec, evaluator, config: RunConfig, seeds: list[int]) -> list[dict]:
    """Run ``config`` in the four extension variants per seed; returns
    per-iteration stats rows."""
    if not config.n_pool:
        raise ProblemError("study compares pooling on and off, so n_pool must not be 0")
    rows = []
    for variant, overrides in STUDY_VARIANTS.items():
        for seed in seeds:
            state = engine.run(spec, dataclasses.replace(config, seed=seed, **overrides), evaluator)
            for s in state.iteration_stats():
                rows.append(
                    {
                        "variant": variant,
                        "seed": seed,
                        "iteration": s["iteration"],
                        "fit_min": s["fit_min"],
                        "fit_mean": s["fit_mean"],
                        "fit_max": s["fit_max"],
                    }
                )
    return rows


def cmd_study(args) -> int:
    spec, cfg, _, evaluator = _load(args)
    try:
        rows = run_study(spec, evaluator, cfg, args.seeds)
    finally:
        evaluator.close()
    out = _out_dir(args)
    path = out / "study.csv"
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["variant", "seed", "iteration", "fit_min", "fit_mean", "fit_max"])
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def summarize_log(log_path) -> dict:
    """Totals, valid counts, best fitness and per-parameter valid ranges."""
    entries = engine.read_log(log_path)
    samples = [e for e in entries if e.get("type") == "sample"]
    valid = [s for s in samples if s["valid"]]
    ranges: dict[str, tuple[float, float]] = {}
    for s in valid:
        for name, vals in s["params"].items():
            for v in vals:
                lo, hi = ranges.get(name, (v, v))
                ranges[name] = (min(lo, v), max(hi, v))
    return {
        "header": entries[0],
        "total": len(samples),
        "valid": len(valid),
        "best_fitness": max((s["fitness"] for s in samples), default=None),
        "param_ranges": ranges,
        "samples": samples,
    }


def cmd_report(args) -> int:
    summary = summarize_log(args.log)
    print(f"method: {summary['header'].get('method')}  seed: {summary['header'].get('seed')}")
    print(f"valid: {summary['valid']}/{summary['total']}")
    if summary["best_fitness"] is not None:
        print(f"best fitness: {summary['best_fitness']:.6g}")
    for name, (lo, hi) in summary["param_ranges"].items():
        print(f"  {name}: valid range [{lo:.6g}, {hi:.6g}]")
    out = _out_dir(args)
    path = out / "scatter.csv"
    param_names = sorted({n for s in summary["samples"] for n in s["params"]})
    meas_names = sorted({n for s in summary["samples"] if s["meas"] for n in s["meas"]})
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "iteration", "fitness", "valid"] + param_names + meas_names)
        for s in summary["samples"]:
            row = [s["id"], s["iteration"], s["fitness"], int(s["valid"])]
            row += [json.dumps(s["params"].get(n)) for n in param_names]
            row += [json.dumps(s["meas"].get(n)) if s["meas"] else "" for n in meas_names]
            w.writerow(row)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers, such as ``0,1,2``."""
    return [int(s) for s in text.split(",")]


def _add_common(p):
    p.add_argument("--out-dir", default=None, help="output directory (or $CARSOPT_OUT_DIR)")


def _add_run_opts(p):
    """Flags of run, resume and study; one that sets a RunConfig field has it as dest."""
    p.add_argument("--config", required=True, help="problem configuration YAML")
    p.add_argument("--n-total", type=int)
    p.add_argument("--alpha-schedule", help="identity | const:<v> | scale:<k>")
    p.add_argument("--evaluator", default=None, help="builtin:<name> or cmd:<command>")
    p.add_argument("--timeout", type=float, default=60.0, help="per-sample evaluator timeout [s]")


def _add_single_run_opts(p):
    """Flags of run and resume that study sets itself, per seed and variant."""
    p.add_argument("--seed", type=int)
    p.add_argument("--no-pooling", dest="n_pool", action="store_const", const=0)
    p.add_argument("--no-oversampling", dest="oversampling", action="store_const", const=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="carsopt", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an optimization")
    _add_run_opts(p)
    _add_single_run_opts(p)
    p.add_argument("--method", choices=("cars", "ga"), default="cars")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("resume", help="continue a logged run")
    _add_run_opts(p)
    _add_single_run_opts(p)
    p.add_argument("--log", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser("bench", help="time the sampling step")
    p.add_argument("--max-params", type=int, default=6)
    p.add_argument("--batch-sizes", type=_int_list, default="1000,100000,1000000")
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--n-subdomain", type=int, default=9)
    _add_common(p)
    p.set_defaults(fn=cmd_bench)

    # Without abbreviations, so that --seed is refused rather than read as --seeds.
    p = sub.add_parser("study", help="extension ablation study", allow_abbrev=False)
    _add_run_opts(p)
    p.add_argument("--seeds", type=_int_list, default="0,1,2")
    _add_common(p)
    p.set_defaults(fn=cmd_study)

    p = sub.add_parser("report", help="summarize a run log")
    p.add_argument("--log", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ProblemError, EngineError, TensorError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EvaluatorTransportError as exc:
        print(f"evaluator error: {exc}", file=sys.stderr)
        return EXIT_EVALUATOR
    except KeyboardInterrupt:
        print("interrupted; run log is resumable", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
