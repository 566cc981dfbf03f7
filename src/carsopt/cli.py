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
from .problem import ProblemError, from_mapping, load_problem
from .tensor import SubdomainTensor, TensorError

EXIT_CONFIG = 2
EXIT_EVALUATOR = 3
EXIT_INTERRUPTED = 4


def _out_dir(args) -> Path:
    """The output directory, created; one that cannot be is a ProblemError.
    Subcommands call it before they spawn an evaluator."""
    path = Path(args.out_dir or os.environ.get("CARSOPT_OUT_DIR") or "out")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ProblemError(f"cannot create --out-dir {str(path)!r}: {exc.strerror or exc}") from None
    return path


# The flags --method ga refuses, by the RunConfig field they set.
_CARS_FLAGS = {
    "n_total": "--n-total",
    "n_pool": "--no-pooling",
    "oversampling": "--no-oversampling",
    "alpha_schedule": "--alpha-schedule",
}


@dataclasses.dataclass
class _RunSection(RunConfig):
    """The config's ``run:`` section: the RunConfig keys, the evaluator and
    the GA settings."""

    evaluator: str | None = None
    ga: IslandConfig = dataclasses.field(default_factory=IslandConfig)


def _load(args):
    """The problem, its RunConfig (flags given over ``run:`` keys over the
    defaults), its IslandConfig (``run.ga`` keys over the defaults) and its
    evaluator."""
    spec = load_problem(args.config)
    flags = {f.name: v for f in dataclasses.fields(_RunSection) if (v := getattr(args, f.name, None)) is not None}
    run = from_mapping(_RunSection, spec.run, "run", **flags)
    cfg = RunConfig(**{f.name: getattr(run, f.name) for f in dataclasses.fields(RunConfig)})
    if run.evaluator is None:
        raise ProblemError("no evaluator: pass --evaluator or set run.evaluator in the config")
    evaluator = make_evaluator(run.evaluator, timeout=args.timeout)
    return spec, cfg, run.ga, evaluator


def cmd_run(args) -> int:
    if args.method == "ga":
        refused = [flag for name, flag in _CARS_FLAGS.items() if getattr(args, name) is not None]
        if refused:
            raise ProblemError(f"--method ga does not take {', '.join(refused)}")
    out = _out_dir(args)
    spec, cfg, ga_cfg, evaluator = _load(args)
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
    valid = sum(r["valid"] for r in records)
    print(f"samples: {len(records)}  valid: {valid}  log: {log_path}")
    return 0


def cmd_resume(args) -> int:
    out = _out_dir(args)
    spec, cfg, _, evaluator = _load(args)
    try:
        state = engine.resume(args.log, spec, cfg, evaluator)
    finally:
        evaluator.close()
    engine.export_summary_csv(state.records, out / "summary.csv")
    engine.export_valid_samples_csv(spec, state.records, out / "valid_samples.csv")
    valid = sum(r["valid"] for r in state.records)
    print(f"samples: {len(state.records)}  valid: {valid}  log: {args.log}")
    return 0


# ---------------------------------------------------------------------------
# bench: time the sampling step itself (no evaluator involved)
# ---------------------------------------------------------------------------

def bench_sampling(max_params: int, batch_sizes: list[int], repeats: int = 20, n_sub: int = 9) -> list[dict]:
    """Time one full sampling step per (n_params, batch_size) configuration.

    A step = assign the previous batch's fitness, recompute the pooling
    overlay (RunConfig's default width, when it divides ``n_sub``), softmax,
    draw the batch and place in-cell points.  Evaluation is excluded.
    """
    sizes = [("--max-params", max_params), ("--repeats", repeats)] + [("--batch-sizes", b) for b in batch_sizes]
    for flag, value in sizes:
        if value < 1:
            raise ProblemError(f"{flag} must be >= 1, got {value}")
    pool = RunConfig.n_pool if n_sub % RunConfig.n_pool == 0 else 0
    rows = []
    for n_params in range(1, max_params + 1):
        for batch in batch_sizes:
            tensor = SubdomainTensor(n_params, n_sub, pool)
            rng = np.random.default_rng(0)
            mis = rng.integers(0, n_sub, (batch, n_params))
            fits = rng.random(batch)
            times = []
            for rep in range(repeats):
                t0 = time.perf_counter()
                tensor.update_many(mis, fits)
                probs = tensor.softmax_probabilities(alpha=float(rep))
                mis = tensor.sample_subdomains(probs, batch, rng)
                offsets = rng.random((batch, n_params))
                _ = (mis + offsets) / n_sub
                times.append(time.perf_counter() - t0)
                fits = rng.random(batch)
            rows.append(
                {
                    "n_params": n_params,
                    "n_sub": n_sub,
                    "n_cells": tensor.n_cells,
                    "batch_size": batch,
                    "t_min": min(times),
                    "t_mean": sum(times) / len(times),
                    "t_max": max(times),
                }
            )
    return rows


def cmd_bench(args) -> int:
    rows = bench_sampling(args.max_params, args.batch_sizes, repeats=args.repeats, n_sub=args.n_subdomain)
    out = _out_dir(args)
    path = out / "bench.csv"
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(
            fh,
            fieldnames=["n_params", "n_sub", "n_cells", "batch_size", "t_min", "t_mean", "t_max"],
        )
        w.writeheader()
        w.writerows(rows)
    for row in rows:
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
            for s in engine.iteration_stats(state.records):
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
    out = _out_dir(args)
    spec, cfg, _, evaluator = _load(args)
    try:
        rows = run_study(spec, evaluator, cfg, args.seeds)
    finally:
        evaluator.close()
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
    columns: dict[str, list] = {}  # each parameter's valid values, named in order of first value
    for s in valid:
        for name, vals in s["params"].items():
            if vals:
                columns.setdefault(name, []).extend(vals)
    return {
        "header": entries[0],
        "total": len(samples),
        "valid": len(valid),
        "best_fitness": max((s["fitness"] for s in samples), default=None),
        "param_ranges": {name: (min(vals), max(vals)) for name, vals in columns.items()},
        "samples": samples,
    }


def _cell(value) -> str:
    """``json.dumps(value)``, written directly for a list of finite floats
    (the repr of nan or inf holds an "n"; json spells them NaN and Infinity)."""
    try:
        text = ", ".join(map(float.__repr__, value)) if type(value) is list else "n"
    except TypeError:  # an element that is not a float
        text = "n"
    return json.dumps(value) if "n" in text else f"[{text}]"


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
            row += [_cell(s["params"].get(n)) for n in param_names]
            row += [_cell(s["meas"].get(n)) if s["meas"] else "" for n in meas_names]
            w.writerow(row)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers, such as ``0,1,2``."""
    return [int(s) for s in text.split(",")]


def _seconds(text: str) -> float:
    """A finite number of seconds greater than 0."""
    value = float(text)
    if not 0 < value < float("inf"):  # also false for NaN
        raise argparse.ArgumentTypeError(f"must be a finite number of seconds > 0, not {text!r}")
    return value


def _add_common(p):
    p.add_argument("--out-dir", default=None, help="output directory (or $CARSOPT_OUT_DIR)")


def _add_run_opts(p):
    """Flags of run, resume and study; one that sets a RunConfig field has it as dest."""
    p.add_argument("--config", required=True, help="problem configuration YAML")
    p.add_argument("--n-total", type=int)
    p.add_argument("--alpha-schedule", help="identity | const:<v> | scale:<k>")
    p.add_argument("--evaluator", default=None, help="builtin:<name> or cmd:<command>")
    p.add_argument("--timeout", type=_seconds, default=60.0, help="per-sample evaluator timeout [s]")


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
