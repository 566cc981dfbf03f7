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
import io
import json
import os
import re
import sys
import tempfile
import time
from contextlib import closing, contextmanager
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
    with closing(evaluator), _export(spec, out, log_path) as sink:
        if args.method == "cars":
            engine.run(spec, cfg, evaluator, log_path=log_path, sink=sink)
        else:
            result = run_islands(spec, ga_cfg, evaluator, seed=cfg.seed, log_path=log_path, sink=sink)
            print(f"evaluations: {result.total_evaluations}")
    return 0


def cmd_resume(args) -> int:
    out = _out_dir(args)
    spec, cfg, _, evaluator = _load(args)
    with closing(evaluator), _export(spec, out, args.log) as sink:
        engine.resume(args.log, spec, cfg, evaluator, sink=sink)
    return 0


@contextmanager
def _export(spec, out: Path, log_path):
    """Yield the sink of a run's samples: it writes each valid sample's
    parameters and measurements to ``valid_samples.csv`` and folds each
    iteration's ``iteration_stats`` for ``summary.csv``.  Both are written
    in a temporary directory in ``out`` and moved there when the run ends,
    which then prints its sample counts; a run that fails leaves neither."""
    params = [(p.name, op) for p in spec.parameters for op in range(p.op_count)]
    meas = [(name, op) for name in spec.measurement_names() for op in range(spec.n_operating_points)]
    stats = []
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        with open(Path(tmp, "valid_samples.csv"), "w", newline="") as fh:
            valid = csv.writer(fh)
            valid.writerow(["id", "iteration", "fitness"] + [f"{n}[{op}]" for n, op in params + meas])

            def sink(batch):
                stats.extend(engine.iteration_stats(batch))
                for s in batch:
                    if s["valid"]:
                        row = [s["id"], s["iteration"], s["fitness"]] + [s["params"][n][op] for n, op in params]
                        valid.writerow(row + [s["meas"][n][op] for n, op in meas])

            yield sink
        with open(Path(tmp, "summary.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "fit_min", "fit_mean", "fit_max", "valid", "n"])
            w.writerows(s.values() for s in stats)
        for name in ("valid_samples.csv", "summary.csv"):
            os.replace(Path(tmp, name), out / name)
    print(f"samples: {sum(s['n'] for s in stats)}  valid: {sum(s['valid'] for s in stats)}  log: {log_path}")


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
    runs = [  # every config is checked before the first run
        (variant, seed, dataclasses.replace(config, seed=seed, **overrides))
        for variant, overrides in STUDY_VARIANTS.items()
        for seed in seeds
    ]
    rows = []
    for variant, seed, cfg in runs:
        records = []
        engine.run(spec, cfg, evaluator, sink=records.extend)
        rows += ({"variant": variant, "seed": seed, **s} for s in engine.iteration_stats(records))
    return rows


def cmd_study(args) -> int:
    out = _out_dir(args)
    spec, cfg, _, evaluator = _load(args)
    with closing(evaluator):
        rows = run_study(spec, evaluator, cfg, args.seeds)
    path = out / "study.csv"
    with open(path, "w", newline="") as fh:
        fields = ["variant", "seed", "iteration", "fit_min", "fit_mean", "fit_max"]
        w = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

# The reprs of ints, finite floats and lists of them, joined by commas: other
# values' reprs hold other characters (quotes, braces, letters of nan, inf,
# None, True and False).  Such a repr is also the value's json.dumps cell and
# csv.writer field; only a list of several values holds a comma (as ", "),
# and csv.writer quotes it.
_NUMERIC = re.compile(r"[-+.e0-9\[\], ]*")


def _scatter_line(row: list) -> str:
    """The line ``csv.writer`` writes for a scatter row: its four scalars as
    they are, then each value as its ``json.dumps``."""
    cells = list(map(repr, row))
    line = ",".join(cells)
    if not _NUMERIC.fullmatch(line):
        buf = io.StringIO()
        csv.writer(buf).writerow(row[:4] + list(map(json.dumps, row[4:])))
        return buf.getvalue()
    if ", " in line:  # a list of several values: a quoted field
        line = ",".join([f'"{c}"' if ", " in c else c for c in cells])
    return line + "\r\n"


def summarize_log(log_path) -> dict:
    """Totals, valid counts, best fitness, per-parameter valid ranges and
    the scatter rows, in one pass over the log that keeps no parsed line.

    A sample's scatter row is kept as its CSV line under its own sorted
    parameter and measurement names (``None`` for a sample without
    measurements): ``shapes[row_shapes[i]]`` for ``rows[i]``."""
    lines = engine.iter_log(log_path)
    header = next(lines)
    total = valid = 0
    best = None
    ranges: dict[str, list] = {}  # each parameter's valid [min, max], named in order of first value
    rows = []
    shapes: dict[tuple, tuple] = {}  # a sample's names, in log order -> (index, sorted names)
    row_shapes = []
    for obj in lines:
        if obj["type"] != "sample":
            continue
        params, meas, fitness = obj["params"], obj["meas"], obj["fitness"]
        if not total or fitness > best:  # what max() over the samples keeps
            best = fitness
        total += 1
        if obj["valid"]:
            valid += 1
            for name, vals in params.items():
                if not vals:
                    continue
                lohi = ranges.get(name)
                if lohi is None:
                    ranges[name] = [min(vals), max(vals)]
                else:  # min() and max() over the values so far, in order
                    lohi[0] = min(lohi[0], *vals)
                    lohi[1] = max(lohi[1], *vals)
        key = (tuple(params), tuple(meas) if meas else None)
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = (len(shapes), sorted(params), sorted(meas) if meas else None)
        index, param_names, meas_names = shape
        row = [obj["id"], obj["iteration"], fitness, int(obj["valid"])]
        row += [params[n] for n in param_names]
        if meas_names:
            row += [meas[n] for n in meas_names]
        rows.append(_scatter_line(row))
        row_shapes.append(index)
    return {
        "header": header,
        "total": total,
        "valid": valid,
        "best_fitness": best,
        "param_ranges": {name: tuple(lohi) for name, lohi in ranges.items()},
        "shapes": [names for _, *names in shapes.values()],
        "row_shapes": row_shapes,
        "rows": rows,
    }


def _write_scatter(summary: dict, path) -> None:
    """``scatter.csv``: one row per sample, with a column per parameter and
    measurement name of any sample.  A cell a sample has no name for is
    ``null``, and all its measurement cells are empty if it has none."""
    param_names = sorted({n for names, _ in summary["shapes"] for n in names})
    meas_names = sorted({n for _, names in summary["shapes"] for n in names or ()})
    # Per shape: None if its rows already have every column, else its names.
    widen = [None if p == param_names and (m or []) == meas_names else (p, m) for p, m in summary["shapes"]]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "iteration", "fitness", "valid"] + param_names + meas_names)
        for index, line in zip(summary["row_shapes"], summary["rows"]):
            if widen[index] is None:
                fh.write(line)
                continue
            own_params, own_meas = widen[index]
            cells = next(csv.reader([line]))
            own = dict(zip(own_params, cells[4:]))
            row = cells[:4] + [own.get(n, "null") for n in param_names]
            if own_meas is None:
                row += [""] * len(meas_names)
            else:
                own = dict(zip(own_meas, cells[4 + len(own_params) :]))
                row += [own.get(n, "null") for n in meas_names]
            w.writerow(row)


def cmd_report(args) -> int:
    summary = summarize_log(args.log)
    print(f"method: {summary['header'].get('method')}  seed: {summary['header'].get('seed')}")
    print(f"valid: {summary['valid']}/{summary['total']}")
    if summary["best_fitness"] is not None:
        print(f"best fitness: {summary['best_fitness']:.6g}")
    for name, (lo, hi) in summary["param_ranges"].items():
        print(f"  {name}: valid range [{lo:.6g}, {hi:.6g}]")
    path = _out_dir(args) / "scatter.csv"
    _write_scatter(summary, path)
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
