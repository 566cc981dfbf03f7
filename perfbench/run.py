"""carsopt benchmark: run one workload for a fixed time, check it, print metrics.

    python3 perfbench/run.py --workload cars_knn --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the workload runs untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced reps alternate and the
per-layer metrics are reported.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
for people.  Logs, report output and the span file go to ``.perfbench_out/``.
Exit code 1 means a correctness check failed, 2 means no carsopt sources.
"""

import os

# One closed-loop caller: pin every BLAS/OpenMP pool to 1 thread (never more
# than nproc) before numpy loads, so runs do not depend on pool sizing.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7  # setup_s is the median of this many set-ups
SEED_STRIDE = 8  # --seed n derives optimizer seeds n*8, n*8+1, ... (at most 8)
REPORT_SHARE = 0.2  # repeat `report` on a rep's log until this share of the rep's time is measured

E2E_UNITS = {
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "report_s": "s",
    "best_fitness": "fitness",
    "valid_frac": "ratio",
    "ok_frac": "ratio",
}
COUNT_METRICS = [
    "tensor.cells_scanned",
    "knn.queries",
    "knn.distance_evals",
    "fitness.calls",
    "evaluators.batches",
    "evaluators.failed",
    "problem.to_physical_calls",
]
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import carsopt; print(time.perf_counter() - t)"
)


def layer_units():
    """Unit of every per-layer metric, in report order."""
    from tracer import TIME_METRICS

    units = {name: "s" for name in TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update(
        {
            "knn.select_ratio": "ratio",
            "evaluators.mean_batch": "count",
            "tensor.touched_frac": "ratio",
            "engine.log_bytes": "bytes",
            "trace.layer_share": "ratio",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


def derived_seeds(seed, count):
    if count > SEED_STRIDE:
        raise ValueError(f"at most {SEED_STRIDE} seeds per run")
    return [seed * SEED_STRIDE + r for r in range(count)]


def quartile(values, which):
    """Lower (0) or upper (2) quartile of ``values``, interpolated inside their range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[which]


def import_time():
    """Seconds a fresh interpreter spends in ``import carsopt``."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(SRC)], capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout)


class Logs:
    """Checks each rep's log: fully on a seed's first run, byte-identical after."""

    def __init__(self, workload):
        self.w = workload
        self.by_seed = {}

    def check(self, seed, path, what="rerun of the same seed"):
        import checks

        first = self.by_seed.get(seed)
        if first is None:
            self.by_seed[seed] = first = checks.check_log(path, self.w.problem, self.w.budget, self.w.n_sub)
            print(f"log seed={seed} samples={first.samples} valid={first.valid} sha256={first.sha256}")
        else:
            checks.check_same(path, first.sha256, what)
        return first

    def check_reference(self, seed, workdir):
        import checks

        ref = self.w.reference(seed, workdir / "reference.log")
        if ref is not None:
            what = "external evaluator vs built-in" if self.w.external else "resumed vs uninterrupted"
            checks.check_same(ref, self.by_seed[seed].sha256, what)
            print(f"check ok: {what} (seed={seed})")


def measure_e2e(w, seed, seconds, workdir):
    from workloads import report

    setup_s = []
    prepared = None
    try:
        for _ in range(SETUP_REPEATS):
            if prepared:
                prepared[1].close()
                prepared = None
            t_import = import_time()
            t0 = time.perf_counter()
            prepared = w.setup()
            setup_s.append(t_import + time.perf_counter() - t0)

        seeds = derived_seeds(seed, w.seeds)
        logs = Logs(w)
        rates, reports, attempted, failed = [], [], 0, 0
        start = time.perf_counter()
        last = 0.0  # wall time of the last rep with its reports and checks
        # Every seed runs once; then reps go on while the next one still ends within the run.
        while len(rates) < len(seeds) or time.perf_counter() - start + last < seconds:
            t_rep = time.perf_counter()
            s = seeds[len(rates) % len(seeds)]
            rep = w.rep(prepared, s, workdir)
            rates.append(rep.samples / rep.opt_s)
            spent = 0.0
            while not spent or spent < REPORT_SHARE * rep.opt_s:
                reports.append(report(rep.log, workdir))
                spent += reports[-1]
            summary = logs.check(s, rep.log)
            attempted += rep.samples
            failed += summary.failed
            if rep.resume_s is not None:
                print(f"rep seed={s} resume_s={rep.resume_s:.4f}")
            last = time.perf_counter() - t_rep
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if prepared:
            prepared[1].close()
    logs.check_reference(seeds[0], workdir)

    firsts = [logs.by_seed[s] for s in seeds]
    if any(f.best_valid is None for f in firsts):
        raise RuntimeError("a seed produced no valid sample; best_fitness is undefined")
    print(f"reps={len(rates)} report_calls={len(reports)} setups={len(setup_s)}")
    (OUT / f"{w.name}-e2e-raw.json").write_text(json.dumps({"rates": rates, "reports": reports, "setup_s": setup_s}))
    metrics = {
        "samples_per_s": quartile(rates, 0),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "report_s": quartile(reports, 2),
        "best_fitness": statistics.fmean(f.best_valid for f in firsts),
        "valid_frac": sum(f.valid for f in firsts) / sum(f.samples for f in firsts),
        "ok_frac": 1.0 - failed / attempted,
    }
    return metrics, E2E_UNITS, attempted, failed


def measure_layers(w, seed, seconds, workdir, intended):
    import tracer
    from workloads import report

    seeds = derived_seeds(seed, w.seeds)
    logs = Logs(w)
    t = tracer.Tracer()
    plain_walls, traced_walls, rows, span_reps = [], [], [], []
    attempted = failed = 0
    prepared = w.setup()
    try:
        n_dim = prepared[0].n_dim
        start = time.perf_counter()
        last = 0.0
        while not rows or time.perf_counter() - start + last < seconds:
            t_pair = time.perf_counter()
            s = seeds[len(rows) % len(seeds)]
            plain = w.rep(prepared, s, workdir)
            plain_walls.append(plain.opt_s + report(plain.log, workdir))
            summary = logs.check(s, plain.log)
            t.install()
            try:
                traced = w.rep(prepared, s, workdir)
                traced_walls.append(traced.opt_s + report(traced.log, workdir))
            finally:
                t.uninstall()
            logs.check(s, traced.log, "traced vs untraced run")
            spans, counts = t.take()
            span_reps.append(spans)
            attempted += 2 * plain.samples
            failed += 2 * summary.failed

            row = tracer.layer_times(spans)
            row.update({name: counts[name] for name in COUNT_METRICS})
            row["knn.select_ratio"] = counts["knn.selected"] / counts["knn.queries"] if counts["knn.queries"] else 0.0
            batches = counts["evaluators.batches"]
            row["evaluators.mean_batch"] = counts["evaluators.requests"] / batches if batches else 0.0
            row["tensor.touched_frac"] = summary.subdomains / w.n_sub**n_dim if w.n_sub else 0.0
            row["engine.log_bytes"] = summary.size
            row["trace.layer_share"] = sum(row[m] for m in intended) / traced_walls[-1]
            rows.append(row)
            last = time.perf_counter() - t_pair
    finally:
        prepared[1].close()
    tracer.write_spans(OUT / f"{w.name}-spans.ndjson", span_reps)

    units = layer_units()
    metrics = {m: statistics.median(r[m] for r in rows) for m in units if m != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    print(f"traced reps={len(rows)} intended layers {'+'.join(intended)}: share {metrics['trace.layer_share']:.3f}")
    return metrics, units, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("cars_knn", "cars_wide", "ga_external", "log_roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "carsopt" / "__init__.py").is_file():
        print(f"error: no carsopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import checks
    import workloads

    w = (workloads.TINY if args.size == "tiny" else workloads.WORKLOADS)[args.workload]
    workdir = OUT / w.name
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace} size={args.size}")
    try:
        if args.trace:
            result = measure_layers(w, args.seed, args.seconds, workdir, workloads.INTENDED[w.name])
        else:
            result = measure_e2e(w, args.seed, args.seconds, workdir)
    except checks.CheckError as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    metrics, units, attempted, failed = result
    for name, value in metrics.items():
        print(f"{name:28s} {value:16.6g} {units[name]}")
    out = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
