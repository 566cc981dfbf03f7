"""The four closed-loop workloads: one caller, each batch awaited before the next.

Each targets one layer that later changes will optimise; see README.md for
why each exists and which numbers each should and should not move.
"""

import contextlib
import io
import shlex
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import carsopt
from carsopt import cli, engine

CHILD = Path(__file__).resolve().parent / "boost_child.py"
# A documented feasible boost design, sent once to prove the child answers.
PROBE_PARAMS = {"C1": [1e-5], "L1": [10**-4.5], "fsw": [1e5]}


@dataclass(frozen=True)
class Rep:
    """What one closed-loop rep did: samples logged, optimizer wall time, log."""

    samples: int
    opt_s: float
    resume_s: float | None
    log: Path


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    n_dim: int | None
    n_total: int = 0  # CARS budget
    oversampling: bool = True
    roundtrip: bool = False  # run to the middle, resume, then report
    islands: tuple[int, int, int] | None = None  # GA: (islands, population, generations)
    external: bool = False
    seeds: int = 3  # distinct optimizer seeds per benchmark run; quality metrics pool them

    @property
    def budget(self):
        if self.islands:
            return carsopt.IslandConfig(*self.islands).total_evaluations
        return self.n_total

    @property
    def n_sub(self):
        return None if self.islands else carsopt.RunConfig(n_total=1).n_subdomain

    def setup(self):
        """Problem construction and evaluator start; returns (spec, evaluator)."""
        spec, evaluator = carsopt.builtin_problem(self.problem, self.n_dim)
        if self.external:
            evaluator = carsopt.ExternalEvaluator(f"{shlex.quote(sys.executable)} {shlex.quote(str(CHILD))}")
            try:
                (res,) = evaluator.evaluate_batch([carsopt.EvaluationRequest(-1, PROBE_PARAMS)])
                if not res.ok:
                    raise RuntimeError(f"evaluator probe failed: {res.error}")
            except BaseException:
                evaluator.close()
                raise
        return spec, evaluator

    def rep(self, prepared, seed, workdir):
        spec, evaluator = prepared
        log = workdir / "run.log"
        resume_s = None
        t0 = time.perf_counter()
        if self.islands:
            carsopt.run_islands(spec, carsopt.IslandConfig(*self.islands), evaluator, seed=seed, log_path=log)
        elif self.roundtrip:
            cfg = self._config(seed)
            carsopt.run(spec, cfg, evaluator, log_path=log, stop_after_iteration=self._middle())
            t1 = time.perf_counter()
            carsopt.resume(log, spec, cfg, evaluator)
            resume_s = time.perf_counter() - t1
        else:
            carsopt.run(spec, self._config(seed), evaluator, log_path=log)
        return Rep(self.budget, time.perf_counter() - t0, resume_s, log)

    def reference(self, seed, log):
        """The log the workload's rep must reproduce byte for byte, or None.

        For the GA: the same run with the built-in evaluator.  For the round
        trip: the same run uninterrupted.
        """
        spec, evaluator = carsopt.builtin_problem(self.problem, self.n_dim)
        if self.islands and self.external:
            carsopt.run_islands(spec, carsopt.IslandConfig(*self.islands), evaluator, seed=seed, log_path=log)
        elif self.roundtrip:
            carsopt.run(spec, self._config(seed), evaluator, log_path=log)
        else:
            return None
        return log

    def _config(self, seed):
        return carsopt.RunConfig(n_total=self.n_total, seed=seed, oversampling=self.oversampling)

    def _middle(self):
        return len(engine.iteration_sizes(self.n_total)) // 2 - 1


def report(log, workdir):
    """``carsopt report`` on a finished log; returns its wall time."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["report", "--log", str(log), "--out-dir", str(workdir / "report")])
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"carsopt report exited {code}: {out.getvalue()}")
    return elapsed


# Full sizes; each rep takes a few seconds on 2 cores.  See README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cars_knn", "sphere_ring", 6, n_total=1500, seeds=6),
        Workload("cars_wide", "rosenbrock_box", 8, n_total=315, oversampling=False, seeds=4),
        Workload("ga_external", "boost", None, islands=(5, 40, 10), external=True),
        Workload("log_roundtrip", "boost", None, n_total=5000, oversampling=False, roundtrip=True),
    )
}

# Smoke-test sizes: the same code paths in well under a second per rep.
TINY = {
    "cars_knn": Workload("cars_knn", "sphere_ring", 3, n_total=60),
    "cars_wide": Workload("cars_wide", "rosenbrock_box", 3, n_total=60, oversampling=False),
    "ga_external": Workload("ga_external", "boost", None, islands=(2, 8, 3), external=True),
    "log_roundtrip": Workload("log_roundtrip", "boost", None, n_total=300, oversampling=False, roundtrip=True),
}

# Per-layer metrics that should carry most of each workload's traced time.
INTENDED = {
    "cars_knn": ["knn.estimate_s"],
    "cars_wide": ["tensor.softmax_s", "tensor.draw_s"],
    "ga_external": [
        "evaluators.batch_s",
        "ga.sort_s",
        "ga.variation_s",
        "ga.self_s",
        "fitness.breakdown_s",
        "fitness.scalar_s",
    ],
    "log_roundtrip": ["engine.self_s", "fitness.breakdown_s", "fitness.scalar_s", "knn.append_s"],
}
