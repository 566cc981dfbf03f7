"""Outside-in tracing of carsopt: spans around the public calls of each layer.

``Tracer.install`` replaces each traced function or method with a wrapper,
everywhere carsopt has bound it (``from .problem import to_physical`` makes a
second binding in ``engine``), and ``Tracer.uninstall`` restores the
originals.  A wrapper records one span (name, start, end, parent) in memory;
hooks add counts measured on the call's own arguments and result.  Self time
is a span's duration minus the durations of its direct children.
"""

import json
import sys
import time
from collections import Counter, defaultdict

import carsopt  # noqa: F401  (loads every submodule that gets patched)

# Traced calls, each named "<module>.<qualname>" within carsopt.
TRACED = [
    "tensor.SubdomainTensor.softmax_probabilities",
    "tensor.SubdomainTensor.effective_cells",
    "tensor.SubdomainTensor.sample_subdomains",
    "tensor.SubdomainTensor.update_many",
    "tensor.SubdomainTensor.update_fitness",
    "knn.NeighborStore.estimate_many",
    "knn.NeighborStore.estimate",
    "knn.NeighborStore.append",
    "fitness.evaluate_breakdown",
    "fitness.FitnessBreakdown.scalar",
    "fitness.ga_objective_vector",
    "evaluators.BuiltinEvaluator.evaluate_batch",
    "evaluators.ExternalEvaluator.evaluate_batch",
    "ga.run_islands",
    "ga.nondominated_sort",
    "ga.crowding_distance",
    "ga.sbx_crossover",
    "ga.gaussian_mutate",
    "engine.run",
    "engine.resume",
    "engine.restore_state",
    "engine.read_log",
    "cli.main",
    "cli.summarize_log",
]
# Called once per sample dimension: counted, not timed.
COUNTED = ["problem.to_physical"]

# Per-layer time metric -> ("incl" | "self", span names summed).
TIME_METRICS = {
    "tensor.softmax_s": ("incl", ["tensor.SubdomainTensor.softmax_probabilities"]),
    "tensor.pool_s": ("incl", ["tensor.SubdomainTensor.effective_cells"]),
    "tensor.draw_s": ("incl", ["tensor.SubdomainTensor.sample_subdomains"]),
    "tensor.update_s": ("incl", ["tensor.SubdomainTensor.update_many", "tensor.SubdomainTensor.update_fitness"]),
    "knn.estimate_s": ("incl", ["knn.NeighborStore.estimate_many", "knn.NeighborStore.estimate"]),
    "knn.append_s": ("incl", ["knn.NeighborStore.append"]),
    "fitness.breakdown_s": ("incl", ["fitness.evaluate_breakdown"]),
    "fitness.scalar_s": ("incl", ["fitness.FitnessBreakdown.scalar", "fitness.ga_objective_vector"]),
    "evaluators.batch_s": (
        "incl",
        ["evaluators.BuiltinEvaluator.evaluate_batch", "evaluators.ExternalEvaluator.evaluate_batch"],
    ),
    "ga.sort_s": ("incl", ["ga.nondominated_sort", "ga.crowding_distance"]),
    "ga.variation_s": ("incl", ["ga.sbx_crossover", "ga.gaussian_mutate"]),
    "ga.self_s": ("self", ["ga.run_islands"]),
    "engine.self_s": ("self", ["engine.run"]),
    "engine.resume_s": ("incl", ["engine.resume"]),
    "engine.restore_s": ("incl", ["engine.restore_state"]),
    "engine.read_log_s": ("incl", ["engine.read_log"]),
    "cli.summarize_s": ("incl", ["cli.summarize_log"]),
    "cli.report_self_s": ("self", ["cli.main"]),
}


def _carsopt_modules():
    return [m for name, m in list(sys.modules.items()) if name == "carsopt" or name.startswith("carsopt.")]


def _resolve(name):
    module, *path = name.split(".")
    owner = sys.modules[f"carsopt.{module}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []
        self._select_pending = False

    # -- hooks: counts measured where the work happens -----------------------

    def _hook(self, name, args, result):
        c = self.counts
        if name == "tensor.SubdomainTensor.softmax_probabilities":
            c["tensor.cells_scanned"] += len(result)
        elif name == "tensor.SubdomainTensor.sample_subdomains":
            c["tensor.cells_scanned"] += len(args[1])
        elif name == "knn.NeighborStore.estimate_many":
            c["knn.queries"] += len(args[1])
            c["knn.distance_evals"] += len(args[1]) * len(args[0])
            self._select_pending = True
        elif name == "knn.NeighborStore.estimate":
            c["knn.queries"] += 1
            c["knn.distance_evals"] += len(args[0])
        elif name == "fitness.evaluate_breakdown":
            c["fitness.calls"] += 1
        elif name.endswith("evaluate_batch"):
            c["evaluators.batches"] += 1
            c["evaluators.requests"] += len(args[1])
            c["evaluators.failed"] += sum(not r.ok for r in result)
            if self._select_pending:  # the batch chosen from the last kNN scoring
                c["knn.selected"] += len(args[1])
                self._select_pending = False

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            self._hook(name, args, result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name + "_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------

    def install(self):
        for names, make in ((TRACED, self._wrap), (COUNTED, self._counted)):
            for name in names:
                owner, attr = _resolve(name)
                orig = owner.__dict__[attr]
                wrapper = make(name, orig)
                if isinstance(owner, type):  # a method: patch the class only
                    targets = [(owner, attr)]
                else:  # a function: patch every binding of it in carsopt
                    targets = [
                        (m, k) for m in _carsopt_modules() for k, v in list(vars(m).items()) if v is orig
                    ]
                for obj, key in targets:
                    self._undo.append((obj, key, getattr(obj, key)))
                    setattr(obj, key, wrapper)

    def uninstall(self):
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    # -- results ------------------------------------------------------------

    def take(self):
        """Spans and counts recorded since the last call; resets both."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans, counts = self.spans[:], Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        self._select_pending = False
        return spans, counts


def layer_times(spans):
    """Per-layer seconds from one rep's spans, per TIME_METRICS."""
    dur = [end - start for _, start, end, _ in spans]
    child = [0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    incl, self_ = defaultdict(int), defaultdict(int)
    for i, (name, _, _, _) in enumerate(spans):
        incl[name] += dur[i]
        self_[name] += dur[i] - child[i]
    sums = {"incl": incl, "self": self_}
    return {m: sum(sums[kind][n] for n in names) / 1e9 for m, (kind, names) in TIME_METRICS.items()}


def write_spans(path, reps):
    """Write every rep's spans as JSON lines: [rep, index, name, start_ns, end_ns, parent]."""
    with open(path, "w") as fh:
        for rep, spans in enumerate(reps):
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps([rep, i, name, start, end, parent]) + "\n")
