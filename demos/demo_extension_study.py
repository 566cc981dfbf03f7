"""Ablate the two sampling extensions on the constrained sphere problem.

Four variants: pooling and oversampling both on, each alone, and neither.
Pooling spreads fitness to neighboring cells and speeds up the climb;
oversampling filters candidates through a kNN estimate and cuts the
per-iteration variance.
"""

import numpy as np

import carsopt
from carsopt.cli import STUDY_VARIANTS
from carsopt.engine import RunConfig

spec, evaluator = carsopt.builtin_problem("sphere_ring", 4)
seeds = range(3)

print(f"{'variant':<18} {'iter-0 mean':>11} {'final mean':>10} {'tail std':>9}")
for variant, overrides in STUDY_VARIANTS.items():
    first, last, stds = [], [], []
    for seed in seeds:
        cfg = RunConfig(n_total=5000, seed=seed, **overrides)
        records = []
        carsopt.run(spec, cfg, evaluator, sink=records.extend)
        per_iter = {}
        for r in records:
            per_iter.setdefault(r["iteration"], []).append(r["fitness"])
        means = [np.mean(v) for _, v in sorted(per_iter.items())]
        first.append(means[0])
        last.append(means[-1])
        stds.extend(np.std(v) for i, v in sorted(per_iter.items()) if i > 2)
    print(f"{variant:<18} {np.mean(first):11.3f} {np.mean(last):10.3f} {np.median(stds):9.4f}")

print("\nExpected pattern: every variant improves; pooling converges faster;")
print("oversampling shows the smallest tail standard deviation.")
