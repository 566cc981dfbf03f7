"""Walk through one CARS run on a constrained sphere problem.

Four parameters in [-1, 1], minimize sum(x^2) subject to 0.3 <= ||x|| <= 0.8.
The unconstrained optimum (the origin) violates the boundary, so the sampler
has to settle onto the inner shell at radius 0.3.
"""

import numpy as np

import carsopt
from carsopt.engine import iteration_stats

# ---------------------------------------------------------------------------
# Set up the problem and run with default settings (pooling + oversampling on)
# ---------------------------------------------------------------------------
spec, evaluator = carsopt.builtin_problem("sphere_ring", 4)
config = carsopt.RunConfig(n_total=5000, seed=0)
records = []
carsopt.run(spec, config, evaluator, sink=records.extend)

print(f"samples: {len(records)}")
print(f"iterations: {max(r['iteration'] for r in records) + 1}")

# ---------------------------------------------------------------------------
# Fitness climbs iteration by iteration as the softmax sharpens
# ---------------------------------------------------------------------------
print("\niter  fit_mean  fit_max  valid")
for s in iteration_stats(records):
    print(f"{s['iteration']:4d}  {s['fit_mean']:8.3f}  {s['fit_max']:7.3f}  {s['valid']:5d}")

# ---------------------------------------------------------------------------
# Best valid design found
# ---------------------------------------------------------------------------
valid = [r for r in records if r["valid"]]
best = max(valid, key=lambda r: r["fitness"])
x = np.array([best["params"][f"x{i}"][0] for i in range(4)])
print(f"\nbest valid sphere value: {best['meas']['sphere'][0]:.4f} (optimum 0.09)")
print(f"radius: {np.linalg.norm(x):.4f} (target shell starts at 0.30)")
