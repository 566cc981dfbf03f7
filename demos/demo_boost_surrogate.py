"""Optimize the surrogate boost converter and watch constraint focusing.

Three log-scaled parameters (C1, L1, fsw), two objectives (hit 12 V, maximize
efficiency) and two boundaries (output voltage window, ripple limit).  Random
sampling finds a valid design only about a quarter of the time; the penalty
term steers later iterations almost entirely into the valid region.
"""

import carsopt
from carsopt.engine import iteration_stats

spec, evaluator = carsopt.builtin_problem("boost")
records = []
carsopt.run(spec, carsopt.RunConfig(n_total=5000, seed=0), evaluator, sink=records.extend)

# ---------------------------------------------------------------------------
# Valid fraction per iteration: the signature of penalty-driven focusing
# ---------------------------------------------------------------------------
print("iter  valid fraction")
for s in iteration_stats(records):
    bar = "#" * int(40 * s["valid"] / s["n"])
    print(f"{s['iteration']:4d}  {s['valid'] / s['n']:.3f}  {bar}")

# ---------------------------------------------------------------------------
# The best valid design
# ---------------------------------------------------------------------------
valid = [r for r in records if r["valid"]]
best = max(valid, key=lambda r: r["fitness"])
print(f"\nvalid designs: {len(valid)}/{len(records)}")
params, meas = best["params"], best["meas"]
print(f"best design: C1={params['C1'][0]:.3e} F, "
      f"L1={params['L1'][0]:.3e} H, fsw={params['fsw'][0]:.3e} Hz")
print(f"  vmean={meas['vmean'][0]:.3f} V, "
      f"vrip={meas['vrip'][0]:.4f} V, eff={meas['eff_tot'][0]:.4f}")
