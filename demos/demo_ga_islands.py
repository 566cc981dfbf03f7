"""Run the island NSGA-II baseline on the boost surrogate.

Five islands evolve independently (no migration); their final non-dominated
sets are merged and re-sorted at the end.  The result is a Pareto front
trading the 12 V voltage target against efficiency.
"""

import carsopt
from carsopt.ga import IslandConfig, run_islands

spec, evaluator = carsopt.builtin_problem("boost")
config = IslandConfig(n_islands=5, population_size=20, generations=50)
print(f"total evaluations: {config.total_evaluations}")

records = []
result = run_islands(spec, config, evaluator, seed=0, sink=records.extend)

# ---------------------------------------------------------------------------
# Merged front 0, sorted by the voltage-target objective
# ---------------------------------------------------------------------------
front = sorted(result.front0, key=lambda ind: -ind.objectives[0])
valid_at = {tuple(r["unit"]): r["valid"] for r in records}
print(f"\nfront 0 size: {len(front)} (from {config.n_islands} islands)")
print("voltage objective   efficiency   valid")
for ind in front[:15]:
    print(f"{ind.objectives[0]:17.4f}   {ind.objectives[1]:10.4f}   {valid_at[tuple(ind.genome.tolist())]}")

valid = sum(r["valid"] for r in records)
print(f"\nvalid evaluations overall: {valid}/{len(records)}")
