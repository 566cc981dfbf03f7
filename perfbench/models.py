"""Reference measurement models and validity rules, written apart from carsopt.

The benchmark recomputes every logged measurement and every logged ``valid``
flag from these definitions, so a faster evaluator or fitness path that
changes results fails the correctness check.  ``boost`` also serves the
external evaluator child, whose log must be byte-identical to a run with the
built-in boost evaluator, so it keeps the library's operation order.
"""

import math


def boost(params):
    c1 = params["C1"][0]
    l1 = params["L1"][0]
    fsw = params["fsw"][0]
    z = (math.log10(l1 * fsw) - 0.5) / 6.0
    vmean = 5.0 + 14.0 / (1.0 + math.exp(-z))
    vrip = 2e-3 / (c1 * fsw)
    eff_tot = 0.97 / ((1.0 + c1 / 2.5e-4) * (1.0 + fsw / 2e7))
    return {"vmean": [vmean], "vrip": [vrip], "eff_tot": [eff_tot]}


def sphere_ring(params):
    x = [params[f"x{i}"][0] for i in range(len(params))]
    s = sum(v * v for v in x)
    return {"sphere": [s], "radius": [math.sqrt(s)]}


def rosenbrock_box(params):
    x = [params[f"x{i}"][0] - 0.5 for i in range(len(params))]
    r = sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2 for i in range(len(x) - 1))
    return {"rosen": [r], "max_abs": [max(abs(v + 0.5) for v in x)]}


# name -> (measurement model, validity of a measurement dict)
PROBLEMS = {
    "boost": (boost, lambda m: 11.5 <= m["vmean"][0] <= 12.5 and 0.0 <= m["vrip"][0] <= 2.0),
    "sphere_ring": (sphere_ring, lambda m: 0.3 <= m["radius"][0] <= 0.8),
    "rosenbrock_box": (rosenbrock_box, lambda m: 0.0 <= m["max_abs"][0] <= 1.8),
}
