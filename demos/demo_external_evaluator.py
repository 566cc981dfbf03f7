"""Drive an out-of-process evaluator over the line-delimited JSON protocol.

The child process below stands in for a real simulator: it reads one JSON
request per line from stdin and writes one JSON response per line to stdout.
Any executable speaking this protocol can serve as an evaluator, regardless
of language.
"""

import sys
import tempfile
import textwrap
from pathlib import Path

import carsopt
from carsopt.evaluators import ExternalEvaluator
from carsopt.problem import ObjectiveDef, ParameterDef, ProblemSpec

# ---------------------------------------------------------------------------
# A minimal simulator: y = -(x - 0.3)^2, maximized at x = 0.3
# ---------------------------------------------------------------------------
CHILD = """\
    import sys, json
    for line in sys.stdin:
        req = json.loads(line)
        x = req["params"]["x"][0]
        print(json.dumps({"id": req["id"], "meas": {"y": [-(x - 0.3) ** 2]}}), flush=True)
"""

workdir = Path(tempfile.mkdtemp())
child = workdir / "simulator.py"
child.write_text(textwrap.dedent(CHILD))

spec = ProblemSpec(
    parameters=(ParameterDef("x", "linear", (0.0, 1.0)),),
    objectives=(ObjectiveDef("y", "max"),),
    boundaries=(),
)

evaluator = ExternalEvaluator(f"{sys.executable} {child}", timeout=30.0)
records = []
try:
    carsopt.run(spec, carsopt.RunConfig(n_total=500, seed=0), evaluator, sink=records.extend)
finally:
    evaluator.close()

best = max(records, key=lambda r: r["fitness"])
print(f"samples: {len(records)}")
print(f"best x: {best['params']['x'][0]:.4f} (optimum 0.3000)")
print(f"best y: {best['meas']['y'][0]:.6f}")
