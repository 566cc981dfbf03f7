"""External evaluator for the ga_external workload: boost model over JSON lines.

Reads ``{"id": ..., "params": {...}}`` requests on stdin and answers each with
``{"id": ..., "meas": {...}}`` on stdout, in order, until stdin closes.
"""

import json
import sys

from models import boost


def main():
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps({"id": req["id"], "meas": boost(req["params"])}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
