"""Correctness checks on the logs a workload writes.

A check reads only the log bytes and the reference models in ``models``; it
never asks carsopt whether carsopt was right.
"""

import hashlib
import json
import math
from dataclasses import dataclass

from models import PROBLEMS


class CheckError(AssertionError):
    """A workload's output is wrong."""


@dataclass(frozen=True)
class LogSummary:
    sha256: str
    size: int
    samples: int
    failed: int
    valid: int
    best_valid: float | None
    subdomains: int  # distinct sub-domain cells sampled (0 for the GA)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)


def check_log(path, problem, budget, n_sub=None):
    """Check one finished run log and summarize it.

    Checks: a run header first; ``budget`` samples with ids 0..budget-1 in log
    order; each measurement matches the reference model of ``problem``; each
    ``valid`` flag matches the reference boundary rule; for CARS logs
    (``n_sub`` given) each unit point lies inside its logged sub-domain.
    """
    model, is_valid = PROBLEMS[problem]
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        entries = [json.loads(line) for line in data.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path}: unparsable line: {exc}")
    if not entries or entries[0].get("type") != "run":
        raise CheckError(f"{path}: no run header")
    samples = [e for e in entries if e.get("type") == "sample"]
    if len(samples) != budget:
        raise CheckError(f"{path}: {len(samples)} samples, budget {budget}")
    ids = [s["id"] for s in samples]
    if ids != list(range(budget)):
        raise CheckError(f"{path}: sample ids are not contiguous from 0")
    failed = valid = 0
    best = None
    cells = set()
    for s in samples:
        if s["meas"] is None:
            failed += 1
            if s["valid"]:
                raise CheckError(f"{path}: failed sample {s['id']} marked valid")
            continue
        want = model(s["params"])
        if set(want) != set(s["meas"]) or not all(
            _close(a, b) for k in want for a, b in zip(want[k], s["meas"][k])
        ):
            raise CheckError(f"{path}: sample {s['id']} measurements differ from the model")
        if s["valid"] != is_valid(s["meas"]):
            raise CheckError(f"{path}: sample {s['id']} has a wrong valid flag")
        if s["valid"]:
            valid += 1
            best = s["fitness"] if best is None else max(best, s["fitness"])
        if not all(0.0 <= u <= 1.0 for u in s["unit"]):
            raise CheckError(f"{path}: sample {s['id']} lies outside the unit cube")
        if n_sub is not None:
            if not all(c <= u * n_sub + 1e-9 and u * n_sub <= c + 1 + 1e-9 for c, u in zip(s["subdomain"], s["unit"])):
                raise CheckError(f"{path}: sample {s['id']} lies outside its sub-domain")
            cells.add(tuple(s["subdomain"]))
    return LogSummary(
        sha256=hashlib.sha256(data).hexdigest(),
        size=len(data),
        samples=len(samples),
        failed=failed,
        valid=valid,
        best_valid=best,
        subdomains=len(cells),
    )


def check_same(path, want_sha, what):
    """The log at ``path`` must be byte-identical to the one hashed as ``want_sha``."""
    got = sha256(path)
    if got != want_sha:
        raise CheckError(f"{path}: {what}: sha256 {got[:12]} != {want_sha[:12]}")
    return got
