"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKDIR = run.OUT / "smoke"


def _bench(*args):
    cmd = [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seconds", "0.2", *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, key):
    result = _bench("--workload", workload, "--seed", "1", "--trace", str(trace))
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


def _log(workload, seed, name):
    WORKDIR.mkdir(parents=True, exist_ok=True)
    w = workloads.TINY[workload]
    spec, evaluator = w.setup()
    try:
        rep = w.rep((spec, evaluator), seed, WORKDIR)
    finally:
        evaluator.close()
    return rep.log.rename(WORKDIR / name)


def test_a_different_seed_changes_the_inputs():
    one, two = run.derived_seeds(1, run.SEED_STRIDE), run.derived_seeds(2, run.SEED_STRIDE)
    assert not set(one) & set(two)
    a = _log("cars_knn", one[0], "a.log")
    b = _log("cars_knn", two[0], "b.log")
    assert checks.sha256(a) != checks.sha256(b)
    again = _log("cars_knn", one[0], "again.log")
    assert checks.sha256(again) == checks.sha256(a)


def _tampered(lines, edit):
    path = WORKDIR / "tampered.log"
    path.write_text("".join(edit(list(lines))))
    return path


def _set_sample_field(field, value):
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if '"type": "sample"' in line and '"valid": true' in line)
        obj = json.loads(lines[i])
        obj[field] = value(obj[field])
        lines[i] = json.dumps(obj) + "\n"
        return lines

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: [line for line in lines if '"id": 5,' not in line],  # a sample lost
        lambda lines: lines + [lines[-1]],  # a sample duplicated
        _set_sample_field("valid", lambda v: not v),
        _set_sample_field("meas", lambda m: {**m, "vmean": [m["vmean"][0] * (1 + 1e-9)]}),
        _set_sample_field("subdomain", lambda c: [(c[0] + 3) % 9, *c[1:]]),
        lambda lines: lines[1:],  # header lost
    ],
    ids=["dropped", "duplicated", "valid_flag", "measurement", "subdomain", "header"],
)
def test_a_tampered_log_fails_the_check(edit):
    w = workloads.TINY["log_roundtrip"]
    log = _log("log_roundtrip", 3, "good.log")
    good = checks.check_log(log, w.problem, w.budget, w.n_sub)
    lines = log.read_text().splitlines(keepends=True)
    with pytest.raises(checks.CheckError):
        checks.check_log(_tampered(lines, edit), w.problem, w.budget, w.n_sub)
    with pytest.raises(checks.CheckError):
        checks.check_same(_tampered(lines, edit), good.sha256, "tampered")


def test_without_sources_it_fails_without_a_result():
    bare = WORKDIR / "bare"
    (bare / "perfbench").mkdir(parents=True, exist_ok=True)
    for f in HERE.iterdir():
        if f.is_file():
            (bare / "perfbench" / f.name).write_bytes(f.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cars_knn", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
