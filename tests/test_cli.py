import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile
import textwrap
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import carsopt as c
from carsopt import engine
from carsopt.cli import (
    EXIT_CONFIG,
    EXIT_EVALUATOR,
    EXIT_INTERRUPTED,
    STUDY_VARIANTS,
    _export,
    _RunSection,
    _scatter_line,
    main,
)
from carsopt.engine import RunConfig
from carsopt.problem import from_mapping, parse_problem
from carsopt.tensor import SubdomainTensor
from test_engine import boost_log_lines, corrupt_logs, two_op_problem


CONFIG = """\
n_operating_points: 1
parameters:
  - {name: x0, scale: linear, bounds: [-1.0, 1.0]}
  - {name: x1, scale: linear, bounds: [-1.0, 1.0]}
  - {name: x2, scale: linear, bounds: [-1.0, 1.0]}
  - {name: x3, scale: linear, bounds: [-1.0, 1.0]}
objectives:
  - {name: sphere, kind: min}
boundaries:
  - {name: radius, kind: range, values: [[0.3, 0.8]]}
run:
  evaluator: "builtin:sphere_ring"
  n_total: 200
  seed: 0
  ga: {n_islands: 2, population_size: 5, generations: 2}
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "problem.yaml"
    path.write_text(CONFIG)
    return path


# report's stdout on the test_pinned_scatter_csv logs.
PINNED_REPORT_STDOUT = {
    "cars": "965f6a1ecfea54a08f8ffa18da9d4193b966d3bdd716d65738928438d206ce41",
    "ga": "a9a422da10f4fc3b560deb4a2f738f79da32036a02ad884d6cf97cc2e3d97a55",
}


# test_pinned_exports: the digests of summary.csv and valid_samples.csv, and
# the printed counts, per configs/<name>.yaml and method.
PINNED_EXPORTS = {
    ("boost", "cars"): [
        [
            "702771444853c62473d0870e1c0eeb48c7cc33f61e0f75d176ba7051fdace507",
            "6ae16e87f1b17b6c90d612dcdc8d41ee1b10769f4456dcaaff2441d953a236d3",
        ],
        "samples: 400  valid: 320  log: out/run.log\n",
    ],
    ("boost", "ga"): [
        [
            "cd2edc595b8782aeb6d4cbac0c63a21184c0ca3d8a6c9e97651bb0bb36c51792",
            "d0c68df409a5a47e95f5ecd79446bb7be36a2e90ceb78f1b0a6baff8349b5549",
        ],
        "evaluations: 100\nsamples: 100  valid: 62  log: out/run.log\n",
    ],
    ("sphere_ring4", "cars"): [
        [
            "25fa2573560a0e8f889fd17fa873a343d06656a0282b0df3abfe6f78593b7bd1",
            "a50bdd0c95b30f1e3fedc9f7f8da8832107dbf527facc61d2068d972d9f11294",
        ],
        "samples: 400  valid: 303  log: out/run.log\n",
    ],
    ("sphere_ring4", "ga"): [
        [
            "c67e7df99563c7e7a829b181941f10414127345c256dfdbe23cd727fae90eb03",
            "f31db5700b49a7486f9904cd23494420fa58af5ffb5ca99c2a2769990c90460c",
        ],
        "evaluations: 100\nsamples: 100  valid: 54  log: out/run.log\n",
    ],
}


def mixed_log() -> str:
    """A hand-built run log whose samples differ in their parameter and
    measurement names, with a null and an empty meas, NaN and infinite
    values, and int values."""
    first = dict(type="sample", iteration=0, subdomain=[0], unit=[0.5], error=None)
    first.update(objective_raw=[[1.0]], penalty_raw=[[0.0]])

    def sample(i, params, meas, fitness, valid, **extra):
        return {**first, "id": i, "params": params, "meas": meas, "fitness": fitness, "valid": valid, **extra}

    nan, inf = math.nan, math.inf
    lines = [
        {"type": "run", "version": 2, "method": "cars", "seed": 7},
        {"type": "iteration", "iteration": 0, "alpha": 0.0, "n_samples": 5},
        sample(0, {"b": [2.0, -0.0], "a": [1.5, 0.5]}, {"m": [1.0, nan]}, 0.5, True),
        sample(1, {"a": [3]}, None, -1.0, False, error="timeout"),
        sample(2, {"a": [nan, 0.25], "c": [7]}, {"n": [2], "m": [inf]}, nan, True),
        sample(3, {"b": [1e-300], "a": []}, {}, 2, True, island=1),
        sample(4, {"c": [-5, 2.5], "b": [-inf]}, {"n": [None, 1e308]}, 1.25, False),
    ]
    return "".join(json.dumps(line) + "\n" for line in lines)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_artifacts_and_exit_code(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config), "--out-dir", str(out)])
        assert rc == 0
        for name in ("run.log", "summary.csv", "valid_samples.csv"):
            assert (out / name).exists()
        captured = capsys.readouterr().out
        assert "samples: 200" in captured

    def test_repeat_runs_byte_identical(self, config, tmp_path):
        main(["run", "--config", str(config), "--out-dir", str(tmp_path / "a")])
        main(["run", "--config", str(config), "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a/run.log").read_bytes() == (tmp_path / "b/run.log").read_bytes()

    def test_ga_method(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config), "--method", "ga", "--out-dir", str(out)])
        assert rc == 0
        assert "evaluations: 30" in capsys.readouterr().out  # 2 * 5 * (2 + 1)
        assert (out / "run.log").exists()

    def test_builtin_model_takes_dimension_from_config(self, tmp_path):
        # A 6-D sphere_ring config must be scored over all six coordinates.
        config = tmp_path / "sphere6.yaml"
        extra = "".join(f"  - {{name: x{i}, scale: linear, bounds: [-1.0, 1.0]}}\n" for i in (4, 5))
        config.write_text(CONFIG.replace("objectives:", extra + "objectives:", 1))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--n-total", "60", "--out-dir", str(out)]) == 0
        with open(out / "run.log") as fh:
            samples = [e for e in map(json.loads, fh) if e["type"] == "sample"]
        assert len(samples) == 60
        for e in samples:
            assert len(e["params"]) == 6
            want = sum(v[0] ** 2 for v in e["params"].values())
            assert e["meas"]["sphere"][0] == pytest.approx(want, rel=1e-12)

    def test_env_out_dir(self, config, tmp_path, monkeypatch):
        monkeypatch.setenv("CARSOPT_OUT_DIR", str(tmp_path / "envout"))
        assert main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "envout/run.log").exists()

    def test_missing_config(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.yaml"), "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_short_measurement_list_fails_its_sample(self, config, tmp_path):
        # Sample 5's radius holds no value for the problem's one operating point.
        child = tmp_path / "short_child.py"
        child.write_text(textwrap.dedent("""\
            import json, math, sys
            for line in sys.stdin:
                req = json.loads(line)
                s = sum(v[0] ** 2 for v in req["params"].values())
                radius = [] if req["id"] == 5 else [math.sqrt(s)]
                print(json.dumps({"id": req["id"], "meas": {"sphere": [s], "radius": radius}}), flush=True)
        """))
        out = tmp_path / "out"
        args = ["--n-total", "40", "--evaluator", f"cmd:{sys.executable} {child}", "--out-dir", str(out)]
        assert main(["run", "--config", str(config)] + args) == 0
        samples = [r for r in engine.read_log(out / "run.log") if r["type"] == "sample"]
        assert len(samples) == 40
        failed = [(s["id"], s["valid"], s["fitness"]) for s in samples if s["objective_raw"] == [None]]
        assert failed == [(5, False, 0.0)]

    def test_bad_evaluator(self, config, capsys, tmp_path):
        rc = main(
            ["run", "--config", str(config), "--evaluator", "ftp:x", "--out-dir", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "old,new,named",
        [
            ("  n_total: 200", "  cell_cap: 100", "run.cell_cap"),
            ("  n_total: 200", "  n_total: lots", "run.n_total"),
            ("  n_total: 200", "  n_total:", "run.n_total"),
            ("population_size: 5", "populaton: 5", "run.ga.populaton"),
            ("n_islands: 2", "islands: 2", "run.ga.islands"),
            ("{n_islands: 2, population_size: 5, generations: 2}", "5", "run.ga"),
            ("population_size: 5", "population_size: 0", "population_size"),
            ("  n_total: 200", '  n_total: 200\n  oversampling: "false"', "run.oversampling"),
            ("  n_total: 200", "  n_total: 200\n  n_subdomain: 9.7", "run.n_subdomain"),
            ("  n_total: 200", "  n_total: true", "run.n_total"),
            ("population_size: 5", "population_size: 5.0", "run.ga.population_size"),
            ("population_size: 5", "population_size: 5, p_mutate: yes", "run.ga.p_mutate"),
            ("population_size: 5", "population_size: 5, p_mutate: often", "run.ga.p_mutate"),
            ("  n_total: 200", "  n_total: 200\n  n_pool: -3", "n_pool must be >= 0"),  # -3 divides 9
            ('"builtin:sphere_ring"', "5", "run.evaluator"),
            ("  seed: 0", "  seed: -1", "seed must be in [0, 2**63)"),
            ("  n_total: 200", "  n_total: 1" + "0" * 400, "run.n_total"),
            ("population_size: 5", "population_size: 5, sigma_mutate: .nan", "sigma_mutate must be finite"),
            ("population_size: 5", "population_size: 5, alpha_crossover: .nan", "alpha_crossover must be finite"),
            ("population_size: 5", "population_size: 5, eta_crossover: .inf", "eta_crossover must be finite"),
            # Every parameter a grid: neither method has a point to sample.
            ("scale: linear, bounds: [-1.0, 1.0]", "scale: grid, grid_values: [0.5]", "no sampled dimensions"),
        ],
        ids=[
            "unknown",
            "non-integer",
            "null",
            "ga-misspelled",
            "ga-old-key",
            "ga-not-mapping",
            "ga-empty-population",
            "quoted-bool",
            "fractional-int",
            "bool-as-int",
            "ga-float-as-int",
            "ga-bool-as-float",
            "ga-word-as-float",
            "negative-pool",
            "evaluator-not-string",
            "negative-seed",
            "int-past-64-bits",
            "ga-nan-sigma",
            "ga-nan-alpha",
            "ga-inf-eta",
            "no-sampled-dimension",
        ],
    )
    def test_bad_run_key_is_config_error(self, tmp_path, capsys, old, new, named):
        config = tmp_path / "problem.yaml"
        config.write_text(CONFIG.replace(old, new))
        for method in ("cars", "ga"):
            rc = main(["run", "--config", str(config), "--method", method, "--out-dir", str(tmp_path / "o")])
            assert rc == EXIT_CONFIG
            assert named in capsys.readouterr().err
            assert not (tmp_path / "o/run.log").exists()

    def test_seed_range_is_the_same_from_config_and_flag(self, config, tmp_path, capsys):
        # 2**63 - 1 is the largest seed; a config key and --seed agree on it.
        over = tmp_path / "over.yaml"
        over.write_text(CONFIG.replace("  seed: 0", f"  seed: {2**63}"))
        for argv in (["--config", str(over)], ["--config", str(config), "--seed", str(2**63)]):
            assert main(["run", *argv, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
            assert "seed" in capsys.readouterr().err
            assert not (tmp_path / "o/run.log").exists()
        largest = ["run", "--config", str(config), "--seed", str(2**63 - 1), "--n-total", "20"]
        assert main([*largest, "--out-dir", str(tmp_path / "o")]) == 0
        assert engine.read_log(tmp_path / "o/run.log")[0]["seed"] == 2**63 - 1

    @pytest.mark.parametrize("schedule", ["const:nan", "const:inf", "scale:nan", "scale:-1"])
    def test_bad_alpha_schedule_is_config_error(self, config, tmp_path, capsys, schedule):
        # Refused before the first sample is drawn, so no log is written.
        out = tmp_path / "o"
        rc = main(["run", "--config", str(config), "--alpha-schedule", schedule, "--no-pooling", "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        assert "alpha" in capsys.readouterr().err
        assert not (out / "run.log").exists()

    def test_overflowing_alpha_is_config_error(self, config, tmp_path, capsys):
        # alpha = 1e308 * iteration overflows the pooled softmax from
        # iteration 1 on; iteration 0 stays logged and resumes under another
        # schedule.
        out = tmp_path / "o"
        rc = main(["run", "--config", str(config), "--alpha-schedule", "scale:1e308", "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        assert "not finite" in capsys.readouterr().err
        samples = [e for e in engine.read_log(out / "run.log") if e["type"] == "sample"]
        assert {e["iteration"] for e in samples} == {0}
        assert main(["resume", "--config", str(config), "--log", str(out / "run.log"), "--out-dir", str(out)]) == 0
        assert sum(e["type"] == "sample" for e in engine.read_log(out / "run.log")) == 200

    def test_float_key_takes_yaml_exponent_string(self, tmp_path):
        # PyYAML reads 1e-3 (no decimal point) as the string "1e-3".
        config = tmp_path / "problem.yaml"
        config.write_text(CONFIG.replace("population_size: 5", "population_size: 5, p_mutate: 1e-3"))
        assert main(["run", "--config", str(config), "--method", "ga", "--out-dir", str(tmp_path / "o")]) == 0
        assert from_mapping(c.IslandConfig, yaml.safe_load("p_mutate: 1e-3"), "run.ga").p_mutate == 0.001

    @pytest.mark.parametrize(
        "old,new,named",
        [
            ("objectives:\n", "objectives: [\n", "not valid YAML"),
            ("{name: sphere, kind: min}", "{name: sphere, kind: min, op_scope: [a]}", "objectives[0].op_scope"),
            ("n_operating_points: 1", "n_operating_points: two", "n_operating_points"),
            ("builtin:sphere_ring", "builtin:nosuch", "nosuch"),
            ("boundaries:\n", "boundary:\n", "in the config: boundary"),
            ("bounds: [-1.0, 1.0]}", "bounds: [-1.0, 1.0], op_cont: 2}", "parameters[0].op_cont"),
            ("bounds: [-1.0, 1.0]}", "bounds: [-1.0, 1.0], op_count: 2.7}", "parameters[0].op_count"),
            ("n_operating_points: 1", "n_operating_points: 2.9", "n_operating_points"),
            ("{name: sphere, kind: min}", "{name: sphere, kind: min, op_scope: some}", "objectives[0].op_scope"),
            ("{name: radius, kind: range,", "{name: radius,", "boundaries[0].kind"),
            ("values: [[0.3, 0.8]]", "values: 0", "boundary radius: range values"),
            ("bounds: [-1.0, 1.0]}", "bounds: [-1.0, 1.0], op_count: 2}", "parameter x0: op_count 2"),
        ],
        ids=[
            "yaml-syntax",
            "op-scope",
            "n-operating-points",
            "unknown-builtin",
            "boundary-typo",
            "unknown-parameter-key",
            "fractional-op-count",
            "fractional-operating-points",
            "op-scope-word",
            "missing-kind",
            "range-scalar",
            "op-count-past-operating-points",
        ],
    )
    def test_malformed_problem_is_config_error(self, tmp_path, capsys, old, new, named):
        config = tmp_path / "problem.yaml"
        config.write_text(CONFIG.replace(old, new))
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error:" in err
        assert named in err
        assert not (tmp_path / "o/run.log").exists()

    def test_exponent_without_point_loads(self, tmp_path):
        # PyYAML reads 1e-9 (no decimal point) as a string; a float key takes it.
        config = tmp_path / "problem.yaml"
        text = CONFIG.replace("x0, scale: linear, bounds: [-1.0, 1.0]", "x0, scale: log, bounds: [1e-9, 1e-3]")
        config.write_text(text)
        assert c.load_problem(config).parameters[0].bounds == (1e-9, 1e-3)
        assert main(["run", "--config", str(config), "--n-total", "20", "--out-dir", str(tmp_path / "o")]) == 0

    def test_readme_example_loads(self):
        # The example under "Problem configuration" in README.md, as documented.
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Problem configuration", 1)[1]
        example = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
        spec = parse_problem(example)
        assert [p.name for p in spec.parameters] == ["C1", "fsw"]
        assert [b.per_op_values(1) for b in spec.boundaries] == [[(11.5, 12.5)], [(0.0, 2.0)]]
        assert from_mapping(_RunSection, spec.run, "run") == _RunSection(n_total=5000, seed=0, evaluator="builtin:boost")

    def test_internal_value_error_is_not_config_error(self, config, tmp_path, monkeypatch):
        # Exit 2 means a configuration error; any other fault shows its traceback.
        def broken(*args, **kwargs):
            raise ValueError("fitness must be finite")

        monkeypatch.setattr(engine, "run", broken)
        with pytest.raises(ValueError, match="finite"):
            main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")])

    @pytest.mark.parametrize(
        "flag", [["--n-total", "50"], ["--no-pooling"], ["--no-oversampling"], ["--alpha-schedule", "const:1"]]
    )
    def test_ga_refuses_cars_flags(self, config, tmp_path, capsys, flag):
        rc = main(["run", "--config", str(config), "--method", "ga", "--out-dir", str(tmp_path / "o")] + flag)
        assert rc == EXIT_CONFIG
        assert flag[0] in capsys.readouterr().err


class TestResume:
    def test_resume_matches_uninterrupted(self, config, tmp_path):
        out_full = tmp_path / "full"
        main(["run", "--config", str(config), "--out-dir", str(out_full)])
        # Produce a partial log, then let the CLI finish it.
        spec, ev = c.builtin_problem("sphere_ring", 4)
        cfg = RunConfig(n_total=200, seed=0)
        out_part = tmp_path / "part"
        out_part.mkdir()
        c.run(spec, cfg, ev, log_path=out_part / "run.log", stop_after_iteration=2)
        rc = main(
            [
                "resume",
                "--config",
                str(config),
                "--log",
                str(out_part / "run.log"),
                "--out-dir",
                str(out_part),
            ]
        )
        assert rc == 0
        assert (out_part / "run.log").read_bytes() == (out_full / "run.log").read_bytes()
        assert (out_part / "summary.csv").read_bytes() == (out_full / "summary.csv").read_bytes()

    @pytest.mark.parametrize("method", ["cars", "ga", "resume"])
    @pytest.mark.parametrize("name", ["boost", "sphere_ring4"])
    def test_pinned_exports(self, tmp_path, capsys, monkeypatch, name, method):
        # summary.csv, valid_samples.csv and the printed counts of a CARS run,
        # a GA run and a resume of the CARS log cut mid-iteration; a resumed
        # run exports what the uninterrupted one did.
        problem = yaml.safe_load((Path(__file__).parents[1] / "configs" / f"{name}.yaml").read_text())
        problem["run"]["ga"] = {"n_islands": 2, "population_size": 10, "generations": 4}
        (tmp_path / "problem.yaml").write_text(yaml.safe_dump(problem))
        monkeypatch.chdir(tmp_path)
        args = ["--config", "problem.yaml", "--out-dir", "out"]
        if method == "ga":
            assert main(["run", "--method", "ga", *args]) == 0
        else:
            assert main(["run", "--n-total", "400", *args]) == 0
        if method == "resume":
            log = Path("out/run.log")
            log.write_bytes(log.read_bytes()[: log.stat().st_size // 2])
            capsys.readouterr()
            assert main(["resume", "--n-total", "400", "--log", str(log), *args]) == 0
        exports = ("summary.csv", "valid_samples.csv")
        digests = [hashlib.sha256(Path("out", f).read_bytes()).hexdigest() for f in exports]
        stdout = capsys.readouterr().out
        assert [digests, stdout] == PINNED_EXPORTS[name, "cars" if method == "resume" else method]

    @pytest.mark.parametrize(
        "old,new",
        [
            ('"x0": ', '"y0": '),
            (r'"x1": \[[^]]*\]', '"x1": []'),
            (r'"radius": \[[^]]*\]', '"radius": []'),
            (r'"radius": \[[^]]*\]', '"radius": 5'),
        ],
        ids=["renamed-param", "empty-param", "empty-meas", "scalar-meas"],
    )
    def test_sample_the_export_cannot_read_is_config_error(self, tmp_path, capsys, old, new):
        # Line 11 is the first valid sample of a 120-sample sphere_ring4 log;
        # report reads it, resume rejects it before it cuts the log.
        config = Path(__file__).parents[1] / "configs" / "sphere_ring4.yaml"
        args = ["--config", str(config), "--n-total", "120", "--out-dir", str(tmp_path)]
        assert main(["run", *args]) == 0
        log = tmp_path / "run.log"
        lines = log.read_text().splitlines(keepends=True)
        assert json.loads(lines[10])["valid"] and not any(json.loads(line)["valid"] for line in lines[3:10])
        lines[10], edits = re.subn(old, new, lines[10])
        assert edits == 1
        log.write_text("".join(lines))
        before = log.read_bytes()
        assert main(["report", "--log", str(log), "--out-dir", str(tmp_path / "report")]) == 0
        capsys.readouterr()
        assert main(["resume", "--log", str(log), *args]) == EXIT_CONFIG
        assert "corrupt log line 11: " in capsys.readouterr().err
        assert log.read_bytes() == before

    def test_bad_alpha_schedule_keeps_the_log(self, tmp_path, capsys):
        # The schedule is checked before resume cuts the log back to its
        # whole iterations, so a rejected resume leaves the log's bytes.
        config = Path(__file__).parents[1] / "configs" / "sphere_ring4.yaml"
        args = ["--config", str(config), "--n-total", "400", "--out-dir", str(tmp_path)]
        assert main(["run", *args]) == 0
        log = tmp_path / "run.log"
        log.write_bytes(log.read_bytes()[:20_000])
        before = log.read_bytes()
        capsys.readouterr()
        assert main(["resume", "--log", str(log), "--alpha-schedule", "bogus", *args]) == EXIT_CONFIG
        assert "bad alpha schedule 'bogus'" in capsys.readouterr().err
        assert log.read_bytes() == before

    def test_geometry_mismatch_is_config_error(self, config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out-dir", str(out)])
        rc = main(
            [
                "resume",
                "--config",
                str(config),
                "--log",
                str(out / "run.log"),
                "--no-pooling",
                "--seed",
                "1",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == EXIT_CONFIG

    def test_version_1_log_is_config_error(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out-dir", str(out)])
        log = out / "run.log"
        log.write_text(log.read_text().replace('"version": 2,', '"version": 1,', 1))
        before = log.read_bytes()
        assert main(["resume", "--config", str(config), "--log", str(log), "--out-dir", str(out)]) == EXIT_CONFIG
        assert "version" in capsys.readouterr().err
        assert log.read_bytes() == before


def reference_export(spec, out: Path, log_path) -> int:
    """The exports as one pass over a finished run's log: the oracle of
    ``cli._export``'s sink."""
    params = [(p.name, op) for p in spec.parameters for op in range(p.op_count)]
    meas = [(name, op) for name in spec.measurement_names() for op in range(spec.n_operating_points)]

    def samples(valid):
        """The log's samples; each valid one is written to ``valid`` on its way."""
        for s in engine.iter_log(log_path):
            if s["type"] == "sample":
                if s["valid"]:
                    row = [s["id"], s["iteration"], s["fitness"]] + [s["params"][n][op] for n, op in params]
                    valid.writerow(row + [s["meas"][n][op] for n, op in meas])
                yield s

    with open(out / "valid_samples.csv", "w", newline="") as fh:
        valid = csv.writer(fh)
        valid.writerow(["id", "iteration", "fitness"] + [f"{n}[{op}]" for n, op in params + meas])
        stats = engine.iteration_stats(samples(valid))
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "fit_min", "fit_mean", "fit_max", "valid", "n"])
        w.writerows(s.values() for s in stats)
    print(f"samples: {sum(s['n'] for s in stats)}  valid: {sum(s['valid'] for s in stats)}  log: {log_path}")
    return 0


# An evaluator child for CONFIG that exits on its 31st request.
DYING_CHILD = """\
    import json, math, sys
    for n, line in enumerate(sys.stdin, 1):
        if n == 31:
            sys.exit(1)
        req = json.loads(line)
        s = sum(v[0] ** 2 for v in req["params"].values())
        print(json.dumps({"id": req["id"], "meas": {"sphere": [s], "radius": [math.sqrt(s)]}}), flush=True)
"""


class TestExport:
    @staticmethod
    def mixed_model():
        """sphere_ring 4-D measurements as an int and a tuple where x0 > 0,
        else as tuples of ``numpy.float64``."""
        _, inner = c.builtin_problem("sphere_ring", 4)

        def model(params):
            meas = inner.evaluate_batch([c.EvaluationRequest(0, params)])[0].meas
            if params["x0"][0] > 0:
                return {"sphere": [round(meas["sphere"][0])], "radius": tuple(meas["radius"])}
            return {k: tuple(np.float64(v) for v in vals) for k, vals in meas.items()}

        return c.BuiltinEvaluator(model)

    @pytest.mark.parametrize("method", ["cars", "ga", "resume"])
    def test_sink_exports_what_the_log_does(self, tmp_path, capsys, method):
        # The sink gets the model's own values (and, on resume, the parsed
        # lines of the kept iterations); it writes the bytes that reading
        # the finished log writes.
        spec, _ = c.builtin_problem("sphere_ring", 4)
        ev = self.mixed_model()
        cfg = RunConfig(n_total=300, seed=2)
        log, sunk, oracle = tmp_path / "run.log", tmp_path / "sink", tmp_path / "oracle"
        sunk.mkdir()
        oracle.mkdir()
        if method == "resume":
            c.run(spec, cfg, ev, log_path=log)
            log.write_bytes(log.read_bytes()[: log.stat().st_size // 2])
        with _export(spec, sunk, log) as sink:
            if method == "cars":
                c.run(spec, cfg, ev, log_path=log, sink=sink)
            elif method == "ga":
                c.run_islands(spec, c.IslandConfig(2, 10, 4), ev, seed=2, log_path=log, sink=sink)
            else:
                c.resume(log, spec, cfg, ev, sink=sink)
        printed = capsys.readouterr().out
        assert reference_export(spec, oracle, log) == 0
        assert printed == capsys.readouterr().out
        for name in ("summary.csv", "valid_samples.csv"):
            assert (sunk / name).read_bytes() == (oracle / name).read_bytes()
        spheres = [row["sphere[0]"] for row in read_csv(sunk / "valid_samples.csv")]
        assert "0" in spheres and any("." in v for v in spheres)

    def test_run_reads_no_log_and_resume_reads_it_once(self, config, tmp_path, monkeypatch):
        calls, numbered = [], engine._numbered_log
        monkeypatch.setattr(engine, "_numbered_log", lambda path: calls.append(path) or numbered(path))
        out = tmp_path / "out"
        for method in ("ga", "cars"):
            assert main(["run", "--method", method, "--config", str(config), "--out-dir", str(out)]) == 0
        assert calls == []
        log = out / "run.log"
        log.write_bytes(log.read_bytes()[: log.stat().st_size // 2])
        assert main(["resume", "--config", str(config), "--log", str(log), "--out-dir", str(out)]) == 0
        assert len(calls) == 1

    @staticmethod
    def failing(how, tmp_path, monkeypatch) -> tuple[list[str], int]:
        """The flags and exit code of a run that ``how`` ends: an evaluator
        child that exits on its 31st request, or an interrupt in the second
        batch."""
        if how == "child-exit":
            child = tmp_path / "dying_child.py"
            child.write_text(textwrap.dedent(DYING_CHILD))
            return ["--evaluator", f"cmd:{sys.executable} {child}"], EXIT_EVALUATOR
        calls, evaluate_batch = itertools.count(1), c.BuiltinEvaluator.evaluate_batch

        def interrupted(self, requests):
            if next(calls) == 2:
                raise KeyboardInterrupt
            return evaluate_batch(self, requests)

        monkeypatch.setattr(c.BuiltinEvaluator, "evaluate_batch", interrupted)
        return [], EXIT_INTERRUPTED

    @pytest.mark.parametrize("how", ["child-exit", "interrupt"])
    def test_failed_run_leaves_no_exports(self, config, tmp_path, capsys, monkeypatch, how):
        out = tmp_path / "out"
        flags, code = self.failing(how, tmp_path, monkeypatch)
        assert main(["run", "--config", str(config), "--out-dir", str(out)] + flags) == code
        assert os.listdir(out) == ["run.log"]
        assert "samples:" not in capsys.readouterr().out

    @pytest.mark.parametrize("how", ["child-exit", "interrupt"])
    def test_failed_resume_keeps_earlier_exports(self, config, tmp_path, monkeypatch, how):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        exports = {name: (out / name).read_bytes() for name in ("summary.csv", "valid_samples.csv")}
        log = out / "run.log"
        log.write_bytes(log.read_bytes()[: log.stat().st_size // 2])
        flags, code = self.failing(how, tmp_path, monkeypatch)
        assert main(["resume", "--config", str(config), "--log", str(log), "--out-dir", str(out)] + flags) == code
        assert sorted(os.listdir(out)) == ["run.log", *sorted(exports)]
        assert {name: (out / name).read_bytes() for name in exports} == exports


class TestExitCodes:
    @pytest.mark.parametrize("command", ["run", "resume", "study"])
    def test_out_dir_naming_a_file_is_config_error(self, config, tmp_path, capsys, monkeypatch, command):
        # The output directory is made before the evaluator child is spawned.
        spawned = []
        monkeypatch.setattr("carsopt.evaluators.subprocess.Popen", lambda *a, **kw: spawned.append(a))
        taken = tmp_path / "taken"
        taken.write_text("")
        extra = ["--log", str(tmp_path / "run.log")] if command == "resume" else []
        args = ["--evaluator", f"cmd:{sys.executable} -c pass", "--out-dir", str(taken)]
        assert main([command, "--config", str(config)] + args + extra) == EXIT_CONFIG
        assert "--out-dir" in capsys.readouterr().err
        assert spawned == []

    @pytest.mark.parametrize("command", ["report", "resume"])
    def test_sample_line_missing_a_key_is_config_error(self, config, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        lines = (out / "run.log").read_text().splitlines(keepends=True)
        (out / "run.log").write_text("".join(lines[:3] + ['{"type": "sample", "id": 0}\n'] + lines[3:]))
        capsys.readouterr()
        extra = ["--config", str(config)] if command == "resume" else []
        assert main([command, "--log", str(out / "run.log"), "--out-dir", str(out)] + extra) == EXIT_CONFIG
        assert "line 4: sample without key 'error'" in capsys.readouterr().err

    def test_child_exit_is_evaluator_error_and_resumable(self, config, tmp_path, capsys):
        # The child exits after reading its first request: iteration 0 never
        # completes, so the log holds the header alone.
        child = tmp_path / "quit_child.py"
        child.write_text("import sys\nsys.stdin.readline()\n")
        out = tmp_path / "out"
        args = ["--evaluator", f"cmd:{sys.executable} {child}", "--out-dir", str(out)]
        assert main(["run", "--config", str(config)] + args) == EXIT_EVALUATOR
        assert "evaluator error" in capsys.readouterr().err
        log = out / "run.log"
        assert [e["type"] for e in engine.read_log(log)] == ["run"]
        # Resuming with the config's built-in evaluator writes the
        # uninterrupted built-in run.
        assert main(["resume", "--config", str(config), "--log", str(log), "--out-dir", str(out)]) == 0
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "full")]) == 0
        assert log.read_bytes() == (tmp_path / "full/run.log").read_bytes()

    def test_interrupt_exits_4(self, config, tmp_path, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "run", interrupted)
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == EXIT_INTERRUPTED
        assert "resumable" in capsys.readouterr().err


class TestTimeout:
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["run", "resume", "study"])
    def test_timeout_must_be_finite_and_positive(self, config, tmp_path, capsys, command, value):
        extra = ["--log", str(tmp_path / "run.log")] if command == "resume" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config), f"--timeout={value}", "--out-dir", str(tmp_path)] + extra)
        assert exc.value.code == EXIT_CONFIG
        assert "--timeout" in capsys.readouterr().err


class TestBench:
    def test_bench_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            [
                "bench",
                "--max-params",
                "2",
                "--batch-sizes",
                "500",
                "--repeats",
                "2",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(out / "bench.csv")
        assert len(rows) == 2
        assert all(float(r["t_mean"]) >= 0 for r in rows)

    def test_bench_runs_past_the_old_cell_cap(self, tmp_path, capsys):
        # bench times every size, however many cells: 800^3 = 5.12e8 here.
        out = tmp_path / "out"
        rc = main(
            [
                "bench",
                "--max-params",
                "3",
                "--batch-sizes",
                "100",
                "--repeats",
                "1",
                "--n-subdomain",
                "800",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(out / "bench.csv")
        assert [int(r["n_cells"]) for r in rows] == [800, 800**2, 800**3]
        assert all(float(r["t_min"]) >= 0 for r in rows)
        assert "skipped" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag,value",
        [("--repeats", "0"), ("--max-params", "0"), ("--batch-sizes", "-5"), ("--batch-sizes", "100,0")],
    )
    def test_sizes_below_one_are_config_errors(self, tmp_path, capsys, flag, value):
        rc = main(["bench", "--max-params", "1", "--batch-sizes", "10", flag, value, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert flag in capsys.readouterr().err

    def test_pooled_step_peak_memory_is_small(self):
        # One pooled sampling step on 9^8 = 43M cells, as bench_sampling runs
        # it, allocates with the batch, not with the cell count: even 4 bytes
        # per cell would be 172 MB.
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            tensor = SubdomainTensor(8, 9, 3)
            tensor.update_many(rng.integers(0, 9, (10_000, 8)), rng.random(10_000))
            probs = tensor.softmax_probabilities(2.0)
            mis = tensor.sample_subdomains(probs, 10_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestStudy:
    def test_study_csv(self, config, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "study",
                "--config",
                str(config),
                "--seeds",
                "0,1",
                "--n-total",
                "100",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(out / "study.csv")
        assert set(rows[0]) == {"variant", "seed", "iteration", "fit_min", "fit_mean", "fit_max"}
        assert {r["variant"] for r in rows} == set(STUDY_VARIANTS)
        assert {r["seed"] for r in rows} == {"0", "1"}

    def test_study_runs_the_config(self, config, tmp_path):
        # The variants override pooling and oversampling of the run config;
        # its other settings, from the file and the flags, hold.
        out = tmp_path / "out"
        args = ["--config", str(config), "--seeds", "3", "--alpha-schedule", "const:0", "--out-dir", str(out)]
        assert main(["study", "--n-total", "100"] + args) == 0
        rows = [r for r in read_csv(out / "study.csv") if r["variant"] == "none"]
        spec, ev = c.builtin_problem("sphere_ring", 4)
        cfg = RunConfig(n_total=100, seed=3, alpha_schedule="const:0", **STUDY_VARIANTS["none"])
        records = []
        c.run(spec, cfg, ev, sink=records.extend)
        want = engine.iteration_stats(records)
        assert [float(r["fit_mean"]) for r in rows] == [s["fit_mean"] for s in want]

    def test_bad_later_seed_runs_nothing(self, config, tmp_path, capsys, monkeypatch):
        # Every (variant, seed) config is checked before the first run.
        batches, evaluate_batch = [], c.BuiltinEvaluator.evaluate_batch

        def counted(self, requests):
            batches.append(len(requests))
            return evaluate_batch(self, requests)

        monkeypatch.setattr(c.BuiltinEvaluator, "evaluate_batch", counted)
        out = tmp_path / "out"
        args = ["--config", str(config), "--seeds", "0,-1", "--n-total", "100", "--out-dir", str(out)]
        assert main(["study", *args]) == EXIT_CONFIG
        assert "seed must be in [0, 2**63)" in capsys.readouterr().err
        assert batches == []
        assert not (out / "study.csv").exists()

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--no-pooling"], ["--no-oversampling"]])
    def test_study_refuses_flags_it_sets_itself(self, config, flag):
        with pytest.raises(SystemExit) as exc:
            main(["study", "--config", str(config)] + flag)
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "args", [["study", "--config", "c.yaml", "--seeds", "x"], ["bench", "--batch-sizes", "1,x"]]
    )
    def test_malformed_int_list_is_config_error(self, args):
        try:
            rc = main(args)
        except SystemExit as exc:  # refused by the argument parser
            rc = exc.code
        assert rc == EXIT_CONFIG

    def test_study_keeps_the_config_pool_width(self, tmp_path):
        config = tmp_path / "problem.yaml"
        config.write_text(CONFIG.replace("  seed: 0\n", "  seed: 0\n  n_subdomain: 10\n  n_pool: 5\n"))
        out = tmp_path / "out"
        assert main(["study", "--config", str(config), "--n-total", "100", "--seeds", "0", "--out-dir", str(out)]) == 0
        assert {r["variant"] for r in read_csv(out / "study.csv")} == set(STUDY_VARIANTS)

    def test_study_needs_pooling(self, tmp_path, capsys):
        config = tmp_path / "problem.yaml"
        config.write_text(CONFIG.replace("  seed: 0\n", "  seed: 0\n  n_pool: 0\n"))
        rc = main(["study", "--config", str(config), "--seeds", "0", "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "n_pool" in capsys.readouterr().err


class TestReport:
    def test_report_summary(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out-dir", str(out)])
        capsys.readouterr()
        rc = main(["report", "--log", str(out / "run.log"), "--out-dir", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "valid:" in text and "/200" in text
        rows = read_csv(out / "scatter.csv")
        assert len(rows) == 200
        assert {"id", "iteration", "fitness", "valid", "x0", "x1"} <= set(rows[0])

    @pytest.mark.parametrize(
        "method,digest",
        [
            ("cars", "86b77f7dfb020a64a3a04966585702908da51992100ed7e873be866d2eba0894"),
            ("ga", "18accc9072220cbf11cd603dbbdf4efe9e9669aba3acb8802f2ee90c920d7b6b"),
        ],
    )
    def test_pinned_scatter_csv(self, tmp_path, capsys, monkeypatch, method, digest):
        # Failed samples, NaN measurements and grid parameters: every cell
        # keeps the bytes json.dumps gave it, and the summary its text.
        spec, ev = two_op_problem()
        if method == "cars":
            c.run(spec, RunConfig(n_total=200, seed=4), ev, log_path=tmp_path / "run.log")
        else:
            c.run_islands(spec, c.IslandConfig(3, 8, 4), ev, seed=4, log_path=tmp_path / "run.log")
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--log", "run.log", "--out-dir", "out"]) == 0
        assert hashlib.sha256((tmp_path / "out/scatter.csv").read_bytes()).hexdigest() == digest
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_REPORT_STDOUT[method]

    def test_pinned_report_of_mixed_samples(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "run.log").write_text(mixed_log())
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--log", "run.log", "--out-dir", "out"]) == 0
        stdout = capsys.readouterr().out
        assert "a: valid range [0.25, 1.5]" in stdout  # min() goes on past a NaN
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "030d73b5bdb75a152be1d12a5375bb1c03c2c0ca1cf43a78a4285f44194fb91c"
        )
        assert hashlib.sha256((tmp_path / "out/scatter.csv").read_bytes()).hexdigest() == (
            "1450a11ef2dbb34b9435680fde1298db390c579bf171b324303b7a51115c1f7d"
        )

    def test_corrupt_log_is_config_error(self, tmp_path, capsys):
        # Nothing is printed, and --out-dir is not made, for a log rejected
        # anywhere in it.
        out = tmp_path / "out"
        for text, message in corrupt_logs(boost_log_lines(tmp_path)):
            (tmp_path / "bad.log").write_bytes(text)
            assert main(["report", "--log", str(tmp_path / "bad.log"), "--out-dir", str(out)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.search(message, captured.err), (message, captured.err)
            assert not out.exists()

    def test_corrupt_log_is_config_error_for_resume(self, tmp_path, capsys):
        # Also a sub-domain or unit point restore_state cannot fold; the log
        # is left as it was.
        config = Path(__file__).parents[1] / "configs" / "boost.yaml"
        args = ["--config", str(config), "--n-total", "60", "--log", str(tmp_path / "bad.log")]
        for text, message in corrupt_logs(boost_log_lines(tmp_path), restore=True):
            (tmp_path / "bad.log").write_bytes(text)
            assert main(["resume", *args, "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert re.search(message, captured.err), (message, captured.err)
            assert (tmp_path / "bad.log").read_bytes() == text

    def test_report_peak_memory_is_a_fraction_of_the_parsed_log(self, tmp_path, capsys):
        spec, ev = c.builtin_problem("boost")
        log = tmp_path / "run.log"
        c.run(spec, RunConfig(n_total=3000, seed=0, oversampling=False), ev, log_path=log)
        peaks = []
        for read in (
            lambda: engine.read_log(log),
            lambda: main(["report", "--log", str(log), "--out-dir", str(tmp_path)]),
        ):
            tracemalloc.start()
            try:
                read()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] / 4, peaks

    @given(
        st.lists(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.lists(st.floats(), max_size=3),
            min_size=4,
            max_size=4,
        ),
        st.lists(
            st.none()
            | st.lists(st.floats() | st.integers() | st.booleans() | st.none() | st.text(), max_size=3)
            | st.lists(st.lists(st.floats(), max_size=2), max_size=2)
            | st.text()
            | st.dictionaries(st.text(), st.floats())
        ),
    )
    def test_scatter_line_equals_csv_writer(self, scalars, values):
        buf = io.StringIO()
        csv.writer(buf).writerow(scalars + [json.dumps(v) for v in values])
        assert _scatter_line(scalars + values) == buf.getvalue()

    def test_report_missing_log(self, tmp_path, capsys):
        rc = main(["report", "--log", str(tmp_path / "none.log"), "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG


@cache
def seeded_log(method: str) -> bytes:
    """The run log of ``CONFIG`` with 40 CARS samples (4 iterations of 10) or
    its GA (2 islands of 5 over 3 generations)."""
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        (Path(tmp) / "problem.yaml").write_text(CONFIG)
        args = ["run", "--config", f"{tmp}/problem.yaml", "--method", method, "--out-dir", tmp]
        assert main(args + (["--n-total", "40"] if method == "cars" else [])) == 0
        return (Path(tmp) / "run.log").read_bytes()


# What a number in a log may become.
REPLACEMENTS = [b"-1", b"0", b"99", b"1e400", b"NaN", b"null", b"true", b'"x"', b"[]", b"{}"]


@st.composite
def mutated(draw, log: bytes) -> bytes:
    """``log`` with one byte replaced, one span deleted or copied elsewhere,
    or one number replaced."""
    kind = draw(st.sampled_from(["byte", "delete", "copy", "number"]))
    i = draw(st.integers(0, len(log) - 1))
    j = draw(st.integers(i, min(len(log), i + 300)))
    if kind == "byte":
        return log[:i] + bytes([draw(st.integers(0, 255))]) + log[i + 1 :]
    if kind == "delete":
        return log[:i] + log[j:]
    if kind == "copy":
        k = draw(st.integers(0, len(log)))
        return log[:k] + log[i:j] + log[k:]
    number = draw(st.sampled_from(list(re.finditer(rb"-?\d+(\.\d+)?([eE][-+]?\d+)?", log))))
    return log[: number.start()] + draw(st.sampled_from(REPLACEMENTS)) + log[number.end() :]


class TestMutatedLog:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["cars", "ga"]).flatmap(lambda method: mutated(seeded_log(method))))
    def test_report_and_resume_exit_0_or_2(self, log):
        # On exit 2 the message names a line or the header and the log keeps
        # its bytes; a resumed log holds samples 0 ... 39 in order.
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "problem.yaml").write_text(CONFIG)
            path = Path(tmp) / "run.log"
            for cmd in (["report"], ["resume", "--config", f"{tmp}/problem.yaml", "--n-total", "40"]):
                path.write_bytes(log)
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    rc = main([*cmd, "--log", str(path), "--out-dir", f"{tmp}/out"])
                assert rc in (0, EXIT_CONFIG)
                if rc == EXIT_CONFIG:
                    assert re.search(r"line \d+: |header", err.getvalue()), err.getvalue()
                    assert path.read_bytes() == log
                elif cmd[0] == "resume":
                    assert [s["id"] for s in engine.iter_log(path) if s["type"] == "sample"] == list(range(40))
