import csv
import json

import pytest

import carsopt as c
from carsopt.cli import EXIT_CONFIG, STUDY_VARIANTS, main
from carsopt.engine import RunConfig


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
  ga: {islands: 2, population: 5, generations: 2}
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "problem.yaml"
    path.write_text(CONFIG)
    return path


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
        rc = main(["run", "--config", str(tmp_path / "nope.yaml")])
        assert rc == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_bad_evaluator(self, config, capsys, tmp_path):
        rc = main(
            ["run", "--config", str(config), "--evaluator", "ftp:x", "--out-dir", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG


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
        assert all(not r["skipped"] and float(r["t_mean"]) >= 0 for r in rows)

    def test_bench_skips_over_cell_cap(self, tmp_path, capsys):
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
                "--cell-cap",
                "100",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(out / "bench.csv")
        by_params = {int(r["n_params"]): r for r in rows}
        assert not by_params[1]["skipped"] and not by_params[2]["skipped"]
        assert "cell cap" in by_params[3]["skipped"]
        assert "skipped" in capsys.readouterr().out


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

    def test_report_missing_log(self, tmp_path, capsys):
        rc = main(["report", "--log", str(tmp_path / "none.log"), "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
