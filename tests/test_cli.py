import csv
import json
import tracemalloc

import numpy as np
import pytest

import carsopt as c
from carsopt import engine
from carsopt.cli import _BYTES_PER_CELL, EXIT_CONFIG, STUDY_VARIANTS, main
from carsopt.engine import RunConfig
from carsopt.tensor import SubdomainTensor


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
        ],
        ids=["unknown", "non-integer", "null", "ga-misspelled", "ga-old-key", "ga-not-mapping", "ga-empty-population"],
    )
    def test_bad_run_key_is_config_error(self, tmp_path, capsys, old, new, named):
        config = tmp_path / "problem.yaml"
        config.write_text(CONFIG.replace(old, new))
        for method in ("cars", "ga"):
            rc = main(["run", "--config", str(config), "--method", method, "--out-dir", str(tmp_path / "o")])
            assert rc == EXIT_CONFIG
            assert named in capsys.readouterr().err
            assert not (tmp_path / "o/run.log").exists()

    @pytest.mark.parametrize(
        "old,new",
        [
            ("objectives:\n", "objectives: [\n"),
            ("{name: sphere, kind: min}", "{name: sphere, kind: min, op_scope: [a]}"),
            ("n_operating_points: 1", "n_operating_points: two"),
            ("builtin:sphere_ring", "builtin:nosuch"),
        ],
        ids=["yaml-syntax", "op-scope", "n-operating-points", "unknown-builtin"],
    )
    def test_malformed_problem_is_config_error(self, tmp_path, capsys, old, new):
        config = tmp_path / "problem.yaml"
        config.write_text(CONFIG.replace(old, new))
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

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
                "--n-subdomain",
                "800",
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

    def test_memory_guard_covers_traced_peak(self):
        # The bench guard's bytes per cell must bound what the sampling step
        # really allocates: construction, then an alpha = 0 and an alpha = 2
        # step of a pooled 7-D tensor, as bench_sampling runs them.
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            tensor = SubdomainTensor(7, 9)
            mis = tensor.multi_indices(rng.integers(0, tensor.n_cells, size=1000))
            for alpha in (0.0, 2.0):
                tensor.update_many(mis, rng.random(1000))
                probs = tensor.softmax_probabilities(alpha, n_pool=3)
                mis = tensor.sample_subdomains(probs, 1000, rng)
                del probs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _BYTES_PER_CELL * tensor.n_cells


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
        want = c.run(spec, cfg, ev).iteration_stats()
        assert [float(r["fit_mean"]) for r in rows] == [s["fit_mean"] for s in want]

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

    def test_report_missing_log(self, tmp_path, capsys):
        rc = main(["report", "--log", str(tmp_path / "none.log"), "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
