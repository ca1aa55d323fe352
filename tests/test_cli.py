import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pnplab import cli
from pnplab.prior import GmmPrior


def _delta_opt_config(tmp_path, denoiser, sigma=0.1, drop=None):
    config = {
        "prior": {
            "weights": [0.3, 0.4, 0.3],
            "means": np.random.default_rng(3).uniform(-1.5, 1.5, (3, 4)).tolist(),
            "variances": [0.04, 1.0, 0.3],
        },
        "denoiser": denoiser,
        "sigma": sigma,
        "samples": 20000,
        "seed": 5,
    }
    if drop:
        del config[drop]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestDeltaOpt:
    def test_exact_mmse_reports_one(self, tmp_path, capsys):
        path = _delta_opt_config(tmp_path, {"kind": "exact_mmse"})
        code = cli.main(["delta-opt", "--config", path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        value = float(out.split("delta_opt_sq = ")[1].split("\n")[0])
        stderr = float(out.split("stderr_delta_opt_sq = ")[1].split("\n")[0])
        assert abs(value - 1.0) <= 4 * stderr
        assert "sandwich = pass" in out
        assert (tmp_path / "delta-opt.csv").exists()
        assert (tmp_path / "delta-opt_manifest.json").exists()

    def test_identity_denoiser_exits_two(self, tmp_path, capsys):
        path = _delta_opt_config(tmp_path, {"kind": "shrinkage", "alpha": 1.0, "dim": 4})
        code = cli.main(["delta-opt", "--config", path, "--out", str(tmp_path)])
        assert code == 2
        assert "degenerate denoiser" in capsys.readouterr().err

    def test_expanding_denoiser_exits_two_without_writing(self, tmp_path, capsys):
        config = {
            "prior": {"weights": [1.0], "means": [[0.0, 0.0]], "variances": [1.0]},
            "denoiser": {"kind": "affine", "matrix": [[1.5, 0.0], [0.0, 1.5]], "offset": [0.0, 0.0]},
            "sigma": 0.1,
            "samples": 5000,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = cli.main(["delta-opt", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("degenerate denoiser: no positive optimal scale")
        assert captured.err.count("\n") == 1
        assert not (out / "delta-opt.csv").exists()

    def test_missing_sigma_exits_one_naming_field(self, tmp_path, capsys):
        path = _delta_opt_config(tmp_path, {"kind": "exact_mmse"}, drop="sigma")
        code = cli.main(["delta-opt", "--config", path, "--out", str(tmp_path)])
        assert code == 1
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma, samples", [(-0.1, 20000), (0.1, 1), (0.1, 10**8)])
    def test_out_of_range_sigma_or_samples_exits_one(self, tmp_path, capsys, sigma, samples):
        path = _delta_opt_config(tmp_path, {"kind": "shrinkage", "alpha": 0.5, "dim": 4}, sigma)
        config = json.loads(open(path).read())
        config["samples"] = samples
        open(path, "w").write(json.dumps(config))
        code = cli.main(["delta-opt", "--config", path, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "denoiser",
        [
            {"kind": "shrinkage", "alpha": 0.5, "dim": 5},
            {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.0, 0.0]},
        ],
        ids=["shrinkage", "affine"],
    )
    def test_denoiser_dim_differs_from_prior_dim(self, tmp_path, capsys, denoiser):
        path = _delta_opt_config(tmp_path, denoiser)
        code = cli.main(["delta-opt", "--config", path, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "prior has dim 4" in err

    def test_unwritable_out_dir_exits_one_before_compute(self, tmp_path, capsys):
        path = _delta_opt_config(tmp_path, {"kind": "exact_mmse"})
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = cli.main(["delta-opt", "--config", path, "--out", str(blocker / "sub")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("output error: ")

    def test_misspelt_field_exits_one_before_sampling(self, tmp_path, capsys, monkeypatch):
        path = _delta_opt_config(tmp_path, {"kind": "exact_mmse"})
        config = json.loads(open(path).read())
        config["sample"] = 50
        open(path, "w").write(json.dumps(config))

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the field check")

        monkeypatch.setattr(GmmPrior, "sample_pairs", no_sampling)
        monkeypatch.setattr(GmmPrior, "pair_blocks", no_sampling)
        code = cli.main(["delta-opt", "--config", path, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "config error: unknown config field 'sample' for delta-opt\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_malformed_json_diagnosed_with_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"prior": [1,\n  "oops"')
        code = cli.main(["delta-opt", "--config", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line" in err and "column" in err


class TestRun:
    def test_unknown_experiment_lists_names(self, capsys):
        code = cli.main(["run", "sharpen"])
        err = capsys.readouterr().err
        assert code == 1
        for name in ("delta-sweep", "stability", "conv-reg", "lipschitz"):
            assert name in err

    def test_run_writes_csv_svg_manifest(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sigma_grid": [0.1, 0.3], "cloud_size": 64}))
        code = cli.main(
            ["run", "lipschitz", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        out = tmp_path / "out"
        assert (out / "lipschitz.csv").exists()
        assert list(out.glob("*.svg"))
        manifest = json.loads((out / "lipschitz_manifest.json").read_text())
        assert manifest["command"] == "run lipschitz"
        assert manifest["resolved_spec"]["cloud_size"] == 64
        assert "started_at" in manifest and "finished_at" in manifest

    def test_default_conv_reg_reaches_data_consistency(self, tmp_path):
        """The stock protocol drives the terminal residual below 1e-3."""
        out = tmp_path / "out"
        assert cli.main(["run", "conv-reg", "--out", str(out)]) == 0
        rows = (out / "conv-reg.csv").read_text().strip().split("\n")[1:]
        by_key = {}
        for row in rows:
            _, key, metric, value, _, _ = row.split(",")
            if metric == "data_consistency":
                by_key[float(key)] = float(value)
        assert by_key[max(by_key)] < 1e-3

    def test_homogeneous_mode_failure_to_regularise_is_still_success(self, tmp_path):
        n = 8
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "prior": {"weights": [1.0], "means": [[1.0] * n], "variances": [0.5]},
                    "operator": {"kind": "identity", "dim": n},
                    "denoiser": {
                        "kind": "affine",
                        "matrix": (0.5 * np.eye(n)).tolist(),
                        "offset": [0.7] * n,
                    },
                    "mode": "homogeneous",
                    "gamma_rescale": False,
                    "delta_grid": [1.0, 100.0],
                }
            )
        )
        code = cli.main(["run", "conv-reg", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 0

    def test_unwritable_out_dir_exits_one_before_compute(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = cli.main(["run", "lipschitz", "--out", str(blocker / "sub")])
        assert code == 1
        assert "output error" in capsys.readouterr().err

    def test_workers_do_not_change_csv_bytes(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"delta_grid": [1.0, 10.0, 100.0]}))
        blobs = []
        for workers, tag in ((1, "a"), (8, "b")):
            out = tmp_path / tag
            code = cli.main(
                [
                    "run",
                    "conv-reg",
                    "--config",
                    str(config),
                    "--out",
                    str(out),
                    "--workers",
                    str(workers),
                ]
            )
            assert code == 0
            blobs.append((out / "conv-reg.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_rerun_from_manifest_reproduces_csv(self, tmp_path):
        """The manifest's resolved config is a complete recipe for the run."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"delta_grid": [1.0, 30.0], "sigma": 0.2}))
        first = tmp_path / "first"
        assert cli.main(["run", "conv-reg", "--config", str(config), "--out", str(first)]) == 0
        manifest = json.loads((first / "conv-reg_manifest.json").read_text())
        replay_config = tmp_path / "replay.json"
        replay_config.write_text(json.dumps(manifest["resolved_spec"]))
        second = tmp_path / "second"
        assert (
            cli.main(["run", "conv-reg", "--config", str(replay_config), "--out", str(second)])
            == 0
        )
        assert (first / "conv-reg.csv").read_bytes() == (second / "conv-reg.csv").read_bytes()

    def test_diverging_grid_points_still_exit_zero(self, tmp_path):
        n = 4
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "prior": {"weights": [1.0], "means": [[1.0] * n], "variances": [1.0]},
                    "operator": {"kind": "identity", "dim": n},
                    "denoiser": {
                        "kind": "affine",
                        "matrix": (4.0 * np.eye(n)).tolist(),
                        "offset": [0.5] * n,
                    },
                    "mode": "homogeneous",
                    "gamma_rescale": False,
                    "delta_grid": [1.0, 2.0],
                    "solver": {"tau": 1.9, "max_iters": 400, "tol": 1e-9},
                }
            )
        )
        out = tmp_path / "out"
        assert cli.main(["run", "conv-reg", "--config", str(config), "--out", str(out)]) == 0
        assert b"diverged" in (out / "conv-reg.csv").read_bytes()

    def test_seed_priority_flag_over_config_over_env(self, tmp_path, monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sigma_grid": [0.1], "cloud_size": 32}))
        monkeypatch.setenv("PNPLAB_SEED", "99")
        out1 = tmp_path / "env"
        assert cli.main(["run", "lipschitz", "--config", str(config), "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "lipschitz_manifest.json").read_text())
        assert manifest["seed"] == 99
        out2 = tmp_path / "flag"
        assert (
            cli.main(
                ["run", "lipschitz", "--config", str(config), "--out", str(out2), "--seed", "7"]
            )
            == 0
        )
        manifest = json.loads((out2 / "lipschitz_manifest.json").read_text())
        assert manifest["seed"] == 7


class TestConfigErrorsAtTheBoundary:
    """Malformed input ends in one ``config error:`` line and exit 1, never a traceback."""

    def _run(self, tmp_path, capsys, config=None, experiment="conv-reg"):
        argv = ["run", experiment, "--out", str(tmp_path / "out")]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / f"{experiment}.csv").exists()
        return err

    def test_non_integer_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PNPLAB_SEED", "abc")
        err = self._run(tmp_path, capsys)
        assert "PNPLAB_SEED" in err and "'abc'" in err

    def test_top_level_json_list(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, config=[1, 2])
        assert "JSON object" in err

    def test_unknown_operator_kind(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, config={"operator": {"kind": "nope"}})
        assert "'nope'" in err

    def test_prior_dim_differs_from_operator_dim(self, tmp_path, capsys):
        prior = {"weights": [1.0], "means": [[0.0, 1.0]], "variances": [1.0]}
        err = self._run(tmp_path, capsys, config={"prior": prior})
        assert "dim 2" in err and "dim 64" in err

    @pytest.mark.parametrize(
        "experiment, config, needle",
        [
            ("conv-reg", {"sigma": "high"}, "conv-reg config"),
            ("stability", {"k_grid": [1, 0, 4]}, "k_grid"),
            ("delta-sweep", {"samples": 1}, "samples"),
            ("delta-sweep", {"delta_grid": [1.0, -2.0]}, "positive"),
            ("lipschitz", {"sigma_grid": [0.1, 0.0]}, "sigma"),
            ("lipschitz", {"cloud_size": 1}, "cloud_size"),
            ("delta-sweep", {"samples": 10**8}, "exceeds the cap"),
            ("lipschitz", {"cloud_size": 10**6}, "cloud_size"),
            ("stability", {"solver": {"max_iters": 1e3}}, "max_iters"),
            ("conv-reg", {"solver": {"max_iter": 3}}, "max_iter"),
            (
                "conv-reg",
                {"operator": {"kind": "mask", "dim": 10**12, "mask_fraction": 0.2}},
                "dim 1000000000000",
            ),
            (
                "conv-reg",
                {"operator": {"kind": "conv1d", "dim": 10**12, "kernel": [0.5, 0.5]}},
                "dim 1000000000000",
            ),
        ],
    )
    def test_malformed_field_values(self, tmp_path, capsys, experiment, config, needle):
        err = self._run(tmp_path, capsys, config=config, experiment=experiment)
        assert needle in err

    def test_unknown_experiment(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, experiment="sharpen")
        assert "unknown experiment 'sharpen'; valid names: delta-sweep" in err

    def test_internal_errors_are_not_reported_as_config_errors(self, tmp_path, monkeypatch):
        import pnplab.experiments

        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(pnplab.experiments, "pnp_pgd_batch", broken)
        with pytest.raises(ValueError, match="internal failure"):
            cli.main(["run", "conv-reg", "--out", str(tmp_path / "out")])


class TestUsageErrors:
    """argparse's usage errors exit 1 with one line; exit 2 means a degenerate denoiser."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["run", "stability", "--seed", "abc"], "invalid int value: 'abc'"),
            (["run", "stability", "--sharpen"], "unrecognized arguments: --sharpen"),
            ([], "the following arguments are required: command"),
        ],
        ids=["bad-seed", "unknown-flag", "no-subcommand"],
    )
    def test_exit_one_with_one_line(self, capsys, argv, needle):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exit_info.value.code == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["--version"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out


def _benchmark_workloads():
    """The benchmark's workload table and output check, loaded from ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["solve-short", "solve-long", "mc-sweep"])
def test_default_runs_match_the_benchmark_references(tmp_path, capsys, workload):
    """The benchmark's own invocation and rule: same rows, flags exact, values within 1e-6."""
    workloads = _benchmark_workloads()
    w = workloads.WORKLOADS[workload]
    argv = workloads.command(w, workloads.REFERENCE_SEED, str(tmp_path), None)
    assert cli.main(argv) == 0
    csv_bytes = (tmp_path / w.csv_name).read_bytes()
    assert workloads.check_output(w, workloads.REFERENCE_SEED, capsys.readouterr().out, csv_bytes) is None


class TestSelftest:
    def test_passes_and_prints_one_line_per_check(self, capsys):
        code = cli.main(["selftest"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.strip().split("\n") if l.startswith("PASS")]
        assert len(lines) == 4
        for name in (
            "adjoint-consistency",
            "tweedie-consistency",
            "averagedness-identity",
            "affine-oracle",
        ):
            assert any(name in l for l in lines)

    def test_output_deterministic(self, capsys):
        cli.main(["selftest"])
        first = capsys.readouterr().out
        cli.main(["selftest"])
        second = capsys.readouterr().out
        assert first == second

    def test_perturbed_score_fails_tweedie_check(self, capsys, monkeypatch):
        """A broken score implementation must be caught and named."""
        original = GmmPrior.score

        def skewed(self, y, sigma=0.0):
            return original(self, y, sigma) * 1.0001

        monkeypatch.setattr(GmmPrior, "score", skewed)
        code = cli.main(["selftest"])
        captured = capsys.readouterr()
        assert code == 3
        assert "FAIL tweedie-consistency" in captured.out
        assert "tweedie-consistency" in captured.err
