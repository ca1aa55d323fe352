import contextlib
import copy
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnplab import cli
from pnplab import prior as prior_module
from pnplab.experiments import resolve_config
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
        # A noise level whose square underflows leaves every MMSE denoiser the identity.
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"sigma": 1e-300}))
        code = cli.main(["run", "delta-sweep", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("degenerate denoiser: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "delta-sweep.csv").exists()

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

    @pytest.mark.parametrize(
        "sigma, samples",
        [
            (-0.1, 20000),
            (float("nan"), 20000),
            (float("inf"), 20000),
            (0.1, 1),
            (0.1, 10**8),
            (0.1, 200.7),
            (0.1, True),
            (True, 20000),
            (1e200, 20000),
        ],
    )
    def test_out_of_range_sigma_or_samples_exits_one(self, tmp_path, capsys, sigma, samples):
        path = _delta_opt_config(tmp_path, {"kind": "shrinkage", "alpha": 0.5, "dim": 4}, sigma)
        config = json.loads(Path(path).read_text())
        config["samples"] = samples
        Path(path).write_text(json.dumps(config))
        code = cli.main(["delta-opt", "--config", path, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "denoiser, needle",
        [
            ({"kind": "shrinkage", "alpha": True, "dim": 4}, "'alpha' must be a number, got True"),
            ({"kind": "mismatched_mmse", "sigma_train": True}, "'sigma' must be a number, got True"),
        ],
        ids=["alpha", "sigma_train"],
    )
    def test_boolean_denoiser_number_exits_one(self, tmp_path, capsys, denoiser, needle):
        # A JSON true is not the number 1: shrinkage by true would be the identity (exit 2).
        path = _delta_opt_config(tmp_path, denoiser)
        code = cli.main(["delta-opt", "--config", path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert needle in err
        assert not (tmp_path / "out").exists()

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

    def test_means_whose_squares_overflow_exit_one_naming_them(self, tmp_path, capsys):
        path = _delta_opt_config(tmp_path, {"kind": "exact_mmse"})
        config = json.loads(Path(path).read_text())
        config["prior"]["means"] = [[1e300] * 4, [-1e300] * 4, [0.0] * 4]
        Path(path).write_text(json.dumps(config))
        code = cli.main(["delta-opt", "--config", path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            "config error: bad delta-opt config: "
            "means are too large: their squared distances from their mean overflow\n"
        )
        assert not (tmp_path / "out").exists()

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
        config = json.loads(Path(path).read_text())
        config["sample"] = 50
        Path(path).write_text(json.dumps(config))

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

    def test_a_split_clean_draw_writes_the_serial_runs_bytes(self, tmp_path, capsys, monkeypatch):
        """8192 samples at n = 64 are 2^19 clean normals, drawn on two threads; then on one."""
        rng = np.random.default_rng(8)
        config = {
            "prior": {
                "weights": [0.125] * 8,
                "means": (0.5 * rng.standard_normal((8, 64))).tolist(),
                "variances": rng.uniform(0.2, 0.6, 8).tolist(),
            },
            "denoiser": {"kind": "mismatched_mmse", "sigma_train": 0.3},
            "sigma": 0.2,
            "samples": 8192,
        }
        assert 8192 * 64 >= prior_module._SPLIT_NORMALS
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        runs = []
        for split in (True, False):
            if not split:
                monkeypatch.setattr(prior_module, "_SPLIT_NORMALS", 8192 * 64 + 1)
            out = tmp_path / f"split-{split}"
            assert cli.main(["delta-opt", "--config", str(path), "--out", str(out), "--seed", "3"]) == 0
            runs.append((capsys.readouterr().out, (out / "delta-opt.csv").read_bytes()))
        assert runs[0] == runs[1]

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
        environment = manifest["environment"]
        assert environment["numpy"] == np.__version__
        assert environment["python"] == ".".join(map(str, sys.version_info[:3]))
        assert set(environment["blas"]) == {"name", "version"}
        assert isinstance(environment["cpu_count"], int) and environment["cpu_count"] >= 1

    def test_one_noise_level_far_from_zero_is_plotted(self, tmp_path):
        """On a linear axis 1e16 + 1.0 rounds to 1e16; the plot must still widen."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sigma_grid": [1e16], "cloud_size": 32}))
        out = tmp_path / "out"
        assert cli.main(["run", "lipschitz", "--config", str(config), "--out", str(out)]) == 0
        assert "lipschitz,1e+16,lipschitz_max," in (out / "lipschitz.csv").read_text()
        assert sorted(p.name for p in out.glob("*.svg")) == [
            "lipschitz_lipschitz_max.svg",
            "lipschitz_non_expansive.svg",
        ]

    def test_a_scale_near_the_float_maximum_is_plotted_on_a_log_axis(self, tmp_path, capsys):
        """The k axis runs to 1.7e308, whose decade 10**309 is no double: the plot ends at 1e308."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"k_grid": [1.7e308, 2.0]}))
        out = tmp_path / "out"
        assert cli.main(["run", "stability", "--config", str(config), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        svg = (out / "stability_distance_to_limit.svg").read_text()
        assert ">1e+308</text>" in svg and "inf" not in svg

    def test_one_component_delta_sweep_orders_strictly(self, tmp_path):
        """Under N(mu, v I), delta_opt^2 = s (v + sigma^2) / sigma^2.

        Here s = sigma'^2 / (v + sigma'^2), with sigma' the training noise level.
        """
        n, v, sigma, ratios = 4, 0.5, 0.2, [1.0, 1.5, 2.0, 3.0]
        config = tmp_path / "cfg.json"
        prior = {"weights": [1.0], "means": [[0.5, -1.0, 0.0, 2.0]], "variances": [v]}
        fields = {"prior": prior, "sigma": sigma, "mismatch_ratios": ratios, "samples": 10000}
        config.write_text(json.dumps(fields))
        out = tmp_path / "out"
        assert cli.main(["run", "delta-sweep", "--config", str(config), "--out", str(out)]) == 0
        rows = [row.split(",") for row in (out / "delta-sweep.csv").read_text().split("\n")[1:-1]]
        values = {(float(key), metric): float(value) for _, key, metric, value, _, _ in rows}
        assert values[(0.0, "quality_ordering_strict")] == 1.0
        for ratio in ratios:
            s = (ratio * sigma) ** 2 / (v + (ratio * sigma) ** 2)
            want = s * (v + sigma**2) / sigma**2
            got = values[(ratio, "delta_opt_sq")]
            assert abs(got - want) <= 4 * values[(ratio, "delta_opt_sq_stderr")]

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
        # A directory where the CSV goes passes the probe and fails at the write.
        (tmp_path / "out" / "lipschitz.csv").mkdir(parents=True)
        code = cli.main(["run", "lipschitz", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert "lipschitz.csv" in err

    def test_default_artifacts_identical_across_blas_threads(self, tmp_path):
        """The four default runs, twice at one OpenBLAS thread and twice at two,
        each set in a fresh process, write the same CSV and SVG bytes."""
        root = Path(__file__).resolve().parents[1]
        script = (
            "import sys\nfrom pnplab import cli\n"
            "sys.exit(max(cli.main(['run', name, '--out', sys.argv[1]]) for name in sys.argv[2:]))"
        )
        procs = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
            for run in ("a", "b"):
                out = tmp_path / f"threads{threads}{run}"
                argv = [sys.executable, "-c", script, str(out), "delta-sweep", "stability", "conv-reg", "lipschitz"]
                procs[out] = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        artifacts = []
        for out, proc in procs.items():
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
            files = sorted(p for p in out.iterdir() if p.suffix in (".csv", ".svg"))
            artifacts.append({p.name: p.read_bytes() for p in files})
        assert len(artifacts[0]) == 15
        assert all(a == artifacts[0] for a in artifacts[1:])
        # Every plot is well-formed XML.
        for files in artifacts:
            for name, data in files.items():
                if name.endswith(".svg"):
                    ElementTree.fromstring(data)

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

    @pytest.mark.parametrize(
        "command, fields",
        [
            ("conv-reg", {"delta_grid": [1.0, 30.0], "sigma": 0.2}),
            ("stability", {"k_grid": [1, 2, 4], "solver": {"max_iters": 500}}),
            ("delta-sweep", {"mismatch_ratios": [1.0, 2.0], "delta_grid": [1.0, 2.0], "samples": 2000}),
            ("lipschitz", {"sigma_grid": [0.1, 0.3], "cloud_size": 32}),
            ("delta-opt", None),
        ],
    )
    def test_rerun_from_manifest_reproduces_csv(self, tmp_path, capsys, command, fields):
        """The manifest's resolved config is a complete recipe for the run.

        The readers accept everything a manifest writes, such as the integer
        ``k_grid`` of stability and the prior's nested lists.
        """
        if fields is None:
            config, argv = _delta_opt_config(tmp_path, {"kind": "exact_mmse"}), ["delta-opt"]
        else:
            config, argv = tmp_path / "cfg.json", ["run", command]
            config.write_text(json.dumps(fields))
        first = tmp_path / "first"
        assert cli.main(argv + ["--config", str(config), "--out", str(first)]) == 0
        manifest = json.loads((first / f"{command}_manifest.json").read_text())
        replay_config = tmp_path / "replay.json"
        replay_config.write_text(json.dumps(manifest["resolved_spec"]))
        second = tmp_path / "second"
        assert cli.main(argv + ["--config", str(replay_config), "--out", str(second)]) == 0
        assert (first / f"{command}.csv").read_bytes() == (second / f"{command}.csv").read_bytes()
        assert capsys.readouterr().err == ""

    def test_a_run_resolves_its_config_once(self, tmp_path, monkeypatch):
        import pnplab.experiments

        calls = []
        resolve = pnplab.experiments.resolve_config

        def counted(name, config=None):
            calls.append(name)
            return resolve(name, config)

        monkeypatch.setattr(pnplab.experiments, "resolve_config", counted)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sigma_grid": [0.1], "cloud_size": 16}))
        argv = ["run", "lipschitz", "--config", str(config), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert calls == ["lipschitz"]

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

    @pytest.mark.parametrize(
        "experiment, grid",
        [("stability", {"k_grid": [1, 2]}), ("conv-reg", {"delta_grid": [1.0, 10.0]})],
    )
    def test_integer_step_past_int64_runs(self, tmp_path, capsys, experiment, grid):
        """A step of 2**64, read as a float, diverges at once on every grid point."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**grid, "solver": {"tau": 2**64}}))
        argv = ["run", experiment, "--config", str(path), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "out" / f"{experiment}.csv").read_text().splitlines()[1:]
        assert rows and all(",diverged,1.0," in row for row in rows)

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


_DIM_ONE = {
    "prior": {"weights": [0.5, 0.5], "means": [[-1.0], [1.0]], "variances": [0.25, 0.25]},
    "operator": {"kind": "identity", "dim": 1},
}


# More components than dims: 2000 components on dim 8.
_MANY_COMPONENTS = {
    "prior": {"weights": [1 / 2000] * 2000, "means": [[0.0] * 8] * 2000, "variances": [1.0] * 2000},
    "operator": {"kind": "identity", "dim": 8},
}


# A tall dense operator: 512 measurements of a dim-64 signal.
_TALL_DENSE = {"operator": {"kind": "dense", "matrix": [[0.1] * 64] * 512}}


# Means of 2**14 floats, which every mixture denoiser keeps a copy of: 32 components on dim 512.
_WIDE_MEANS = {
    "prior": {"weights": [1 / 32] * 32, "means": [[0.0] * 512] * 32, "variances": [1.0] * 32},
}


# A one-component prior on dim 4096.
_DIM_4096 = {"prior": {"weights": [1.0], "means": [[0.0] * 4096], "variances": [1.0]}}


# A dense operator whose every product with a nonzero signal overflows.
_OVERFLOWING = {
    "prior": {"weights": [1.0], "means": [[0.5] * 8], "variances": [1.0]},
    "operator": {"kind": "dense", "matrix": [[1e308] * 8] * 8},
}


# conv-reg's prior with variances of 1.7e308: finite measurements whose squared norms overflow.
_HUGE_VARIANCES = {
    "prior": {**resolve_config("conv-reg")["prior"], "variances": [1.7e308] * 3},
    "denoiser": {"kind": "mismatched_mmse", "sigma_train": 0.2},
}


# delta-sweep's prior with one variance of 1.7e308: its log-density terms overflow at its samples.
_OVERFLOWING_COMPONENT = {
    "prior": {**resolve_config("delta-sweep")["prior"], "variances": [1.7e308, 0.25, 0.25]},
    "samples": 200,
}


# A shrinkage denoiser, which takes no noise level of its own.
_SHRINK = {"kind": "shrinkage", "alpha": 0.5}


# Two components at +-1e300 on dim 64.
_FAR_APART = {
    "prior": {"weights": [0.5, 0.5], "means": [[1e300] * 64, [-1e300] * 64], "variances": [1.0, 1.0]},
}


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
            ("conv-reg", {"delta_grid": [1.0, np.inf]}, "delta_grid must be positive and finite"),
            ("stability", {"k_grid": [1, np.inf]}, "k_grid must be positive and finite"),
            ("delta-sweep", {"delta_grid": [1.0, np.inf]}, "delta_grid must be positive and finite"),
            (
                "delta-sweep",
                {"mismatch_ratios": [1.0, np.inf]},
                "mismatch_ratios must be positive and finite",
            ),
            ("lipschitz", {"sigma_grid": [0.1, np.inf]}, "sigma_grid must be positive and finite"),
            ("stability", {"delta": np.inf}, "bad solve config: 'delta' must be positive and finite, got inf"),
            # a scale whose square or inverse square is not a finite nonzero double
            ("stability", {"delta": 1e-200}, "inverse square, got 1e-200"),
            ("stability", {"delta": 1e-160}, "inverse square, got 1e-160"),
            ("stability", {"delta": 1e160}, "inverse square, got 1e+160"),
            ("conv-reg", {"delta_grid": [1e200, 1.0]}, "inverse square, got 1e+200"),
            ("conv-reg", {"delta_grid": [1.0, 1e-200]}, "inverse square, got 1e-200"),
            ("lipschitz", {"sigma_grid": [0.1, 1e200]}, "sigma must have a finite square, got 1e+200"),
            ("stability", {"sigma": 1e160}, "sigma must have a finite square, got 1e+160"),
            # a delta-sweep scale whose loss weights overflow, rejected before the pass
            *[
                ("delta-sweep", {"samples": 200, "delta_grid": grid}, f"delta_grid holds {grid[0]!r}, where")
                for grid in ([1e-200, 1.0], [1e-100, 1.0], [1e-50, 1.0], [1e200, 1.0])
            ],
            # a Lipschitz cloud whose squared pair distances overflow
            (
                "lipschitz",
                {"sigma_grid": [1e154]},
                "bad lipschitz cloud at sigma 1e+154: its points reach",
            ),
            ("conv-reg", _OVERFLOWING, "measurements contain non-finite entries"),
            ("stability", _OVERFLOWING, "measurements contain non-finite entries"),
            ("delta-sweep", {"samples": 200.7}, "'samples' must be a nonnegative integer, got 200.7"),
            ("delta-sweep", {"samples": True}, "'samples' must be a nonnegative integer, got True"),
            ("lipschitz", {"cloud_size": 64.5}, "'cloud_size' must be a nonnegative integer, got 64.5"),
            ("lipschitz", {"cloud_size": True}, "'cloud_size' must be a nonnegative integer, got True"),
            ("lipschitz", {"seed": True}, "'seed' must be a nonnegative integer, got True"),
            ("conv-reg", {"seed": 1.5}, "'seed' must be a nonnegative integer, got 1.5"),
            ("conv-reg", {"sigma": True}, "'sigma' must be a number, got True"),
            ("stability", {"sigma": True}, "'sigma' must be a number, got True"),
            ("delta-sweep", {"sigma": False}, "'sigma' must be a number, got False"),
            ("stability", {"delta": True}, "'delta' must be a number, got True"),
            ("conv-reg", {"denoiser": {"kind": "shrinkage", "alpha": True}}, "'alpha' must be a number, got True"),
            (
                "stability",
                {"denoiser": {"kind": "mismatched_mmse", "sigma_train": True}},
                "'sigma' must be a number, got True",
            ),
            (
                "conv-reg",
                {"gamma_rescale": "false"},
                "'gamma_rescale' must be true or false, got 'false'",
            ),
            ("stability", {"gamma_rescale": "no"}, "'gamma_rescale' must be true or false, got 'no'"),
            ("conv-reg", {"gamma_rescale": 0}, "'gamma_rescale' must be true or false, got 0"),
            (
                "conv-reg",
                {"resample_noise_per_delta": "false"},
                "'resample_noise_per_delta' must be true or false, got 'false'",
            ),
            (
                "conv-reg",
                {"resample_noise_per_delta": "no"},
                "'resample_noise_per_delta' must be true or false, got 'no'",
            ),
            (
                "conv-reg",
                {"resample_noise_per_delta": 0},
                "'resample_noise_per_delta' must be true or false, got 0",
            ),
            # every config noise level has a finite square, whatever the denoiser
            ("stability", {"sigma": 1e200, "denoiser": _SHRINK}, "sigma must have a finite square, got 1e+200"),
            ("conv-reg", {"sigma": 1e200, "denoiser": _SHRINK}, "sigma must have a finite square, got 1e+200"),
            (
                "delta-sweep",
                {"sigma": 1e200, "mismatch_ratios": [1e-100]},
                "sigma must have a finite square, got 1e+200",
            ),
            # means whose squared distances from their mean overflow
            ("conv-reg", _FAR_APART, "means are too large: their squared distances from their mean overflow"),
            ("lipschitz", _FAR_APART, "means are too large: their squared distances from their mean overflow"),
            # an operator whose ||A^T A|| overflows, though its measurements do not
            (
                "conv-reg",
                {"operator": {"kind": "conv1d", "dim": 64, "kernel": [1e300, 1e300]}},
                "the operator's norm ||A^T A|| is not finite, got inf",
            ),
            (
                "stability",
                {"operator": {"kind": "conv1d", "dim": 64, "kernel": [1e300, 1e300]}},
                "the operator's norm ||A^T A|| is not finite, got inf",
            ),
            (
                "conv-reg",
                {**_OVERFLOWING, "operator": {"kind": "dense", "matrix": [[1e200] * 8] * 8}},
                "the operator's norm ||A^T A|| is not finite, got inf",
            ),
            # finite measurements whose squared norms overflow
            ("conv-reg", _HUGE_VARIANCES, "measurements are too large: their squared norms overflow"),
            (
                "stability",
                {"prior": {"weights": [1.0], "means": [[0.0] * 64], "variances": [1.7e308]}},
                "measurements are too large: their squared norms overflow",
            ),
            # The float cap names the count it caps.
            ("lipschitz", {**_DIM_4096, "cloud_size": 10000}, "cloud_size x dim = 10000 x 4096 exceeds"),
            # a prior whose Monte-Carlo moments overflow, rejected once, after the pass
            ("delta-sweep", _OVERFLOWING_COMPONENT, "the Monte-Carlo moments are not finite"),
        ],
    )
    def test_malformed_field_values(self, tmp_path, capsys, experiment, config, needle):
        err = self._run(tmp_path, capsys, config=config, experiment=experiment)
        assert needle in err

    @pytest.mark.parametrize("experiment", ["stability", "conv-reg", "delta-sweep"])
    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_non_finite_or_negative_noise_level(self, tmp_path, capsys, experiment, sigma):
        err = self._run(tmp_path, capsys, config={"sigma": sigma}, experiment=experiment)
        assert "'sigma' must be" in err and repr(sigma) in err

    @pytest.mark.parametrize("source", ["--seed", "PNPLAB_SEED", "config"])
    @pytest.mark.parametrize("command", ["run", "delta-opt"])
    def test_negative_seed_from_any_source(self, tmp_path, capsys, monkeypatch, command, source):
        if command == "run":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"sigma_grid": [0.1], "cloud_size": 32}))
            path, argv = str(path), ["run", "lipschitz"]
        else:
            path, argv = _delta_opt_config(tmp_path, {"kind": "exact_mmse"}, drop="seed"), ["delta-opt"]
        argv += ["--config", path, "--out", str(tmp_path / "out")]
        if source == "--seed":
            argv += ["--seed", "-1"]
        elif source == "PNPLAB_SEED":
            monkeypatch.setenv("PNPLAB_SEED", "-1")
        else:
            config = json.loads(Path(path).read_text())
            config["seed"] = -1
            Path(path).write_text(json.dumps(config))
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: bad {source}: ") and err.count("\n") == 1
        assert "'seed' must be a nonnegative integer, got -1" in err
        assert not (tmp_path / "out").exists()

    def test_delta_opt_rejects_a_prior_whose_moments_overflow(self, tmp_path, capsys):
        path = _delta_opt_config(tmp_path, {"kind": "exact_mmse"})
        config = {**json.loads(Path(path).read_text()), **_OVERFLOWING_COMPONENT}
        Path(path).write_text(json.dumps(config))
        code = cli.main(["delta-opt", "--config", path, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            "config error: the Monte-Carlo moments are not finite: "
            "the prior or the denoiser overflows at the samples\n"
        )
        assert not (tmp_path / "out" / "delta-opt.csv").exists()

    def test_zero_noise_level_still_runs_conv_reg(self, tmp_path):
        config = {"sigma": 0.0, "delta_grid": [1.0, 10.0], "solver": {"max_iters": 20}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = ["run", "conv-reg", "--config", str(path), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0

    @pytest.mark.parametrize(
        "experiment, config, needle",
        [
            ("stability", {"solver": {"tau": float("nan")}}, "'tau' must be positive and finite, got nan"),
            ("stability", {"solver": {"tau": float("inf")}}, "'tau' must be positive and finite, got inf"),
            ("conv-reg", {"solver": {"tol": float("nan")}}, "'tol' must be positive and finite, got nan"),
            ("conv-reg", {"solver": {"tol": float("inf")}}, "'tol' must be positive and finite, got inf"),
            ("conv-reg", {"solver": {"max_iters": True}}, "'max_iters' must be a nonnegative integer, got True"),
            ("stability", {"contract_eps": float("nan")}, "'contract_eps' must lie in [0, 1)"),
            ("stability", {"contract_eps": -1e-3}, "'contract_eps' must lie in [0, 1)"),
            ("stability", {"contract_eps": 1.0}, "'contract_eps' must lie in [0, 1)"),
            ("conv-reg", {"solver": {"tau": True}}, "'tau' must be a number, got True"),
            ("stability", {"solver": {"tol": True}}, "'tol' must be a number, got True"),
            ("stability", {"contract_eps": False}, "'contract_eps' must be a number, got False"),
            ("conv-reg", {"solver": {"record_history": False}}, "'record_history'"),
            # A JSON integer too large for a float is named like any other bad value.
            ("stability", {"solver": {"tau": 10**400}}, "bad solve config: 'tau' is too large for a float"),
            ("conv-reg", {"solver": {"tau": 10**400}}, "bad solve config: 'tau' is too large for a float"),
            ("stability", {"solver": {"tol": 10**400}}, "bad solve config: 'tol' is too large for a float"),
            ("conv-reg", {"solver": {"tol": 10**400}}, "bad solve config: 'tol' is too large for a float"),
        ],
    )
    def test_malformed_solver_fields(self, tmp_path, capsys, experiment, config, needle):
        err = self._run(tmp_path, capsys, config=config, experiment=experiment)
        assert needle in err

    @pytest.mark.parametrize(
        "experiment, config, needle",
        [
            ("conv-reg", {"delta_grid": [True, 10.0]}, "delta_grid must hold only numbers, got True"),
            (
                "delta-sweep",
                {"mismatch_ratios": [1.0, "2"]},
                "mismatch_ratios must hold only numbers, got '2'",
            ),
            ("stability", {"sigma": "0.1"}, "'sigma' must be a number, got '0.1'"),
            (
                "conv-reg",
                {"operator": {"kind": "mask", "dim": 64, "mask_fraction": True}},
                "'mask_fraction' must be a number, got True",
            ),
            ("stability", {"k_grid": [1, True, 4]}, "k_grid must hold only numbers, got True"),
            (
                "lipschitz",
                {"prior": {"weights": [True], "means": [[0.0] * 4], "variances": [True]}},
                "weights must hold only numbers, got True",
            ),
            (
                "lipschitz",
                {"prior": {"weights": [1.0], "means": [[0.0] * 4], "variances": [True]}},
                "variances must hold only numbers, got True",
            ),
            (
                "conv-reg",
                {"operator": {"kind": "mask", "mask": ["no", "yes"] * 32}},
                "mask must hold only true or false, got 'no'",
            ),
            ("conv-reg", {"solver": {"tau": "1.0"}}, "'tau' must be a number, got '1.0'"),
            ("stability", {"solver": {"tol": "1e-9"}}, "'tol' must be a number, got '1e-9'"),
            ("stability", {"solver": {"max_iters": "30"}}, "'max_iters' must be a nonnegative integer, got '30'"),
            (
                "conv-reg",
                {"operator": {"kind": "mask", "dim": 64, "mask_fraction": 0.2, "seed": True}},
                "'seed' must be a nonnegative integer, got True",
            ),
            (
                "conv-reg",
                {"operator": {"kind": "mask", "mask": [1, 0, 2] + [1] * 61}},
                "mask must hold only true or false, got 1",
            ),
            (
                "lipschitz",
                {"prior": {"weights": [1.0], "means": [[0.0, True, 0.0, 0.0]], "variances": [1.0]}},
                "means must hold only numbers, got True",
            ),
            (
                "lipschitz",
                {"prior": {"weights": [1.0], "means": [[0.0] * 4, [1.0] * 3], "variances": [1.0]}},
                "means must be a nonempty 2-D array of numbers, got shape (2,)",
            ),
            (
                "conv-reg",
                {"denoiser": {"kind": "shrinkage", "alpha": "0.5"}},
                "'alpha' must be a number, got '0.5'",
            ),
            (
                "stability",
                {"denoiser": {"kind": "mismatched_mmse", "sigma_train": "0.2"}},
                "'sigma' must be a number, got '0.2'",
            ),
            (
                "conv-reg",
                {"denoiser": {"kind": "shrinkage", "alpha": 0.5, "dim": 64.0}},
                "'dim' must be a nonnegative integer, got 64.0",
            ),
            (
                "conv-reg",
                {"operator": {"kind": "conv1d", "dim": 64, "kernel": [0.5, "0.5"]}},
                "kernel must hold only numbers, got '0.5'",
            ),
            (
                "conv-reg",
                {"operator": {"kind": "dense", "matrix": [[1.0] * 64, [False] * 64]}},
                "matrix must hold only numbers, got False",
            ),
            (
                "conv-reg",
                {"operator": {"kind": "identity", "dim": "64"}},
                "'dim' must be a nonnegative integer, got '64'",
            ),
            ("lipschitz", {"sigma_grid": [0.1, "0.2"]}, "sigma_grid must hold only numbers, got '0.2'"),
            ("lipschitz", {"sigma_grid": 0.1}, "sigma_grid must be a nonempty 1-D array of numbers"),
            # A JSON integer too large for a float is named like any other bad value.
            ("conv-reg", {"sigma": 10**400}, "bad conv-reg config: 'sigma' is too large for a float"),
            (
                "conv-reg",
                {"delta_grid": [10**400]},
                "bad conv-reg config: delta_grid holds a number too large for a float",
            ),
        ],
    )
    def test_booleans_strings_and_malformed_arrays(self, tmp_path, capsys, experiment, config, needle):
        err = self._run(tmp_path, capsys, config=config, experiment=experiment)
        assert needle in err
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize(
        "experiment, fields, at_cap, stage",
        [
            # Three moments per sample and ratio: 2**25 // (3 * 20000) ratios.
            ("delta-sweep", {}, {"mismatch_ratios": [1.0] * 559}, "_moments_on_prior"),
            # A solve holds 30 arrays of one row per grid point: 2**25 // (30 * 64) points.
            ("conv-reg", {}, {"delta_grid": [1.0] * 17476}, "pnp_pgd_batch"),
            ("stability", {}, {"k_grid": [1] * 17476}, "pnp_pgd_batch"),
            # The cap follows the prior's dim: 2**25 // (30 * 512) points.
            (
                "conv-reg",
                {
                    "prior": {"weights": [1.0], "means": [[0.0] * 512], "variances": [1.0]},
                    "operator": {"kind": "identity", "dim": 512},
                },
                {"delta_grid": [1.0] * 2184},
                "pnp_pgd_batch",
            ),
            # With more components than dims the cap follows K: 2**25 // (30 * 2000) points.
            ("conv-reg", _MANY_COMPONENTS, {"delta_grid": [1.0] * 559}, "pnp_pgd_batch"),
            ("stability", _MANY_COMPONENTS, {"k_grid": [1] * 559}, "pnp_pgd_batch"),
            # At dim 1 the float cap is far off; a run records at most 2**16 grid points.
            ("conv-reg", _DIM_ONE, {"delta_grid": [1.0] * 2**16}, "pnp_pgd_batch"),
            ("stability", _DIM_ONE, {"k_grid": [1] * 2**16}, "pnp_pgd_batch"),
            # Measurements are out_dim wide: 2**25 // (31 * 512) points for a 512 x 64 matrix.
            ("conv-reg", _TALL_DENSE, {"delta_grid": [1.0] * 2184}, "pnp_pgd_batch"),
            # One curve point per scale and ratio: 2**16 // 4 scales with the four default ratios.
            ("delta-sweep", {}, {"delta_grid": [1.0] * 2**14}, "_moments_on_prior"),
            ("lipschitz", {}, {"sigma_grid": [0.1] * 2**16}, "estimate_lipschitz"),
            # Each ratio's denoiser keeps a (K, n) constant: 2**25 // (3 * 20000 + 32 * 512) ratios.
            ("delta-sweep", _WIDE_MEANS, {"mismatch_ratios": [1.0] * 439}, "MmseDenoiser"),
            # So does each noise level's: 2**25 // (32 * 512) levels.
            ("lipschitz", _WIDE_MEANS, {"sigma_grid": [0.1] * 2048}, "MmseDenoiser"),
            # A cloud of dim-4096 points obeys the samples' float cap: 2**25 // 4096 points.
            ("lipschitz", _DIM_4096, {"cloud_size": 8192}, "MmseDenoiser"),
        ],
        ids=[
            "delta-sweep",
            "conv-reg",
            "stability",
            "conv-reg-n512",
            "conv-reg-k2000",
            "stability-k2000",
            "conv-reg-points",
            "stability-points",
            "conv-reg-tall-dense",
            "delta-sweep-points",
            "lipschitz-points",
            "delta-sweep-wide-means",
            "lipschitz-wide-means",
            "lipschitz-cloud-n4096",
        ],
    )
    def test_grids_are_capped_before_anything_is_allocated(
        self, tmp_path, capsys, monkeypatch, experiment, fields, at_cap, stage
    ):
        """At its cap a grid reaches the computation; one value more exits 1 before it."""
        import pnplab.experiments

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(pnplab.experiments, stage, reached)
        (key, values), = at_cap.items()
        with pytest.raises(Reached):
            pnplab.experiments.run_experiment(experiment, {**fields, key: values})
        if isinstance(values, int):
            # A count is capped together with the dim it multiplies.
            over, needle = values + 1, f"{key} x dim = {values + 1} x "
        else:
            over = values + values[:1]
            needle = f"{key} holds {len(values) + 1} values, more than its cap of {len(values)}"
        err = self._run(tmp_path, capsys, config={**fields, key: over}, experiment=experiment)
        assert needle in err
        assert not list((tmp_path / "out").glob("*"))

    def test_unknown_experiment(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, experiment="sharpen")
        assert "unknown experiment 'sharpen'; valid names: delta-sweep" in err

    def test_internal_errors_are_not_reported_as_config_errors(self, tmp_path, monkeypatch, capsys):
        import pnplab.denoisers
        import pnplab.experiments

        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(pnplab.experiments, "pnp_pgd_batch", broken)
        with pytest.raises(ValueError, match="internal failure"):
            cli.main(["run", "conv-reg", "--out", str(tmp_path / "out")])
        # A library argument rejected by a reader outside any config read keeps its traceback too.
        monkeypatch.setattr(pnplab.denoisers, "_block_rows", lambda *args: 0)
        with pytest.raises(ValueError, match="rows") as info:
            cli.main(["run", "delta-sweep", "--out", str(tmp_path / "out")])
        assert type(info.value) is ValueError
        assert "config error:" not in capsys.readouterr().err


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


def _readme_json_blocks():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)


def test_readme_has_a_json_example():
    assert _readme_json_blocks()


@pytest.mark.parametrize("block", _readme_json_blocks())
def test_readme_json_configs_run(tmp_path, capsys, block):
    """Every JSON config the README shows runs as a conv-reg config."""
    path = tmp_path / "cfg.json"
    path.write_text(block)
    assert cli.main(["run", "conv-reg", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_readme_solve_memory_counts_are_the_solvers():
    """The README's count of a batched solve's arrays, and the grid caps it gives, are
    ``solver._SOLVE_STACKS``'s."""
    from pnplab.solver import _SOLVE_STACKS, _STOP_BLOCK

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    prose = " ".join(readme.split())
    assert re.findall(r"A batched solve holds (\d+) arrays", prose) == [str(_SOLVE_STACKS)]
    assert re.findall(r"(\d+) of those arrays", prose) == [str(_SOLVE_STACKS - 2 * _STOP_BLOCK)]
    rows = [line for line in readme.splitlines() if re.match(r"\| `(delta_grid|k_grid)` \| (conv-reg|stability) \|", line)]
    assert len(rows) == 2
    assert [re.findall(r"2\^25 / \((\d+) ×", row) for row in rows] == [[str(_SOLVE_STACKS)]] * 2
    at_64 = min(2**16, 2**25 // (_SOLVE_STACKS * 64))
    assert re.findall(r"\((\d+) at dim 64\)", readme) == [str(at_64)]


def _benchmark_workloads():
    """The benchmark's workload table and output check, loaded from ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["solve-short", "solve-long", "mc-sweep", "wide-prior"])
def test_default_runs_match_the_benchmark_references(tmp_path, capsys, workload):
    """The benchmark's own invocation and rule: same rows, flags exact, values within 1e-6.

    wide-prior runs on the config the benchmark generates from the seed.
    """
    workloads = _benchmark_workloads()
    w = workloads.WORKLOADS[workload]
    config_path = None
    if w.generated_config:
        config_path = str(tmp_path / "config.json")
        workloads.write_json(config_path, workloads.wide_prior_config(workloads.REFERENCE_SEED))
    argv = workloads.command(w, workloads.REFERENCE_SEED, str(tmp_path), config_path)
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

    def test_a_skewed_concentrated_route_fails_tweedie_check(self, capsys, monkeypatch):
        """The check's well-separated mixture holds the posterior mean's one-component rows to the score."""
        original = GmmPrior._one_component_rows

        def skewed(self, points, far, rho, shrunk):
            return original(self, points, far, rho, shrunk) * (1.0 + 1e-9)

        monkeypatch.setattr(GmmPrior, "_one_component_rows", skewed)
        code = cli.main(["selftest"])
        captured = capsys.readouterr()
        assert code == 3
        assert "FAIL tweedie-consistency" in captured.out
        assert "tweedie-consistency" in captured.err


def _fuzz_prior(n, k):
    rng = np.random.default_rng([n, k])
    return {"weights": [1.0 / k] * k, "means": rng.standard_normal((k, n)).tolist(), "variances": [0.25] * k}


# The default configs of the four protocols and a delta-opt config, shrunk so that a run takes
# milliseconds: small dims and grids, few samples and iterations.
_FUZZ_BASES = {
    "delta-sweep": {
        "prior": _fuzz_prior(4, 3),
        "mismatch_ratios": [1.0, 2.0],
        "delta_grid": [0.7, 2.0, 20.0],
        "samples": 64,
    },
    "stability": {
        "prior": _fuzz_prior(8, 1),
        "operator": {"kind": "mask", "dim": 8, "mask_fraction": 0.2, "seed": 0},
        "k_grid": [1, 4],
        "solver": {"tau": 1.0, "max_iters": 200, "tol": 1e-11},
    },
    "conv-reg": {
        "prior": _fuzz_prior(8, 3),
        "operator": {"kind": "mask", "dim": 8, "mask_fraction": 0.2, "seed": 0},
        "delta_grid": [1.0, 30.0, 1000.0],
        "solver": {"tau": 1.0, "max_iters": 50, "tol": 1e-9},
    },
    "lipschitz": {"prior": _fuzz_prior(4, 1), "sigma_grid": [0.05, 0.2], "cloud_size": 16},
}
_FUZZ_CONFIGS = {name: resolve_config(name, fields) for name, fields in _FUZZ_BASES.items()}
_FUZZ_CONFIGS["delta-opt"] = {
    "prior": _fuzz_prior(4, 3),
    "denoiser": {"kind": "mismatched_mmse", "sigma_train": 0.3},
    "sigma": 0.2,
    "samples": 64,
    "seed": 0,
}
_HOSTILE = [0, 1, -1, 1e-300, 5e-324, 1e160, 1.7e308, -1.7e308, 2**64, True, False, "1", None, [], [[1.0, [2.0]]]]


def _paths(node, prefix=()):
    """Every position below ``node``: each dict value and each list item, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(sorted(_FUZZ_CONFIGS)),
        data=st.data(),
    )
    def test_hostile_values_exit_with_a_code_and_one_line(self, name, data):
        """One or two positions of a shrunk config set to hostile values: ``cli.main`` returns
        0, 1, 2 or 3, a non-zero exit prints exactly one stderr line, no warning is emitted
        and no exception escapes."""
        config = copy.deepcopy(_FUZZ_CONFIGS[name])
        for _ in range(data.draw(st.integers(1, 2), label="edits")):
            path = data.draw(st.sampled_from(list(_paths(config))), label="path")
            parent = config
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(_HOSTILE), label="value"))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = ["delta-opt"] if name == "delta-opt" else ["run", name]
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv + ["--config", path, "--out", os.path.join(tmp, "out")])
        assert code in (0, 1, 2, 3)
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        assert not caught, [str(w.message) for w in caught]
