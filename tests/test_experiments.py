import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnplab import experiments
from pnplab.denoisers import AffineDenoiser, homogeneous_scale, tweedie_scale
from pnplab.experiments import (
    ConfigError,
    ExperimentRecord,
    resolve_config,
    run_conv_reg,
    run_delta_sweep_experiment,
    run_experiment,
    run_lipschitz_table,
    run_stability,
    write_plots,
    write_records_csv,
)
from pnplab.linop import operator_from_config
from pnplab.prior import GmmPrior
from pnplab.solver import PnpConfig, linear_fixed_point_oracle, pnp_pgd_batch


def _metric_series(records, metric):
    return [(r.key, r.metrics[metric]) for r in records if metric in r.metrics]


class TestResolveConfig:
    def test_unknown_experiment_listed(self):
        with pytest.raises(ConfigError, match="delta-sweep"):
            resolve_config("fourier", {})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            resolve_config("stability", {"delta_gird": 2.0})

    def test_defaults_filled_and_overridable(self):
        resolved = resolve_config("conv-reg", {"sigma": 0.2})
        assert resolved["sigma"] == 0.2
        assert resolved["solver"]["max_iters"] == 300

    def test_resolved_config_does_not_alias_the_defaults(self):
        first = resolve_config("conv-reg")
        first["operator"]["seed"] = 5
        first["solver"]["max_iters"] = 7
        first["prior"]["means"][0][0] = 99.0
        second = resolve_config("conv-reg")
        assert second["operator"]["seed"] == 0
        assert second["solver"]["max_iters"] == 300
        assert second["prior"]["means"][0][0] != 99.0

    def test_solver_overrides_merge(self):
        resolved = resolve_config("conv-reg", {"solver": {"max_iters": 10}})
        assert resolved["solver"]["max_iters"] == 10
        assert resolved["solver"]["tau"] == 1.0

    @pytest.mark.parametrize(
        "runner, config, name",
        [
            (run_delta_sweep_experiment, {"samples": 200.7}, "samples"),
            (run_delta_sweep_experiment, {"samples": True}, "samples"),
            (run_lipschitz_table, {"cloud_size": 32.5}, "cloud_size"),
            (run_lipschitz_table, {"cloud_size": True}, "cloud_size"),
            (run_delta_sweep_experiment, {"seed": False}, "seed"),
            (run_stability, {"seed": True}, "seed"),
            (run_conv_reg, {"seed": 1.5}, "seed"),
            (run_lipschitz_table, {"seed": 2.5}, "seed"),
            (run_conv_reg, {"seed": -1}, "seed"),
            (run_lipschitz_table, {"cloud_size": -5}, "cloud_size"),
        ],
    )
    def test_counts_and_seeds_reject_booleans_fractions_and_negatives(self, runner, config, name):
        want = f"'{name}' must be a nonnegative integer, got {config[name]}"
        with pytest.raises(ConfigError, match=want):
            runner(config)


class TestStability:
    def test_identity_denoiser_metric_is_analytic(self):
        """With an identity denoiser and identity physics the fixed point is y."""
        n = 16
        config = {
            "prior": {"weights": [1.0], "means": [[0.0] * n], "variances": [1.0]},
            "operator": {"kind": "identity", "dim": n},
            "denoiser": {"kind": "shrinkage", "alpha": 1.0, "dim": n},
            "contract_eps": 0.0,
            "delta": 2.0,
            "sigma": 0.1,
            "k_grid": [1, 2, 4, 1e6],
            "solver": {"tau": 1.0, "max_iters": 50, "tol": 1e-7},
            "seed": 3,
        }
        resolved, records = run_stability(config)
        xi = np.random.default_rng([3, 1]).standard_normal(n)
        for rec in records:
            expected = (0.1 / rec.key) * np.linalg.norm(xi)
            assert rec.metrics["distance_to_limit"] == pytest.approx(expected, rel=1e-10)
        # the huge-k point sits at solver-noise level
        last = records[-1]
        assert last.metrics["distance_to_limit"] <= 10 * 1e-7 * (1.0 + np.linalg.norm(xi))

    def test_contractive_default_decays_strictly(self):
        _, records = run_stability()
        dists = [r.metrics["distance_to_limit"] for r in records]
        assert all(r.metrics["converged"] == 1.0 for r in records)
        assert all(a > b for a, b in zip(dists[1:], dists[2:]))
        # bounded by C/k with C read off the first point
        c = records[0].key * dists[0]
        for rec, d in zip(records, dists):
            assert d <= c / rec.key * (1.0 + 1e-6)

    def test_affine_case_matches_oracle_linearly(self):
        """Fixed points of an affine iteration depend linearly on the data."""
        n = 12
        rng = np.random.default_rng(8)
        w = rng.standard_normal((n, n))
        w *= 0.7 / np.linalg.svd(w, compute_uv=False)[0]
        config = {
            "prior": {"weights": [1.0], "means": [list(rng.uniform(-1, 1, n))], "variances": [1.0]},
            "operator": {"kind": "mask", "dim": n, "mask_fraction": 0.25, "seed": 2},
            "denoiser": {"kind": "affine", "matrix": w.tolist(), "offset": list(rng.standard_normal(n))},
            "contract_eps": 0.0,
            "delta": 1.3,
            "sigma": 0.1,
            "k_grid": [1, 2, 4, 8, 16],
            "solver": {"tau": 1.0, "max_iters": 100000, "tol": 1e-13},
            "seed": 5,
        }
        resolved, records = run_stability(config)
        op = operator_from_config(config["operator"])
        base = AffineDenoiser(w, np.array(config["denoiser"]["offset"]))
        sd = tweedie_scale(base, 1.3)
        cfg = PnpConfig(tau=1.0, max_iters=100000, tol=1e-13)
        prior = GmmPrior.from_config(config["prior"])
        clean, _ = prior.sample_pairs(0.1, 1, 5)
        y = op.apply(clean[0])
        xi = np.random.default_rng([5, 1]).standard_normal(n)
        x_limit = linear_fixed_point_oracle(op, y, sd, cfg)
        for rec in records:
            x_k = linear_fixed_point_oracle(op, y + (0.1 / rec.key) * xi, sd, cfg)
            oracle_metric = float(np.linalg.norm(x_k - x_limit))
            got = rec.metrics["distance_to_limit"]
            assert abs(got - oracle_metric) <= 1e-8 * (1.0 + oracle_metric)
        # exact 1/k decay: k * metric is constant for a linear solution map
        kd = [r.key * r.metrics["distance_to_limit"] for r in records]
        np.testing.assert_allclose(kd, kd[0], rtol=1e-8)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        sigma=st.floats(0.1, 0.5),
        delta=st.floats(1.01, 1.5),
        mask_fraction=st.floats(0.0, 0.6),
        k_grid=st.lists(st.floats(1.0, 512.0), min_size=1, max_size=3),
    )
    def test_default_base_matches_the_closed_form_oracle(
        self, sigma, delta, mask_fraction, k_grid
    ):
        """Under a one-Gaussian prior N(mu, v I) the default base, the MMSE map
        shrunk by alpha = 1 - contract_eps, is the affine map
        W = alpha v / (v + sigma^2) I, b = alpha sigma^2 / (v + sigma^2) mu."""
        config = {
            "operator": {"kind": "mask", "dim": 64, "mask_fraction": mask_fraction, "seed": 0},
            "delta": delta,
            "sigma": sigma,
            "k_grid": k_grid,
            "solver": {"tau": 1.0, "max_iters": 100000, "tol": 1e-13},
        }
        resolved, records = run_stability(config)
        prior = GmmPrior.from_config(resolved["prior"])
        v, mu = prior.variances[0], prior.means[0]
        alpha = 1.0 - resolved["contract_eps"]
        base = AffineDenoiser(
            alpha * v / (v + sigma**2) * np.eye(64), alpha * sigma**2 / (v + sigma**2) * mu
        )
        scaled = tweedie_scale(base, delta)
        op = operator_from_config(resolved["operator"])
        cfg = PnpConfig(**resolved["solver"])
        clean, _ = prior.sample_pairs(sigma, 1, 0)
        y = op.apply(clean[0])
        xi = np.random.default_rng([0, 1]).standard_normal(64)
        x_limit = linear_fixed_point_oracle(op, y, scaled, cfg)
        for rec in records:
            assert rec.metrics["converged"] == 1.0
            x_k = linear_fixed_point_oracle(op, y + (sigma / rec.key) * xi, scaled, cfg)
            want = float(np.linalg.norm(x_k - x_limit))
            assert abs(rec.metrics["distance_to_limit"] - want) <= 1e-9 * want

    def test_divergence_recorded_not_fatal(self):
        n = 8
        config = {
            "prior": {"weights": [1.0], "means": [[0.5] * n], "variances": [1.0]},
            "operator": {"kind": "identity", "dim": n},
            "denoiser": {
                "kind": "affine",
                "matrix": (3.0 * np.eye(n)).tolist(),
                "offset": [1.0] * n,
            },
            "contract_eps": 0.0,
            "delta": 1.0,
            "sigma": 0.1,
            "k_grid": [1, 2],
            "solver": {"tau": 1.9, "max_iters": 500, "tol": 1e-9},
            "seed": 0,
        }
        _, records = run_stability(config)
        assert all(r.metrics.get("diverged") == 1.0 for r in records)

    def test_a_diverged_clean_row_marks_every_k(self):
        """x -> 1.1 x + c(y) in one dimension: a row runs past the divergence bound
        at an iteration set by |c(y)|. The offset puts the clean row at |c| = 1,
        the k = 1 row at c = 0 and the k = 2 row at |c| = 1/2, so within 270
        iterations only the clean row diverges (at about 266; k = 2 would at 274)."""
        seed = 4
        xi = np.random.default_rng([seed, 1]).standard_normal(1)[0]
        sigma = 1.0 / (1.1 * abs(xi))
        config = {
            "prior": {"weights": [1.0], "means": [[0.0]], "variances": [1.0]},
            "operator": {"kind": "identity", "dim": 1},
            "denoiser": {"kind": "affine", "matrix": [[2.2]], "offset": [0.0]},
            "contract_eps": 0.0,
            "delta": 1.0,
            "sigma": sigma,
            "k_grid": [1, 2],
            "solver": {"tau": 0.5, "max_iters": 270, "tol": 1e-9},
            "seed": seed,
        }
        prior = GmmPrior.from_config(config["prior"])
        y = prior.sample_pairs(sigma, 1, seed)[0][0, 0]
        config["denoiser"]["offset"] = [-1.1 * y - np.sign(xi)]
        resolved, records = run_stability(config)

        op, scaled, cfg = experiments._build_solve(resolved, prior, sigma, 1.0)
        ys = np.array([[y], [y + sigma * xi], [y + sigma / 2 * xi]])
        assert list(pnp_pgd_batch(op, ys, scaled, cfg).diverged) == [True, False, False]
        assert [r.key for r in records] == [1.0, 2.0]
        assert all(r.metrics == {"diverged": 1.0} for r in records)


class TestConvReg:
    def test_noiseless_identity_case_is_exact(self):
        n = 8
        config = {
            "prior": {"weights": [1.0], "means": [[1.0] * n], "variances": [0.5]},
            "operator": {"kind": "identity", "dim": n},
            "denoiser": {"kind": "shrinkage", "alpha": 1.0, "dim": n},
            "mode": "tweedie",
            "gamma_rescale": False,
            "sigma": 0.0,
            "delta_grid": [1.0, 10.0, 100.0],
            "solver": {"tau": 1.0, "max_iters": 10, "tol": 1e-9},
            "seed": 1,
        }
        _, records = run_conv_reg(config)
        for rec in records:
            assert rec.metrics["data_consistency"] <= 1e-9

    def test_default_tweedie_protocol_regularises(self):
        _, records = run_conv_reg()
        dc = [r.metrics["data_consistency"] for r in records]
        assert all(a >= b for a, b in zip(dc, dc[1:]))
        assert dc[-1] < 1e-3
        gaps = [r.metrics["iterate_gap"] for r in records if "iterate_gap" in r.metrics]
        half = gaps[len(gaps) // 2 :]
        assert all(a > b for a, b in zip(half, half[1:]))

    def test_homogeneous_affine_plateau_matches_oracle(self):
        """Argument scaling of a biased affine base cannot reach data consistency."""
        n = 16
        rng = np.random.default_rng(2)
        offset = list(0.8 * rng.standard_normal(n))
        config = {
            "prior": {"weights": [1.0], "means": [list(rng.uniform(-1, 1, n))], "variances": [0.5]},
            "operator": {"kind": "mask", "dim": n, "mask_fraction": 0.25, "seed": 1},
            "denoiser": {"kind": "affine", "matrix": (0.6 * np.eye(n)).tolist(), "offset": offset},
            "mode": "homogeneous",
            "gamma_rescale": False,
            "delta_grid": [1.0, 10.0, 1000.0],
            "solver": {"tau": 1.0, "max_iters": 300, "tol": 1e-11},
            "seed": 7,
        }
        resolved, records = run_conv_reg(config)
        # closed form for the largest scale via the affine fixed-point oracle
        prior = GmmPrior.from_config(config["prior"])
        op = operator_from_config(config["operator"])
        clean, _ = prior.sample_pairs(0.1, 1, 7)
        y0 = op.apply(clean[0])
        xi = np.random.default_rng([7, 1]).standard_normal(n)
        delta = 1000.0
        base = AffineDenoiser(config["denoiser"]["matrix"], offset)
        sd = homogeneous_scale(base, delta)
        cfg = PnpConfig(tau=1.0, max_iters=300, tol=1e-11)
        x_star = linear_fixed_point_oracle(op, y0 + (0.1 / delta) * xi, sd, cfg)
        oracle_dc = float(np.linalg.norm(op.apply(x_star) - y0) / np.linalg.norm(y0))
        got = records[-1].metrics["data_consistency"]
        assert got == pytest.approx(oracle_dc, rel=1e-8)
        assert got > 0.05  # plateau, no convergent regularisation

    def test_scale_one_without_gamma_is_plain_pnp(self):
        """The wrapper at scale 1 must reproduce an unscaled iteration."""
        n = 8
        config = {
            "prior": {"weights": [1.0], "means": [[0.3] * n], "variances": [0.04]},
            "operator": {"kind": "mask", "dim": n, "mask_fraction": 0.25, "seed": 3},
            "denoiser": {"kind": "exact_mmse"},
            "mode": "tweedie",
            "gamma_rescale": False,
            "delta_grid": [1.0],
            "solver": {"tau": 1.0, "max_iters": 300, "tol": 1e-9},
            "seed": 11,
        }
        _, records = run_conv_reg(config)
        prior = GmmPrior.from_config(config["prior"])
        op = operator_from_config(config["operator"])
        clean, _ = prior.sample_pairs(0.1, 1, 11)
        y = op.apply(clean[0]) + 0.1 * np.random.default_rng([11, 1]).standard_normal(n)
        # hand-rolled plain iteration with the bare denoiser
        x = np.zeros(n)
        for _ in range(300):
            x_next = prior.mmse_denoise(op.gradient_step(y, 1.0, x), 0.1)
            if np.linalg.norm(x_next - x) <= 1e-9 * (1 + np.linalg.norm(x_next)):
                x = x_next
                break
            x = x_next
        dc = float(np.linalg.norm(op.apply(x) - op.apply(clean[0])) / np.linalg.norm(op.apply(clean[0])))
        assert records[0].metrics["data_consistency"] == pytest.approx(dc, abs=1e-12)

    def test_noise_resample_flag_changes_perturbations(self):
        base_config = {"delta_grid": [1.0, 10.0], "solver": {"tau": 1.0, "max_iters": 40}}
        _, fixed = run_conv_reg(dict(base_config))
        _, resampled = run_conv_reg(dict(base_config, resample_noise_per_delta=True))
        fixed_dc = [r.metrics["data_consistency"] for r in fixed]
        resampled_dc = [r.metrics["data_consistency"] for r in resampled]
        assert fixed_dc != resampled_dc

    def test_divergence_recorded_per_scale(self):
        n = 4
        config = {
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
            "seed": 0,
        }
        _, records = run_conv_reg(config)
        assert all(r.metrics.get("diverged") == 1.0 for r in records)
        assert all("iterate_gap" not in r.metrics for r in records)

    @pytest.mark.parametrize("grid", [[1.0, 2.0, 4.0], [2.0, 1.0, 4.0]])
    def test_only_the_diverged_scale_is_marked(self, grid):
        """Residual scaling of 3 I under tau = 0.5: x -> (1 + 2u)(x + y) / 2 with
        u = 1/delta^2 expands at delta = 1 only. An ``iterate_gap`` is recorded
        from a grid point to the next only where neither diverged."""
        n = 4
        config = {
            "prior": {"weights": [1.0], "means": [[1.0] * n], "variances": [1.0]},
            "operator": {"kind": "identity", "dim": n},
            "denoiser": {"kind": "affine", "matrix": (3.0 * np.eye(n)).tolist(), "offset": [0.0] * n},
            "mode": "tweedie",
            "gamma_rescale": False,
            "delta_grid": grid,
            "solver": {"tau": 0.5, "max_iters": 400, "tol": 1e-12},
            "seed": 0,
        }
        resolved, records = run_conv_reg(config)
        assert [r.key for r in records] == grid

        prior = GmmPrior.from_config(config["prior"])
        op = operator_from_config(config["operator"])
        clean, _ = prior.sample_pairs(0.1, 1, 0)
        xi = np.random.default_rng([0, 1]).standard_normal(n)
        base = AffineDenoiser(config["denoiser"]["matrix"], config["denoiser"]["offset"])
        cfg = PnpConfig(**resolved["solver"])
        limit = {
            d: linear_fixed_point_oracle(op, clean[0] + (0.1 / d) * xi, tweedie_scale(base, d), cfg)
            for d in grid
            if d > 1.0
        }
        for i, (d, rec) in enumerate(zip(grid, records)):
            if d == 1.0:
                assert rec.metrics == {"diverged": 1.0}
                continue
            assert rec.metrics["converged"] == 1.0
            after = grid[i + 1] if i + 1 < len(grid) else None
            if after in limit:
                want = float(np.linalg.norm(limit[d] - limit[after]))
                assert rec.metrics["iterate_gap"] == pytest.approx(want, rel=1e-9)
            else:
                assert set(rec.metrics) == {"data_consistency", "converged"}


class TestDeltaSweepExperiment:
    def test_quality_ordering_flag_set(self):
        _, records = run_delta_sweep_experiment()
        flags = [r for r in records if "quality_ordering_strict" in r.metrics]
        assert len(flags) == 1 and flags[0].metrics["quality_ordering_strict"] == 1.0

    def test_argmin_tracks_estimated_optimum(self):
        resolved, records = run_delta_sweep_experiment()
        grid = resolved["delta_grid"]
        step = grid[1] / grid[0]
        for ratio in resolved["mismatch_ratios"]:
            curve = _metric_series(records, f"l2[r={ratio:g}]")
            best = min(curve, key=lambda t: t[1])[0]
            opt_sq = dict(_metric_series(records, "delta_opt_sq"))[ratio]
            opt = float(np.sqrt(opt_sq))
            assert best / opt <= step * 1.001 and opt / best <= step * 1.001

    def test_exact_member_argmin_near_one(self):
        resolved, records = run_delta_sweep_experiment()
        curve = _metric_series(records, "l2[r=1]")
        best = min(curve, key=lambda t: t[1])[0]
        grid = resolved["delta_grid"]
        nearest = min(grid, key=lambda d: abs(d - 1.0))
        assert best == pytest.approx(nearest)


class TestLipschitzTable:
    def test_single_gaussian_matches_wiener_slope_and_decreases(self):
        _, records = run_lipschitz_table()
        values = []
        for rec in records:
            oracle = 1.0 / (1.0 + rec.key**2)  # s = 1
            assert rec.metrics["lipschitz_max"] == pytest.approx(oracle, rel=1e-12, abs=0.0)
            assert rec.metrics["non_expansive"] == 1.0
            values.append(rec.metrics["lipschitz_max"])
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_slope_keeps_its_digits_when_sigma_dwarfs_the_variance(self):
        """On the default prior (v = 1) the slope is 1 / (1 + sigma^2): the score route's round-off swamped it."""
        _, records = run_lipschitz_table({"sigma_grid": [1e6, 1e8]})
        for rec, rel in zip(records, (1e-9, 1e-6)):
            assert rec.metrics["lipschitz_max"] == pytest.approx(1.0 / (1.0 + rec.key**2), rel=rel, abs=0.0)

    def test_multimodal_prior_can_exceed_one(self):
        config = {
            "prior": {"weights": [0.5, 0.5], "means": [[-1.0], [1.0]], "variances": [0.05, 0.05]},
            "sigma_grid": [0.3],
            "cloud_size": 400,
            "seed": 0,
        }
        _, records = run_lipschitz_table(config)
        assert records[0].metrics["lipschitz_max"] > 1.0
        assert records[0].metrics["non_expansive"] == 0.0


class TestArtifacts:
    def test_csv_schema_and_roundtrip(self, tmp_path):
        records = [
            ExperimentRecord("conv-reg", key=1.0, metrics={"data_consistency": 0.1}),
            ExperimentRecord("conv-reg", key=10.0, metrics={"data_consistency": 1e-7 / 3.0}),
        ]
        path = tmp_path / "out.csv"
        write_records_csv(path, records, seed=9)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").strip().split("\n")
        assert lines[0] == "experiment,key,metric,value,runtime_ms,seed"
        cells = lines[2].split(",")
        assert cells[0] == "conv-reg"
        assert float(cells[3]) == 1e-7 / 3.0  # round-trip exact
        assert cells[4] == "0.0"
        assert cells[5] == "9"

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1.7e308, -1.7e308, 1e-7 / 3.0]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_csv_round_trip_is_bitwise(self, values):
        records = [
            ExperimentRecord("conv-reg", key=v, metrics={"a": v, "b": -v}) for v in values
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.csv"
            write_records_csv(path, records, seed=0)
            lines = path.read_text(encoding="utf-8").split("\n")[1:-1]
        want = [
            (key, metric, value)
            for key, metrics in sorted(((v, {"a": v, "b": -v}) for v in values), key=lambda r: r[0])
            for metric, value in sorted(metrics.items())
        ]
        assert len(lines) == len(want)
        bits = struct.Struct("<d").pack
        for line, (key, metric, value) in zip(lines, want):
            cells = line.split(",")
            assert cells[2] == metric
            assert bits(float(cells[1])) == bits(key)
            assert bits(float(cells[3])) == bits(value)

    def test_same_config_same_bytes(self, tmp_path):
        config = {"delta_grid": [1.0, 5.0, 25.0]}
        outs = []
        for tag in ("a", "b"):
            _, records = run_conv_reg(dict(config))
            path = tmp_path / f"{tag}.csv"
            write_records_csv(path, records, seed=0)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_plots_written_and_deterministic(self, tmp_path):
        _, records = run_lipschitz_table()
        first = write_plots("lipschitz", records, tmp_path)
        assert first
        blobs = [Path(p).read_bytes() for p in first]
        again = write_plots("lipschitz", records, tmp_path)
        for path, blob in zip(again, blobs):
            assert Path(path).read_bytes() == blob
        assert all(Path(p).read_bytes().startswith(b"<svg") for p in first)

    def test_every_default_delta_sweep_plot_draws_a_line(self, tmp_path):
        """The ordering flag sits at key 0, which a log axis cannot place: it gets no plot."""
        _, records = run_delta_sweep_experiment()
        paths = write_plots("delta-sweep", records, tmp_path)
        assert paths
        for path in paths:
            assert "<polyline" in Path(path).read_text(encoding="utf-8")

    def test_run_experiment_dispatch(self):
        with pytest.raises(ConfigError, match="valid names"):
            run_experiment("unknown", {})
        resolved, records = run_experiment("lipschitz", {"sigma_grid": [0.1]})
        assert records[0].experiment == "lipschitz"
