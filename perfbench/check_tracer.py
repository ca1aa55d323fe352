"""Self-check of the benchmark's span tracer.

Run from the root of a checkout (the file is named so that the repository's
own test run does not collect it)::

    PYTHONPATH=src python3 -m pytest -q perfbench/check_tracer.py

At seed 0 the traced counts must equal values known from the program's
structure, and the traced CSV must be byte-identical to an untraced one:
together they show that the by-name patching reaches every call site and
that tracing changes no result.
"""

import contextlib
import io
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads  # noqa: E402

KNOWN_COUNTS = {
    "solve-short": {
        "solver.calls": 32,
        "solver.iters": 8096,
        "prior.responsibilities.calls": 8096,
        "linop.op_norm_sq.calls": 32,
    },
    "solve-long": {"solver.iters": 20946},
    "mc-sweep": {"prior.sample_pairs.calls": 8, "analysis.denoiser_passes": 136},
}


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("PNPLAB_SEED", raising=False)


def _run(name, tmp_path, tracer=None):
    import pnplab.cli

    workload = workloads.WORKLOADS[name]
    config = None
    if workload.generated_config:
        config = str(tmp_path / "config.json")
        workloads.write_json(config, workloads.wide_prior_config(0))
    out = tmp_path / ("traced" if tracer else "plain")
    buf = io.StringIO()
    if tracer:
        tracer.install()
    try:
        with contextlib.redirect_stdout(buf):
            status = pnplab.cli.main(workloads.command(workload, 0, str(out), config))
    finally:
        if tracer:
            tracer.uninstall()
    assert status == 0
    csv_bytes = (out / workload.csv_name).read_bytes()
    assert workloads.check_output(workload, 0, buf.getvalue(), csv_bytes) is None
    return csv_bytes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_and_bytes(name, tmp_path):
    tracer = spans.Tracer()
    traced = _run(name, tmp_path, tracer)
    assert traced == _run(name, tmp_path)
    metrics = spans.layer_metrics(tracer.spans)
    for metric, want in KNOWN_COUNTS.get(name, {}).items():
        assert metrics[metric] == want, metric
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert metrics["cli.self_s"] > 0
    assert metrics["experiments.bytes_written"] > 0


def test_uninstall_restores_the_program():
    import pnplab
    import pnplab.cli
    import pnplab.experiments

    before = (pnplab.cli.main, pnplab.experiments.pnp_pgd, pnplab.GmmPrior.score,
              pnplab.Mask.apply, pnplab.ScaledDenoiser.__call__)
    tracer = spans.Tracer()
    tracer.install()
    assert pnplab.experiments.pnp_pgd is not before[1]
    assert pnplab.experiments.pnp_pgd.__wrapped__ is before[1]
    tracer.uninstall()
    after = (pnplab.cli.main, pnplab.experiments.pnp_pgd, pnplab.GmmPrior.score,
             pnplab.Mask.apply, pnplab.ScaledDenoiser.__call__)
    assert after == before


def test_self_time_subtracts_the_union_of_children():
    # parent 1 spans [0, 10]; children on two threads overlap on [2, 5].
    recorded = [
        (2, 1, 1, "prior.sample_pairs", 1.0, 5.0, 10, 0, 0),
        (3, 1, 1, "prior.sample_pairs", 2.0, 6.0, 10, 0, 0),
        (1, 0, 1, "analysis.delta_sweep", 0.0, 10.0, 0, 0, 0),
    ]
    metrics = spans.layer_metrics(recorded)
    assert metrics["analysis.self_s"] == pytest.approx(5.0)
    assert metrics["analysis.sample_rows"] == 20
    assert metrics["prior.sample_pairs.s"] == pytest.approx(8.0)
