"""One fresh worker process of the benchmark.

It times its own import of numpy and pnplab (``setup_s``), runs the
workload's command once on a reduced warm-up config, then calls
``pnplab.cli.main`` with the workload's argv until its time budget is spent,
timing each call and checking its output. Between calls it times the
workload's calibration kernel, which tracks how fast the machine runs at
that moment (see ``run.py``). With ``--trace 1`` the calls run under the
span tracer. Results go to the JSON file named by ``--result``.
"""

import time

_T0 = time.perf_counter()
import numpy  # noqa: E402
import pnplab.cli  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _small_kernel() -> float:
    """Small-vector ops in a Python loop, then a modest gemm: like the solve workloads."""
    x = numpy.linspace(0.0, 1.0, 64)
    m = numpy.ones((3, 64)) / 64.0
    rng = numpy.random.default_rng(0)
    tall, wide = rng.standard_normal((4000, 64)), rng.standard_normal((64, 32))
    t0 = time.perf_counter()
    for _ in range(3000):
        s = m @ x
        r = numpy.exp(s - s.max())
        r /= r.sum()
        x = 0.999 * x + 0.001 * numpy.sin(x)
    for _ in range(20):
        g = tall @ wide
        numpy.exp(-0.5 * g * g).sum(axis=1)
    return time.perf_counter() - t0


def _bulk_kernel() -> float:
    """Gemm and elementwise ops on 40 MB arrays: like the wide prior."""
    a = numpy.linspace(-1.0, 1.0, 20000 * 256).reshape(20000, 256)
    b = numpy.linspace(-1.0, 1.0, 256 * 64).reshape(256, 64) / 16.0
    t0 = time.perf_counter()
    g = a @ b
    r = numpy.exp(-0.5 * g * g)
    r @ b.T - a * r.sum(axis=1)[:, None]
    return time.perf_counter() - t0


CALIBRATION_KERNELS = {"small": _small_kernel, "bulk": _bulk_kernel}


def invoke(argv: list[str]):
    """Run one CLI call; return (exit code or error, wall s, CPU s, captured stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            status = pnplab.cli.main(argv)
    except SystemExit as exc:
        status = f"exit {exc.code}"
    except Exception as exc:  # a raising invocation is a failed one, not a crash
        status = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return status, wall, cpu, buf.getvalue()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--warmup-config", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args()

    src = os.path.realpath(args.src)
    if not os.path.realpath(pnplab.cli.__file__).startswith(src + os.sep):
        print(f"pnplab was imported from {pnplab.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    # Import is interpreter work, so set-up is rescaled by the small kernel;
    # the first call of each kernel pays its own lazy set-up.
    _small_kernel()
    setup_cal = _small_kernel()
    calibrate = CALIBRATION_KERNELS.get(workload.calibration, lambda: None)
    calibrate()
    warm_out = os.path.join(args.out, "warmup")
    status, *_ = invoke(workloads.command(workload, args.seed, warm_out, args.warmup_config))
    if status != 0:
        print(f"warm-up invocation failed: {status}", file=sys.stderr)
        return 1
    if tracer:
        tracer.spans.clear()

    out = os.path.join(args.out, "run")
    argv = workloads.command(workload, args.seed, out, args.config)
    csv_path = os.path.join(out, workload.csv_name)
    invocations = []
    layers = []
    cal_before = calibrate()
    start = time.perf_counter()
    while True:
        if os.path.exists(csv_path):
            os.remove(csv_path)
        if tracer:
            first_span = len(tracer.spans)
            tracer.invocation = len(invocations) + 1
        status, wall, cpu, stdout = invoke(argv)
        cal_after = calibrate()
        error = None if status == 0 else f"status {status}"
        digest = None
        if error is None:
            try:
                with open(csv_path, "rb") as fh:
                    csv_bytes = fh.read()
            except OSError as exc:
                error = f"cannot read CSV: {exc}"
            else:
                digest = hashlib.sha256(csv_bytes).hexdigest()
                error = workloads.check_output(workload, args.seed, stdout, csv_bytes)
        invocations.append({
            "wall_s": wall,
            "cpu_s": cpu,
            "cal_s": None if cal_after is None else (cal_before + cal_after) / 2.0,
            "csv_sha256": digest,
            "error": error,
        })
        cal_before = cal_after
        if tracer:
            layers.append(spans.layer_metrics(tracer.spans[first_span:]))
        if time.perf_counter() - start >= args.budget:
            break

    if tracer and args.spans:
        tracer.write(args.spans)
    result = {
        "setup_s": SETUP_S,
        "setup_cal_s": setup_cal,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "traced": bool(args.trace),
        "invocations": invocations,
        "layers": layers,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
