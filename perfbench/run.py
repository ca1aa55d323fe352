"""Benchmark of the pnplab command-line tool.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload solve-short --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload is one ``pnplab`` command (see ``workloads.py``). A run starts
fresh worker processes one after another until ``--seconds`` is spent; each
worker imports numpy and pnplab, warms up on a reduced config, and calls
``pnplab.cli.main`` with the workload's argv as often as its share of the
time allows. Workers get one BLAS thread, so ``--workers`` is the only
parallelism.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``run_s``: median seconds of one invocation, pooled over all invocations
  of all workers of the run (the output check is not timed);
* ``cpu_s``: median process CPU seconds (user + sys, all threads) of one
  invocation;
* ``setup_s``: median over workers of the seconds a fresh process takes to
  import numpy and pnplab;
* ``peak_rss_mb``: median over workers of the peak resident set size.

The three timings are given at a fixed reference machine speed. On a shared
machine the speed of this process swings by up to 1.7x within seconds, with
the load other tenants put on the host: over ten 30 s runs on a 2-CPU VM the
quartile spread of the median wall time was 26 % (solve-short), 30 %
(solve-long) and 20 % (wide-prior). So each worker times a fixed numpy
kernel of its own (``worker.CALIBRATION_KERNELS``) before and after every
invocation, and scales the invocation's time by ``CAL_REF_S / kernel
seconds``: a change to pnplab moves the invocation and not the kernel, while
a change in machine speed moves both. On the same ten runs the spreads fell
to 5 %, 4 % and 3 %. mc-sweep's two pool threads were tracked by no kernel
tried (a two-thread one did worse than none); its raw spread was 6 %, so
its run_s and cpu_s are raw wall and CPU seconds. Set-up is rescaled by the
small kernel on every workload. The raw medians are printed on the summary
lines as ``run_wall_s``, ``cpu_wall_s`` and ``setup_wall_s``.

With ``--trace 1`` workers alternate between untraced and traced; the traced
ones run under the span tracer of ``spans.py`` and the last line reports the
per-layer metrics (medians over traced invocations) and
``trace.overhead_frac``, the traced median ``run_s`` over the untraced
one, minus one.

Every invocation's output is checked: the CSV must be byte-identical across
all invocations of the run, traced or not, and must pass
``workloads.check_output`` (reference values at the default seed). A failed
check, a non-zero exit or an exception counts as a failed invocation;
``failed_frac`` is printed on the summary lines and the counts are the
``attempted`` and ``failed`` fields of the last line.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run aims at this many workers, so that its median pools over several
# processes: timings vary from one process to the next as much as within one.
WORKERS_PER_RUN = 6
MIN_WORKERS = 2
# No worker starts after this many seconds, and none outlives it by much.
RUN_LIMIT_S = 150.0

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Timings are rescaled to the machine speed at which each calibration kernel
# of ``worker.py`` takes this long; see the module docstring.
CAL_REF_S = {"small": 0.075, "bulk": 0.08}


def _git_commit(root: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "pnplab", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def machine_facts(root: str, src: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(src),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _prepare_inputs(workload: workloads.Workload, seed: int, out: str):
    """Write the generated and warm-up configs; return their paths."""
    warmup_path = os.path.join(out, "warmup.json")
    if workload.generated_config:
        config_path = os.path.join(out, "config.json")
        workloads.write_json(config_path, workloads.wide_prior_config(seed))
        warmup = workloads.wide_prior_config(seed, **workload.warmup)
    else:
        config_path = None
        warmup = workload.warmup
    workloads.write_json(warmup_path, warmup)
    return config_path, warmup_path


def _run_worker(workload, seed, budget, traced, src, out, config_path, warmup_path, env, timeout):
    """Start one worker, wait for it, and return its result dict or None."""
    os.makedirs(out)
    result_path = os.path.join(out, "result.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload.name, "--seed", str(seed), "--budget", repr(budget),
        "--trace", str(int(traced)), "--src", src, "--out", out,
        "--warmup-config", warmup_path, "--result", result_path,
    ]
    if config_path:
        cmd += ["--config", config_path]
    if traced:
        cmd += ["--spans", os.path.join(os.path.dirname(out), "spans.tsv")]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _distribution(vs: list[float]) -> str:
    """Sample count, extremes, and the highest percentile with ten samples beyond it."""
    text = f"median of {len(vs)}, min {min(vs):.6g}, max {max(vs):.6g}"
    if len(vs) >= 20:
        pct = int(100 * (1 - 10 / len(vs)))
        text += f", p{pct} {statistics.quantiles(vs, n=100)[pct - 1]:.6g}"
    return text


def measure(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """One run of one workload; returns counts, metrics and summary lines."""
    workload = workloads.WORKLOADS[name]
    src = os.path.join(root, "src")
    out = os.path.join(root, OUT_ROOT, name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    config_path, warmup_path = _prepare_inputs(workload, seed, out)
    env = dict(os.environ, PYTHONPATH=src, **BLAS_ENV)
    env.pop("PNPLAB_SEED", None)

    ref_s = CAL_REF_S.get(workload.calibration)

    def scale(inv):
        return 1.0 if ref_s is None else ref_s / inv["cal_s"]

    kinds = (False, True) if trace else (False,)
    budget = seconds / WORKERS_PER_RUN
    started = time.perf_counter()
    workers: list[tuple[bool, dict | None]] = []
    while True:
        traced = kinds[len(workers) % len(kinds)]
        timeout = max(RUN_LIMIT_S - (time.perf_counter() - started), 10.0)
        t0 = time.perf_counter()
        res = _run_worker(workload, seed, budget, traced, src, os.path.join(out, f"w{len(workers)}"),
                          config_path, warmup_path, env, timeout)
        workers.append((traced, res))
        now = time.perf_counter()
        enough = all(sum(k == kind for k, _ in workers) >= MIN_WORKERS for kind in kinds)
        if enough and (now + (now - t0) > started + seconds or now - started > RUN_LIMIT_S):
            break

    invocations = [(k, inv) for k, res in workers if res for inv in res["invocations"]]
    digests = Counter(inv["csv_sha256"] for _, inv in invocations if inv["error"] is None)
    common = digests.most_common(1)[0][0] if digests else None
    for _, inv in invocations:
        if inv["error"] is None and inv["csv_sha256"] != common:
            inv["error"] = "CSV bytes differ from the other invocations of the run"
    crashed = sum(res is None for _, res in workers)
    attempted = len(invocations) + crashed
    failed = sum(inv["error"] is not None for _, inv in invocations) + crashed
    errors = Counter(inv["error"] for _, inv in invocations if inv["error"])

    plain = [res for k, res in workers if res and not k]
    timed = [inv for k, inv in invocations if not k]
    lines = [
        f"{name}: {len(timed)} timed invocations in {len(plain)} untraced workers, "
        f"{sum(k for k, _ in workers)} traced workers, seed {seed}"
    ]
    metrics: dict[str, dict] = {}
    if timed and not trace:
        values = {
            "run_s": [inv["wall_s"] * scale(inv) for inv in timed],
            "cpu_s": [inv["cpu_s"] * scale(inv) for inv in timed],
            "setup_s": [res["setup_s"] * CAL_REF_S["small"] / res["setup_cal_s"] for res in plain],
            "peak_rss_mb": [res["peak_rss_kb"] / 1024.0 for res in plain],
            "run_wall_s": [inv["wall_s"] for inv in timed],
            "cpu_wall_s": [inv["cpu_s"] for inv in timed],
            "setup_wall_s": [res["setup_s"] for res in plain],
        }
        if ref_s is not None:
            values["calibration_s"] = [inv["cal_s"] for inv in timed]
        for metric, vs in values.items():
            unit = END_TO_END.get(metric, "s")
            median = statistics.median(vs)
            if metric in END_TO_END:
                metrics[metric] = {"value": median, "unit": unit}
            lines.append(f"{name} {metric} = {median:.6g} {unit} ({_distribution(vs)})")
    traced = [inv for k, inv in invocations if k]
    layers = [layer for k, res in workers if res and k for layer in res["layers"]]
    if trace and timed and layers:
        import spans

        for metric, unit in spans.LAYER_METRICS.items():
            metrics[metric] = {"value": statistics.median(l[metric] for l in layers), "unit": unit}
        overhead = (statistics.median(inv["wall_s"] * scale(inv) for inv in traced)
                    / statistics.median(inv["wall_s"] * scale(inv) for inv in timed) - 1.0)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        lines += [f"{name} {m} = {v['value']:.6g} {v['unit']}" for m, v in metrics.items()]
    lines.append(f"{name} failed_frac = {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    lines += [f"{name} failure: {count} x {err}" for err, count in errors.items()]
    return {
        "correct": failed == 0 and crashed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
        "lines": lines,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pnplab", "cli.py")):
        print(f"no pnplab sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    facts = machine_facts(root, src)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = {n: measure(n, args.seed, args.seconds, bool(args.trace), root) for n in names}
    facts["loadavg_1m_end"] = os.getloadavg()[0]

    print("machine: " + json.dumps(facts, sort_keys=True))
    for run in runs.values():
        print("\n".join(run["lines"]))
    if len(runs) == 1:
        metrics = runs[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, run in runs.items() for m, v in run["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
