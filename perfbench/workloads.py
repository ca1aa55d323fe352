"""The benchmark's workloads, their generated inputs, and the output check.

Shared by the parent process (``run.py``) and the worker processes (``worker.py``).
Every workload is one ``pnplab`` command line; the program receives only
that argv and, for ``wide-prior``, the config file generated here from the
seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Outputs at the default seed are compared with the reference CSVs captured
# when the benchmark was added. Metric values may differ by this share of the
# larger magnitude: enough for a reordered sum or gemm in place of gemv, far
# too little for a solver that stops at another iterate.
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-6
# Flags must match the reference exactly.
FLAG_METRICS = ("converged", "diverged", "non_expansive", "quality_ordering_strict", "sandwich_pass")

CSV_HEADER = "experiment,key,metric,value,runtime_ms,seed"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    csv_name: str
    # A reduced config of the same command, run once per worker process
    # before timing, so that lazy set-up in numpy and the program is done.
    warmup: dict = field(default_factory=dict)
    # The worker kernel whose duration, measured around each invocation,
    # tracks the machine's speed for this kind of work (see run.py); None
    # where no kernel tracked it better than the raw wall time did.
    calibration: str | None = "small"
    generated_config: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-short",
            ("run", "conv-reg", "--workers", "1"),
            "conv-reg.csv",
            warmup={"delta_grid": [1.0, 10.0], "solver": {"max_iters": 20}},
        ),
        Workload(
            "solve-long",
            ("run", "stability", "--workers", "1"),
            "stability.csv",
            warmup={"k_grid": [1, 2], "solver": {"max_iters": 50}},
        ),
        Workload(
            "mc-sweep",
            ("run", "delta-sweep", "--workers", "2"),
            "delta-sweep.csv",
            warmup={"mismatch_ratios": [1.0, 2.0], "delta_grid": [1.0, 2.0], "samples": 2000},
            calibration=None,
        ),
        Workload(
            "wide-prior",
            ("delta-opt",),
            "delta-opt.csv",
            warmup={"samples": 2000},
            calibration="bulk",
            generated_config=True,
        ),
    )
}


def wide_prior_config(seed: int, samples: int = 20000) -> dict:
    """K=64 components in n=256, denoised by an MMSE denoiser trained at 0.3 for data at 0.2."""
    import numpy as np

    rng = np.random.default_rng([seed, 64, 256])
    k, n = 64, 256
    weights = rng.uniform(0.5, 1.5, k)
    weights /= weights.sum()
    return {
        "prior": {
            "weights": weights.tolist(),
            "means": (0.5 * rng.standard_normal((k, n))).tolist(),
            "variances": rng.uniform(0.2, 0.6, k).tolist(),
        },
        "denoiser": {"kind": "mismatched_mmse", "sigma_train": 0.3},
        "sigma": 0.2,
        "samples": samples,
    }


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def command(workload: Workload, seed: int, out_dir: str, config_path: str | None) -> list[str]:
    """The argv of one invocation; ``config_path`` is the generated or warm-up config."""
    argv = list(workload.argv)
    if config_path is not None:
        argv += ["--config", config_path]
    return argv + ["--seed", str(seed), "--out", out_dir]


def _rows(text: str):
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("bad CSV header or missing final newline")
    rows = []
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != 6:
            raise ValueError(f"bad CSV row {line!r}")
        rows.append(fields)
    if not rows:
        raise ValueError("CSV has no rows")
    return rows


def check_output(workload: Workload, seed: int, stdout: str, csv_bytes: bytes) -> str | None:
    """Return why an invocation's output is wrong, or None when it is right.

    Byte-identity across invocations is checked by ``run.py``; this checks
    one invocation on its own.
    """
    try:
        rows = _rows(csv_bytes.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return str(exc)
    for exp, key, metric, value, runtime, row_seed in rows:
        try:
            v = float(value)
        except ValueError:
            v = math.nan
        if not math.isfinite(v) or row_seed != str(seed) or runtime != "0.0":
            return f"bad row {exp},{key},{metric},{value},{runtime},{row_seed}"
        if metric in FLAG_METRICS and v not in (0.0, 1.0):
            return f"flag {metric} at key {key} is {value}"
    if workload.name == "wide-prior" and "sandwich = pass" not in stdout.splitlines():
        return "delta-opt did not print 'sandwich = pass'"
    if seed != REFERENCE_SEED:
        return None
    with open(os.path.join(REFERENCE_DIR, workload.csv_name), encoding="utf-8") as fh:
        want = _rows(fh.read())
    if len(want) != len(rows):
        return f"{len(rows)} CSV rows, reference has {len(want)}"
    for got, ref in zip(rows, want):
        if got[:3] != ref[:3]:
            return f"row {got[:3]} where the reference has {ref[:3]}"
        a, b = float(got[3]), float(ref[3])
        if got[2] in FLAG_METRICS:
            if a != b:
                return f"flag {got[2]} at key {got[1]} is {a}, reference {b}"
        elif abs(a - b) > REFERENCE_RTOL * max(abs(a), abs(b)):
            return f"{got[2]} at key {got[1]} is {a!r}, reference {b!r}"
    return None
