"""Fingerprint seeded random batched solves, one line per solve, or save and compare them.

Usage::

    PYTHONPATH=src python tools/solve_fingerprint.py [COUNT [SEED]]
    PYTHONPATH=src python tools/solve_fingerprint.py save FILE [COUNT [SEED]]
    PYTHONPATH=src python tools/solve_fingerprint.py compare OLD NEW

(default 400 solves from seed 0). It solves with the ``pnplab`` on the import
path, so pointing ``PYTHONPATH`` at another tree's ``src`` fingerprints that
tree, and ``diff`` of two trees' outputs shows which solves changed. Each line
holds a solve's parameters, then its rows' iterations, converged and
diverged flags, and a sha256 of ``x_star``'s bytes, so equal lines are
bitwise-equal solves.

A sha256 shows only bitwise equality. ``save`` writes every solve's label,
``x_star`` and records to FILE (an ``.npz`` archive), and ``compare`` reads
two such files of the same solves. It prints how many solves have equal
records and how many of those a bitwise-equal ``x_star``, the largest
relative deviation of ``x_star`` over the solves whose records agree, each
solve's deviation taken relative to the larger of its two ``x_star``'s
largest entries, and then every solve whose iterations, converged or
diverged flags differ. It exits 1 if any do, else 0.

Solve i draws from ``numpy.random.default_rng([SEED, i])``:

- an operator: a mask, the identity, a mask that hides every entry, a
  1-D convolution or a dense matrix;
- a base: one Gaussian or shrinkage, whose chains have a pair, which the
  solve folds over a mask, or a three-component mixture or an affine map,
  whose chains have none;
- a chain over it: an optional ``OutputShrink``, a ``ScaledDenoiser`` in
  either mode, with or without the gamma rescale and with one scale or one
  per row, and optionally a map over that (an ``OutputShrink`` or a
  one-scale ``ScaledDenoiser``); or, for about one solve in five, no chain
  at all (``mode=none``), so the solve runs the bare base in the output map
  it builds itself;
- a step: the certified ``1 / ||A^T A||``, the unit step, or a fraction of
  the certified one.

A bare base's label reads ``shrink=0``, ``gamma=0``, ``rows=one`` and
``outer=none``, whatever was drawn for them.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from pnplab.denoisers import AffineDenoiser, MmseDenoiser, OutputShrink, ScaledDenoiser, ShrinkageDenoiser
from pnplab.linop import Convolve1d, DenseOperator, Identity, Mask
from pnplab.prior import GmmPrior
from pnplab.solver import PnpConfig, pnp_pgd_batch

OPERATORS = ("mask", "identity", "all-hidden", "conv1d", "dense")
BASES = ("mmse1", "shrinkage", "mmse3", "affine")
OUTER = ("none", "output-shrink", "scaled")
MODES = ScaledDenoiser.MODES + ("none",)
# The share of solves that run a bare base, with no map over it.
BARE = 0.2
STEPS = ("certified", "unit", "fraction")


def _operator(kind: str, n: int, rng):
    if kind == "mask":
        return Mask((np.arange(n) == 0) | (rng.random(n) < 0.7))
    if kind == "identity":
        return Identity(n)
    if kind == "all-hidden":
        return Mask(np.zeros(n, dtype=bool))
    if kind == "conv1d":
        return Convolve1d(rng.uniform(0.1, 1.0, min(3, n)), n)
    return DenseOperator(rng.standard_normal((n + int(rng.integers(0, 3)), n)) / np.sqrt(n))


def _base(kind: str, n: int, rng):
    if kind == "shrinkage":
        return ShrinkageDenoiser(rng.uniform(0.3, 1.0), n)
    if kind == "affine":
        w = rng.standard_normal((n, n))
        return AffineDenoiser(w * (0.95 / np.linalg.norm(w, 2)), rng.standard_normal(n))
    k = 1 if kind == "mmse1" else 3
    prior = GmmPrior(np.full(k, 1.0 / k), 2.0 * rng.standard_normal((k, n)), rng.uniform(0.2, 1.0, k))
    return MmseDenoiser(prior, rng.uniform(0.1, 0.5))


def solves(count: int, seed: int = 0):
    """``(label, op, ys, denoiser, config)`` of each of ``count`` seeded solves."""
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 6))
        op_kind, base_kind = OPERATORS[rng.integers(len(OPERATORS))], BASES[rng.integers(len(BASES))]
        mode = ScaledDenoiser.MODES[rng.integers(2)]
        gamma, per_row, shrink = (bool(b) for b in rng.integers(0, 2, 3))
        outer, step = OUTER[rng.integers(len(OUTER))], STEPS[rng.integers(len(STEPS))]
        if rng.random() < BARE:
            mode, gamma, per_row, shrink, outer = "none", False, False, False, "none"
        op = _operator(op_kind, n, rng)
        denoiser = _base(base_kind, n, rng)
        if shrink:
            denoiser = OutputShrink(denoiser, 0.9)
        if mode != "none":
            deltas = rng.uniform(0.5, 5.0, m) if per_row else float(rng.uniform(0.5, 5.0))
            denoiser = ScaledDenoiser(denoiser, deltas, mode=mode, gamma_rescale=gamma)
        if outer == "output-shrink":
            denoiser = OutputShrink(denoiser, 0.95)
        elif outer == "scaled":
            denoiser = ScaledDenoiser(denoiser, float(rng.uniform(1.0, 3.0)))
        # A fraction of the certified step, which is 1e300 where the mask hides every entry.
        fraction = float(rng.uniform(0.1, 1.0)) / max(op.op_norm_sq(), 1e-300)
        tau = {"certified": None, "unit": 1.0, "fraction": fraction}[step]
        max_iters = int(rng.integers(1, 200))
        ys = 2.0 * rng.standard_normal((m, op.out_dim))
        label = (
            f"{i:4d} op={op_kind} n={n} m={m} base={base_kind} shrink={int(shrink)} mode={mode} "
            f"gamma={int(gamma)} rows={'per-row' if per_row else 'one'} outer={outer} "
            f"step={step}:{tau!r} max_iters={max_iters}"
        )
        yield label, op, ys, denoiser, PnpConfig(tau=tau, max_iters=max_iters, tol=1e-9)


RECORDS = ("iterations", "converged", "diverged")


def _flags(values) -> str:
    return "".join(str(int(v)) for v in values)


def _records(iterations, converged, diverged) -> str:
    """A solve's records as its fingerprint line prints them."""
    steps = ",".join(str(int(k)) for k in iterations)
    return f"iterations={steps} converged={_flags(converged)} diverged={_flags(diverged)}"


def save(path, count: int, seed: int) -> None:
    """Write each solve's label, ``x_star`` and records to the ``.npz`` archive ``path``."""
    arrays, labels = {}, []
    for i, (label, op, ys, denoiser, config) in enumerate(solves(count, seed)):
        result = pnp_pgd_batch(op, ys, denoiser, config)
        labels.append(label)
        for field in ("x_star",) + RECORDS:
            arrays[f"{field}_{i}"] = getattr(result, field)
    np.savez(path, labels=np.array(labels), **arrays)


def compare(old_path, new_path) -> int:
    """Print the largest relative deviation of ``x_star`` between two saved runs over the
    solves whose records agree, and list every solve whose records differ; 1 if any do."""
    with np.load(old_path) as old, np.load(new_path) as new:
        labels = old["labels"]
        if not np.array_equal(labels, new["labels"]):
            raise SystemExit(f"{old_path} and {new_path} hold different solves")
        worst, at, differ, bitwise = 0.0, "none", [], 0
        for i, label in enumerate(labels):
            before, after = ([saved[f"{field}_{i}"] for field in RECORDS] for saved in (old, new))
            if not all(np.array_equal(a, b) for a, b in zip(before, after)):
                differ.append(f"{label} | {_records(*before)} -> {_records(*after)}")
                continue
            a, b = old[f"x_star_{i}"], new[f"x_star_{i}"]
            bitwise += np.array_equal(a, b)
            scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
            deviation = float(np.max(np.abs(a - b))) / scale if scale > 0.0 else 0.0
            if deviation > worst or at == "none":
                worst, at = deviation, label.split()[0]
    print(f"{len(labels)} solves, {len(labels) - len(differ)} with equal records, {bitwise} of them bitwise")
    print(f"max relative deviation of x_star: {worst:.3g} (solve {at})")
    print(f"solves whose records differ: {len(differ)}")
    for line in differ:
        print(f"  {line}")
    return 1 if differ else 0


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if args[:1] == ["compare"]:
        return compare(*args[1:3])
    path = None
    if args[:1] == ["save"]:
        path, args = args[1], args[2:]
    count = int(args[0]) if args else 400
    seed = int(args[1]) if len(args) > 1 else 0
    if path is not None:
        save(path, count, seed)
        return 0
    for label, op, ys, denoiser, config in solves(count, seed):
        result = pnp_pgd_batch(op, ys, denoiser, config)
        digest = hashlib.sha256(np.ascontiguousarray(result.x_star).tobytes()).hexdigest()
        print(f"{label} | {_records(*(getattr(result, field) for field in RECORDS))} x_star={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
