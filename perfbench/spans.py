"""Outside-in span tracer for the ``pnplab`` layers, and the per-layer metrics.

The tracer wraps public functions from outside the program: class methods
are patched on the class, and a module-level function is replaced in every
``pnplab`` module that holds it by name. Each call records a span
``(id, parent, invocation, name, start, end, a, b, c)``; ``a``, ``b`` and
``c`` carry the work a call was given (rows, iterations, bytes, shapes).
The current span travels in a context variable, and tasks submitted to the
experiments thread pool run in a copy of the submitting context, so spans
on pool threads keep their parent.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

_CURRENT = contextvars.ContextVar("perfbench_span", default=0)

FIELDS = ("span", "parent", "invocation", "name", "start_s", "end_s", "a", "b", "c")


class _ContextPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitting thread's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _rows(y) -> int:
    shape = getattr(y, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _denoiser_work(args, kwargs, result, exc):
    return _rows(args[1] if len(args) > 1 else kwargs.get("y")), 0, 0


def _logpdf_work(args, kwargs, result, exc):
    prior = args[0]
    return _rows(args[1] if len(args) > 1 else kwargs.get("y")), prior.n_components, prior.dim


def _sample_work(args, kwargs, result, exc):
    return int(args[2] if len(args) > 2 else kwargs.get("count", 0)), 0, 0


def _solver_work(args, kwargs, result, exc):
    if exc is not None:
        return int(getattr(exc, "iteration", 0)), 0, 0
    return int(result.iterations), int(bool(result.converged)), 0


def _csv_work(args, kwargs, result, exc):
    path = args[0] if args else kwargs.get("path")
    return (os.path.getsize(path) if exc is None else 0), 0, 0


def _plots_work(args, kwargs, result, exc):
    return (sum(os.path.getsize(p) for p in result) if exc is None else 0), 0, 0


# (module, function, span name, work) for module-level functions.
FUNCTIONS = (
    ("pnplab.cli", "main", "cli.main", None),
    ("pnplab.experiments", "run_experiment", "experiments.run_experiment", None),
    ("pnplab.experiments", "write_records_csv", "experiments.write_records_csv", _csv_work),
    ("pnplab.experiments", "write_plots", "experiments.write_plots", _plots_work),
    ("pnplab.analysis", "delta_sweep", "analysis.delta_sweep", None),
    ("pnplab.analysis", "estimate_delta_opt", "analysis.estimate_delta_opt", None),
    ("pnplab.analysis", "estimate_l2", "analysis.estimate_l2", None),
    ("pnplab.analysis", "verify_sandwich", "analysis.verify_sandwich", None),
    ("pnplab.solver", "pnp_pgd", "solver.pnp_pgd", _solver_work),
)

PRIOR_METHODS = {
    "responsibilities": _logpdf_work,
    "log_density": _logpdf_work,
    "score": _denoiser_work,
    "mmse_denoise": _denoiser_work,
    "posterior_mean": _denoiser_work,
    "sample_pairs": _sample_work,
}

LINOP_METHODS = ("apply", "adjoint", "gradient_step", "op_norm_sq")


class Tracer:
    """Records spans in memory; ``install`` patches pnplab, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.invocation = 0
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, work):
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                t1 = clock()
                _CURRENT.reset(token)
                a, b, c = work(args, kwargs, result, exc) if work else (0, 0, 0)
                spans.append((sid, parent, self.invocation, name, t0, t1, a, b, c))

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import pnplab.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "pnplab"]
        for mod_name, fn_name, span, work in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is None:
                continue
            wrapped = self._wrap(span, original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

        from pnplab import denoisers, experiments, linop, prior

        for cls in _classes(linop, linop.LinearOperator):
            for meth in LINOP_METHODS:
                if meth in vars(cls):
                    self._set(cls, meth, self._wrap(f"linop.{meth}", vars(cls)[meth], None))
        for cls in _classes(denoisers, object):
            if "__call__" in vars(cls):
                name = f"denoisers.{cls.__name__}"
                self._set(cls, "__call__", self._wrap(name, vars(cls)["__call__"], _denoiser_work))
        for meth, work in PRIOR_METHODS.items():
            if meth in vars(prior.GmmPrior):
                self._set(prior.GmmPrior, meth, self._wrap(f"prior.{meth}", vars(prior.GmmPrior)[meth], work))
        if getattr(experiments, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._set(experiments, "ThreadPoolExecutor", _ContextPool)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        """Write every recorded span as tab-separated text."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(FIELDS) + "\n")
            for s in self.spans:
                fh.write(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]!r}\t{s[5]!r}\t{s[6]}\t{s[7]}\t{s[8]}\n")


def _classes(module, base):
    return [
        v
        for v in vars(module).values()
        if isinstance(v, type) and issubclass(v, base) and v.__module__ == module.__name__
    ]


# Per-layer metrics, in report order, with their units.
LAYER_METRICS = {
    "solver.calls": "count",
    "solver.iters": "count",
    "solver.self_s": "s",
    "solver.us_per_iter": "us",
    "solver.converged_frac": "frac",
    "linop.gradient_step.calls": "count",
    "linop.gradient_step.self_s": "s",
    "linop.apply_adjoint.self_s": "s",
    "linop.op_norm_sq.calls": "count",
    "linop.op_norm_sq.s": "s",
    "denoisers.calls": "count",
    "denoisers.self_s": "s",
    "denoisers.rows_per_call": "rows",
    "prior.responsibilities.calls": "count",
    "prior.responsibilities.self_s": "s",
    "prior.score.self_s": "s",
    "prior.self_s": "s",
    "prior.rows_per_call": "rows",
    "prior.sample_pairs.calls": "count",
    "prior.sample_pairs.s": "s",
    "prior.logpdf_flops": "flop",
    "prior.logpdf_bytes": "B",
    "analysis.self_s": "s",
    "analysis.denoiser_passes": "count",
    "analysis.sample_rows": "rows",
    "experiments.self_s": "s",
    "experiments.write_s": "s",
    "experiments.bytes_written": "B",
    "cli.self_s": "s",
}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children on pool threads may overlap)."""
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one invocation's spans.

    Self time is a span's duration minus the time its child spans cover.
    ``prior.logpdf_flops`` and ``prior.logpdf_bytes`` are computed from the
    shapes of the component log-density (``2 m K n`` flops; the (m, n)
    points, (K, n) means and (m, K) result in float64), not measured.
    """
    names = {s[0]: s[3] for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    solver_s = 0.0
    converged = denoiser_rows = resp_rows = 0
    for sid, parent, _, name, t0, t1, a, b, c in spans:
        dur = t1 - t0
        self_s = dur - _covered(children.get(sid, []))
        layer = name.split(".", 1)[0]
        parent_layer = names.get(parent, "").split(".", 1)[0]
        if name == "solver.pnp_pgd":
            m["solver.calls"] += 1
            m["solver.iters"] += a
            m["solver.self_s"] += self_s
            solver_s += dur
            converged += b
        elif name == "linop.gradient_step":
            m["linop.gradient_step.calls"] += 1
            m["linop.gradient_step.self_s"] += self_s
        elif name in ("linop.apply", "linop.adjoint"):
            m["linop.apply_adjoint.self_s"] += self_s
        elif name == "linop.op_norm_sq":
            m["linop.op_norm_sq.calls"] += 1
            m["linop.op_norm_sq.s"] += dur
        elif layer == "denoisers":
            m["denoisers.self_s"] += self_s
            if parent_layer != "denoisers":
                m["denoisers.calls"] += 1
                denoiser_rows += a
            if parent_layer == "analysis":
                m["analysis.denoiser_passes"] += 1
        elif layer == "prior":
            m["prior.self_s"] += self_s
            if name == "prior.responsibilities":
                m["prior.responsibilities.calls"] += 1
                m["prior.responsibilities.self_s"] += self_s
                resp_rows += a
            elif name == "prior.score":
                m["prior.score.self_s"] += self_s
            elif name == "prior.sample_pairs":
                m["prior.sample_pairs.calls"] += 1
                m["prior.sample_pairs.s"] += dur
                if parent_layer == "analysis":
                    m["analysis.sample_rows"] += a
            if name in ("prior.responsibilities", "prior.log_density"):
                m["prior.logpdf_flops"] += 2 * a * b * c
                m["prior.logpdf_bytes"] += 8 * (a * c + b * c + a * b)
        elif layer == "analysis":
            m["analysis.self_s"] += self_s
        elif name == "experiments.run_experiment":
            m["experiments.self_s"] += self_s
        elif layer == "experiments":
            m["experiments.write_s"] += dur
            m["experiments.bytes_written"] += a
        elif name == "cli.main":
            m["cli.self_s"] += self_s
    if m["solver.iters"]:
        m["solver.us_per_iter"] = solver_s / m["solver.iters"] * 1e6
    if m["solver.calls"]:
        m["solver.converged_frac"] = converged / m["solver.calls"]
    if m["denoisers.calls"]:
        m["denoisers.rows_per_call"] = denoiser_rows / m["denoisers.calls"]
    if m["prior.responsibilities.calls"]:
        m["prior.rows_per_call"] = resp_rows / m["prior.responsibilities.calls"]
    return m
