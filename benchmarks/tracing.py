"""Span tracing for the benchmark's traced run.

While a traced run lasts, the public functions and methods listed in
``TARGETS`` are replaced by wrappers that record one span per call:
``[name, start, end, parent, size, tag, failed]``.  ``parent`` is the index
of the enclosing span (-1 at the top), ``size`` the side of the first grid
argument, ``tag`` a number read from the call (Krylov iterations, sweep
count, multigrid level), and ``failed`` is true when the call raised or
returned a ``SolveReport`` that did not converge.  Spans stay in memory;
the caller writes them out when the run ends.  Nothing under ``src/`` is
modified: the wrappers are installed on module and class attributes and
removed afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

import numpy as np

NAME, START, END, PARENT, SIZE, TAG, FAILED = range(7)


def _arg(position, name, default=None):
    """Reads one argument of a call by position or keyword."""
    def read(args, kwargs, result):
        if name in kwargs:
            return kwargs[name]
        return args[position] if len(args) > position else default
    return read


def _krylov_iterations(args, kwargs, result):
    return result[1].iterations


# (module, attribute or Class.method, span name, tag reader)
TARGETS = [
    ("helmscat.helmholtz", "HelmholtzOperator.apply", "helmholtz.apply", None),
    ("helmscat.helmholtz", "HelmholtzOperator.__init__",
     "helmholtz.operator_build", None),
    ("helmscat.multigrid", "mg_cycle", "multigrid.mg_cycle", _arg(3, "level", 0)),
    ("helmscat.multigrid", "damped_jacobi", "multigrid.damped_jacobi",
     _arg(4, "sweeps")),
    ("helmscat.multigrid", "restrict_full_weighting", "multigrid.restrict", None),
    ("helmscat.multigrid", "prolong_bilinear", "multigrid.prolong", None),
    ("helmscat.multigrid", "MgHierarchy.coarsest_solve",
     "multigrid.coarsest_solve", None),
    ("helmscat.multigrid", "MgHierarchy.__init__", "multigrid.hierarchy_build",
     None),
    ("helmscat.krylov", "bicgstab", "krylov.bicgstab", _krylov_iterations),
    ("helmscat.lis", "apply_green_convolution", "lis.green_conv", None),
    ("helmscat.lis", "sample_green_kernel", "lis.kernel_build", None),
    ("helmscat.forward", "sensor_green_operator", "forward.sensor_op", None),
    ("helmscat.forward", "HelmholtzForward.__init__", "forward.model_build",
     None),
    ("helmscat.forward", "HelmholtzForward.total_field", "forward.total_field",
     None),
    ("helmscat.forward", "HelmholtzForward.adjoint_solve",
     "forward.adjoint_solve", None),
    ("helmscat.forward", "plane_wave", "forward.plane_wave", None),
    ("helmscat.inverse", "gradient_data_fidelity", "inverse.gradient", None),
    ("helmscat.inverse", "tv_prox", "inverse.tv_prox", None),
]


COUNT_STATS = ("calls", "iterations", "iterations_max", "failed",
               "work_units", "solves_per_iter", "spans")


def is_count(metric: str) -> bool:
    """True for per-layer metrics that count work rather than time it;
    they repeat exactly from run to run on the same inputs."""
    return metric.rsplit(".", 1)[-1] in COUNT_STATS


def _size(args):
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim == 2:
            return a.shape[0]
        side = getattr(a, "side", None)
        if isinstance(side, int):
            return side
    return None


def _helmscat_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "helmscat" or n.startswith("helmscat.")]


class Tracer:
    """Records spans in memory; ``installed()`` wraps ``TARGETS`` for the
    length of a ``with`` block and restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name, size):
        span = [name, 0.0, 0.0, self._stack[-1], size, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a phase of the benchmark's own code."""
        s = self._open(name, None)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, fn, name, tag):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(name, _size(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                s[FAILED] = True
                raise
            finally:
                self._close(s)
            if (isinstance(result, tuple) and len(result) == 2
                    and getattr(result[1], "converged", True) is False):
                s[FAILED] = True
            if tag is not None:
                s[TAG] = tag(args, kwargs, result)
            return result
        wrapper.bench_span = name
        return wrapper

    def _install(self):
        for module_name, attr, span_name, tag in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span_name, tag))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span_name, tag)
            # every namespace that binds the name: defining module,
            # importing modules and the package itself
            for mod in _helmscat_modules():
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            self._uninstall()
        leftover = leftover_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def leftover_wrappers() -> list[str]:
    """Names of helmscat attributes (module level or class level) that are
    still benchmark wrappers."""
    found = []
    for mod in _helmscat_modules():
        for attr, value in list(vars(mod).items()):
            if hasattr(value, "bench_span"):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if hasattr(fn, "bench_span"):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    Spans come from one thread, so children of a span never overlap."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics named ``<module>.<name>.<stat>``.

    For every span name: ``calls``, ``s`` (inclusive), ``self_s`` and
    ``ms_per_call``, the mean inclusive time of the calls made at the
    largest grid the layer saw (the finest level).  Plus the counts
    ``krylov.iterations``, ``krylov.iterations_max``, ``krylov.failed``,
    ``multigrid.work_units`` (smoother sweeps weighted 4^-level, as
    ``WorkUnitMeter`` counts them), ``inverse.solves_per_iter`` (Krylov
    solves per gradient evaluation) and ``trace.spans``.
    """
    own = self_times(spans)
    names = {t[2] for t in TARGETS}
    agg = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": -1,
               "fine_s": 0.0, "fine_calls": 0, "fine_tag": 0}
           for n in names}
    for s, self_s in zip(spans, own):
        a = agg.get(s[NAME])
        if a is None:
            continue
        dur = s[END] - s[START]
        a["calls"] += 1
        a["s"] += dur
        a["self_s"] += self_s
        size = -1 if s[SIZE] is None else s[SIZE]
        if size > a["size"]:
            a["size"], a["fine_s"], a["fine_calls"], a["fine_tag"] = \
                size, 0.0, 0, 0
        if size == a["size"]:
            a["fine_s"] += dur
            a["fine_calls"] += 1
            a["fine_tag"] += s[TAG] or 0

    def per(total, count):
        return 1e3 * total / count if count else 0.0

    out = {}
    for n, a in sorted(agg.items()):
        out[f"{n}.calls"] = a["calls"]
        out[f"{n}.s"] = a["s"]
        out[f"{n}.self_s"] = a["self_s"]
        out[f"{n}.ms_per_call"] = per(a["fine_s"], a["fine_calls"])
    jac, kry = agg["multigrid.damped_jacobi"], agg["krylov.bicgstab"]
    out["multigrid.damped_jacobi.ms_per_sweep"] = per(jac["fine_s"],
                                                      jac["fine_tag"])
    out["krylov.bicgstab.ms_per_iter"] = per(kry["fine_s"], kry["fine_tag"])

    solves = [s for s in spans if s[NAME] == "krylov.bicgstab"]
    out["krylov.iterations"] = sum(s[TAG] or 0 for s in solves)
    out["krylov.iterations_max"] = max((s[TAG] or 0 for s in solves),
                                       default=0)
    out["krylov.failed"] = sum(1 for s in solves if s[FAILED])

    wu = 0.0
    for s in spans:
        if s[NAME] == "multigrid.damped_jacobi" and s[PARENT] >= 0:
            level = spans[s[PARENT]][TAG] or 0
            wu += s[TAG] * 4.0 ** (-level)
    out["multigrid.work_units"] = wu

    grads = agg["inverse.gradient"]["calls"]
    solves = sum(1 for i, s in enumerate(spans)
                 if s[NAME] == "krylov.bicgstab"
                 and _has_ancestor(spans, i, "inverse.gradient"))
    out["inverse.solves_per_iter"] = solves / grads if grads else 0.0
    out["trace.spans"] = len(spans)
    return out
