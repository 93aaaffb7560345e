"""Tracing for the benchmark's traced run, from outside the nsbox package.

The tracer wraps the names nsbox callers look up -- module functions, class
methods, and the ``scipy.fft`` module bound as ``_fft`` -- and restores them
on ``uninstall``.  Two kinds of wrapper:

* coarse spans (one record per call: name, layer, start, end, parent, op id)
  around module functions such as ``evolve_pair`` or ``a_chain``;
* per-call aggregates (a count plus busy time added to the enclosing span)
  around calls made many times per step: FFTs, forcing evaluations, field
  methods, forcing schedules.

Self time of a span is its duration minus the time covered by the wrapped
calls it made directly.  Inside a solver span, each call of the solver's
per-step recorder marks a step boundary, so per-step figures are medians over
the steps rather than totals divided by the step count.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import scipy.fft

# scipy.fft names that are helpers, not transforms
_FFT_HELPERS = {
    "next_fast_len", "prev_fast_len", "fftfreq", "rfftfreq", "fftshift", "ifftshift",
    "set_backend", "skip_backend", "set_global_backend", "register_backend",
    "set_workers", "get_workers",
}
FFT_TRANSFORMS = frozenset(n for n in scipy.fft.__all__ if n not in _FFT_HELPERS)

# module function -> layer; every binding of the function in an nsbox module is wrapped
SPAN_TARGETS = {
    "nsbox.solver": ("solver", ("evolve_base_2d", "evolve_full_3d", "evolve_pair")),
    "nsbox.constants": ("constants", ("interpolation_constants", "calibrated_primitives",
                                      "analytic_primitives")),
    "nsbox.certificate": ("certificate", ("abar_chain", "a_chain", "b_chain",
                                          "smallness_check", "certificate_report")),
    "nsbox.experiments": ("experiments", ("run_stability_experiment", "window_statistics",
                                          "barrier_monitor")),
    "nsbox.io": ("io", ("write_snapshot", "read_snapshot", "write_trajectory",
                        "write_series_csv", "write_windows_csv", "write_report_json",
                        "content_hash")),
    "nsbox.cli": ("cli", ("load_config",)),
}
FORCING_STEP = ("bar_field", "mean_integral", "mean_double_integral")
FORCING_SCHEDULE_PREFIXES = ("window_", "sup_window_", "drift")
FIELD_DUNDERS = ("__add__", "__sub__", "__mul__", "__rmul__")
EVOLVE = frozenset(SPAN_TARGETS["nsbox.solver"][1])
SOLVER_ABORTS = ("SolverAbort", "CFLViolation")

_clock = time.perf_counter


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0  # time covered by wrapped calls made directly from this frame


class Span(_Frame):
    __slots__ = ("id", "name", "layer", "parent", "op", "start", "end", "agg", "steps",
                 "error", "marker", "marks")

    def __init__(self, sid, name, layer, parent, op, start):
        super().__init__()
        self.id, self.name, self.layer, self.parent, self.op = sid, name, layer, parent, op
        self.start, self.end = start, None
        self.agg = defaultdict(lambda: [0, 0.0, 0])  # kind -> [calls, busy s, bytes]
        self.steps = 0
        self.error = None
        self.marker = None  # id of the recorder whose calls mark step boundaries
        self.marks = []     # per boundary: (time, child, fft calls/busy/bytes, forcing calls/busy)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child

    def as_dict(self):
        return {"id": self.id, "name": self.name, "layer": self.layer, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end, "self": self.self_time,
                "steps": self.steps, "error": self.error,
                "agg": {k: list(v) for k, v in self.agg.items()}}


class Tracer:
    """Wraps nsbox entry points while installed; records while enabled."""

    def __init__(self):
        self.spans = []
        self.missing = []  # targets not found (renamed or removed)
        self.enabled = True
        self._stack = []   # open frames, spans and aggregates
        self._spans = []   # open spans only
        self._depth = defaultdict(int)
        self._patches = []
        self._next_id = 0

    # -- recording -----------------------------------------------------------

    def open(self, name, layer, op=None):
        parent = self._spans[-1] if self._spans else None
        if op is None and parent is not None:
            op = parent.op
        self._next_id += 1
        span = Span(self._next_id, name, layer, parent.id if parent else None, op, _clock())
        self._stack.append(span)
        self._spans.append(span)
        return span

    def close(self, span):
        span.end = _clock()
        self._stack.pop()
        self._spans.pop()
        if self._stack:
            self._stack[-1].child += span.duration
        self.spans.append(span)

    @contextlib.contextmanager
    def root(self, name, op):
        """A top-level span: one benchmark op, or the set-up."""
        span = self.open(name, "bench", op)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if name in EVOLVE:
                span.steps = len(out.series["t"]) - 1
            return out

        return wrapper

    def _agg_wrapper(self, fn, kind, count_bytes=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or not tracer._spans:
                return fn(*args, **kwargs)
            outermost = tracer._depth[kind] == 0
            tracer._depth[kind] += 1
            frame = _Frame()
            tracer._stack.append(frame)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                tracer._stack.pop()
                tracer._depth[kind] -= 1
                tracer._stack[-1].child += dur
            if outermost:
                acc = tracer._spans[-1].agg[kind]
                acc[0] += 1
                acc[1] += dur
                if count_bytes:
                    acc[2] += getattr(args[0], "nbytes", 0) + getattr(out, "nbytes", 0)
            return out

        return wrapper

    def _marker_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(recorder, *args, **kwargs):
            span = tracer._spans[-1] if tracer.enabled and tracer._spans else None
            if span is not None and span.name in EVOLVE:
                if span.marker is None:
                    span.marker = id(recorder)
                if span.marker == id(recorder):
                    fft, forcing = span.agg["fft"], span.agg["forcing.step"]
                    span.marks.append((_clock(), span.child, fft[0], fft[1], fft[2],
                                       forcing[0], forcing[1]))
            return fn(recorder, *args, **kwargs)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_methods(self, cls, names, kind, count_bytes=False):
        for name in names:
            if name not in cls.__dict__:
                continue
            attr = cls.__dict__[name]
            if isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._agg_wrapper(attr.__func__, kind)))
            elif callable(attr):
                self._set(cls, name, self._agg_wrapper(attr, kind, count_bytes))

    def install(self):
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "nsbox" or n.startswith("nsbox.")) and m is not None]
        proxy = _FFTProxy(self)
        # wrapper by id of the wrapped function; every binding of it in an nsbox
        # module is replaced, so callers that imported the name see the wrapper
        wrappers = {id(getattr(scipy.fft, n)): proxy.wrap(n) for n in FFT_TRANSFORMS}
        for modname, (layer, names) in SPAN_TARGETS.items():
            mod = sys.modules.get(modname)
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    self.missing.append(f"{modname}.{name}")
                else:
                    wrappers[id(fn)] = self._span_wrapper(fn, name, layer)
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if val is scipy.fft:
                    self._set(mod, name, proxy)
                elif id(val) in wrappers:
                    self._set(mod, name, wrappers[id(val)])
        import nsbox.forcing
        import nsbox.solver
        import nsbox.spectral

        for cls in _subclasses(nsbox.forcing.Forcing):
            self._wrap_methods(cls, FORCING_STEP, "forcing.step")
            sched = [n for n in cls.__dict__ if n.startswith(FORCING_SCHEDULE_PREFIXES)]
            self._wrap_methods(cls, sched, "forcing.schedule")
        for cls in (nsbox.spectral.SpectralField, nsbox.spectral.PeriodicGrid):
            public = [n for n in cls.__dict__ if not n.startswith("_")] + list(FIELD_DUNDERS)
            self._wrap_methods(cls, public, "field")
        recorder = getattr(nsbox.solver, "_Recorder", None)
        if recorder is not None and "record" in recorder.__dict__:
            self._set(recorder, "record", self._marker_wrapper(recorder.__dict__["record"]))
        else:
            self.missing.append("nsbox.solver._Recorder.record")

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": [s.as_dict() for s in self.spans], "missing": self.missing}, fh)


class _FFTProxy:
    """Stands in for the scipy.fft module: transforms are counted, the rest passes."""

    def __init__(self, tracer):
        self._tracer = tracer
        self._wrapped = {}

    def wrap(self, name):
        """The counting wrapper of transform `name`."""
        if name not in self._wrapped:
            self._wrapped[name] = self._tracer._agg_wrapper(getattr(scipy.fft, name), "fft",
                                                            count_bytes=True)
        return self._wrapped[name]

    def __getattr__(self, name):
        if name in FFT_TRANSFORMS:
            return self.wrap(name)
        return getattr(scipy.fft, name)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


# -- per-layer metrics -----------------------------------------------------------


def _per_step(evolve_spans):
    """Median per-step figures over the step windows between recorder calls."""
    rows = []
    for span in evolve_spans:
        marks = span.marks
        for a, b in zip(marks, marks[1:]):
            dur = b[0] - a[0]
            rows.append({
                "ms": 1e3 * dur,
                "self_ms": 1e3 * (dur - (b[1] - a[1])),
                "fft_calls": b[2] - a[2], "fft_ms": 1e3 * (b[3] - a[3]), "fft_bytes": b[4] - a[4],
                "forcing_calls": b[5] - a[5], "forcing_ms": 1e3 * (b[6] - a[6]),
            })
    if not rows:
        return {k: 0.0 for k in ("ms", "self_ms", "fft_calls", "fft_ms", "fft_bytes",
                                 "forcing_calls", "forcing_ms")}
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def layer_metrics(spans):
    """Per-layer metrics, and the work count of each layer, from one traced run.

    Totals (``*_s`` and counts) cover every span given: the traced set-up and
    the traced ops.
    """
    evolve = [s for s in spans if s.name in EVOLVE]
    other = [s for s in spans if s.name not in EVOLVE]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(*names):
        return sum(s.duration for n in names for s in by_name[n])

    def agg(group, kind, i):
        return sum(s.agg[kind][i] for s in group if kind in s.agg)

    step = _per_step(evolve)
    evolve_s = sum(s.duration for s in evolve)
    inter = by_name["interpolation_constants"]
    calibrating = {s.parent for s in by_name["calibrated_primitives"]}
    reused = sum(1 for s in inter if s.id not in calibrating)
    m = {
        "spectral.fft_calls_per_step": (step["fft_calls"], "count"),
        "spectral.fft_ms_per_step": (step["fft_ms"], "ms"),
        "spectral.fft_share": (agg(evolve, "fft", 1) / evolve_s if evolve_s else 0.0, "share"),
        "spectral.fft_bytes_per_step": (step["fft_bytes"], "B"),
        "spectral.field_calls": (agg(other, "field", 0), "count"),
        "spectral.field_s": (agg(other, "field", 1), "s"),
        "solver.steps": (sum(s.steps for s in evolve), "count"),
        "solver.step_ms": (step["ms"], "ms"),
        "solver.self_ms_per_step": (step["self_ms"], "ms"),
        "solver.aborts": (sum(1 for s in evolve if s.error in SOLVER_ABORTS), "count"),
        "forcing.step_calls_per_step": (step["forcing_calls"], "count"),
        "forcing.step_ms_per_step": (step["forcing_ms"], "ms"),
        "forcing.schedule_s": (agg(spans, "forcing.schedule", 1), "s"),
        "constants.calibration_s": (total("calibrated_primitives"), "s"),
        "constants.calibrations": (len(by_name["calibrated_primitives"]), "count"),
        "constants.calibration_reuse": (reused / len(inter) if inter else 0.0, "share"),
        "constants.analytic_s": (total("analytic_primitives"), "s"),
        "certificate.chain_s": (total("abar_chain", "a_chain", "b_chain"), "s"),
        "certificate.smallness_s": (total("smallness_check"), "s"),
        "certificate.report_s": (total("certificate_report"), "s"),
        "experiments.postprocess_s": (
            total("window_statistics", "barrier_monitor")
            + sum(s.self_time for s in by_name["run_stability_experiment"]), "s"),
        "io.snapshot_write_s": (total("write_snapshot"), "s"),
        "io.snapshot_read_s": (total("read_snapshot"), "s"),
        "io.report_write_s": (total("write_report_json", "write_series_csv",
                                    "write_windows_csv", "content_hash"), "s"),
        "cli.config_s": (total("load_config"), "s"),
    }
    counts = {
        "spectral.fft": agg(evolve, "fft", 0),
        "spectral.field": m["spectral.field_calls"][0],
        "solver": m["solver.steps"][0],
        "forcing.step": agg(evolve, "forcing.step", 0),
        "forcing.schedule": agg(spans, "forcing.schedule", 0),
        "constants": m["constants.calibrations"][0] + len(by_name["analytic_primitives"]),
        "certificate": sum(len(by_name[n]) for n in ("abar_chain", "a_chain", "b_chain")),
        "experiments": len(by_name["run_stability_experiment"]),
        "io": len(by_name["write_snapshot"]) + len(by_name["read_snapshot"]),
        "cli": len(by_name["load_config"]),
    }
    return m, counts
