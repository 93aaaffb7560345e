"""The names the benchmark's tracer (bench/spans.py) wraps exist in nsbox.

The tracer looks its targets up by name and records a missing one instead of
failing, so renaming one of them in nsbox would silently drop a layer from a
traced benchmark run.
"""

import importlib
import importlib.util
import pathlib

import scipy.fft

import nsbox.forcing
import nsbox.solver
import nsbox.spectral

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("nsbox_bench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_targets_resolve_to_callables():
    spans = load_spans()
    missing = [f"{modname}.{name}"
               for modname, (_, names) in spans.SPAN_TARGETS.items()
               for name in names
               if not callable(getattr(importlib.import_module(modname), name, None))]
    assert missing == []


def test_recorder_record_exists():
    assert callable(vars(nsbox.solver._Recorder).get("record"))


def test_spectral_transforms_through_scipy_fft():
    assert nsbox.spectral._fft is scipy.fft


def test_forcing_schedules_are_traced():
    # the tracer's forcing.schedule layer is every method of a Forcing class
    # named with one of these prefixes; the certify sweep's forcings (examples
    # 1 and 2, a zero g) must reach the three schedules the chains call there
    spans = load_spans()
    traced = {(cls, name) for cls in spans._subclasses(nsbox.forcing.Forcing)
              for name in vars(cls) if name.startswith(spans.FORCING_SCHEDULE_PREFIXES)}
    for cls in (nsbox.forcing.DecayingModeForcing, nsbox.forcing.PeriodicExtensionForcing,
                nsbox.forcing.ZeroForcing):
        for name in ("sup_window_bar_sq", "drift_sup_abs", "sup_window_drift_sq"):
            owner = next(c for c in cls.__mro__ if name in vars(c))
            assert (owner, name) in traced
