"""The names the benchmark's tracer (bench/spans.py) wraps exist in nsbox.

The tracer looks its targets up by name and records a missing one instead of
failing, so renaming one of them in nsbox would silently drop a layer from a
traced benchmark run.
"""

import importlib
import importlib.util
import pathlib

import scipy.fft

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
