"""The names the benchmark's tracer (bench/spans.py) wraps exist in nsbox.

The tracer looks its targets up by name and records a missing one instead of
failing, so renaming one of them in nsbox would silently drop a layer from a
traced benchmark run.
"""

import importlib
import importlib.util
import pathlib

import pytest
import scipy.fft

import nsbox.forcing
import nsbox.solver
import nsbox.spectral

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"nsbox_bench_{name}", BENCH_DIR / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_spans():
    return load_bench("spans")


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


@pytest.mark.parametrize("name", ["certify-sweep", "stability-n32"])
def test_bench_readers_find_every_report_key(name, tmp_path):
    # the benchmark reads verdicts, chain values and checks out of the reports
    # by key, and fails an op on a verdict key its reference lacks or holds
    # alone; one tiny op through its own readers must give exactly the
    # reference's verdict keys (set where the reference's is), the same series,
    # and as many chain values, so a dropped or added report key fails here,
    # not in a bench run
    workloads = load_bench("workloads")
    wl = workloads.WORKLOADS[name](tiny=True)
    cfg = wl.config(workloads.DEFAULT_SEED, 0)
    got = wl.summary(cfg, *wl.run(cfg, str(tmp_path)))
    ref = workloads.load_reference(name)
    assert set(got["verdicts"]) == set(ref["verdicts"])
    assert [k for k, v in ref["verdicts"].items()
            if v is not None and got["verdicts"][k] is None] == []
    assert set(got["series"]) == set(ref["series"])
    if name == "certify-sweep":
        assert len(got["series"]["chains"]) == len(ref["series"]["chains"])
