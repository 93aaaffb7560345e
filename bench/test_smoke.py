"""Smoke test of the benchmark: every workload at tiny size, plus the failure
accounting (a corrupt snapshot or a changed verdict is a failed op) and the
trace coverage guard.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (sets the thread variables before numpy loads)

run.import_nsbox()
import workloads  # noqa: E402

E2E = ("setup_s", "wall_s", "work_per_s", "peak_rss_mb")


@pytest.fixture
def workdir():
    path = os.path.join(run.OUT, f"smoke-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny_with_reference(name, workdir, monkeypatch):
    """A tiny workload whose reference is its own reference op."""
    wl = workloads.WORKLOADS[name](tiny=True)
    wl.setup()
    cfg = wl.config(workloads.DEFAULT_SEED, 0)
    opdir = os.path.join(workdir, "ref")
    os.makedirs(opdir)
    ref = wl.summary(cfg, *wl.run(cfg, opdir))
    monkeypatch.setattr(workloads, "load_reference", lambda _: json.loads(json.dumps(ref)))
    return wl, ref


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_runs_pass_their_checks(name, workdir, monkeypatch):
    wl, _ = tiny_with_reference(name, workdir, monkeypatch)
    ledger = run.Ledger()
    metrics, _ = run.timed_run(wl, 3, 0.3, 0.1, workdir, ledger)
    assert set(metrics) == set(E2E)
    assert all(v > 0 for v, _ in metrics.values())
    layer, extra = run.traced_run(wl, 3, 0.3, 0.1, workdir, ledger)
    assert layer["trace.overhead_share"][1] == "share"
    assert ledger.failed == 0 and ledger.attempted >= 4
    assert ledger.hash_match is True and ledger.max_rel_dev == 0.0
    if wl.unit == "steps":
        assert layer["spectral.fft_calls_per_step"][0] == 14


def test_corrupt_snapshot_is_a_failed_op(workdir, monkeypatch):
    wl, _ = tiny_with_reference("simulate-2d-n128", workdir, monkeypatch)
    real_main = workloads.cli.main

    def main_then_corrupt(argv):
        rc = real_main(argv)
        outdir = argv[argv.index("--out") + 1]
        with open(os.path.join(outdir, "state_0002.snap"), "r+b") as fh:
            fh.seek(-8, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-8, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0xFF]))
        return rc

    monkeypatch.setattr(workloads.cli, "main", main_then_corrupt)
    ledger = run.Ledger()
    run.run_op(wl, wl.config(5, 1), workdir, ledger)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "checksum mismatch" in ledger.errors[0]


def test_changed_verdict_is_a_failed_op(workdir, monkeypatch):
    wl, ref = tiny_with_reference("stability-n32", workdir, monkeypatch)
    cfg = wl.config(workloads.DEFAULT_SEED, 0)
    ledger = run.Ledger()
    run.run_op(wl, cfg, workdir, ledger, reference=ref)
    assert ledger.failed == 0
    ref["verdicts"]["barrier.never_exceeded"] = not ref["verdicts"]["barrier.never_exceeded"]
    run.run_op(wl, cfg, workdir, ledger, reference=ref)
    ref["verdicts"]["barrier.never_exceeded"] = not ref["verdicts"]["barrier.never_exceeded"]
    ref["series"]["X2"][3] *= 1.0 + 1e-6
    run.run_op(wl, cfg, workdir, ledger, reference=ref)
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert "barrier.never_exceeded" in ledger.errors[0]
    assert "series X2" in ledger.errors[1]


def test_coverage_guard_fails_loudly(workdir, monkeypatch):
    wl, _ = tiny_with_reference("certify-sweep", workdir, monkeypatch)
    monkeypatch.setattr(wl, "most_work", ("solver",))
    with pytest.raises(run.CoverageError, match="solver"):
        run.traced_run(wl, 3, 0.3, 0.1, workdir, run.Ledger())
