"""Run one nsbox benchmark workload and print its metrics.

    python3 bench/run.py --workload stability-n32 --seed 7 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  The line before it records the environment and the correctness
checks.  ``--write-reference`` stores the outputs of the reference op instead.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")  # set before numpy loads its BLAS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 3
WORKLOAD_NAMES = ("stability-n32", "simulate-2d-n128", "certify-sweep")


def import_nsbox() -> float:
    """Import nsbox from this checkout's src/ and return the import time."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import nsbox.cli  # noqa: F401  (pulls in every nsbox module, numpy and scipy)

    took = time.perf_counter() - t0
    if not os.path.abspath(nsbox.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"nsbox was imported from {nsbox.cli.__file__}, not from {SRC}")
    return took


class Ledger:
    """Ops attempted and failed, and what the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.max_rel_dev = None
        self.hash_match = None
        self.hashes = {}  # config -> content hash: equal inputs must give equal outputs

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)
        print(f"bench: op failed: {what}", file=sys.stderr)


def run_op(wl, cfg, workdir, ledger, *, reference=None, tracer=None, op=None):
    """Run, time and check one op; returns (seconds, bytes written)."""
    import workloads

    ledger.attempted += 1
    opdir = os.path.join(workdir, "op")
    shutil.rmtree(opdir, ignore_errors=True)
    os.makedirs(opdir)
    took = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outdir, extra = wl.run(cfg, opdir)
        else:
            tracer.enabled = True
            with tracer.root("op", op):
                outdir, extra = wl.run(cfg, opdir)
            tracer.enabled = False  # the checks below are not part of the op
        took = time.perf_counter() - t0
        summary = wl.summary(cfg, outdir, extra)
        key = json.dumps(cfg, sort_keys=True)
        if ledger.hashes.setdefault(key, summary["content_hash"]) != summary["content_hash"]:
            raise workloads.CheckFailed("same inputs gave a different content_hash")
        if reference is not None:
            failures, dev, match = workloads.compare(summary, reference)
            ledger.max_rel_dev = max(dev, ledger.max_rel_dev or 0.0)
            ledger.hash_match = match if ledger.hash_match is None else ledger.hash_match and match
            if failures:
                raise workloads.CheckFailed("; ".join(failures[:3]))
    except workloads.CheckFailed as exc:
        ledger.fail(f"check: {exc}")
    except Exception:  # the op boundary: record the failure and keep measuring
        ledger.fail(traceback.format_exc(limit=3).strip().splitlines()[-1])
    finally:
        if tracer is not None:
            tracer.enabled = False
    if took is None:  # the op raised: time it up to the failure
        took = time.perf_counter() - t0
    written = sum(os.path.getsize(os.path.join(d, f))
                  for d, _, files in os.walk(opdir) for f in files if f != "config.json")
    return took, written


def timed_run(wl, seed, seconds, import_s, workdir, ledger):
    """End-to-end metrics, tracing off."""
    import workloads

    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        reps.append(time.perf_counter() - t0)
    deadline = time.perf_counter() + seconds
    times, work, i = [], 0, 0
    while not times or time.perf_counter() < deadline:
        # op 0 is the reference op; the others take their inputs from the seed
        cfg = wl.config(workloads.DEFAULT_SEED if i == 0 else seed, i)
        reference = workloads.load_reference(wl.name) if i == 0 else None
        times.append(run_op(wl, cfg, workdir, ledger, reference=reference)[0])
        work += wl.work(cfg)
        i += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (import_s + statistics.median(reps), "s"),
        # the mean, not the median: on a shared machine speed drifts over tens of
        # seconds, and the median of a few ops flips between fast and slow spells
        "wall_s": (sum(times) / len(times), "s"),
        "work_per_s": (work / sum(times), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    ms = sorted(1e3 * t for t in times)
    kind = "op" if wl.unit == "steps" else "cert"
    extra = {"ops_timed": len(times), "setup_reps_s": reps, "import_s": import_s,
             f"{kind}_ms_p50": statistics.median(ms), f"{kind}_ms_p90": ms[int(0.9 * (len(ms) - 1))],
             f"{wl.unit}_per_s": work / sum(times)}
    return metrics, extra


class CoverageError(RuntimeError):
    pass


def traced_run(wl, seed, seconds, import_s, workdir, ledger):
    """Per-layer metrics from traced ops, each paired with the same op untraced."""
    import spans
    import workloads

    tracer = spans.Tracer()
    tracer.install()
    with tracer.root("setup", None):
        wl.setup()
    tracer.uninstall()
    run_op(wl, wl.config(workloads.DEFAULT_SEED, 0), workdir, ledger,
           reference=workloads.load_reference(wl.name))

    def traced_op(i, cfg):
        tracer.install()
        try:
            return run_op(wl, cfg, workdir, ledger, tracer=tracer, op=i)
        finally:
            tracer.uninstall()

    n = max(2, round(seconds / 2 / wl.ref_op_s))
    ratios, written = [], 0
    for i in range(1, n + 1):
        cfg = wl.config(seed, i)
        # alternate which side runs first, so drift in machine speed cancels
        if i % 2:
            plain = run_op(wl, cfg, workdir, ledger)[0]
            traced, nbytes = traced_op(i, cfg)
        else:
            traced, nbytes = traced_op(i, cfg)
            plain = run_op(wl, cfg, workdir, ledger)[0]
        ratios.append(traced / plain - 1.0)
        written += nbytes
    metrics, counts = spans.layer_metrics(tracer.spans)
    metrics["io.bytes_written"] = (written, "B")
    metrics["trace.overhead_share"] = (statistics.median(ratios), "share")
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{wl.name}-seed{seed}.json"))
    idle = [layer for layer in wl.most_work if not counts[layer]]
    if idle:
        raise CoverageError(f"trace coverage guard: no work recorded on {wl.name} for "
                            f"{', '.join(idle)} (unwrapped: {tracer.missing or 'none'})")
    return metrics, {"ops_traced": n, "layer_counts": counts, "unwrapped": tracer.missing}


def environment():
    import numpy
    import scipy
    import scipy.fft

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),
    }


def write_reference(wl, workdir):
    """Store the reference op's verdicts, checked series and content hash."""
    import workloads

    wl.setup()
    cfg = wl.config(workloads.DEFAULT_SEED, 0)
    opdir = os.path.join(workdir, "op")
    os.makedirs(opdir)
    outdir, extra = wl.run(cfg, opdir)
    summary = wl.summary(cfg, outdir, extra)
    refs = {}
    if os.path.exists(workloads.REFERENCE_PATH):
        with open(workloads.REFERENCE_PATH) as fh:
            refs = json.load(fh)
    refs[wl.name] = summary
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description="nsbox benchmark (see bench/README.md)")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store the reference op's outputs in bench/reference.json")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_nsbox()
    except ImportError as exc:
        print(f"bench: cannot import nsbox from this checkout: {exc}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    ledger = Ledger()
    try:
        if args.write_reference:
            write_reference(wl, workdir)
            return 0
        run = traced_run if args.trace else timed_run
        metrics, extra = run(wl, args.seed, args.seconds, import_s, workdir, ledger)
    except CoverageError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": environment(),
        "check": {"ops_failed_share": {"value": ledger.failed / ledger.attempted, "unit": "share"},
                  "check.max_rel_dev": ledger.max_rel_dev,
                  "check.content_hash_match": ledger.hash_match,
                  "errors": ledger.errors},
        "extra": extra,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
