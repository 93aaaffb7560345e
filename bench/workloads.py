"""The benchmark workloads: inputs from a seed, one op, and the op's checks.

Each op is one ``nsbox`` command run in-process through ``nsbox.cli.main``.
An op fails when the command exits nonzero, raises, or its outputs fail a
check.  Every op's outputs are checked for invariants; an op on the
reference inputs (``DEFAULT_SEED``) is also compared with ``reference.json``.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import io
import json
import math
import os

import numpy as np

from nsbox import cli
from nsbox import constants as nsconst
from nsbox import io as nsio
from nsbox.spectral import PeriodicGrid, SpectralField

L = 2.0 * math.pi
DEFAULT_SEED = 7
SERIES_RTOL = 1e-9  # roundoff tolerance for the checked series against the reference
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


class CheckFailed(Exception):
    pass


def clear_constant_caches():
    """Drop nsbox's in-process caches of constants so set-up pays for them again."""
    for obj in vars(nsconst).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) >= 2, f"{os.path.basename(path)}: no data rows")
    cols = {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}
    for name, col in cols.items():
        _require(np.all(np.isfinite(col)), f"{os.path.basename(path)}: non-finite {name}")
    return cols


def _load_hashed(path):
    """Parse a JSON report and check its content_hash."""
    with open(path) as fh:
        doc = json.load(fh)
    body = {k: v for k, v in doc.items() if k != "content_hash"}
    _require(nsio.content_hash(body) == doc.get("content_hash"),
             f"{os.path.basename(path)}: content_hash does not match its content")
    return doc


def _check_chains(cert):
    """Chain values are finite numbers or "inf"; the drift entries are "inf"
    exactly when their drift_finite hypothesis is false."""
    for chain in ("abar_chain", "a_chain", "b_chain"):
        for key, val in cert.get(chain, {}).items():
            if isinstance(val, dict) or isinstance(val, bool):
                continue
            ok = val == "inf" or (isinstance(val, (int, float)) and math.isfinite(val))
            _require(ok, f"{chain}.{key} = {val!r} is neither finite nor 'inf'")
    for chain, key in (("a_chain", "a9"), ("b_chain", "b6_mean_drift")):
        if chain in cert:
            flagged = not cert[chain]["hypotheses"]["drift_finite"]
            _require((cert[chain][key] == "inf") == flagged,
                     f"{chain}.{key} = {cert[chain][key]!r} disagrees with drift_finite")


def _cert_verdicts(cert, prefix="certificate."):
    out = {f"{prefix}hypotheses.{k}": v for k, v in cert["hypotheses"].items()}
    out[prefix + "member"] = cert["abar_chain"]["member"]
    out[prefix + "barrier_hypotheses_ok"] = cert["barrier_hypotheses_ok"]
    out[prefix + "gamma_hypothesis"] = cert.get("gamma_hypothesis")
    return out


class Workload:
    """One workload; `tiny` shrinks every size for the smoke test."""

    name = ""
    command = ""
    unit = ""            # the work unit counted by work_per_s
    ref_op_s = 1.0       # op wall time on the reference machine; sizes the traced run
    most_work = ()       # layers the traced run must see doing work (coverage guard)

    def setup(self):
        """The repeatable part of set-up: grids and the constants the ops use."""
        raise NotImplementedError

    def config(self, seed, i):
        """Config of op `i` of a run with `seed`."""
        raise NotImplementedError

    def work(self, cfg):
        """Work units one op with `cfg` completes."""
        raise NotImplementedError

    def run(self, cfg, workdir):
        """Run one op; returns its output directory and whatever the check needs."""
        path = os.path.join(workdir, "config.json")
        outdir = os.path.join(workdir, "out")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([self.command, "--config", path, "--out", outdir])
        if rc != 0:
            raise CheckFailed(f"nsbox {self.command} exited with {rc}")
        return outdir, None

    def summary(self, cfg, outdir, extra):
        """Check the outputs' invariants (raises CheckFailed) and return the
        verdicts, checked series and content hash for the reference comparison."""
        raise NotImplementedError


class Stability(Workload):
    name = "stability-n32"
    command = "stability"
    unit = "steps"
    ref_op_s = 3.1
    most_work = ("spectral.fft", "solver", "constants", "experiments")

    def __init__(self, tiny=False):
        # the reference scenario cut to a 0.5 time-unit horizon (200 lockstep steps)
        self.N, self.T, self.dt = (8, 0.05, 2.5e-3) if tiny else (32, 0.5, 2.5e-3)
        self.fields = 8 if tiny else 1000

    def setup(self):
        clear_constant_caches()
        PeriodicGrid(L, 2, self.N), PeriodicGrid(L, 3, self.N)
        nsconst.interpolation_constants(1.0, L, "empirical_calibrated", seed=0,
                                        n_fields=self.fields)

    def config(self, seed, i):
        return {
            "scenario": {"N": self.N, "T": self.T, "windows": 1, "dt": self.dt,
                         "scheme": "imex-cnab2", "constants_mode": "empirical_calibrated",
                         "calibration_seed": 0, "calibration_fields": self.fields,
                         "force_family": "example1"},
            "perturbation": {"gamma": 1e-4, "seed": seed},
        }

    def work(self, cfg):
        s = cfg["scenario"]
        return round(s["T"] * s["windows"] / s["dt"])

    def summary(self, cfg, outdir, extra):
        doc = _load_hashed(os.path.join(outdir, "report.json"))
        _require(not doc["aborted"], f"solver aborted: {doc['abort_diagnostic']}")
        cert = doc["certificate"]
        _check_chains(cert)
        series = _read_csv(os.path.join(outdir, "series.csv"))
        _require(len(series["t"]) == self.work(cfg) + 1, "series.csv has the wrong length")
        windows = _read_csv(os.path.join(outdir, "windows.csv"))
        _require(len(windows["k"]) == cfg["scenario"]["windows"], "windows.csv has the wrong length")
        verdicts = {f"barrier.{k}": v for k, v in doc["barrier"].items()
                    if k in ("never_exceeded", "first_exceedance_time", "violations_reduced")}
        for name, check in doc["checks"].items():
            if isinstance(check, dict):
                verdicts.update({f"checks.{name}.{k}": v for k, v in check.items()
                                 if k.startswith("ok") or k == "no_upward_trend"})
            else:
                verdicts[f"checks.{name}"] = check
        verdicts.update(_cert_verdicts(cert))
        return {"verdicts": verdicts,
                "series": {"X2": series["X2"].tolist(), "vs_h1_sq": series["vs_h1_sq"].tolist()},
                "content_hash": doc["content_hash"]}


class Simulate2D(Workload):
    name = "simulate-2d-n128"
    command = "simulate"
    unit = "steps"
    ref_op_s = 1.25
    most_work = ("spectral.fft", "forcing.step", "io")

    def __init__(self, tiny=False):
        self.N, self.steps = (16, 8) if tiny else (128, 100)
        self.dt = 1e-3
        self.snapshots = 5

    def setup(self):
        grid = PeriodicGrid(L, 2, self.N)
        SpectralField.zeros(grid, 2).physical()

    def config(self, seed, i):
        t_end = self.steps * self.dt
        every = t_end / (self.snapshots - 1)
        return {
            "system": "base2d",
            "grid": {"N": self.N},
            "solver": {"nu": 1.0, "dt": self.dt, "t_end": t_end, "scheme": "rk3-imex"},
            # CFL stays below 0.1 at this amplitude; cfl_max is 0.5
            "initial": {"kind": "random", "amplitude": 1.0, "seed": seed},
            "forcing": {"family": "example1", "amplitude": 0.122, "mode": [5, 0]},
            "output": {"sample_times": [k * every for k in range(self.snapshots)]},
        }

    def work(self, cfg):
        return self.steps

    def run(self, cfg, workdir):
        outdir, _ = super().run(cfg, workdir)
        # reading every snapshot back is part of the op: the io layer's read path
        paths = sorted(glob.glob(os.path.join(outdir, "state_*.snap")))
        return outdir, [nsio.read_snapshot(p) for p in paths]

    def summary(self, cfg, outdir, states):
        times = cfg["output"]["sample_times"]
        _require(len(states) == len(times), f"{len(states)} snapshots for {len(times)} sample times")
        for st, t in zip(states, times):
            _require(abs(st.t - t) <= 1e-9, f"snapshot time {st.t} for sample time {t}")
            _require(np.all(np.isfinite(st.field.coeffs.view(float))), "non-finite snapshot")
        with open(os.path.join(outdir, "state_series.json")) as fh:
            sidecar = json.load(fh)
        csv_series = _read_csv(os.path.join(outdir, "series.csv"))
        n = self.work(cfg) + 1
        _require(len(sidecar["series"]["t"]) == n and len(csv_series["t"]) == n,
                 "series have the wrong length")
        return {"verdicts": {"snapshots": len(states)},
                "series": {"l2_sq": csv_series["l2_sq"].tolist(),
                           "h1_sq": csv_series["h1_sq"].tolist()},
                "content_hash": nsio.content_hash(sidecar)}


class CertifySweep(Workload):
    name = "certify-sweep"
    command = "certify"
    unit = "certs"  # certify calls
    ref_op_s = 0.0055
    most_work = ("spectral.field", "forcing.schedule", "constants", "certificate", "cli")

    def __init__(self, tiny=False):
        self.N = 8 if tiny else 32
        self.fields = 8 if tiny else 1000

    def setup(self):
        clear_constant_caches()
        PeriodicGrid(L, 2, self.N), PeriodicGrid(L, 3, self.N)
        nsconst.interpolation_constants(1.0, L, "empirical_calibrated", seed=0,
                                        n_fields=self.fields)
        nsconst.interpolation_constants(1.0, L, "analytic_conservative")

    def config(self, seed, i):
        rng = np.random.default_rng([seed, i])
        gamma = float(10.0 ** rng.uniform(-5.0, -3.0))
        return {
            "certificate": {
                "T": float(rng.uniform(4.0, 12.0)),
                "constants_mode": ("empirical_calibrated", "analytic_conservative")[i % 2],
                "calibration_seed": 0, "calibration_fields": self.fields,
                "gamma": gamma, "N": self.N,
            },
            "forcing": {"family": ("example1", "example2")[int(rng.integers(2))],
                        "amplitude": float(rng.uniform(0.05, 0.2)), "mode": [5, 0]},
            "initial": {"kind": "taylor_green", "amplitude": 0.015},
            "perturbation_norms": {"l2_sq": 0.5 * gamma},
        }

    def work(self, cfg):
        return 1

    def summary(self, cfg, outdir, extra):
        cert = _load_hashed(os.path.join(outdir, "certificate.json"))
        _check_chains(cert)
        _require(isinstance(cert["abar_chain"]["member"], bool), "member is not a verdict")
        chains = [v for c in ("abar_chain", "a_chain", "b_chain")
                  for _, v in sorted(cert[c].items())
                  if isinstance(v, (int, float)) and not isinstance(v, bool)]
        verdicts = _cert_verdicts(cert, prefix="")
        verdicts.update({f"inf.{c}.{k}": True for c in ("abar_chain", "a_chain", "b_chain")
                         for k, v in cert[c].items() if v == "inf"})
        return {"verdicts": verdicts, "series": {"chains": chains},
                "content_hash": cert["content_hash"]}


WORKLOADS = {w.name: w for w in (Stability, Simulate2D, CertifySweep)}


def compare(summary, ref):
    """Differences from the reference: (failures, max relative deviation, hash match)."""
    failures = []
    for key in sorted(set(ref["verdicts"]) | set(summary["verdicts"])):
        got, want = summary["verdicts"].get(key), ref["verdicts"].get(key)
        if got != want:
            failures.append(f"verdict {key}: {got!r}, reference {want!r}")
    max_dev = 0.0
    for name, want in ref["series"].items():
        got = np.asarray(summary["series"].get(name, []), dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            failures.append(f"series {name}: length {got.size}, reference {want.size}")
            continue
        dev = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300), initial=0.0))
        max_dev = max(max_dev, dev)
        if dev > SERIES_RTOL:
            failures.append(f"series {name}: relative deviation {dev:.3g} > {SERIES_RTOL:g}")
    return failures, max_dev, summary["content_hash"] == ref["content_hash"]


def load_reference(name):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[name]
