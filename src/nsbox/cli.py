"""Command-line front end: simulate | certify | stability | report.

Configs are strict JSON documents (unknown keys rejected) with environment
overrides of the form NSBOX_<SECTION>_<KEY>=<json-or-string>.  Exit codes:
0 success, 2 config error, 3 data-integrity error, 4 solver abort.
"""

from __future__ import annotations

import argparse
import concurrent.futures as cf
import contextlib
import dataclasses
import json
import os
import sys
import time

import numpy as np

from nsbox import io as nsio
from nsbox.certificate import (
    a_chain,
    abar_chain,
    b_chain,
    certificate_report,
    smallness_check,
)
from nsbox.constants import interpolation_constants, poincare_constants
from nsbox.experiments import (
    PerturbationSpec,
    Scenario,
    build_forcing,
    initial_norms,
    make_perturbation,
    run_stability_experiment,
    single_mode_profile,
)
from nsbox.solver import (
    FlowState,
    SolverAbort,
    SolverConfig,
    _sample_plan,
    _SCHEMES,
    evolve_base_2d,
    evolve_full_3d,
    evolve_pair,
    taylor_green_state,
)
from nsbox.spectral import PeriodicGrid, SpectralField, lift_2d_to_3d, random_field

ENV_PREFIX = "NSBOX"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3
EXIT_SOLVER = 4


class ConfigError(ValueError):
    pass


def _positive(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x > 0


def _nonneg(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x >= 0


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _count(x):
    return _is_int(x) and x >= 0


def _positive_count(x):
    return _is_int(x) and x >= 1


def _numbers(x):
    return isinstance(x, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in x
    )


_GRID = {"L": _positive, "N": _is_int}
_SOLVER = {
    "nu": _positive, "dt": _positive, "t_end": _positive,
    "scheme": lambda v: v in _SCHEMES, "cfl_max": _positive,
}
_INITIAL = {
    "kind": lambda v: v in ("zero", "taylor_green", "random", "snapshot", "single_mode"),
    "amplitude": _nonneg, "seed": _is_int, "band": _numbers, "k0": _positive,
    "path": lambda v: isinstance(v, str), "mean": _numbers, "mode": _numbers,
}
_FORCING = {
    "family": lambda v: v in (
        "zero", "example1", "example2", "decaying_mode", "constant_mean", "oscillating_mean",
    ),
    "constant": _numbers, "amplitude": _nonneg, "rate": _positive, "mode": _numbers,
    "omega": _positive, "window": _positive,
    "normalize": lambda v: v in ("l2", "h1"),
}
_OUTPUT = {"window_T": _positive, "sample_times": _numbers}

SCHEMAS = {
    "simulate": {
        "system": lambda v: v in ("base2d", "full3d", "pair"),
        "grid": _GRID, "solver": _SOLVER, "initial": _INITIAL, "forcing": _FORCING,
        "perturbation": _INITIAL, "g_forcing": _FORCING, "output": _OUTPUT,
    },
    "certify": {
        "certificate": {
            "nu": _positive, "L": _positive, "T": _positive,
            "constants_mode": lambda v: v in ("analytic_conservative", "empirical_calibrated"),
            "calibration_seed": _count, "calibration_fields": _positive_count,
            "gamma": _nonneg, "epsilon": _positive, "N": _is_int,
        },
        "forcing": _FORCING,
        "initial": _INITIAL,
        "initial_norms": {"l2_sq": _nonneg, "grad_sq": _nonneg, "grad2_sq": _nonneg,
                          "h1_sq": _nonneg},
        "perturbation_norms": {"l2_sq": _nonneg},
        "g_forcing": _FORCING,
    },
    "stability": {
        "scenario": {
            "L": _positive, "N": _is_int, "nu": _positive, "T": _positive,
            "windows": _is_int, "dt": _positive,
            "scheme": lambda v: v in _SCHEMES, "cfl_max": _positive,
            "constants_mode": lambda v: v in ("analytic_conservative", "empirical_calibrated"),
            "calibration_seed": _count, "calibration_fields": _positive_count,
            "base_amplitude": _nonneg, "force_constant": _numbers, "force_amplitude": _nonneg,
            "force_rate": _positive, "force_mode": _numbers,
            "force_family": lambda v: v in ("example1", "example2", "zero"),
            "epsilon": _positive, "g_amplitude": _nonneg, "g_rate": _positive, "g_mode": _numbers,
            "resume": lambda v: isinstance(v, str),
        },
        "perturbation": {"gamma": _positive, "k0": _positive, "band": _numbers,
                         "seed": _is_int, "mean": _numbers},
        "scenarios": lambda v: isinstance(v, list) and len(v) > 0,  # scenario dicts for sweeps
    },
    "report": {"path": lambda v: isinstance(v, str)},
}


def validate_config(cfg: dict, schema: dict, path="") -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"section {path or '<root>'} must be an object")
    for key, val in cfg.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown key {where!r}")
        spec = schema[key]
        if isinstance(spec, dict):
            validate_config(val, spec, where)
        elif not spec(val):
            raise ConfigError(f"invalid value for {where!r}: {val!r}")


# config sections, longest first, so NSBOX_INITIAL_NORMS_* finds initial_norms
_SECTIONS = sorted({name for schema in SCHEMAS.values() for name, spec in schema.items()
                    if isinstance(spec, dict)}, key=len, reverse=True)


def apply_env_overrides(cfg: dict, environ=None) -> dict:
    """NSBOX_SECTION_KEY=value overrides config[section][key]; SECTION is the
    longest config section the name starts with, else the name up to its
    first underscore (an unknown section, which validation then names)."""
    environ = os.environ if environ is None else environ
    out = json.loads(json.dumps(cfg))
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX + "_"):
            continue
        rest = name[len(ENV_PREFIX) + 1:].lower()
        section = next((s for s in _SECTIONS if rest.startswith(s + "_")), rest.split("_")[0])
        key = rest[len(section) + 1:]
        if not key:
            continue
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out.setdefault(section, {})
        if isinstance(out[section], dict):
            out[section][key] = value
    return out


def load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    cfg = apply_env_overrides(cfg)
    validate_config(cfg, SCHEMAS[command])
    return cfg


# -- builders ------------------------------------------------------------------


@contextlib.contextmanager
def _building():
    """A value the schema accepts but a builder rejects is a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_grid(cfg, dim):
    g = cfg.get("grid", {})
    return PeriodicGrid(L=g.get("L", 2 * np.pi), dim=dim, N=g.get("N", 32))


def _read_snapshot_on(path, grid):
    """The snapshot at `path`, which must hold a velocity on `grid`; a corrupt
    file raises nsio.SnapshotError."""
    try:
        state = nsio.read_snapshot(path)
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc.strerror}") from exc
    g, comp = state.field.grid, state.field.components
    if (g.dim, g.N, g.L, comp) != (grid.dim, grid.N, grid.L, grid.dim):
        raise ConfigError(f"snapshot {path} holds {comp} components on a {g.dim}D grid with "
                          f"N={g.N}, L={g.L}; the config needs {grid.dim} on a {grid.dim}D grid "
                          f"with N={grid.N}, L={grid.L}")
    return state


def _build_initial(grid, icfg, seed_override=None):
    kind = icfg.get("kind", "zero")
    comp = 2 if grid.dim == 2 else 3
    mean = np.asarray(icfg.get("mean", [0.0] * comp), dtype=float)
    if kind == "zero":
        return FlowState(0.0, SpectralField.zeros(grid, comp), mean)
    if kind == "taylor_green":
        f = taylor_green_state(grid if grid.dim == 2 else PeriodicGrid(grid.L, 2, grid.N),
                               amplitude=icfg.get("amplitude", 1.0)).field
        return FlowState(0.0, f if grid.dim == 2 else lift_2d_to_3d(f, grid), mean)
    if kind == "single_mode":
        f = single_mode_profile(grid, icfg.get("mode", (1, 0)),
                                amplitude=icfg.get("amplitude", 1.0))
        return FlowState(0.0, f, mean)
    if kind == "random":
        seed = seed_override if seed_override is not None else icfg.get("seed", 0)
        rng = np.random.default_rng(seed)
        band = tuple(icfg.get("band", (1, grid.N // 4)))
        f = random_field(grid, comp, rng, band=band, k0=icfg.get("k0"), solenoidal=True)
        return FlowState(0.0, f * icfg.get("amplitude", 1.0), mean)
    if kind == "snapshot":
        if "path" not in icfg:
            raise ConfigError("an initial state of kind 'snapshot' needs a path")
        return _read_snapshot_on(icfg["path"], grid)
    raise ConfigError(f"unsupported initial kind {kind!r}")


# -- commands ------------------------------------------------------------------


def cmd_simulate(cfg: dict, outdir: str, seed, svg: bool) -> int:
    system = cfg.get("system", "base2d")
    dim = 2 if system == "base2d" else 3
    out = cfg.get("output", {})
    window_T, sample_times = out.get("window_T"), list(out.get("sample_times", ()))
    with _building():
        grid = _build_grid(cfg, dim)
        solver_cfg = SolverConfig(**{"nu": 1.0, "dt": 1e-3, "t_end": 1.0, **cfg.get("solver", {})})
        if window_T is not None:
            # states are also stored at every window boundary k * window_T
            if solver_cfg.dt > window_T:
                raise ValueError("dt exceeds the window length")
            if solver_cfg.t_end < window_T:
                raise ValueError("t_end shorter than one window")
            n_windows = int((solver_cfg.t_end + 1e-9) // window_T)
            sample_times += [round(k * window_T, 12) for k in range(n_windows + 1)]
        _sample_plan(solver_cfg, sample_times)
        # the pair's base flow and its forcing live on the 2D grid
        grid0 = PeriodicGrid(grid.L, 2, grid.N) if system == "pair" else grid
        state0 = _build_initial(grid0, cfg.get("initial", {}), seed)
        forcing = build_forcing(grid0, cfg.get("forcing", {}))
        if system == "pair":
            u0 = _build_initial(grid, cfg.get("perturbation", {"kind": "zero"}), seed)
            g = build_forcing(grid, cfg.get("g_forcing", {}))
    if system == "pair":
        traj = evolve_pair(state0, forcing, u0, g, solver_cfg, sample_times=sample_times)
        nsio.write_trajectory(os.path.join(outdir, "base"), traj.base, prefix="base")
    else:
        runner = evolve_base_2d if system == "base2d" else evolve_full_3d
        traj = runner(state0, forcing, solver_cfg, sample_times=sample_times)
    nsio.write_trajectory(outdir, traj)
    series = {k: v for k, v in traj.series.items() if np.asarray(v).ndim == 1}
    nsio.write_series_csv(os.path.join(outdir, "series.csv"), series)
    if svg:
        nsio.write_svg_lines(os.path.join(outdir, "series.svg"), traj.series["t"],
                             {"l2_sq": traj.series["l2_sq"]}, title=f"{system} energy")
    print(f"simulate: wrote {outdir} (steps={len(traj.series['t']) - 1})")
    return EXIT_OK


def cmd_certify(cfg: dict, outdir: str, seed, svg: bool) -> int:
    if "initial_norms" in cfg:
        missing = [k for k in ("l2_sq", "grad_sq", "grad2_sq") if k not in cfg["initial_norms"]]
        if missing:
            raise ConfigError(f"initial_norms is missing {', '.join(missing)}")
    ccfg = cfg.get("certificate", {})
    nu, L, T = ccfg.get("nu", 1.0), ccfg.get("L", 2 * np.pi), ccfg.get("T", 4.0)
    N, gamma, epsilon = ccfg.get("N", 32), ccfg.get("gamma", 0.0), ccfg.get("epsilon", 0.5)
    mode = ccfg.get("constants_mode", "analytic_conservative")
    pc = poincare_constants(nu, L)
    ic = interpolation_constants(
        nu, L, mode, seed=ccfg.get("calibration_seed", 0),
        n_fields=ccfg.get("calibration_fields", 1000),
    )
    with _building():
        grid2 = PeriodicGrid(L=L, dim=2, N=N)
        forcing = build_forcing(grid2, cfg.get("forcing", {}), T)
        # the mean comes from `initial` even when `initial_norms` gives the norms
        state0 = _build_initial(grid2, cfg.get("initial", {}), seed)
        if "initial_norms" in cfg:
            norms = dict(cfg["initial_norms"])
            norms.setdefault("h1_sq", norms["l2_sq"] + norms["grad_sq"])
        else:
            norms = initial_norms(state0.field)
        # a chain rejecting its data (a forcing not window-integrable) is one too
        ab = abar_chain(forcing, norms["h1_sq"], T, pc, ic, initial_mean=state0.mean)
        ach = a_chain(forcing, norms, T, pc, ic, initial_mean=state0.mean)
        bch = sm = None
        if "perturbation_norms" in cfg or gamma:
            g = build_forcing(PeriodicGrid(L=L, dim=3, N=N), cfg.get("g_forcing", {}), T)
            u0n = cfg.get("perturbation_norms", {"l2_sq": 0.0})
            # certify takes no perturbation mean
            m0 = np.zeros(3)
            bch = b_chain(g, u0n, ach, pc, ic, T, gamma=gamma, epsilon=epsilon, u0_mean=m0)
            sm = smallness_check(pc, ic, bch, g, u0n, u0_mean=m0)
    # example-1 style bound on the all-time fluctuation integral, when closed form
    abar1_upper = forcing.infinite_bar_sq_integral("h1")
    extras = {} if abar1_upper is None else {"abar1_sq_upper": abar1_upper}
    doc = certificate_report(pc, ic, ab, ach, bch, sm, inputs={"config": cfg, **extras})
    doc["timestamp"] = time.time()
    doc["content_hash"] = nsio.content_hash(doc)
    nsio.write_report_json(os.path.join(outdir, "certificate.json"), doc)
    print(f"certify: member={ab.member} abar3_sq={ab.abar3_sq:.6g} t_star={ab.t_star:.6g}")
    return EXIT_OK


@_building()
def _scenario_from_config(cfg: dict, seed=None) -> tuple:
    """The scenario of a stability config and its initial perturbation: the
    `resume` snapshot, or the field drawn from the perturbation spec, whose
    seed `seed` overrides."""
    s = dict(cfg.get("scenario", {}))
    resume = s.pop("resume", None)
    pert = PerturbationSpec(**cfg.get("perturbation", {}))
    if seed is not None:
        pert.seed = seed
    for tup in ("force_constant", "force_mode", "g_mode"):
        if tup in s:
            s[tup] = tuple(s[tup])
    scn = Scenario(perturbation=pert, **s)
    # rejects solver, forcing and perturbation settings here rather than in the run
    scn.solver_config()
    scn.forcings()
    grid3 = PeriodicGrid(scn.L, 3, scn.N)
    if resume is None:
        # rejects an empty spectrum and a mean above gamma
        return scn, make_perturbation(grid3, pert)
    pert.mean_h1_sq(scn.L)
    return scn, _read_snapshot_on(resume, grid3)


def _run_one_stability(scn: Scenario, u0, outdir: str, svg: bool) -> dict:
    res = run_stability_experiment(scn, u0)
    doc = {
        "schema": "nsbox-stability/1",
        "scenario": dataclasses.asdict(scn),
        "certificate": res.certificate,
        "barrier": res.barrier,
        "checks": res.checks,
        "windows": [dataclasses.asdict(w) for w in res.windows],
        "aborted": res.aborted,
        "abort_diagnostic": res.abort_diagnostic,
    }
    doc["content_hash"] = nsio.content_hash(doc)
    doc["timestamp"] = time.time()
    nsio.write_report_json(os.path.join(outdir, "report.json"), doc)
    if res.pert is not None:
        ps, bs = res.pert.series, res.pert.base.series
        series = {
            "t": ps["t"],
            "X2": ps["h1_sq"],
            "Y2": ps["h2_sq"],
            "G2": res.g2,
            "u_l2_sq": ps["l2_sq"],
            "vs_h1_sq": bs["h1_sq"],
            "vs_h2_sq": bs["h2_sq"],
            "vs_gradv_l3": bs["gradv_l3"],
        }
        nsio.write_series_csv(os.path.join(outdir, "series.csv"), series)
        nsio.write_windows_csv(os.path.join(outdir, "windows.csv"), res.windows)
        if svg:
            nsio.write_svg_lines(
                os.path.join(outdir, "x2_vs_gamma.svg"), ps["t"],
                {"X2": ps["h1_sq"], "gamma": np.full_like(ps["t"], scn.perturbation.gamma)},
                title="perturbation size vs smallness level",
            )
            sups = {"sup_u_h1": [w.sup_u_h1 for w in res.windows]}
            nsio.write_svg_lines(
                os.path.join(outdir, "window_sups.svg"),
                np.arange(len(res.windows)), sups, title="window sups vs k",
            )
    return doc


def cmd_stability(cfg: dict, outdir: str, seed, svg: bool, jobs: int) -> int:
    """Run every scenario of the config: a plain config is one scenario written
    to `outdir`, a `scenarios` list one scenario per entry under scenario_NNN/.
    All are validated and built before any of them runs."""
    if "scenarios" in cfg:
        beside = sorted(set(cfg) - {"scenarios"})
        if beside:
            raise ConfigError(f"keys {beside} beside 'scenarios' would be ignored: "
                              "give them in each entry of 'scenarios'")
        schema = {k: v for k, v in SCHEMAS["stability"].items() if k != "scenarios"}
        for sub in cfg["scenarios"]:
            validate_config(sub, schema)
        subs = [(sub, os.path.join(outdir, f"scenario_{i:03d}"))
                for i, sub in enumerate(cfg["scenarios"])]
    else:
        subs = [(cfg, outdir)]
    runs = []
    for sub, subdir in subs:
        scn, u0 = _scenario_from_config(sub, seed)
        runs.append((scn, u0, subdir, svg))
    if jobs > 1 and len(runs) > 1:
        with cf.ProcessPoolExecutor(max_workers=jobs) as ex:
            docs = list(ex.map(_run_one_stability, *zip(*runs)))
    else:
        docs = map(_run_one_stability, *zip(*runs))
    for (_, _, subdir, _), doc in zip(runs, docs):
        verdict = doc["barrier"]["never_exceeded"] if doc["barrier"] else None
        print(f"stability: never_exceeded={verdict} report={os.path.join(subdir, 'report.json')}")
    return EXIT_OK


def cmd_report(cfg: dict, outdir: str) -> int:
    """Print the verdicts of a certify or stability report; a stability
    report holds the certificate's verdicts under `certificate`."""
    path = cfg["path"]
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"report {path} is not a JSON object")

    def section(src, key):  # a missing or null section is empty
        sec = src.get(key) or {}
        if not isinstance(sec, dict):
            raise ConfigError(f"cannot read report {path}: {key} is not an object")
        return sec

    cert = section(doc, "certificate") if "certificate" in doc else doc
    print(f"report: {path}")
    for key, src in (("schema", doc), ("gamma_hypothesis", cert), ("barrier_hypotheses_ok", cert),
                     ("barrier_hypotheses_evaluated", cert), ("aborted", doc)):
        if key in src:
            print(f"  {key}: {src[key]}")
    for k, v in section(doc, "barrier").items():
        print(f"  barrier.{k}: {v}")
    # every verdict record (a dict with an `ok`) and every bare verdict
    for prefix, src, key in (("check", doc, "checks"), ("smallness", cert, "smallness")):
        for k, rec in section(src, key).items():
            if isinstance(rec, dict) and "ok" in rec:
                if "bound" not in rec:
                    raise ConfigError(f"cannot read report {path}: {prefix}.{k} has no bound")
                print(f"  {prefix}.{k}: ok={rec['ok']} bound={rec['bound']}")
            elif isinstance(rec, bool):
                print(f"  {prefix}.{k}: {rec}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nsbox", description=__doc__)
    p.add_argument("command", choices=["simulate", "certify", "stability", "report"])
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("--jobs", type=int, default=1, help="parallel scenarios")
    p.add_argument("--svg", action="store_true", help="write SVG plots")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, args.seed, args.svg)
        if args.command == "certify":
            return cmd_certify(cfg, args.out, args.seed, args.svg)
        if args.command == "stability":
            return cmd_stability(cfg, args.out, args.seed, args.svg, args.jobs)
        return cmd_report(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except nsio.SnapshotError as exc:
        print(f"data integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
