"""Stability experiments: orchestration, windowed statistics, barrier checks.

A scenario runs the 2D base flow and the 3D perturbation in lockstep,
computes the certificate chains from the forcing schedules (no simulation
input), then verifies one-sidedly that every simulated window quantity sits
below its certified bound and that the smallness/barrier predictions hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from nsbox.certificate import (
    a_chain,
    abar_chain,
    b_chain,
    certificate_report,
    reduce_verdicts,
    smallness_check,
    verdict,
)
from nsbox.constants import interpolation_constants, poincare_constants
from nsbox.forcing import (
    ConstantMeanForcing,
    DecayingModeForcing,
    Forcing,
    OscillatingMeanForcing,
    PeriodicExtensionForcing,
    ZeroForcing,
)
from nsbox.solver import (
    FlowState,
    SolverAbort,
    SolverConfig,
    Trajectory,
    evolve_pair,
    taylor_green_state,
)
from nsbox.spectral import PeriodicGrid, SpectralField, random_field

__all__ = [
    "PerturbationSpec",
    "Scenario",
    "WindowStats",
    "ExperimentResult",
    "single_mode_profile",
    "make_perturbation",
    "build_forcing",
    "initial_norms",
    "run_stability_experiment",
    "barrier_monitor",
    "window_statistics",
]


def single_mode_profile(grid: PeriodicGrid, mode, amplitude=1.0, normalize=None) -> SpectralField:
    """Solenoidal single-mode velocity amplitude*cos(k.x)*e_perp on a 2D or 3D
    grid; in 3D e_perp is (0, -m3, m2) normalized, or e3 when m2 = m3 = 0."""
    m = np.asarray(mode, dtype=float)
    if m.shape != (grid.dim,) or not np.any(m):
        raise ValueError(f"profile wants a nonzero {grid.dim}D integer mode")
    if grid.dim == 2:
        perp = np.array([-m[1], m[0]]) / np.hypot(m[0], m[1])
    else:
        perp = np.array([0.0, -m[2], m[1]]) if (m[1] or m[2]) else np.array([0.0, 0.0, 1.0])
        perp = perp / np.linalg.norm(perp)
    a = 2.0 * np.pi / grid.L
    phase = np.cos(a * sum(mc * x for mc, x in zip(m, grid.coords()))) * np.ones(grid.shape)
    f = SpectralField.from_physical(grid, np.stack([p * phase for p in perp]))
    if normalize == "l2":
        f = f * (1.0 / f.sobolev_norm(0))
    elif normalize == "h1":
        f = f * (1.0 / f.sobolev_norm(1))
    return f * amplitude


@dataclass
class PerturbationSpec:
    gamma: float = 1e-4
    k0: float = 5.0
    band: tuple = (1, 8)
    seed: int = 7
    mean: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        self.band, self.mean = tuple(self.band), tuple(self.mean)
        if len(self.band) != 2:
            raise ValueError("perturbation band must be [lo, hi]")
        if len(self.mean) != 3:
            raise ValueError("perturbation mean must have 3 entries")

    def mean_h1_sq(self, L: float) -> float:
        """H1 norm squared of the constant mean on [0, L]^3; raises ValueError
        when it alone reaches the smallness target gamma * (1 - 1e-9)."""
        mean_h1_sq = float(np.sum(np.asarray(self.mean, dtype=float) ** 2)) * L**3
        if mean_h1_sq >= self.gamma * (1.0 - 1e-9):
            raise ValueError("perturbation mean alone exceeds the smallness target")
        return mean_h1_sq


@dataclass
class Scenario:
    """Complete description of one stability run."""

    L: float = 2.0 * np.pi
    N: int = 32
    nu: float = 1.0
    T: float = 8.0
    windows: int = 5
    dt: float = 2.5e-3
    scheme: str = "imex-cnab2"
    cfl_max: float = 1.2
    constants_mode: str = "empirical_calibrated"
    calibration_seed: int = 0
    calibration_fields: int = 1000
    # base flow: Taylor-Green initial data plus an example-1 force
    base_amplitude: float = 0.015
    force_constant: tuple = (1.0, 0.0)
    force_amplitude: float = 0.122
    force_rate: float = 1.0
    force_mode: tuple = (5, 0)
    force_family: str = "example1"  # or "example2", "zero"
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)
    epsilon: float = 0.5
    # difference forcing g (zero by default)
    g_amplitude: float = 0.0
    g_rate: float = 1.0
    g_mode: tuple = (0, 0, 1)

    def __post_init__(self):
        if self.windows < 1:
            raise ValueError("need at least one window")
        if self.T <= 0 or self.dt <= 0:
            raise ValueError("T and dt must be positive")
        steps = self.T / self.dt
        if not math.isfinite(steps):
            raise ValueError("T / dt must be a finite number of steps")
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("dt must divide the window length")

    @property
    def t_end(self) -> float:
        return self.windows * self.T

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            nu=self.nu, dt=self.dt, t_end=self.t_end, scheme=self.scheme, cfl_max=self.cfl_max
        )

    def forcings(self) -> tuple:
        """(base forcing on the 2D grid, difference forcing g on the 3D grid)."""
        base = {"family": self.force_family, "constant": self.force_constant,
                "amplitude": self.force_amplitude, "rate": self.force_rate, "mode": self.force_mode}
        g = {"family": "decaying_mode" if self.g_amplitude > 0.0 else "zero",
             "amplitude": self.g_amplitude, "rate": self.g_rate, "mode": self.g_mode}
        return (build_forcing(PeriodicGrid(L=self.L, dim=2, N=self.N), base, self.T),
                build_forcing(PeriodicGrid(L=self.L, dim=3, N=self.N), g))


def make_perturbation(grid3: PeriodicGrid, spec: PerturbationSpec) -> FlowState:
    """Random solenoidal field with the configured spectrum, rescaled so the
    full H1 norm squared equals gamma * (1 - 1e-9); raises ValueError when
    the spectrum holds no mode."""
    rng = np.random.default_rng(spec.seed)
    hi = min(spec.band[1], grid3.N // 4)
    u = random_field(grid3, 3, rng, band=(spec.band[0], hi), k0=spec.k0, solenoidal=True)
    h1_sq = u.sobolev_norm_sq(1)
    if not h1_sq > 0.0:
        raise ValueError(f"perturbation spectrum is empty: band {list(spec.band)} (clipped to "
                         f"|m| <= N/4 = {grid3.N // 4}) with k0 = {spec.k0} leaves no mode")
    mean_h1_sq = spec.mean_h1_sq(grid3.L)
    scale = math.sqrt((spec.gamma * (1.0 - 1e-9) - mean_h1_sq) / h1_sq)
    return FlowState(0.0, u * scale, np.asarray(spec.mean, dtype=float))


def build_forcing(grid: PeriodicGrid, fcfg: dict, window_T=None) -> Forcing:
    """The forcing family named by a config section, on a 2D or 3D grid.

    example1: a decaying square-integrable fluctuation over a constant force.
    example2: the window-periodic extension of the decaying fluctuation, with
    period `window` (default `window_T`, else 1).
    Raises ValueError for an unknown family or an invalid parameter.
    """
    family = fcfg.get("family", "zero")
    comp = 2 if grid.dim == 2 else 3
    if family == "zero":
        return ZeroForcing(grid, comp)
    if family == "constant_mean":
        return ConstantMeanForcing(grid, fcfg.get("constant", [0.0] * comp))
    if family == "oscillating_mean":
        return OscillatingMeanForcing(grid, fcfg.get("constant", [1.0] + [0.0] * (comp - 1)),
                                      omega=fcfg.get("omega", 1.0))
    profile = single_mode_profile(grid, fcfg.get("mode", (1, 0)),
                                  normalize=fcfg.get("normalize", "l2"))
    constant = fcfg.get("constant", [1.0] + [0.0] * (comp - 1)) if family == "example1" else None
    h = DecayingModeForcing(profile, rate=fcfg.get("rate", 1.0),
                            amplitude=fcfg.get("amplitude", 1.0), constant=constant)
    if family in ("decaying_mode", "example1"):
        return h
    if family == "example2":
        return PeriodicExtensionForcing(h, fcfg.get("window", window_T or 1.0))
    raise ValueError(f"unsupported forcing family {family!r}")


def initial_norms(v0: SpectralField) -> dict:
    """The norms of the initial mean-free base flow that the abar- and
    a-chains read: ||v0||^2, ||grad v0||^2, ||grad2 v0||^2 and ||v0||_H1^2."""
    h1_sq = v0.sobolev_norm_sq(1)
    return {
        "l2_sq": v0.sobolev_norm_sq(0),
        "grad_sq": v0.grad_norm_sq(),
        "grad2_sq": v0.sobolev_norm_sq(2) - h1_sq,
        "h1_sq": h1_sq,
    }


@dataclass
class WindowStats:
    k: int
    sup_vs_h1: float
    sup_vs_h2: float
    sup_u_l2: float
    sup_u_h1: float
    int_vs_h2_sq: float
    int_vs_h3_sq: float
    int_u_h1_sq: float
    int_u_h2_sq: float
    int_vst_sq: float
    int_ut_sq: float
    int_gradp_sq: float
    int_gradq_sq: float


@dataclass
class ExperimentResult:
    """A stability run, section by section as the report holds it; on a
    solver abort only the scenario, the certificate and the diagnostic."""

    scenario: Scenario
    pert: Trajectory | None = None  # the perturbation; its `base` is the 2D flow
    windows: list = field(default_factory=list)
    barrier: dict | None = None
    g2: np.ndarray | None = None  # the barrier budget G2(t)
    certificate: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    abort_diagnostic: str | None = None

    @property
    def aborted(self) -> bool:
        return self.abort_diagnostic is not None


def _simpson(y, dt):
    """Composite Simpson on a uniform grid (trapezoid fallback on the tail)."""
    y = np.asarray(y, dtype=float)
    n = len(y) - 1
    if n < 1:
        return 0.0
    total = 0.0
    if n % 2 == 1:  # odd interval count: trapezoid on the last cell
        total += 0.5 * dt * (y[-2] + y[-1])
        y = y[:-1]
        n -= 1
    if n >= 2:
        total += dt / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2]))
    return float(total)


class WindowedSeries:
    """Complete windows of length T on the uniform time axis t: window k holds
    the samples k*per .. (k+1)*per, both ends included."""

    def __init__(self, t, T):
        self.dt = t[1] - t[0]
        self.per = int(round(T / self.dt))
        self.count = int((len(t) - 1) // self.per)
        self.tail = bool((len(t) - 1) % self.per)

    def window(self, y, k):
        return y[k * self.per : (k + 1) * self.per + 1]

    def simpson(self, y, k):
        return _simpson(self.window(y, k), self.dt)

    def step_sum(self, y, k):
        """dt times the sum of the per-step values of the steps in window k."""
        return float(np.sum(y[k * self.per + 1 : (k + 1) * self.per + 1]) * self.dt)

    def energy_sup(self, level, rate, c, k):
        """sup over window k of level(t) + c * int_{kT}^t rate (cumulative trapezoid)."""
        y = self.window(rate, k)
        cum = np.zeros(len(y))
        cum[1:] = np.cumsum(0.5 * self.dt * (y[1:] + y[:-1]))
        return float(np.max(self.window(level, k) + c * cum))


def barrier_monitor(times, x2, g2, pc, ic, gamma) -> dict:
    """Discrete residuals of the barrier differential inequalities.

    Forward-difference form: (X2(t+dt) - X2(t))/dt <= -(c_1/2) X2 + G2 + slack
    with slack = 10x the discretization-error estimate (from the series' own
    second differences).  The raw form with the cubic term c_3 X2^3 is
    reported alongside.  The barrier holds (never_exceeded, the verdict `sup`)
    while X2 < gamma.
    """
    times = np.asarray(times, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if len(times) != len(x2) or len(times) != len(g2):
        raise ValueError("series must share timestamps")
    dt = times[1] - times[0]
    diff = (x2[1:] - x2[:-1]) / dt
    second = np.abs(x2[2:] - 2 * x2[1:-1] + x2[:-2]) / dt**2
    est = float(np.max(second)) if len(second) else 0.0
    slack = 10.0 * (dt / 2.0) * est + 64 * np.finfo(float).eps * float(np.max(x2, initial=0.0))
    r_reduced = diff + (pc.c_1 / 2.0) * x2[:-1] - g2[:-1]
    r_cubic = diff + x2[:-1] * (pc.c_1 - ic.c_3 * x2[:-1] ** 2) - g2[:-1]
    exceed = np.nonzero(x2 >= gamma)[0]
    sup = verdict([float(np.max(x2))], gamma, strict=True)
    return {
        "tol_slack": slack,
        "residual_reduced_max": float(np.max(r_reduced)) if len(r_reduced) else 0.0,
        "residual_cubic_max": float(np.max(r_cubic)) if len(r_cubic) else 0.0,
        "violations_reduced": int(np.sum(r_reduced > slack)),
        "violations_cubic": int(np.sum(r_cubic > slack)),
        "never_exceeded": sup["ok"],
        "first_exceedance_time": float(times[exceed[0]]) if len(exceed) else None,
        "sup": sup,
    }


def window_statistics(pert: Trajectory, T: float) -> tuple:
    """Per-window statistics plus the trend (uniformity) summary.

    Incomplete trailing windows are excluded with a notice.
    """
    base = pert.base
    if base is None:
        raise ValueError("window statistics need the lockstep base trajectory")
    bs, ps = base.series, pert.series
    w = WindowedSeries(ps["t"], T)

    def sup(y, k):
        return float(np.sqrt(np.max(w.window(y, k))))

    stats = [
        WindowStats(
            k=k,
            sup_vs_h1=sup(bs["h1_sq"], k),
            sup_vs_h2=sup(bs["h2_sq"], k),
            sup_u_l2=sup(ps["l2_sq"], k),
            sup_u_h1=sup(ps["h1_sq"], k),
            int_vs_h2_sq=w.simpson(bs["h2_sq"], k),
            int_vs_h3_sq=w.simpson(bs["h3_sq"], k),
            int_u_h1_sq=w.simpson(ps["h1_sq"], k),
            int_u_h2_sq=w.simpson(ps["h2_sq"], k),
            int_vst_sq=w.step_sum(bs["dudt_sq"], k),
            int_ut_sq=w.step_sum(ps["dudt_sq"], k),
            int_gradp_sq=w.simpson(bs["gradp_sq"], k),
            int_gradq_sq=w.simpson(ps["gradp_sq"], k),
        )
        for k in range(w.count)
    ]
    uniformity = {"complete_windows": w.count, "excluded_tail": w.tail}
    for name in ("sup_vs_h1", "sup_vs_h2", "sup_u_l2", "sup_u_h1"):
        vals = [getattr(st, name) for st in stats]
        ratios = [b / a for a, b in zip(vals, vals[1:]) if a > 1e-30]
        uniformity[f"max_ratio_{name}"] = float(max(ratios)) if ratios else 1.0
    uniformity["no_upward_trend"] = all(
        v <= 1.05 for k, v in uniformity.items() if k.startswith("max_ratio_"))
    return stats, uniformity


def run_stability_experiment(scn: Scenario, u0: FlowState | None = None) -> ExperimentResult:
    """Full pipeline: chains from schedules, lockstep simulation, windowed
    statistics, barrier verdicts, one-sided bound checks.  The perturbation
    starts from `u0`, drawn from the scenario's spec when None."""
    fs, g = scn.forcings()
    grid2, grid3 = fs.grid, g.grid
    pc = poincare_constants(scn.nu, scn.L)
    ic = interpolation_constants(
        scn.nu, scn.L, scn.constants_mode,
        seed=scn.calibration_seed, n_fields=scn.calibration_fields,
    )

    base0 = taylor_green_state(grid2, amplitude=scn.base_amplitude)
    if u0 is None:
        u0 = make_perturbation(grid3, scn.perturbation)

    norms0 = initial_norms(base0.field)
    u0_norms = {"l2_sq": u0.field.sobolev_norm_sq(0)}
    ab = abar_chain(fs, norms0["h1_sq"], scn.T, pc, ic, initial_mean=base0.mean)
    ach = a_chain(fs, norms0, scn.T, pc, ic, initial_mean=base0.mean)
    bch = b_chain(g, u0_norms, ach, pc, ic, scn.T, gamma=scn.perturbation.gamma,
                  epsilon=scn.epsilon, u0_mean=u0.mean)

    sm = None
    res = ExperimentResult(scn)
    try:
        res.pert = evolve_pair(base0, fs, u0, g, scn.solver_config())
    except SolverAbort as exc:  # the chains stand without the simulation
        res.abort_diagnostic = str(exc)
    else:
        ps = res.pert.series
        sm = smallness_check(pc, ic, bch, g, u0_norms, u0_mean=u0.mean,
                             gradv_l3_series=res.pert.base.series["gradv_l3"], times=ps["t"])
        res.g2 = sm["g2_series"]
        res.barrier = barrier_monitor(ps["t"], ps["h1_sq"], res.g2, pc, ic, bch.gamma)
        res.windows, uniformity = window_statistics(res.pert, scn.T)
        # the monitor's sup record is the barrier_sup check: one decision, written once
        res.checks = _bound_checks(res.pert, res.windows, pc, ach, bch, scn.T,
                                   res.barrier.pop("sup"))
        res.checks["uniformity"] = uniformity
    res.certificate = certificate_report(pc, ic, ab, ach, bch, sm)
    return res


def _bound_checks(pert, stats, pc, ach, bch, T, barrier_sup) -> dict:
    """One-sided comparisons of simulated window quantities against the
    certified chain values (a violation is an actionable failure); the
    barrier's is the monitor's record `barrier_sup`."""
    bs, ps = pert.base.series, pert.series
    w = WindowedSeries(ps["t"], T)
    ks = range(len(stats))

    # window-start kinetic energy; energy + dissipation along each window
    starts = [bs["l2_sq"][k * w.per] for k in range(len(stats) + 1)]
    q_energy = [w.energy_sup(bs["l2_sq"], bs["h1_sq"], pc.c_s1, k) for k in ks]
    q_grad = [w.energy_sup(bs["grad_sq"], bs["h2_sq"], pc.c_s1, k) for k in ks]
    q_pert = [w.energy_sup(ps["l2_sq"], ps["h1_sq"], pc.c_1, k) for k in ks]
    d2 = bs["h2_sq"] - bs["h1_sq"]
    sup_grad2 = [float(np.max(w.window(d2, k))) for k in ks]
    # second-derivative window form: the derivative-tensor H1 integral is
    # over-counted (multiplicity <= 3 per third-order index) so the check is
    # conservative
    d2_h1_upper = 3.0 * (bs["h3_sq"] - bs["h2_sq"]) + d2
    q_grad2 = [w.energy_sup(d2, d2_h1_upper, pc.c_s1, k) for k in ks]
    # space-time second-order norms: the base flow's against the reported
    # envelope (its front constant is unnamed: a ratio), the perturbation's b7_sq
    h21_vs = [st.int_vst_sq + st.int_vs_h2_sq + st.int_gradp_sq for st in stats]
    h21_u = [st.int_ut_sq + st.int_u_h2_sq + st.int_gradq_sq for st in stats]
    h21_ref = ach.h21_reference()
    checks = {
        "window_start_energy": verdict(starts, ach.a2_sq),
        "window_energy": verdict(q_energy, ach.a3_sq),
        "window_gradient": verdict(q_grad, ach.a8_sq),
        "grad2_sup": verdict(sup_grad2, ach.a13_sq),
        "grad2_window": verdict(q_grad2, ach.a14_sq),
        "pert_energy": verdict(q_pert, bch.b5_sq, carry=bch.b5_sq_carry),
        "barrier_sup": barrier_sup,
        # nesting of the perturbation norms
        "x_le_y": bool(np.all(ps["h1_sq"] <= ps["h2_sq"] * (1 + 1e-12) + 1e-300)),
        "h21_envelope": {
            "values": h21_vs,
            "reference": h21_ref,
            "envelope_ratio": (max(h21_vs) / h21_ref if math.isfinite(h21_ref) and h21_ref > 0
                               else None),
        },
        "pert_h21": verdict(h21_u, bch.b7_sq),
    }
    oks = [c["ok"] for c in checks.values() if isinstance(c, dict) and "ok" in c]
    checks["all_ok"] = reduce_verdicts([checks["x_le_y"], *oks])[0]
    return checks
