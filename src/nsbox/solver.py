"""Time integration of the periodic-box flow systems with exact mean tracking.

One object per flow serves the 2D base flow, the full 3D flow, and the 3D
perturbation u = v - v_s around a lifted 2D base flow v_s: the perturbation
is the flow equation plus the terms of the base flow, and with v_s = 0 it is
the single-flow equation.  Each flow holds its band state and advances its
mean-free, solenoidal part spectrally and its spatial mean by the exact mean
ODE d/dt mean = (1/|box|) int f dx.

Layout: the 2/3 rule keeps only the modes with |m_a| < N/3 on every axis,
so every array of a step (state, stage terms, integrating factors, Parseval
weights) lives on that box, the grid's `band`.  The band transforms run
their passes over only the lines that hold a box mode, into sample and
coefficient buffers that each flow owns; keeping only the box of a forward
transform is the dealiasing.  A stored state is the box scattered into the
half spectrum, made only at the sample steps.

Scheme: per-mode integrating factor exp(-nu |k|^2 dt - i k . int mean dt)
treats viscosity *and* advection by the spatial mean exactly (the latter is
a pure phase; leaving it in the explicit term is weakly unstable once the
mean grows, e.g. under a constant mean force).  The remaining nonlinearity
(advection by the mean-free velocity) and mean-free forcing are explicit:
Adams-Bashforth 2 with a Runge-Kutta 3 startup step, or RK3 throughout.

Nonlinear term: each RHS evaluation is one inverse and one forward band
transform, in the divergence form for every flow:
    (u + v_s) . grad u + (u + m) . grad v_s = div T + m . grad v_s,
    T_ij = u_i w_j + v_s,i u_j,  w = u + v_s,
with m the perturbation's mean (v_s = 0 for a single flow).  T is symmetric,
so that is dim inverse components (u) and dim (dim + 1) / 2 forward (its
upper triangle), and the term is i k_j T_ij per mode.  m . grad v_s does not
depend on x3: it is formed from the base flow's band gradient coefficients
and added on the k3 = 0 plane.  Every product has a factor of u, so a zero
perturbation stays exactly zero.  The divergence form agrees to roundoff with
the convective product because the fields are solenoidal and the 2/3 rule
makes dealiased quadratic products exact truncations of their convolutions.
The Leray projection returns the norm of what it removes, `gradp_sq`, the
gradient part of the convective term.

One driver steps every flow: a single flow alone, or the base flow and the
perturbation in lockstep.  Each RHS evaluation returns a record (explicit
term, gradp_sq, the samples of the advecting velocity, a 2D flow's gradient
coefficients, mean, forcing); the perturbation's RHS takes the base's record
of the same stage as an argument.  A step runs stage by stage (t, and under
RK3 also t + dt/2 and t + dt).  Records are dropped once read (their samples
are the flow's buffers, which its next evaluation overwrites): a flow keeps
only the explicit terms of the current step.  Once per step the recorder
forms the speed, which the CFL check reads, from the first stage's samples,
and a 2D flow's `gradv_l3` by its own transform of the gradient coefficients.

A driver stores the state of every flow at t = 0, at t_end and at each of
its sample times, which must be step times; the per-step series are dense.

Known defect: the perturbation's integrating factor reads the base mean at
t + dt where it should read it at t.  Under a constant mean force the pair
drifts from the full 3D flow at first order in dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from nsbox.forcing import Forcing
from nsbox.spectral import (
    PeriodicGrid,
    SpectralField,
    add_lifted,
    derivative_coeffs,
    divergence_coeffs,
    extend,
    grad_l3_norm,
    inner_product,
    integrating_factor,
    leray_project_coeffs,
    restrict,
    to_coeffs,
    to_samples,
    weighted_norm_sq,
    zero_mode0,
)

__all__ = [
    "SolverConfig",
    "FlowState",
    "Trajectory",
    "CFLViolation",
    "SolverAbort",
    "mean_ode_step",
    "evolve_base_2d",
    "evolve_full_3d",
    "evolve_pair",
    "taylor_green_state",
]

_SCHEMES = ("imex-cnab2", "rk3-imex")


class SolverAbort(RuntimeError):
    """Run aborted: non-finite values, or a CFL stop (`CFLViolation`)."""

    def __init__(self, t, step, diagnostic):
        super().__init__(f"solver abort at t={t:.6g} (step {step}): {diagnostic}")
        self.t = t
        self.step = step
        self.diagnostic = diagnostic


class CFLViolation(SolverAbort):
    """Run aborted before a step: advective CFL number exceeded cfl_max."""

    def __init__(self, t, cfl, cfl_max, advisory_dt):
        RuntimeError.__init__(
            self, f"CFL {cfl:.3g} > {cfl_max:.3g} at t={t:.6g}; retry with dt <= {advisory_dt:.3g}"
        )
        self.t = t
        self.cfl = cfl
        self.advisory_dt = advisory_dt


@dataclass
class SolverConfig:
    nu: float
    dt: float
    t_end: float
    scheme: str = "imex-cnab2"
    cfl_max: float = 0.5

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one step")
        if not np.isfinite(self.t_end / self.dt):
            raise ValueError("t_end / dt must be a finite number of steps")
        self.scheme = self.scheme.lower()
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if self.cfl_max <= 0:
            raise ValueError("cfl_max must be positive")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("dt must divide t_end")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class FlowState:
    """Mean-free solenoidal field plus its spatial mean at time t."""

    t: float
    field: SpectralField
    mean: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        if self.mean.shape != (self.field.components,):
            raise ValueError("mean length must equal field components")


@dataclass
class Trajectory:
    """Sampled states plus dense per-step scalar series."""

    cfg: SolverConfig
    states: list
    series: dict
    base: "Trajectory | None" = None


# -- means ----------------------------------------------------------------------


def _pad(v, dim):
    """`v` with zeros appended up to `dim` entries: a lifted 2D mean in 3D."""
    v = np.asarray(v, dtype=float)
    if len(v) < dim:
        return np.concatenate([v, np.zeros(dim - len(v))])
    return v


def mean_ode_step(mean, forcing: Forcing, t: float, dt: float) -> np.ndarray:
    """mean(t+dt) = mean(t) + int_t^{t+dt} (1/|box|) int f dx dt'."""
    return np.asarray(mean, dtype=float) + forcing.mean_integral(t, t + dt)


# -- flows --------------------------------------------------------------------


class _Eval(NamedTuple):
    """One right-hand-side evaluation of a flow at one stage."""

    rhs: np.ndarray    # explicit term on the band: Leray-projected, mode 0 zeroed
    gradp_sq: float    # squared L2 norm of the gradient part the projection removed
    phys: np.ndarray | tuple  # grid samples of the mean-free advecting velocity w,
                              # one per component (means go in the integrating factor)
    dcoeffs: np.ndarray | None  # 2D: (dim, C, band) gradient coefficients of the state
    mean: np.ndarray   # the spatial mean the evaluation used
    fbar: np.ndarray | None  # the band part of the mean-free forcing the evaluation used


def _mean_path_integrals(forcings, means, t, dt, dim):
    """Integrals of the advecting mean over [t, t+dt/2] and [t+dt/2, t+dt].

    The mean path is m(tau) = m(t) + int_t^tau mean-force, so
    int m = m(t) * h + double integral of the mean force.
    """
    h = dt / 2.0
    I1 = np.zeros(dim)
    I2 = np.zeros(dim)
    for f, m in zip(forcings, means):
        m = _pad(m, dim)
        I1 += m * h + _pad(f.mean_double_integral(t, t + h), dim)
        m_half = m + _pad(f.mean_integral(t, t + h), dim)
        I2 += m_half * h + _pad(f.mean_double_integral(t + h, t + dt), dim)
    return I1, I2


class _Flow:
    """A flow under a given forcing, optionally around a lifted 2D base flow.

    d/dt ubar = -( (u + v_s) . grad ) ubar - ( u . grad ) vbar_s + fbar
    with u = ubar + mean_u and v_s the base flow (zero for a single flow);
    advection of ubar by mean_u + mean_vs goes into the integrating factor.
    Every flow evaluates the product in divergence form (module docstring).

    A step from t is `evaluate` at the current state, `start`, two calls of
    `stage` under RK3 (at t + dt/2, then at t + dt), and `finish`; the flow
    keeps only the explicit terms of the stages (module docstring).
    """

    def __init__(self, state0, forcing, cfg, base_forcing=None):
        self.grid = grid = state0.field.grid
        self.band = band = grid.band
        self.forcing = forcing
        # the forcings of the advecting means, in the order of `start`'s means
        self.mean_forcings = (forcing,) if base_forcing is None else (forcing, base_forcing)
        self.dt = cfg.dt
        self.coeffs = restrict(band, state0.field.coeffs)
        self.mean = np.asarray(state0.mean, float).copy()
        self.t = self.terms = self.lam = self.lam_h = self.mean_next = None  # the current step's
        self.prev_rhs = self.prev_factor = None  # the last step's, for AB2
        # viscous parts exp(-nu |k|^2 h) of the factors over h = dt/2 and h = dt
        self._visc_half = np.exp(-cfg.nu * band.ksq * (cfg.dt / 2.0))
        self._visc_full = np.exp(-cfg.nu * band.ksq * cfg.dt)
        # the transform buffers, which each evaluation overwrites: the samples
        # of u in and of the flux T (upper triangle) out, with the first two
        # components of u + v_s beside them in a perturbation
        dim = grid.dim
        self._samples = np.empty((dim,) + grid.shape)
        self._products = np.empty((dim * (dim + 1) // 2,) + grid.shape)
        self._hat = np.empty((len(self._products),) + band.coeff_shape, dtype=np.complex128)
        self._w = None if base_forcing is None else np.empty((2,) + grid.shape)
        self._gradients = dim == 2  # which m . grad v_s and gradv_l3 read
        # the band part of the forcing profile: the only part that reaches the state
        profile = forcing.profile
        self._profile = None if profile is None else restrict(band, profile.coeffs)

    def rhs(self, coeffs, mean, t, base=None):
        """The evaluation at the band coefficients `coeffs`; `base` is the base
        flow's evaluation at the same stage, or None for a single flow."""
        band = self.band
        dcoeffs = derivative_coeffs(band, coeffs) if self._gradients else None
        w = self._flux(to_samples(band, coeffs, self._samples), base)
        raw = divergence_coeffs(band, to_coeffs(band, self._products, self._hat))
        if base is not None:
            # m . grad v_s is x3-independent: it lives on the k3 = 0 plane
            add_lifted(raw[:2], mean[0] * base.dcoeffs[0] + mean[1] * base.dcoeffs[1])
        np.negative(raw, out=raw)
        fbar = None
        if self._profile is not None:
            fbar = self._profile * self.forcing.bar_amplitude(t)
            raw += fbar
        rhs, gradp_sq = leray_project_coeffs(band, raw)
        return _Eval(zero_mode0(rhs), gradp_sq, w, dcoeffs, mean, fbar)

    def _flux(self, u, base):
        """Fill the product stack with the samples of the flux
        T_ij = u_i w_j + v_s,i u_j, w = u + v_s, row by row over its upper
        triangle, from the (dim, grid) samples `u`; returns w.  Each product
        has a factor of u, so a zero perturbation has a zero flux."""
        T = self._products
        if base is None:
            dim = self.band.dim
            for n, (i, j) in enumerate((i, j) for i in range(dim) for j in range(i, dim)):
                np.multiply(u[i], u[j], out=T[n])
            return u
        vs = base.phys[..., None]
        w = self._w
        np.add(u[0], vs[0], out=w[0])
        np.add(u[1], vs[1], out=w[1])
        np.add(w[0], vs[0], out=T[0])
        T[0] *= u[0]                                  # u_0 w_0 + v_s,0 u_0
        np.multiply(vs[0], u[1], out=T[5])
        np.multiply(u[0], w[1], out=T[1])
        T[1] += T[5]                                  # u_0 w_1 + v_s,0 u_1
        np.multiply(w[0], u[2], out=T[2])             # u_0 w_2 + v_s,0 u_2, w_2 = u_2
        np.add(w[1], vs[1], out=T[3])
        T[3] *= u[1]                                  # u_1 w_1 + v_s,1 u_1
        np.multiply(w[1], u[2], out=T[4])             # u_1 w_2 + v_s,1 u_2
        np.multiply(u[2], u[2], out=T[5])             # v_s,2 = 0
        return (w[0], w[1], u[2])

    def evaluate(self, t, base=None):
        """The RHS at the current state at time t; the first stage of a step."""
        ev = self.rhs(self.coeffs, self.mean, t, base)
        self.t, self.terms = t, [ev.rhs]
        return ev

    def start(self, use_rk3, base_mean=None):
        """Integrating factors and end mean of the step; `base_mean` is the
        advecting flow's mean."""
        band, t, dt = self.band, self.t, self.dt
        means = (self.mean,) if base_mean is None else (self.mean, base_mean)
        I1, I2 = _mean_path_integrals(self.mean_forcings, means, t, dt, band.dim)
        if use_rk3:
            self.lam_h = tuple(integrating_factor(band, self._visc_half, I) for I in (I1, I2))
            self.lam = self.lam_h[0] * self.lam_h[1]
        else:
            self.lam = integrating_factor(band, self._visc_full, I1 + I2)
        self.mean_next = self._mean_at(dt)

    def stage(self, base=None):
        """The next RK3 stage, reading the advecting flow's evaluation `base`
        of the same stage."""
        t, dt, n = self.t, self.dt, self.terms
        if len(n) == 1:
            h, v = dt / 2.0, self.lam_h[0] * (self.coeffs + (dt / 2.0) * n[0])
        else:
            h, v = dt, self.lam * (self.coeffs - dt * n[0]) + 2.0 * dt * self.lam_h[1] * n[1]
        ev = self.rhs(v, self._mean_at(h), t + h, base)
        n.append(ev.rhs)
        return ev

    def finish(self):
        """Complete the step: RK3 from three stages, AB2 from one."""
        dt, n, lam = self.dt, self.terms, self.lam
        if len(n) == 3:
            new = lam * self.coeffs + (dt / 6.0) * (lam * n[0] + 4.0 * self.lam_h[1] * n[1] + n[2])
        else:
            new = lam * (self.coeffs + 1.5 * dt * n[0]) - 0.5 * dt * lam * self.prev_factor * self.prev_rhs
        self.prev_rhs, self.prev_factor = n[0], lam
        self.coeffs = zero_mode0(new)
        self.mean = self.mean_next
        # release the step's stage arrays before the next step's evaluations
        self.terms = self.lam = self.lam_h = self.mean_next = None

    def _mean_at(self, h):
        """The mean at t + h, by the exact mean ODE."""
        return mean_ode_step(self.mean, self.forcing, self.t, h)


# -- recording ----------------------------------------------------------------


_PARSEVAL = ("l2_sq", "h1_sq", "h2_sq", "h3_sq", "grad_sq")  # squared norms by Parseval


class _Recorder:
    """Dense per-step scalar series of a flow under `forcing`; a 2D flow's also
    include `gradv_l3`, from the recorder's own transform of its gradients."""

    def __init__(self, grid, forcing):
        self.grid = grid
        self.band = band = grid.band
        self.forcing = forcing
        keys = ("t", *_PARSEVAL, "forcing_inner", "fbar_l2_sq", "gradp_sq", "speed", "dudt_sq",
                "mean") + (("gradv_l3",) if grid.dim == 2 else ())
        self.data = {k: [] for k in keys}
        # the Parseval weights of the _PARSEVAL series on the band, stacked
        self._weights = np.stack([band.sobolev_multiplier(s) for s in range(4)] + [band.ksq])
        self._prev_coeffs = None
        # a 2D flow's gradient samples, for gradv_l3
        self._grads = np.empty((2, 2) + grid.shape) if grid.dim == 2 else None

    def record(self, t, coeffs, ev, dt):
        """Append the series at t from the state's band coefficients and its
        evaluation `ev`."""
        band = self.band
        d = self.data
        d["t"].append(t)
        for key, v in zip(_PARSEVAL, weighted_norm_sq(band, coeffs, self._weights).tolist()):
            d[key].append(v)
        # the state is zero outside the band, the forcing need not be
        d["forcing_inner"].append(0.0 if ev.fbar is None else inner_product(band, ev.fbar, coeffs))
        d["fbar_l2_sq"].append(self.forcing.bar_norm_sq(t))
        d["gradp_sq"].append(ev.gradp_sq)
        # the max speed of the mean-free advecting velocity, which the CFL check reads
        d["speed"].append(float(np.sqrt(np.max(sum(np.square(w) for w in ev.phys)))))
        d["mean"].append(np.array(ev.mean))
        if self._prev_coeffs is not None:
            diff = (coeffs - self._prev_coeffs) / dt
            d["dudt_sq"].append(float(weighted_norm_sq(band, diff, 1.0)))
        else:
            d["dudt_sq"].append(0.0)
        # no copy: `_Flow.finish` binds a new array and never writes to this one
        self._prev_coeffs = coeffs
        if band.dim == 2:
            d["gradv_l3"].append(grad_l3_norm(self.grid, to_samples(band, ev.dcoeffs, self._grads)))

    def finalize(self):
        """The series as arrays; a SolverAbort at the first non-finite value."""
        out = {k: np.array(v) for k, v in self.data.items()}
        for k, v in out.items():
            bad = np.flatnonzero(~np.isfinite(v.reshape(len(v), -1)).all(axis=1))
            if len(bad):
                raise SolverAbort(float(out["t"][bad[0]]), int(bad[0]), f"non-finite {k}")
        return out


# -- drivers ------------------------------------------------------------------


def _sample_plan(cfg, sample_times):
    """The steps at which states are stored: the first, the last and the step
    of each sample time, which must be a step time in [0, t_end]."""
    plan = {0, cfg.n_steps}
    for t in map(float, sample_times or ()):
        n = round(t / cfg.dt)
        if not 0 <= n <= cfg.n_steps or abs(n * cfg.dt - t) > 1e-9:
            raise ValueError(f"sample time {t!r} is not a step time in [0, t_end]")
        plan.add(n)
    return plan


def _check_cfl(t, dt, speed, grid, cfg):
    cfl = dt * speed * grid.N / grid.L
    if cfl > cfg.cfl_max:
        advisory = cfg.cfl_max * grid.L / (grid.N * speed)
        raise CFLViolation(t, cfl, cfg.cfl_max, advisory)


def _evolve(flows, cfg, sample_times):
    """Advance coupled flows in lockstep; returns one Trajectory per flow.

    Each flow after the first is advected by the one before it: its RHS
    reads that flow's evaluation at the same stage.  A step runs stage by
    stage, and each stage evaluates the flows in order.
    """
    plan = _sample_plan(cfg, sample_times)
    n_steps = cfg.n_steps
    rk3 = cfg.scheme == "rk3-imex"
    recs = [_Recorder(f.grid, f.forcing) for f in flows]
    states = [[] for _ in flows]
    for n in range(n_steps + 1):
        t = n * cfg.dt
        base = None
        for st, rec, out in zip(flows, recs, states):
            base = st.evaluate(t, base)
            rec.record(t, st.coeffs, base, cfg.dt)
            if n in plan:
                field = SpectralField(st.grid, extend(st.band, st.coeffs))
                out.append(FlowState(t, field, st.mean.copy()))
        if n == n_steps:
            break
        _check_cfl(t, cfg.dt, max(rec.data["speed"][-1] for rec in recs), flows[-1].grid, cfg)
        use_rk3 = rk3 or flows[0].prev_rhs is None
        base_mean = None
        for st in flows:
            st.start(use_rk3, base_mean)
            # Known defect: the next system's integrating factor reads this
            # system's mean at t + dt where _mean_path_integrals expects it at
            # t; under a constant mean force the pair drifts from the full
            # flow at first order in dt.
            base_mean = st.mean_next
        for _ in range(2 if use_rk3 else 0):
            base = None
            for st in flows:
                base = st.stage(base)
        for st in flows:
            st.finish()
            if not np.all(np.isfinite(st.coeffs.view(float))):
                raise SolverAbort(t + cfg.dt, n + 1, "non-finite spectral coefficients")
    return [Trajectory(cfg, out, rec.finalize()) for out, rec in zip(states, recs)]


def evolve_base_2d(state0: FlowState, forcing: Forcing, cfg: SolverConfig,
                   *, sample_times=None) -> Trajectory:
    """Advance the 2D base flow; the advecting velocity is the full one
    (mean-free part plus its exactly tracked mean)."""
    if state0.field.grid.dim != 2:
        raise ValueError("base flow must live on a 2D grid")
    return _evolve([_Flow(state0, forcing, cfg)], cfg, sample_times)[0]


def evolve_full_3d(state0: FlowState, forcing: Forcing, cfg: SolverConfig,
                   *, sample_times=None) -> Trajectory:
    if state0.field.grid.dim != 3:
        raise ValueError("full flow must live on a 3D grid")
    return _evolve([_Flow(state0, forcing, cfg)], cfg, sample_times)[0]


def evolve_pair(base_state0, base_forcing, u0: FlowState, g_forcing: Forcing,
                cfg: SolverConfig, *, sample_times=None) -> Trajectory:
    """Advance base flow and perturbation in lockstep; returns the
    perturbation trajectory with `.base` attached."""
    grid2 = base_state0.field.grid
    grid3 = u0.field.grid
    if grid2.dim != 2 or grid3.dim != 3:
        raise ValueError("pair expects a 2D base state and a 3D perturbation")
    if grid2.L != grid3.L or grid2.N != grid3.N:
        raise ValueError("base and perturbation grids must share L and N")
    flows = [_Flow(base_state0, base_forcing, cfg), _Flow(u0, g_forcing, cfg, base_forcing)]
    base, pert = _evolve(flows, cfg, sample_times)
    pert.base = base
    return pert


def taylor_green_state(grid: PeriodicGrid, amplitude=1.0) -> FlowState:
    """2D Taylor-Green velocity (sin x1 cos x2, -cos x1 sin x2) * amplitude."""
    if grid.dim != 2:
        raise ValueError("Taylor-Green preset is 2D")
    x1, x2 = grid.coords()
    a = 2.0 * np.pi / grid.L
    samples = amplitude * np.stack(
        [
            np.sin(a * x1) * np.cos(a * x2) * np.ones(grid.shape),
            -np.cos(a * x1) * np.sin(a * x2) * np.ones(grid.shape),
        ]
    )
    f = SpectralField.from_physical(grid, samples)
    return FlowState(t=0.0, field=f, mean=np.zeros(2))
