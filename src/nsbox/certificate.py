"""Certificate chains: explicit bounds on the base flow and the perturbation.

Everything here is arithmetic on schedule data (windowed forcing integrals,
initial norms, mean drifts) and the constants module; no simulation is
involved.  All bounds are one-sided: a simulated quantity is expected to sit
below its chain value whenever the hypothesis flags hold.

Non-finite chain entries (e.g. an unbounded mean drift) are legitimate
findings, carried as float('inf'), never raised.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from nsbox.constants import InterpolationConstants, PoincareConstants

__all__ = [
    "t_star",
    "gamma_star",
    "AbarChain",
    "AChain",
    "BChain",
    "abar_chain",
    "a_chain",
    "b_chain",
    "smallness_check",
    "certificate_report",
    "verdict", "reduce_verdicts",
]


def t_star(pc: PoincareConstants) -> float:
    """Minimum window length for the step-by-step argument: 2 ln 2 / c_s1."""
    return 2.0 * math.log(2.0) / pc.c_s1


def gamma_star(ic: InterpolationConstants, pc: PoincareConstants) -> float:
    """Largest admissible smallness level: c_1 - c_3 g*^4 = c_1/2."""
    return (pc.c_1 / (2.0 * ic.c_3)) ** 0.25


def verdict(values, bound, *, carry=None, strict=False) -> dict:
    """The one-sided check max(values) <= bound (< when strict), and against
    `carry`, the bound carried over from the previous window, when given.
    The one null rule: `ok` and `ok_carry` are None (not evaluated) when there
    are no values or the bound is not finite.  Every `ok` of a report is
    written here."""
    def ok(b):
        if len(values) == 0 or not math.isfinite(b):
            return None
        return bool(max(values) < b if strict else max(values) <= b)

    out = {"values": values, "bound": bound, "ok": ok(bound)}
    if carry is not None:
        out.update(bound_carry=carry, ok_carry=ok(carry))
    return out


def reduce_verdicts(oks) -> tuple:
    """(every verdict passes, every verdict was evaluated) for a list of
    `ok`s: a null verdict passes but is not evaluated."""
    return all(ok is not False for ok in oks), all(ok is not None for ok in oks)


def _require_inputs(T, **nonneg):
    """A positive window length T and nonnegative data."""
    if not T > 0:
        raise ValueError(f"window length T must be positive, got {T}")
    for name, v in nonneg.items():
        if v < 0:
            raise ValueError(f"{name} must be nonnegative, got {v}")


def _over(x: float, frac: float) -> float:
    """x / frac for frac = 1 - e^{-c T}, which a tiny T rounds to 0: 0/0 is 0, x/0 is inf."""
    return 0.0 if x == 0 else x / frac if frac > 0 else math.inf


def _exp(x: float) -> float:
    """exp with overflow mapped to inf (non-finite chains are findings)."""
    if x > 709.0:
        return math.inf
    return math.exp(x)


@dataclass
class AbarChain:
    """H1-level admissibility data for the base flow."""

    abar1_sq: float
    abar2_sq: float
    abar3_sq: float
    abar4_sq: float
    t_star: float
    T: float
    member: bool


def abar_chain(schedule, vbar0_h1_sq: float, T: float, pc, ic, *,
               initial_mean=(0.0, 0.0)) -> AbarChain:
    """Admissibility chain from the H1 forcing schedule.

    abar1_sq = sup_k of the windowed H1 forcing integral,
    abar2_sq = H1 norm squared of the initial mean-free base flow,
    abar3_sq = c_1 (abar1+abar2) abar2 + (abar1+1) exp(c_2 (abar1+abar2)),
    abar4_sq = squared sup of the mean-drift path.
    Membership requires T >= t_star and T > abar3_sq.
    """
    _require_inputs(T, vbar0_h1_sq=vbar0_h1_sq)
    a1 = schedule.sup_window_bar_sq(T, "h1")
    if not math.isfinite(a1):
        raise ValueError("forcing schedule is not window-integrable in H1")
    a2 = vbar0_h1_sq
    a3 = pc.c_1 * (a1 + a2) * a2 + (a1 + 1.0) * _exp(ic.c_2 * (a1 + a2))
    a4 = schedule.drift_sup_abs(np.asarray(initial_mean, float)) ** 2
    ts = t_star(pc)
    return AbarChain(
        abar1_sq=a1,
        abar2_sq=a2,
        abar3_sq=a3,
        abar4_sq=a4,
        t_star=ts,
        T=T,
        member=bool(T >= ts and T > a3),
    )


@dataclass
class AChain:
    """Window-uniform bounds on the base flow, kinetic energy up to
    second derivatives."""

    a1_sq: float
    a2_sq: float
    a3_sq: float
    a4_sq: float
    a5_sq: float
    a6_sq: float
    a7_sq: float
    a8_sq: float
    a9: float
    a10_sq: float
    a11_sq: float
    a12_sq: float
    a13_sq: float
    a14_sq: float
    T: float
    hypotheses: dict = field(default_factory=dict)

    def h21_reference(self) -> float:
        """Reference magnitude a8(1 + a8) + a8 * a9^2 for the space-time
        second-order norm; reported in envelope units (the front constant
        is monitored empirically, never asserted)."""
        if not math.isfinite(self.a9):
            return math.inf
        return self.a8_sq * (1.0 + self.a8_sq) + self.a8_sq * self.a9**2


def a_chain(schedule, initial_norms: dict, T: float, pc, ic, *,
            initial_mean=(0.0, 0.0)) -> AChain:
    """Base-flow chain by literal substitution.

    With f the windowed L2 forcing integral sup and decay rate c_s1:

      a1_sq  = f / c_s1
      a2_sq  = a1_sq / (1 - e^{-c_s1 T}) + ||v0||^2          (window starts)
      a3_sq  = a1_sq + a2_sq                                 (energy window)
      a4_sq  = c_s1 e^{c_s2 a3_sq} a1_sq
      a5_sq  = a4_sq / (1 - e^{-c_s1 T / 2}) + ||grad v0||^2
      a6_sq  = a4_sq + a5_sq                                 (gradient sup)
      a7_sq  = c_s2 (a6_sq + 1) a3_sq + a5_sq
      a8_sq  = a3_sq + a7_sq                                 (H1 sup + H2 window)
      a9     = sup_t |mean drift|                            (may be inf)
      a10_sq = sup_k windowed L2 integral of the forcing gradient
      a11_sq = c_s3 e^{c_s4 a8_sq} a10_sq
      a12_sq = 2 a11_sq + ||grad2 v0||^2
      a13_sq = a11_sq + a12_sq e^{c_s4 a8_sq}                (grad2 sup)
      a14_sq = c_s3 (a13_sq a8_sq + a10_sq) + a12_sq         (H2 sup + H3 window)

    Hypothesis flags (window large enough) are reported; a violation does
    not stop the computation.
    """
    for key in ("l2_sq", "grad_sq", "grad2_sq"):
        if key not in initial_norms:
            raise ValueError(f"initial_norms missing {key!r}")
    _require_inputs(T, **{k: float(v) for k, v in initial_norms.items()})

    a1 = schedule.sup_window_bar_sq(T, "l2") / pc.c_s1
    # 1 - e^{-x} as -expm1(-x), which stays accurate for small x (and 0 once x underflows)
    half = -math.expm1(-pc.c_s1 * T / 2.0)
    a2 = _over(a1, -math.expm1(-pc.c_s1 * T)) + initial_norms["l2_sq"]
    a3 = a1 + a2
    a4 = pc.c_s1 * _exp(ic.c_s2 * a3) * a1 if a1 > 0 else 0.0
    a5 = _over(a4, half) + initial_norms["grad_sq"]
    a6 = a4 + a5
    a7 = ic.c_s2 * (a6 + 1.0) * a3 + a5
    a8 = a3 + a7
    a9 = schedule.drift_sup_abs(np.asarray(initial_mean, float))
    a10 = schedule.sup_window_bar_sq(T, "grad")
    a11 = ic.c_s3 * _exp(ic.c_s4 * a8) * a10 if a10 > 0 else 0.0
    a12 = 2.0 * a11 + initial_norms["grad2_sq"]
    a13 = a11 + a12 * _exp(ic.c_s4 * a8) if a12 > 0 else a11
    a14 = ic.c_s3 * (a13 * a8 + a10) + a12

    hyp = {
        "gradient_window": T >= 2.0 * ic.c_s2 * a3 / pc.c_s1,
        "grad2_window": -pc.c_s1 * T / 2.0 + ic.c_s4 * a8 <= 0.0,
        "grad2_halving": half >= 0.5,
        "drift_finite": math.isfinite(a9),
    }
    return AChain(
        a1_sq=a1, a2_sq=a2, a3_sq=a3, a4_sq=a4, a5_sq=a5, a6_sq=a6, a7_sq=a7,
        a8_sq=a8, a9=a9, a10_sq=a10, a11_sq=a11, a12_sq=a12, a13_sq=a13,
        a14_sq=a14, T=T, hypotheses=hyp,
    )


@dataclass
class BChain:
    """Perturbation energy bounds and smallness data."""

    b1_sq: float
    b2_sq: float
    b3_sq: float
    b4_sq: float
    b5_sq: float
    b5_sq_carry: float
    b6_mean_drift: float
    b7_sq: float
    gamma: float
    gamma_star: float
    epsilon: float
    T: float
    hypotheses: dict = field(default_factory=dict)
    FLAGS = ("energy_window_plain", "energy_window_weighted", "energy_halving",
             "gamma_le_gamma_star", "drift_finite")  # the hypotheses' keys


def b_chain(g_schedule, u0_norms: dict, achain: AChain, pc, ic, T: float, *,
            gamma: float = 0.0, epsilon: float = 0.5,
            u0_mean=(0.0, 0.0, 0.0)) -> BChain:
    """Perturbation chain by literal substitution.

      b1_sq = sup_k windowed L2 integral of the mean-free difference force
      b2_sq = T b6^2, bounding the sup_k windowed integral of the squared drift
      b3_sq = (c_2 b1_sq + c_2 a3_sq b2_sq) e^{c_2 a8_sq}
      b4_sq = b3_sq + e^{c_2 a8_sq} (2 b3_sq + ||u0||^2)     (sup of energy)
      b5_sq = c_2 a8_sq b4_sq + c_2 a3_sq b2_sq + c_2 b1_sq + b3_sq
      b5_sq_carry = b5_sq + 2 b3_sq + ||u0||^2   (window-start carry variant)
      b6_mean_drift = sup_t |mean drift|          (may be inf)
      b7_sq = [(T+1) g^2 + b6^2][a8(1+a8+a9^2) + a9^2 + (T+1) g^2] + g^2
              in envelope units (front constants monitored, not asserted)

    The b5_sq_carry variant also accounts for the window-start value carried
    by the iteration; both are reported.
    """
    if achain is None:
        raise ValueError("b_chain requires the base-flow chain")
    if "l2_sq" not in u0_norms:
        raise ValueError("u0_norms must provide 'l2_sq'")
    _require_inputs(T, gamma=gamma, u0_l2_sq=u0_norms["l2_sq"])
    m0 = np.asarray(u0_mean, float)
    a3, a8, a9 = achain.a3_sq, achain.a8_sq, achain.a9

    b1 = g_schedule.sup_window_bar_sq(T, "l2")
    b2 = g_schedule.sup_window_drift_sq(T, m0)
    e_c2a8 = _exp(ic.c_2 * a8)
    pref = ic.c_2 * b1 + ic.c_2 * a3 * b2
    if not math.isfinite(b2):
        b3 = math.inf
    else:
        b3 = pref * e_c2a8 if pref > 0 else 0.0
    u0l2 = u0_norms["l2_sq"]
    if not math.isfinite(b3):
        b4 = math.inf
    else:
        carry = 2.0 * b3 + u0l2
        b4 = b3 + (e_c2a8 * carry if carry > 0 else 0.0)
    if not math.isfinite(b4):
        b5 = math.inf
    elif a8 * b4 + a3 * b2 + b1 + b3 == 0.0:
        b5 = 0.0
    else:
        b5 = ic.c_2 * a8 * b4 + ic.c_2 * a3 * b2 + ic.c_2 * b1 + b3
    b5_carry = b5 + 2.0 * b3 + u0l2 if math.isfinite(b5) else math.inf
    b6 = g_schedule.drift_sup_abs(m0)
    gs = gamma_star(ic, pc)
    if math.isfinite(b6) and math.isfinite(a9):
        tg = (T + 1.0) * gamma**2
        b7 = (tg + b6**2) * (a8 * (1.0 + a8 + a9**2) + a9**2 + tg) + gamma**2
    else:
        b7 = math.inf
    hyp = dict(zip(BChain.FLAGS, (
        -pc.c_1 * T / 2.0 + a8 <= 0.0,
        -pc.c_1 * T / 2.0 + ic.c_2 * a8 <= 0.0,
        1.0 - math.exp(-pc.c_1 * T / 2.0) >= 0.5,
        0.0 < gamma <= gs,
        math.isfinite(b6),
    )))
    return BChain(
        b1_sq=b1, b2_sq=b2, b3_sq=b3, b4_sq=b4, b5_sq=b5, b5_sq_carry=b5_carry,
        b6_mean_drift=b6, b7_sq=b7, gamma=gamma, gamma_star=gs, epsilon=epsilon,
        T=T, hypotheses=hyp,
    )


def smallness_check(pc, ic, bchain: BChain, g_schedule, u0_norms: dict, *, u0_mean,
                    gradv_l3_series=None, times=None) -> dict:
    """Evaluate the two smallness hypotheses behind the barrier argument, at
    the level gamma and the fraction epsilon of the b-chain.

    G^2(t) = c_3 ||grad v(t)||_L3^2 (b5_sq + |drift(t)|^2) + c_4 ||gbar(t)||^2
    must stay below c_1 gamma / 4 (checked only along a simulated series);
    the forcing-size function, the max of its window and pointwise addends
    (all closed forms), must stay below epsilon * gamma.  Verdicts are
    reported, never raised.
    """
    m0 = np.asarray(u0_mean, float)
    g2 = []
    if gradv_l3_series is not None and times is not None:
        b5 = bchain.b5_sq
        g2 = np.empty(len(times))
        for i, t in enumerate(times):
            drift = g_schedule.drift(t, m0)
            gbar_sq = g_schedule.bar_norm_sq(t, "l2")
            g2[i] = ic.c_3 * gradv_l3_series[i] ** 2 * (b5 + float(np.sum(drift**2))) + ic.c_4 * gbar_sq
    addends = {
        "window_force": bchain.b1_sq,
        "initial_energy": u0_norms["l2_sq"],
        "window_drift": bchain.b2_sq,
        "pointwise_drift": bchain.b6_mean_drift**2 if math.isfinite(bchain.b6_mean_drift) else math.inf,
        "pointwise_force": g_schedule.sup_bar_norm_sq("l2"),
    }
    return {
        "g2": verdict([float(np.max(g2))] if len(g2) else [], pc.c_1 * bchain.gamma / 4.0),
        "gbar": verdict([max(addends.values())], bchain.epsilon * bchain.gamma),
        "gbar_addends": addends,
        "g2_series": g2,
    }


def certificate_report(pc: PoincareConstants, ic: InterpolationConstants, abar: AbarChain,
                       achain: AChain, bchain: BChain | None = None,
                       smallness: dict | None = None, inputs: dict | None = None) -> dict:
    """Assemble the JSON-ready certificate document (schema-stable keys) from
    the constants the chains used.  `gamma_hypothesis` restates the b-chain's
    pert.gamma_le_gamma_star verdict; `inputs`, when given, records what the
    chains were computed from."""
    doc = {
        "schema": "nsbox-certificate/1",
        "poincare": {"nu": pc.nu, "L": pc.L, "kappa": pc.kappa, "c_s1": pc.c_s1, "c_1": pc.c_1},
        "constants": asdict(ic),
        "t_star": abar.t_star,
        "gamma_star": gamma_star(ic, pc),
        "T": abar.T,
        "abar_chain": asdict(abar),
        "a_chain": {**asdict(achain), "h21_reference": achain.h21_reference()},
    }
    if inputs is not None:
        doc["inputs"] = inputs
    hypotheses = {"membership": abar.member}
    hypotheses.update({f"base.{k}": v for k, v in achain.hypotheses.items()})
    # a chain or a simulation that did not run leaves its flags null
    pert = dict.fromkeys(BChain.FLAGS) if bchain is None else bchain.hypotheses
    hypotheses.update({f"pert.{k}": v for k, v in pert.items()})
    if bchain is not None:
        doc["b_chain"] = asdict(bchain)
        doc["gamma_hypothesis"] = "ok" if bchain.hypotheses["gamma_le_gamma_star"] else "violated"
    if smallness is not None:
        doc["smallness"] = {k: v for k, v in smallness.items() if k != "g2_series"}
    hypotheses["g2_budget"] = smallness["g2"]["ok"] if smallness else None
    hypotheses["gbar_budget"] = smallness["gbar"]["ok"] if smallness else None
    doc["hypotheses"] = hypotheses
    # every flag but the drift bounds' gates the barrier argument
    doc["barrier_hypotheses_ok"], doc["barrier_hypotheses_evaluated"] = reduce_verdicts(
        [v for k, v in hypotheses.items() if not k.endswith("drift_finite")])
    return doc
