"""Reliability and secrecy exponents for the random-binning key protocol.

The reliability exponent governs the decay of the key-mismatch probability;
the secrecy exponent governs the decay of the key leakage toward the
eavesdropper.  Both are single-parameter maximizations of concave objectives
(over rho in [0,1] and alpha in (0,1] respectively), solved by golden-section
search.  Input-distribution optimization reuses the simplex-grid machinery
from the capacity module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capacity import OptimizerConfig, golden_section_max, maximize_over_inputs
from .channels import (
    DiscreteBroadcastChannel,
    InputDistribution,
    is_degraded,
    joint_distribution,
    marginal_channel,
)
from .probability import Pmf, entropy

ALPHA_MIN = 1e-6


@dataclass(frozen=True)
class RatePoint:
    """Key rate, public-message rate, and codeword-index rate, in bits/use."""

    r_sk: float
    r_phi: float
    r_m: float

    def __post_init__(self):
        for v, name in ((self.r_sk, "r_sk"), (self.r_phi, "r_phi"), (self.r_m, "r_m")):
            if not math.isfinite(v) or v < 0:
                raise ValueError("%s must be finite and >= 0, got %r" % (name, v))


@dataclass(frozen=True)
class ExponentResult:
    value: float           # clamped to >= 0
    argmax: float          # maximizing rho or alpha
    clamped: bool          # True when value = max(0, raw_value) was applied
    raw_value: float       # unclamped supremum (diagnostic)


def _reliability_objective_for(channel, inp, rates):
    """rho -> the reliability objective at a fixed input, without the domain
    guard; the input's tensors are built once, not per rho."""
    weighted = inp.probs[:, None, None]
    pxy = marginal_channel(channel, "xy")  # (S,X,Y)
    slope = rates.r_phi - rates.r_m

    def f(rho):
        e = 1.0 / (1.0 + rho)
        inner = (weighted * np.power(pxy, e)).sum(axis=(0, 1))  # over y
        total = math.fsum(np.power(inner, 1.0 + rho).tolist())
        return rho * slope - math.log2(total)

    return f


def reliability_objective(channel: DiscreteBroadcastChannel, inp: InputDistribution,
                          rho: float, rates: RatePoint) -> float:
    """rho*(R_phi - R_M) - log2 sum_y [sum_{s,x} p(s) p(x,y|s)^(1/(1+rho))]^(1+rho)."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0,1], got %r" % rho)
    return _reliability_objective_for(channel, inp, rates)(rho)


def _secrecy_objective_for(channel, inp, rates):
    """alpha -> the secrecy objective at a fixed input, without the domain
    guard; p(s,x,z), the ratio p(x,z|s)/p(z) and its support are built once,
    not per alpha."""
    pxz = marginal_channel(channel, "xz")  # (S,X,Z)
    joint = inp.probs[:, None, None] * pxz  # p(s,x,z)
    pz = joint.sum(axis=(0, 1))
    ratio = np.divide(pxz, pz[None, None, :],
                      out=np.zeros_like(pxz), where=pz[None, None, :] > 0)
    support = joint > 0
    joint, ratio = joint[support], ratio[support]
    rate = rates.r_sk + rates.r_phi - rates.r_m

    def f(alpha):
        total = math.fsum((joint * np.power(ratio, alpha)).tolist())
        return -alpha * rate - math.log2(total)

    return f


def secrecy_objective(channel: DiscreteBroadcastChannel, inp: InputDistribution,
                      alpha: float, rates: RatePoint) -> float:
    """-alpha*(R_SK + R_phi - R_M) - log2 sum_{x,z,s} p(x,z,s) [p(x,z|s)/p(z)]^alpha."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0,1], got %r" % alpha)
    return _secrecy_objective_for(channel, inp, rates)(alpha)


def reliability_exponent(channel: DiscreteBroadcastChannel, inp: InputDistribution,
                         rates: RatePoint) -> ExponentResult:
    """max over rho in [0,1] of the reliability objective.

    The objective is concave and exactly 0 at rho=0, so the maximum is
    automatically nonnegative, and it is exactly 0 whenever the slope at the
    origin, (R_phi - R_M) minus the reliability threshold, is nonpositive.
    That case is decided analytically rather than numerically: near rho=0 the
    log term underflows to 0 before the linear term does, so a search could
    otherwise report a spurious positive sliver.
    """
    rel_threshold, _ = positivity_thresholds(channel, inp)
    if rates.r_phi - rates.r_m - rel_threshold <= 0.0:
        return ExponentResult(value=0.0, argmax=0.0, clamped=False, raw_value=0.0)
    rho, val = golden_section_max(
        _reliability_objective_for(channel, inp, rates), 0.0, 1.0)
    if val <= 0.0:
        return ExponentResult(value=0.0, argmax=0.0, clamped=val < 0.0, raw_value=val)
    return ExponentResult(value=val, argmax=rho, clamped=False, raw_value=val)


def secrecy_exponent(channel: DiscreteBroadcastChannel, inp: InputDistribution,
                     rates: RatePoint) -> ExponentResult:
    """sup over alpha in (0,1] of the secrecy objective, searched on
    [ALPHA_MIN, 1]; reports both the raw supremum and the clamped max(0,.)."""
    alpha, val = golden_section_max(
        _secrecy_objective_for(channel, inp, rates), ALPHA_MIN, 1.0)
    clamped = val < 0.0
    return ExponentResult(value=max(0.0, val), argmax=alpha, clamped=clamped,
                          raw_value=val)


def positivity_thresholds(channel: DiscreteBroadcastChannel, inp: InputDistribution):
    """(H(X|Y,S) - I(S;Y), H(X|Z,S) - I(S;Z)).

    The reliability exponent is positive iff R_phi - R_M exceeds the first;
    the (clamped) secrecy exponent is positive iff R_SK + R_phi - R_M is
    below the second.
    """
    arr = joint_distribution(channel, inp).probs  # (s,x,y,z)
    p_sxy = arr.sum(axis=3)
    p_sxz = arr.sum(axis=2)
    p_sy = p_sxy.sum(axis=1)
    p_sz = p_sxz.sum(axis=1)
    p_s = p_sy.sum(axis=1)
    p_y = p_sy.sum(axis=0)
    p_z = p_sz.sum(axis=0)
    h_x_given_ys = entropy(p_sxy) - entropy(p_sy)
    h_x_given_zs = entropy(p_sxz) - entropy(p_sz)
    i_sy = entropy(p_s) + entropy(p_y) - entropy(p_sy)
    i_sz = entropy(p_s) + entropy(p_z) - entropy(p_sz)
    return h_x_given_ys - i_sy, h_x_given_zs - i_sz


@dataclass(frozen=True)
class StrongAchievability:
    value: float                      # I(X,S;Y) - I(X,S;Z)
    conditional_form: Optional[float]  # I(X,S;Y|Z) when the channel is degraded


def strong_achievability_bound(channel: DiscreteBroadcastChannel,
                               inp: InputDistribution) -> StrongAchievability:
    """Largest strongly-achievable key rate at this input: I(X,S;Y)-I(X,S;Z).

    On degraded channels the conditional form I(X,S;Y|Z) is computed as an
    independent path and must agree within 1e-9.
    """
    from .capacity import _grouped_cmi  # shared joint/CMI plumbing

    arr = joint_distribution(channel, inp).probs
    value = _grouped_cmi(arr, (0, 1), (2,), ()) - _grouped_cmi(arr, (0, 1), (3,), ())
    cond = None
    if is_degraded(channel):
        cond = _grouped_cmi(arr, (0, 1), (2,), (3,))
        if abs(cond - value) > 1e-9:
            raise RuntimeError(
                "degraded-channel identity violated: difference form %.12g vs "
                "conditional form %.12g" % (value, cond))
    return StrongAchievability(value=value, conditional_form=cond)


def optimized_exponents(channel: DiscreteBroadcastChannel, rates: RatePoint,
                        config: OptimizerConfig = OptimizerConfig(grid_step=1e-2)):
    """Maximize E_o and F_o separately over p(s) (simplex grid + refinement).

    Returns ((E_result, E_input), (F_result, F_input)); the two maximizing
    inputs generally differ.
    """
    k = channel.alphabet_sizes[0]

    def e_obj(ps):
        return [reliability_exponent(channel, InputDistribution(Pmf(p)), rates).value
                for p in ps]

    def f_obj(ps):
        return [secrecy_exponent(channel, InputDistribution(Pmf(p)), rates).value
                for p in ps]

    p_e, _ = maximize_over_inputs(e_obj, k, channel.cost, math.inf, config)
    p_f, _ = maximize_over_inputs(f_obj, k, channel.cost, math.inf, config)
    e_inp = InputDistribution(Pmf(p_e))
    f_inp = InputDistribution(Pmf(p_f))
    return ((reliability_exponent(channel, e_inp, rates), e_inp.pmf),
            (secrecy_exponent(channel, f_inp, rates), f_inp.pmf))


def region_membership(channel: DiscreteBroadcastChannel, inp: InputDistribution,
                      rates: RatePoint, e: float, f: float) -> bool:
    """Is the exponent pair (e, f) inside the achievable region at this
    input and rate point?"""
    if e < 0 or f < 0:
        raise ValueError("exponent targets must be >= 0")
    e_o = reliability_exponent(channel, inp, rates).value
    f_o = secrecy_exponent(channel, inp, rates).value
    return e <= e_o and f <= f_o
