"""Reliability and secrecy exponents for the random-binning key protocol.

The reliability exponent governs the decay of the key-mismatch probability;
the secrecy exponent governs the decay of the key leakage toward the
eavesdropper.  Both are single-parameter maximizations of concave objectives
(over rho in [0,1] and alpha in (0,1] respectively).  Input-distribution
optimization reuses the simplex-grid machinery from the capacity module.

A maximum on an edge of the domain is decided from the objective's slope
there, in closed form, with no search.  E is 0 at rho* = 0 when R_phi - R_M
is at most the reliability threshold, and its objective at rho* = 1 when
R_phi - R_M is at least the critical rate (`_reliability_critical_rate`)
plus _EDGE_MARGIN = 1e-6.  F is its objective at alpha* = 1 or ALPHA_MIN
when R_SK + R_phi - R_M lies that margin beyond the critical rates of
`_secrecy_critical_rates`.  Only the rates between the threshold and the
critical rate, margin included, are searched, by golden-section search.  A
decided result differs from the searched one only where the search would
stop a few ulps short of the edge: by at most about 1e-12 in rho* or alpha*
and 1e-15 in the value on the benchmark surfaces.

Many independent searches, such as the rows of an exponent surface or the
points of an input grid block, run as lanes of `golden_section_lanes`: one
objective call per step evaluates every active lane's pending point, and the
rate-free tensors, positivity thresholds and critical rates are built once
per distinct input.  The rows decided at an edge take one objective call
between them and enter no search.  The lane objectives give the scalar
closures' values bit for bit.  numpy's power takes a sqrt, square or
reciprocal path for a scalar exponent of 0.5, 2 or -1, which an array of
exponents does not, so a lane whose exponent is one of those is evaluated
with the scalar call.  A single
search, such as each of the input refinement's one-row calls, keeps the
scalar closure, which is cheaper at one lane.

Both evaluators stay: each is the faster one at its own lane count, with
the same bits.  Per lane on a degraded 2x2x2x2 channel, away from the
fast-path exponents (2-vCPU Xeon, Python 3.11, numpy 2.4, best of 7), the
reliability lane evaluator takes 28.7 us at one lane against 8.1 us for the
scalar closure, and 1.0 against 5.4 us at 54 lanes; the secrecy one takes
14.0 against 2.3 us, and 1.1 against 2.8 us.  So the lane count selects the
path, and neither can be deleted.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import (
    OptimizerConfig,
    golden_section_lanes,
    golden_section_max,
    maximize_over_inputs,
)
from .channels import (
    DiscreteBroadcastChannel,
    _input_probs,
    joint_distribution,
    marginal_channel,
)
from .probability import Pmf, _entropy_rows

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
    raw_value: float       # unclamped supremum (diagnostic)

    @property
    def clamped(self) -> bool:
        """True when value = max(0, raw_value) cut a negative supremum."""
        return self.raw_value < 0.0


# np.power special-cases these scalar exponents (sqrt, square, reciprocal),
# and its results there can differ in the last bit from the general power
# that an array of exponents gets.  A lane at such an exponent is evaluated
# with the scalar call, so lanes and scalar closures agree bit for bit.
_POWER_FAST_PATHS = frozenset((0.5, 2.0, -1.0))


def _fast_path_positions(*exponents) -> list:
    """Positions at which any of the equally long exponent arrays holds one
    of _POWER_FAST_PATHS.  A set lookup per float: at a few dozen lanes
    this takes a fraction of the time of a numpy comparison."""
    columns = [x.tolist() for x in exponents]
    if _POWER_FAST_PATHS.isdisjoint(itertools.chain(*columns)):
        return []
    return [j for j, row in enumerate(zip(*columns))
            if not _POWER_FAST_PATHS.isdisjoint(row)]


def _log2_fsums(rows) -> np.ndarray:
    """log2 of each row's fsum, with math.log2 as the scalar objectives use."""
    return np.fromiter(map(math.log2, map(math.fsum, rows)), dtype=float, count=len(rows))


def _distinct_inputs(channel, inputs):
    """(the distinct inputs in first-seen order, each input's index among
    them as an int array)."""
    rows, which = {}, []
    for inp in inputs:
        key = _input_probs(channel, inp).tobytes()
        which.append(rows.setdefault(key, (len(rows), inp))[0])
    return [inp for _, inp in rows.values()], np.array(which, dtype=np.intp)


def _reliability_value(pxy, weighted, slope, rho):
    e = 1.0 / (1.0 + rho)
    inner = np.add.reduce(weighted * np.power(pxy, e), axis=(0, 1))  # over y
    total = math.fsum(np.power(inner, 1.0 + rho).tolist())
    return rho * slope - math.log2(total)


def _reliability_objective_for(channel, inp, rates):
    """rho -> the reliability objective at a fixed input, without the domain
    guard; the input's tensors are built once, not per rho."""
    pxy = marginal_channel(channel, "xy")  # (S,X,Y)
    return functools.partial(_reliability_value, pxy,
                             _input_probs(channel, inp)[:, None, None],
                             rates.r_phi - rates.r_m)


def _reliability_lanes_for(channel, inputs, which, slopes):
    """F(lanes, rhos) for `golden_section_lanes`: lane l's reliability
    objective at input inputs[which[l]] and slope R_phi - R_M slopes[l],
    equal to what `_reliability_objective_for` gives."""
    pxy = marginal_channel(channel, "xy")  # (S,X,Y)
    weighted = np.array([inp.probs for inp in inputs])[:, :, None, None]  # (D,S,1,1)

    slopes = np.array(slopes, dtype=float)

    def F(lanes, rhos):
        e, power = 1.0 / (1.0 + rhos), 1.0 + rhos
        d = which[lanes]
        inner = (weighted[d] * np.power(pxy, e[:, None, None, None])).sum(axis=(1, 2))
        terms = np.power(inner, power[:, None]).tolist()
        values = (rhos * slopes[lanes] - _log2_fsums(terms)).tolist()
        for j in _fast_path_positions(e, power):
            values[j] = _reliability_value(pxy, weighted[d[j]], slopes[lanes[j]].item(),
                                           rhos[j].item())
        return values

    return F


def reliability_objective(channel: DiscreteBroadcastChannel, inp: Pmf,
                          rho: float, rates: RatePoint) -> float:
    """rho*(R_phi - R_M) - log2 sum_y [sum_{s,x} p(s) p(x,y|s)^(1/(1+rho))]^(1+rho)."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0,1], got %r" % rho)
    return _reliability_objective_for(channel, inp, rates)(rho)


def _secrecy_tensors(pxz, probs):
    """p(s,x,z) and the ratio p(x,z|s)/p(z), both as an (S,X,Z) array, and
    the support p(s,x,z) > 0."""
    joint = probs[:, None, None] * pxz  # p(s,x,z)
    pz = joint.sum(axis=(0, 1))
    ratio = np.divide(pxz, pz[None, None, :],
                      out=np.zeros_like(pxz), where=pz[None, None, :] > 0)
    return joint, ratio, joint > 0


def _secrecy_value(joint, ratio, rate, alpha):
    total = math.fsum((joint * np.power(ratio, alpha)).tolist())
    return -alpha * rate - math.log2(total)


def _secrecy_objective_for(channel, inp, rates):
    """alpha -> the secrecy objective at a fixed input, without the domain
    guard; p(s,x,z), the ratio p(x,z|s)/p(z) and its support are built once,
    not per alpha."""
    joint, ratio, support = _secrecy_tensors(marginal_channel(channel, "xz"),
                                             _input_probs(channel, inp))
    return functools.partial(_secrecy_value, joint[support], ratio[support],
                             rates.r_sk + rates.r_phi - rates.r_m)


def _secrecy_lanes_for(channel, inputs, which, rates):
    """F(lanes, alphas) for `golden_section_lanes`: lane l's secrecy
    objective at input inputs[which[l]] and rate R_SK + R_phi - R_M rates[l],
    equal to what `_secrecy_objective_for` gives.  Each input's terms are
    padded to all (s,x,z) with joint 0 and ratio 1 off its support; the
    padding adds exact zeros to the fsum."""
    pxz = marginal_channel(channel, "xz")  # (S,X,Z)
    tensors = [_secrecy_tensors(pxz, inp.probs) for inp in inputs]
    on_support = [(joint[support], ratio[support]) for joint, ratio, support in tensors]
    joints = np.array([np.where(s, j, 0.0).ravel() for j, _, s in tensors])
    ratios = np.array([np.where(s, r, 1.0).ravel() for _, r, s in tensors])

    rates = np.array(rates, dtype=float)

    def F(lanes, alphas):
        d = which[lanes]
        terms = (joints[d] * np.power(ratios[d], alphas[:, None])).tolist()
        values = (-alphas * rates[lanes] - _log2_fsums(terms)).tolist()
        for j in _fast_path_positions(alphas):
            values[j] = _secrecy_value(*on_support[d[j]], rates[lanes[j]].item(),
                                       alphas[j].item())
        return values

    return F


def secrecy_objective(channel: DiscreteBroadcastChannel, inp: Pmf,
                      alpha: float, rates: RatePoint) -> float:
    """-alpha*(R_SK + R_phi - R_M) - log2 sum_{x,z,s} p(x,z,s) [p(x,z|s)/p(z)]^alpha."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0,1], got %r" % alpha)
    return _secrecy_objective_for(channel, inp, rates)(alpha)


# A search is skipped when the objective's slope at an edge of its domain
# points outward by at least this many bits per unit of rho or alpha (n
# times this for binning_sim's bounds).  The objective is concave, so its
# maximum is then at that edge; a search would end within about 1e-12 of
# it, as values that differ by less than their rounding steer its last
# steps.  A slope inside the margin is searched.
_EDGE_MARGIN = 1e-6


def _reliability_critical_rate(channel: DiscreteBroadcastChannel, inp: Pmf) -> float:
    """R_cr = d/drho log2 T(rho) at rho = 1, where T(rho) = sum_y
    [sum_{s,x} p(s) p(x,y|s)^(1/(1+rho))]^(1+rho) is the log term of the
    reliability objective.  With i_y = sum_{s,x} p(s) sqrt(p(x,y|s)) and
    l_y = sum_{s,x} p(s) sqrt(p(x,y|s)) log2 p(x,y|s), it is
    sum_y (i_y^2 log2 i_y - i_y l_y / 2) / sum_y i_y^2.

    log2 T is convex in rho and its slope at rho = 0 is the reliability
    threshold, so R_cr is at least the threshold, and the objective's slope
    at rho = 1 is (R_phi - R_M) - R_cr."""
    pxy = marginal_channel(channel, "xy")  # (S,X,Y)
    root = _input_probs(channel, inp)[:, None, None] * np.sqrt(pxy)
    log_p = np.log2(pxy, out=np.zeros_like(pxy), where=pxy > 0.0)
    inner = np.add.reduce(root, axis=(0, 1))  # i_y
    lifted = np.add.reduce(root * log_p, axis=(0, 1))  # l_y
    on = inner > 0.0
    i, l = inner[on], lifted[on]
    return (math.fsum((i * i * np.log2(i) - 0.5 * i * l).tolist())
            / math.fsum((i * i).tolist()))


def _secrecy_critical_rates(channel: DiscreteBroadcastChannel, inp: Pmf):
    """(G(1), G(ALPHA_MIN)) with G(alpha) = -d/dalpha log2 U(alpha), where
    U(alpha) = sum p(s,x,z) r^alpha, r = p(x,z|s)/p(z), is the log term of
    the secrecy objective: G(alpha) = -sum p(s,x,z) r^alpha log2 r / U(alpha).

    The objective's slope at alpha is G(alpha) - (R_SK + R_phi - R_M).
    log2 U is convex, so G falls with alpha, from the secrecy threshold
    at alpha = 0."""
    joint, ratio, support = _secrecy_tensors(marginal_channel(channel, "xz"),
                                             _input_probs(channel, inp))
    joint, ratio = joint[support], ratio[support]
    log_r = np.log2(ratio)

    def g(alpha):
        w = joint * np.power(ratio, alpha)
        return -math.fsum((w * log_r).tolist()) / math.fsum(w.tolist())

    return g(1.0), g(ALPHA_MIN)


def _reliability_edge(slope: float, critical: float):
    """1.0 when the reliability objective at slope R_phi - R_M = slope
    peaks at rho = 1 by the margin (its slope there, slope - critical, is at
    least _EDGE_MARGIN), else None: search."""
    return 1.0 if slope - critical >= _EDGE_MARGIN else None


def _secrecy_edge(rate: float, critical):
    """1.0 or ALPHA_MIN when the secrecy objective at R_SK + R_phi - R_M =
    rate peaks there by the margin, given critical = (G(1), G(ALPHA_MIN)),
    else None: search."""
    g_one, g_min = critical
    if g_one - rate >= _EDGE_MARGIN:
        return 1.0
    if rate - g_min >= _EDGE_MARGIN:
        return ALPHA_MIN
    return None


def _edge_or_search(objective, edge, a: float, b: float):
    """(edge, objective(edge)), as a search reports a point, or when edge
    is None the golden-section search of objective on [a, b]."""
    if edge is None:
        return golden_section_max(objective, a, b)
    return edge, objective(edge)


def _lane_maxima(F, edges, bracket) -> list:
    """Per lane, (edges[l], F's value there) or, when edges[l] is None, the
    golden-section search on bracket: lane for lane what `_edge_or_search`
    gives with that lane's scalar objective.  The decided lanes take one F
    call; only the others enter `golden_section_lanes`."""
    results = [None] * len(edges)
    decided = [lane for lane, x in enumerate(edges) if x is not None]
    if decided:
        xs = [edges[lane] for lane in decided]
        values = F(np.array(decided, dtype=np.intp), np.array(xs, dtype=float))
        for lane, x, v in zip(decided, xs, values):
            results[lane] = (x, v)
    searched = np.array([lane for lane, x in enumerate(edges) if x is None],
                        dtype=np.intp)
    found = golden_section_lanes(lambda lanes, xs: F(searched[lanes], xs),
                                 [bracket] * len(searched))
    for lane, result in zip(searched.tolist(), found):
        results[lane] = result
    return results


def _reliability_result(rho, val):
    if val <= 0.0:
        return ExponentResult(value=0.0, argmax=0.0, raw_value=val)
    return ExponentResult(value=val, argmax=rho, raw_value=val)


_RELIABILITY_ZERO = ExponentResult(value=0.0, argmax=0.0, raw_value=0.0)


def reliability_exponent(channel: DiscreteBroadcastChannel, inp: Pmf,
                         rates: RatePoint) -> ExponentResult:
    """max over rho in [0,1] of the reliability objective.

    The objective is concave and exactly 0 at rho=0, so the maximum is
    automatically nonnegative, and it is exactly 0 whenever the slope at the
    origin, (R_phi - R_M) minus the reliability threshold, is nonpositive.
    That case is decided analytically rather than numerically: near rho=0 the
    log term underflows to 0 before the linear term does, so a search could
    otherwise report a spurious positive sliver.  When the slope at rho=1,
    (R_phi - R_M) minus the critical rate, is at least _EDGE_MARGIN, the
    maximum is the objective at rho* = 1, again with no search.
    """
    rel_threshold, _ = positivity_thresholds(channel, inp)
    slope = rates.r_phi - rates.r_m
    if slope - rel_threshold <= 0.0:
        return _RELIABILITY_ZERO
    return _reliability_result(*_edge_or_search(
        _reliability_objective_for(channel, inp, rates),
        _reliability_edge(slope, _reliability_critical_rate(channel, inp)), 0.0, 1.0))


def reliability_exponents(channel: DiscreteBroadcastChannel, inputs, rates) -> list:
    """`reliability_exponent` at each (input, rate point) pair of two equally
    long sequences, result for result, with the searches run in lockstep
    lanes.  The thresholds, critical rates and tensors are built once per
    distinct input.  A single pair takes the scalar path, which is cheaper
    at one lane."""
    if len(inputs) <= 1:
        return [reliability_exponent(channel, inp, r) for inp, r in zip(inputs, rates)]
    distinct, which = _distinct_inputs(channel, inputs)
    thresholds = [positivity_thresholds(channel, inp)[0] for inp in distinct]
    critical = [_reliability_critical_rate(channel, inp) for inp in distinct]
    slopes = [r.r_phi - r.r_m for r in rates]
    results = [_RELIABILITY_ZERO] * len(inputs)
    live = [i for i, (d, slope) in enumerate(zip(which.tolist(), slopes))
            if not slope - thresholds[d] <= 0.0]
    F = _reliability_lanes_for(channel, distinct, which[live], [slopes[i] for i in live])
    edges = [_reliability_edge(slopes[i], critical[which[i]]) for i in live]
    for i, (rho, val) in zip(live, _lane_maxima(F, edges, (0.0, 1.0))):
        results[i] = _reliability_result(rho, val)
    return results


def _secrecy_result(alpha, val):
    return ExponentResult(value=max(0.0, val), argmax=alpha, raw_value=val)


def secrecy_exponent(channel: DiscreteBroadcastChannel, inp: Pmf,
                     rates: RatePoint) -> ExponentResult:
    """sup over alpha in (0,1] of the secrecy objective, searched on
    [ALPHA_MIN, 1]; reports both the raw supremum and the clamped max(0,.).
    When the objective's slope at alpha = 1 is at least _EDGE_MARGIN, or at
    ALPHA_MIN at most -_EDGE_MARGIN (`_secrecy_critical_rates`), the
    supremum is the objective at that edge, with no search."""
    edge = _secrecy_edge(rates.r_sk + rates.r_phi - rates.r_m,
                         _secrecy_critical_rates(channel, inp))
    return _secrecy_result(*_edge_or_search(
        _secrecy_objective_for(channel, inp, rates), edge, ALPHA_MIN, 1.0))


def secrecy_exponents(channel: DiscreteBroadcastChannel, inputs, rates) -> list:
    """`secrecy_exponent` at each (input, rate point) pair, result for
    result, with the searches run in lockstep lanes (see
    `reliability_exponents`)."""
    if len(inputs) <= 1:
        return [secrecy_exponent(channel, inp, r) for inp, r in zip(inputs, rates)]
    distinct, which = _distinct_inputs(channel, inputs)
    critical = [_secrecy_critical_rates(channel, inp) for inp in distinct]
    sums = [r.r_sk + r.r_phi - r.r_m for r in rates]
    F = _secrecy_lanes_for(channel, distinct, which, sums)
    edges = [_secrecy_edge(rate, critical[d]) for rate, d in zip(sums, which.tolist())]
    return [_secrecy_result(alpha, val)
            for alpha, val in _lane_maxima(F, edges, (ALPHA_MIN, 1.0))]


def positivity_thresholds(channel: DiscreteBroadcastChannel, inp: Pmf):
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

    def h(m):
        # the marginals of a validated joint need no validation of their own
        return _entropy_rows(m.reshape(1, -1))[0]

    h_s, h_sy, h_sz = h(p_s), h(p_sy), h(p_sz)
    h_x_given_ys = h(p_sxy) - h_sy
    h_x_given_zs = h(p_sxz) - h_sz
    i_sy = h_s + h(p_y) - h_sy
    i_sz = h_s + h(p_z) - h_sz
    return h_x_given_ys - i_sy, h_x_given_zs - i_sz


def optimized_exponents(channel: DiscreteBroadcastChannel, rates: RatePoint,
                        config: OptimizerConfig = OptimizerConfig(grid_step=1e-2)):
    """Maximize E_o and F_o separately over p(s) (simplex grid + refinement).

    Returns ((E_result, E_input), (F_result, F_input)); the two maximizing
    inputs generally differ.
    """
    k = channel.alphabet_sizes[0]

    def block(exponents):
        """A block objective for maximize_over_inputs: the grid's multi-row
        blocks run as lanes, the refinement's one-row calls as scalars."""
        def objective(ps):
            inputs = [Pmf(p) for p in ps]
            return [r.value for r in exponents(channel, inputs, [rates] * len(inputs))]
        return objective

    e_obj, f_obj = block(reliability_exponents), block(secrecy_exponents)
    p_e, _ = maximize_over_inputs(e_obj, k, channel.cost, math.inf, config)
    p_f, _ = maximize_over_inputs(f_obj, k, channel.cost, math.inf, config)
    e_inp, f_inp = Pmf(p_e), Pmf(p_f)
    return ((reliability_exponent(channel, e_inp, rates), e_inp),
            (secrecy_exponent(channel, f_inp, rates), f_inp))
