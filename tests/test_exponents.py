import dataclasses
import math
import struct
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    random_binary_channel,
    random_channel,
    random_degraded_binary_channel,
    z_constant_channel,
    z_copies_y_channel,
)
from skagree import (
    ChannelError,
    DiscreteBroadcastChannel,
    ExponentResult,
    OptimizerConfig,
    Pmf,
    RatePoint,
    degraded_capacity,
    entropy,
    is_degraded,
    joint_distribution,
    marginal_channel,
    maximize_over_inputs,
    optimized_exponents,
    positivity_thresholds,
    reliability_exponent,
    reliability_exponents,
    reliability_objective,
    secrecy_exponent,
    secrecy_exponents,
    secrecy_objective,
    strong_achievability_bound,
)
from skagree import exponents as expo
from skagree.capacity import golden_section_max
from skagree.exponents import (
    _EDGE_MARGIN,
    ALPHA_MIN,
    _reliability_critical_rate,
    _reliability_edge,
    _reliability_lanes_for,
    _reliability_objective_for,
    _reliability_result,
    _secrecy_critical_rates,
    _secrecy_edge,
    _secrecy_lanes_for,
    _secrecy_objective_for,
    _secrecy_result,
)

UNIFORM = Pmf.uniform(2)


def reliability_oracle(channel, inp, rho, rates):
    """Direct triple-sum re-derivation of the reliability objective."""
    pxy = marginal_channel(channel, "xy")
    total = 0.0
    for y in range(pxy.shape[2]):
        inner = 0.0
        for s in range(pxy.shape[0]):
            for x in range(pxy.shape[1]):
                inner += inp.probs[s] * pxy[s, x, y] ** (1.0 / (1.0 + rho))
        total += inner ** (1.0 + rho)
    return rho * (rates.r_phi - rates.r_m) - math.log2(total)


def secrecy_oracle(channel, inp, alpha, rates):
    pxz = marginal_channel(channel, "xz")
    pz = (inp.probs[:, None, None] * pxz).sum(axis=(0, 1))
    total = 0.0
    for s, x, z in product(*(range(k) for k in pxz.shape)):
        mass = inp.probs[s] * pxz[s, x, z]
        if mass > 0:
            total += mass * (pxz[s, x, z] / pz[z]) ** alpha
    return -alpha * (rates.r_sk + rates.r_phi - rates.r_m) - math.log2(total)


class TestRatePoint:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RatePoint(r_sk=-0.1, r_phi=0.0, r_m=0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            RatePoint(r_sk=math.nan, r_phi=0.0, r_m=0.0)

    def test_rejects_overflowing_sum(self):
        # the secrecy rate R_SK + R_phi - R_M would be inf
        with pytest.raises(ValueError, match="r_sk \\+ r_phi must be finite"):
            RatePoint(r_sk=1e308, r_phi=1e308, r_m=0.0)
        RatePoint(r_sk=1e308, r_phi=0.0, r_m=1e308)  # a finite sum is accepted


class TestReliabilityObjective:
    def test_zero_at_rho_zero(self):
        rng = np.random.default_rng(40)
        ch = random_binary_channel(rng)
        rates = RatePoint(0.1, 0.5, 0.2)
        assert reliability_objective(ch, UNIFORM, 0.0, rates) == pytest.approx(
            0.0, abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(41)
        ch = random_binary_channel(rng)
        inp = Pmf.bernoulli(0.3)
        rates = RatePoint(0.05, 0.8, 0.1)
        for rho in (0.1, 0.5, 0.99):
            assert reliability_objective(ch, inp, rho, rates) == pytest.approx(
                reliability_oracle(ch, inp, rho, rates), abs=1e-12)

    def test_domain(self):
        rng = np.random.default_rng(42)
        ch = random_binary_channel(rng)
        with pytest.raises(ValueError):
            reliability_objective(ch, UNIFORM, 1.5, RatePoint(0, 0, 0))

    def test_origin_slope_matches_threshold_gap(self):
        # d/drho at 0 equals (R_phi - R_M) - (H(X|Y,S) - I(S;Y))
        rng = np.random.default_rng(43)
        ch = random_binary_channel(rng)
        rates = RatePoint(0.0, 0.9, 0.2)
        h = 1e-5
        obj = _reliability_objective_for(ch, UNIFORM, rates)
        slope = (obj(h) - obj(-h)) / (2 * h)
        rel_thr, _ = positivity_thresholds(ch, UNIFORM)
        assert slope == pytest.approx((rates.r_phi - rates.r_m) - rel_thr, abs=1e-6)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=25)
    def test_concavity_second_differences(self, a, b, c):
        rng = np.random.default_rng(44)
        ch = random_binary_channel(rng)
        rates = RatePoint(0.0, 0.7, 0.1)
        rho = sorted({round(v, 6) for v in (0.1 + 0.8 * a, 0.1 + 0.8 * b,
                                            0.1 + 0.8 * c)})
        if len(rho) < 3:
            return
        f = [reliability_objective(ch, UNIFORM, r, rates) for r in rho]
        # chordal slope must be nonincreasing for a concave function
        s01 = (f[1] - f[0]) / (rho[1] - rho[0])
        s12 = (f[2] - f[1]) / (rho[2] - rho[1])
        assert s01 >= s12 - 1e-8


class TestSecrecyObjective:
    def test_matches_oracle(self):
        rng = np.random.default_rng(45)
        ch = random_binary_channel(rng)
        inp = Pmf.bernoulli(0.6)
        rates = RatePoint(0.1, 0.3, 0.05)
        for alpha in (1e-4, 0.3, 1.0):
            assert secrecy_objective(ch, inp, alpha, rates) == pytest.approx(
                secrecy_oracle(ch, inp, alpha, rates), abs=1e-12)

    def test_domain(self):
        rng = np.random.default_rng(46)
        ch = random_binary_channel(rng)
        with pytest.raises(ValueError):
            secrecy_objective(ch, UNIFORM, 0.0, RatePoint(0, 0, 0))

    def test_linear_when_eavesdropper_sees_nothing(self):
        # |X| = 1 and Z constant make the log term vanish identically, so
        # the objective is the line -alpha * (R_SK + R_phi - R_M)
        tr = np.zeros((2, 1, 2, 1))
        tr[0, 0, :, 0] = [0.8, 0.2]
        tr[1, 0, :, 0] = [0.3, 0.7]
        ch = DiscreteBroadcastChannel(tr, np.zeros(2))
        rates = RatePoint(r_sk=0.0, r_phi=0.0, r_m=0.3)
        for alpha in (0.25, 0.5, 1.0):
            assert secrecy_objective(ch, UNIFORM, alpha, rates) == pytest.approx(
                0.3 * alpha, abs=1e-12)
        res = secrecy_exponent(ch, UNIFORM, rates)
        assert res.value == pytest.approx(0.3, abs=1e-9)
        assert res.argmax == pytest.approx(1.0, abs=1e-9)

    def test_origin_slope_matches_threshold_gap(self):
        rng = np.random.default_rng(47)
        ch = random_binary_channel(rng)
        rates = RatePoint(0.2, 0.3, 0.1)
        h = 1e-5
        obj = _secrecy_objective_for(ch, UNIFORM, rates)
        slope = (obj(h) - obj(-h)) / (2 * h)
        _, sec_thr = positivity_thresholds(ch, UNIFORM)
        assert slope == pytest.approx(
            sec_thr - (rates.r_sk + rates.r_phi - rates.r_m), abs=1e-6)


class TestExponentSearch:
    def test_reliability_grid_oracle(self):
        rng = np.random.default_rng(48)
        ch = random_binary_channel(rng)
        rates = RatePoint(0.0, 1.2, 0.0)
        res = reliability_exponent(ch, UNIFORM, rates)
        grid = max(reliability_objective(ch, UNIFORM, i / 10000, rates)
                   for i in range(10001))
        assert res.value >= grid - 1e-10
        assert res.value == pytest.approx(max(grid, 0.0), abs=1e-7)

    def test_reliability_zero_below_threshold(self):
        rng = np.random.default_rng(49)
        ch = random_binary_channel(rng)
        rel_thr, _ = positivity_thresholds(ch, UNIFORM)
        rates = RatePoint(0.0, max(0.0, rel_thr - 0.05), 0.0)
        res = reliability_exponent(ch, UNIFORM, rates)
        assert res.value == 0.0
        assert res.argmax == 0.0

    def test_reliability_positive_above_threshold(self):
        rng = np.random.default_rng(50)
        ch = random_binary_channel(rng)
        rel_thr, _ = positivity_thresholds(ch, UNIFORM)
        res = reliability_exponent(ch, UNIFORM, RatePoint(0.0, rel_thr + 0.1, 0.0))
        assert res.value > 0.0

    def test_secrecy_grid_oracle(self):
        rng = np.random.default_rng(51)
        ch = random_binary_channel(rng)
        rates = RatePoint(0.01, 0.02, 0.0)
        res = secrecy_exponent(ch, UNIFORM, rates)
        grid = max(secrecy_objective(ch, UNIFORM, max(i / 10000, 1e-6), rates)
                   for i in range(10001))
        assert res.raw_value >= grid - 1e-10

    def test_secrecy_clamped_when_rate_too_high(self):
        rng = np.random.default_rng(52)
        ch = random_binary_channel(rng)
        _, sec_thr = positivity_thresholds(ch, UNIFORM)
        res = secrecy_exponent(ch, UNIFORM, RatePoint(sec_thr + 0.5, 0.0, 0.0))
        assert res.value == 0.0
        assert res.clamped
        assert res.raw_value < 0.0

    def test_clamped_is_read_off_raw_value(self):
        assert [f.name for f in dataclasses.fields(ExponentResult)] == [
            "value", "argmax", "raw_value"]
        assert ExponentResult(value=0.0, argmax=0.5, raw_value=-1e-300).clamped
        assert not ExponentResult(value=0.0, argmax=0.0, raw_value=0.0).clamped
        assert not ExponentResult(value=0.2, argmax=0.5, raw_value=0.2).clamped

    def test_secrecy_positive_below_threshold(self):
        rng = np.random.default_rng(53)
        ch = random_binary_channel(rng)
        _, sec_thr = positivity_thresholds(ch, UNIFORM)
        if sec_thr <= 0.05:
            pytest.skip("sampled channel has no secrecy margin")
        res = secrecy_exponent(ch, UNIFORM, RatePoint(sec_thr - 0.05, 0.0, 0.0))
        assert res.value > 0.0
        assert not res.clamped


class TestPositivityThresholds:
    def test_entropy_oracle(self):
        rng = np.random.default_rng(54)
        ch = random_binary_channel(rng)
        inp = Pmf.bernoulli(0.4)
        arr = joint_distribution(ch, inp).probs
        p_sxy, p_sxz = arr.sum(axis=3), arr.sum(axis=2)
        rel = ((entropy(p_sxy) - entropy(p_sxy.sum(axis=1)))
               - (entropy(arr.sum(axis=(1, 2, 3))) + entropy(p_sxy.sum(axis=(0, 1)))
                  - entropy(p_sxy.sum(axis=1))))
        sec = ((entropy(p_sxz) - entropy(p_sxz.sum(axis=1)))
               - (entropy(arr.sum(axis=(1, 2, 3))) + entropy(p_sxz.sum(axis=(0, 1)))
                  - entropy(p_sxz.sum(axis=1))))
        got = positivity_thresholds(ch, inp)
        assert got[0] == pytest.approx(rel, abs=1e-12)
        assert got[1] == pytest.approx(sec, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_loop_oracle_with_zeros(self, seed):
        # each threshold as E[log2 of its ratios] over an explicit (s,x,y,z)
        # loop: H(X|Y,S) - I(S;Y) = E[-log2 p(x|y,s) - log2 p(s,y)/(p(s)p(y))]
        rng = np.random.default_rng([62, seed])
        sizes = (3, 3, 4, 2)
        ch = random_channel(rng, sizes, True)
        p = rng.dirichlet(np.ones(3))
        if seed == 0:
            p = np.array([0.5, 0.0, 0.5])  # an unused input letter
        joint = p[:, None, None, None] * ch.transition
        p_s, p_y, p_z = np.zeros(3), np.zeros(4), np.zeros(2)
        p_sy, p_sz = np.zeros((3, 4)), np.zeros((3, 2))
        p_sxy, p_sxz = np.zeros((3, 3, 4)), np.zeros((3, 3, 2))
        cells = list(product(*map(range, sizes)))
        for s, x, y, z in cells:
            m = joint[s, x, y, z]
            p_s[s] += m
            p_y[y] += m
            p_z[z] += m
            p_sy[s, y] += m
            p_sz[s, z] += m
            p_sxy[s, x, y] += m
            p_sxz[s, x, z] += m
        rel = sec = 0.0
        for s, x, y, z in cells:
            m = joint[s, x, y, z]
            if m == 0:
                continue
            rel -= m * (math.log2(p_sxy[s, x, y] / p_sy[s, y])
                        + math.log2(p_sy[s, y] / (p_s[s] * p_y[y])))
            sec -= m * (math.log2(p_sxz[s, x, z] / p_sz[s, z])
                        + math.log2(p_sz[s, z] / (p_s[s] * p_z[z])))
        got = positivity_thresholds(ch, Pmf(p))
        assert got[0] == pytest.approx(rel, abs=1e-12)
        assert got[1] == pytest.approx(sec, abs=1e-12)

    def test_bits_equal_validated_entropy_form(self):
        # the thresholds skip entropy()'s validation of each marginal; their
        # bits must equal the validated form, kept here, on channels with
        # zero cells and inputs with an unused letter
        def validated(channel, inp):
            arr = joint_distribution(channel, inp).probs
            p_sxy, p_sxz = arr.sum(axis=3), arr.sum(axis=2)
            p_sy, p_sz = p_sxy.sum(axis=1), p_sxz.sum(axis=1)
            p_s = p_sy.sum(axis=1)
            h_s, h_sy, h_sz = entropy(p_s), entropy(p_sy), entropy(p_sz)
            i_sy = h_s + entropy(p_sy.sum(axis=0)) - h_sy
            i_sz = h_s + entropy(p_sz.sum(axis=0)) - h_sz
            return (entropy(p_sxy) - h_sy - i_sy, entropy(p_sxz) - h_sz - i_sz)

        rng = np.random.default_rng(57)
        for trial in range(40):
            s_size = 2 + trial % 2
            sizes = (s_size,) + tuple(rng.integers(2, 4, size=3))
            ch = random_channel(rng, sizes, True)
            p = rng.dirichlet(np.ones(s_size))
            if trial % 5 == 0:
                p[rng.integers(s_size)] = 0.0
                p /= p.sum()
            inp = Pmf(p)
            assert positivity_thresholds(ch, inp) == validated(ch, inp), trial

    def test_singleton_s(self):
        # with |S| = 1 the thresholds are plain conditional entropies
        rng = np.random.default_rng(55)
        tr = rng.dirichlet(np.ones(8)).reshape(1, 2, 2, 2)
        ch = DiscreteBroadcastChannel(tr, np.zeros(1))
        inp = Pmf.uniform(1)
        arr = joint_distribution(ch, inp).probs
        p_xy, p_xz = arr.sum(axis=(0, 3)), arr.sum(axis=(0, 2))
        rel, sec = positivity_thresholds(ch, inp)
        assert rel == pytest.approx(entropy(p_xy) - entropy(p_xy.sum(axis=0)),
                                    abs=1e-12)
        assert sec == pytest.approx(entropy(p_xz) - entropy(p_xz.sum(axis=0)),
                                    abs=1e-12)


class TestStrongAchievability:
    def test_blind_eavesdropper(self):
        rng = np.random.default_rng(56)
        ch = z_constant_channel(rng)
        inp = Pmf.bernoulli(0.3)
        res = strong_achievability_bound(ch, inp)
        arr = joint_distribution(ch, inp).probs
        from skagree import mutual_information
        p = arr.sum(axis=3).reshape(4, 2)
        assert res.value == pytest.approx(mutual_information(p), abs=1e-12)
        assert res.conditional_form == pytest.approx(res.value, abs=1e-9)

    def test_z_copies_y(self):
        rng = np.random.default_rng(57)
        res = strong_achievability_bound(z_copies_y_channel(rng), UNIFORM)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_conditional_form_only_when_degraded(self):
        rng = np.random.default_rng(58)
        res = strong_achievability_bound(random_binary_channel(rng), UNIFORM)
        assert res.conditional_form is None

    @pytest.mark.parametrize("seed", range(3))
    def test_identity_gap_is_a_channel_error(self, seed):
        # Z = Y, except that the (s,x,y) = (0,0,0) cell of mass 0.9e-9 sends
        # y=0 to z=1: is_degraded skips that cell, yet at p = (1, 0) the
        # difference form reads about -2.5e-8 against a conditional form of
        # a few 1e-9 at most
        pxy = np.random.default_rng(seed).dirichlet(np.ones(4), size=2).reshape(2, 2, 2)
        pxy[0, 0, 0] = 0.0
        pxy[0] *= (1.0 - 0.9e-9) / pxy[0].sum()
        tr = np.zeros((2, 2, 2, 2))
        for y in range(2):
            tr[:, :, y, y] = pxy[:, :, y]
        tr[0, 0, 0, 1] = 0.9e-9
        ch = DiscreteBroadcastChannel(tr, np.zeros(2))
        assert is_degraded(ch)
        with pytest.raises(ChannelError, match=r"difference form -2\.\d+e-08 vs "
                           r"conditional form \d.*DEGRADED_TOL = 1e-09"):
            strong_achievability_bound(ch, Pmf(np.array([1.0, 0.0])))

    def test_maximum_over_inputs_matches_capacity(self):
        rng = np.random.default_rng(59)
        cfg = OptimizerConfig(grid_step=0.02, refine_iters=80)
        for _ in range(3):
            ch = random_degraded_binary_channel(rng)
            cap = degraded_capacity(ch, config=cfg)
            best = max(
                strong_achievability_bound(
                    ch, Pmf.bernoulli(b)).value
                for b in np.linspace(0, 1, 101))
            assert cap.capacity >= best - 1e-6


class TestOptimizedExponents:
    def test_beats_coarse_grid(self):
        rng = np.random.default_rng(60)
        ch = random_degraded_binary_channel(rng)
        rates = RatePoint(0.01, 1.0, 0.0)
        cfg = OptimizerConfig(grid_step=0.05, refine_iters=60)
        (e_res, e_inp), (f_res, f_inp) = optimized_exponents(ch, rates, cfg)
        for b in np.linspace(0, 1, 21):
            inp = Pmf.bernoulli(b)
            assert e_res.value >= reliability_exponent(ch, inp, rates).value - 1e-9
            assert f_res.value >= secrecy_exponent(ch, inp, rates).value - 1e-9
        assert isinstance(e_inp, Pmf) and isinstance(f_inp, Pmf)


def result_bits(res):
    return struct.pack("3d?", res.value, res.argmax, res.raw_value, res.clamped)


class TestExponentLanes:
    """The lane exponents equal a per-row loop of the scalar ones, bit for bit."""

    @staticmethod
    def lanes_and_loop(channel, inputs, rates):
        e = reliability_exponents(channel, inputs, rates)
        f = secrecy_exponents(channel, inputs, rates)
        assert list(map(result_bits, e)) == [
            result_bits(reliability_exponent(channel, i, r)) for i, r in zip(inputs, rates)]
        assert list(map(result_bits, f)) == [
            result_bits(secrecy_exponent(channel, i, r)) for i, r in zip(inputs, rates)]
        return e, f

    def test_bernoulli_surface(self):
        # the exponents command's grid: rate points times Bernoulli inputs,
        # beta 0 and 1 included and one beta listed twice
        ch = random_degraded_binary_channel(np.random.default_rng(70))
        grid = [(RatePoint(rsk, rphi, rm), Pmf.bernoulli(b))
                for rsk in (0.0, 0.05, 0.4) for rphi in (0.0, 0.3, 1.0, 3.0)
                for rm in (0.0, 0.2) for b in (0.0, 0.1, 0.5, 0.5, 1.0)]
        e, f = self.lanes_and_loop(ch, [i for _, i in grid], [r for r, _ in grid])
        assert any(r.argmax == 1.0 and r.value > 0 for r in e)      # rho* = 1
        assert any(r.argmax == 1.0 and r.value > 0 for r in f)      # alpha* = 1
        assert any(r.value == 0.0 and not r.clamped for r in e)     # analytic zeros
        assert any(0.0 < r.argmax < 1.0 for r in e)
        assert any(r.clamped for r in f)

    @pytest.mark.parametrize("sizes", [(3, 2, 2, 2), (2, 3, 3, 3), (3, 3, 3, 3),
                                       (2, 1, 3, 2), (1, 2, 2, 3)])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_random_channels(self, sizes, zeros):
        rng = np.random.default_rng(71 + sizes[0] * 10 + sizes[1])
        ch = random_channel(rng, sizes, zeros)
        k = sizes[0]
        probs = list(rng.dirichlet(np.ones(k), size=6)) + list(np.eye(k))
        inputs = [Pmf(probs[i]) for i in rng.integers(len(probs), size=40)]
        rates = [RatePoint(float(rng.choice([0.0, rng.random()])), float(3 * rng.random()),
                           float(rng.choice([0.0, 0.5 * rng.random()]))) for _ in inputs]
        self.lanes_and_loop(ch, inputs, rates)

    def test_one_and_no_pairs(self):
        ch = random_degraded_binary_channel(np.random.default_rng(72))
        rates = RatePoint(0.0, 1.0, 0.0)
        assert reliability_exponents(ch, [], []) == secrecy_exponents(ch, [], []) == []
        assert reliability_exponents(ch, [UNIFORM], [rates]) == \
            [reliability_exponent(ch, UNIFORM, rates)]
        assert secrecy_exponents(ch, [UNIFORM], [rates]) == \
            [secrecy_exponent(ch, UNIFORM, rates)]

    def test_input_size_must_match_channel(self):
        ch = random_degraded_binary_channel(np.random.default_rng(73))
        inputs = [UNIFORM, Pmf.uniform(3)]
        rates = [RatePoint(0.0, 1.0, 0.0)] * 2
        for lanes in (reliability_exponents, secrecy_exponents):
            with pytest.raises(ChannelError):
                lanes(ch, inputs, rates)

    @pytest.mark.parametrize("seed", range(4))
    def test_lane_objectives_at_special_exponents(self, seed):
        # rho = 1 puts np.power at exponents 0.5 and 2, alpha = 0.5 at 0.5,
        # where a scalar exponent takes numpy's sqrt/square path
        rng = np.random.default_rng(80 + seed)
        ch = random_channel(rng, (2, 3, 3, 3), zeros=seed % 2 == 1)
        inputs = [Pmf(p) for p in rng.dirichlet(np.ones(2), size=40)]
        which = np.arange(len(inputs))
        rates = [RatePoint(0.1, float(rng.random()), 0.0) for _ in inputs]
        rel = _reliability_lanes_for(ch, inputs, which, [r.r_phi - r.r_m for r in rates])
        sec = _secrecy_lanes_for(ch, inputs, which,
                                 [r.r_sk + r.r_phi - r.r_m for r in rates])
        for F, scalar, points in ((rel, _reliability_objective_for, (0.0, 0.3, 0.5, 1.0)),
                                  (sec, _secrecy_objective_for, (ALPHA_MIN, 0.5, 1.0))):
            for x in points:
                got = F(which, np.full(len(inputs), x))
                want = [scalar(ch, i, r)(x) for i, r in zip(inputs, rates)]
                assert struct.pack("%dd" % len(got), *got) == \
                    struct.pack("%dd" % len(want), *want), x


class TestOptimizedExponentsLanes:
    @pytest.mark.parametrize("s_size,step", [(2, 0.02), (2, 0.05), (3, 0.1)])
    def test_equal_to_per_point_objectives(self, s_size, step):
        # optimized_exponents before lanes: every grid point a scalar search
        rng = np.random.default_rng(90 + s_size)
        ch = random_channel(rng, (s_size, 2, 3, 2), zeros=False)
        rates = RatePoint(0.02, 0.6, 0.0)
        cfg = OptimizerConfig(grid_step=step, refine_iters=80)

        def per_point(exponent):
            return lambda ps: [exponent(ch, Pmf(p), rates).value
                               for p in ps]

        want = []
        for exponent in (reliability_exponent, secrecy_exponent):
            p, _ = maximize_over_inputs(per_point(exponent), s_size, ch.cost,
                                        math.inf, cfg)
            want.append(result_bits(exponent(ch, Pmf(p), rates))
                        + p.tobytes())
        (e, e_in), (f, f_in) = optimized_exponents(ch, rates, cfg)
        assert [result_bits(e) + e_in.probs.tobytes(),
                result_bits(f) + f_in.probs.tobytes()] == want

    @pytest.mark.parametrize("s_size", [1, 2, 3])
    def test_no_exponent_call_after_the_maximizations(self, monkeypatch, s_size):
        # the results come from the objective's own calls, not a re-run
        ch = random_channel(np.random.default_rng(95 + s_size), (s_size, 2, 3, 2),
                            zeros=False)
        events = []
        maximize = expo.maximize_over_inputs

        def spy_maximize(*args, **kwargs):
            found = maximize(*args, **kwargs)
            events.append("maximized")
            return found

        monkeypatch.setattr(expo, "maximize_over_inputs", spy_maximize)
        for name in ("reliability_exponent", "reliability_exponents",
                     "secrecy_exponent", "secrecy_exponents"):
            def spy(*args, _fn=getattr(expo, name), _name=name, **kwargs):
                events.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(expo, name, spy)
        cfg = OptimizerConfig(grid_step=0.1, refine_iters=40)
        optimized_exponents(ch, RatePoint(0.02, 0.6, 0.0), cfg)
        first = events.index("maximized")
        assert events.count("maximized") == 2 and events[-1] == "maximized"
        assert set(events[:first]) >= {"reliability_exponents"}
        assert set(events[first + 1:-1]) >= {"secrecy_exponents"}
        assert not {"secrecy_exponent", "secrecy_exponents"} & set(events[:first])


def edge_channels(seed, count):
    """(channel, inputs) on random |S| = 2 and 3 channels, degraded (Z a
    random degradation of Y) and general, some with zero entries; the
    inputs are the simplex's vertices (beta = 0 and beta = 1 at |S| = 2),
    the uniform input and a random one."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        sizes = (2 + i % 2,) + tuple(int(v) for v in rng.integers(2, 4, 3))
        if i % 4 < 2:
            S, X, Y, Z = sizes
            pxy = rng.dirichlet(np.ones(X * Y), size=S).reshape(S, X, Y)
            pzy = rng.dirichlet(np.ones(Z), size=Y)
            ch = DiscreteBroadcastChannel(pxy[:, :, :, None] * pzy[None, None],
                                          np.zeros(S))
        else:
            ch = random_channel(rng, sizes, zeros=i % 3 == 0)
        k = sizes[0]
        yield ch, [Pmf(p) for p in np.eye(k)] + [Pmf.uniform(k),
                                                 Pmf(rng.dirichlet(np.ones(k)))]


def close_to_search(got, want):
    """A decided result against the forced search's: the argmax within 1e-9
    and the value within 1e-14, relative to it when it exceeds 1."""
    assert abs(got.argmax - want.argmax) <= 1e-9, (got, want)
    for a, b in ((got.value, want.value), (got.raw_value, want.raw_value)):
        assert abs(a - b) <= 1e-14 * max(1.0, abs(b)), (got, want)


class TestEdgeRule:
    """A search is skipped only where the objective peaks on its domain
    edge by the margin; the decided result is then the forced search's up
    to the rounding that steers the search's last steps."""

    # offsets of the rate from a critical rate, in bits: far, near, just
    # past the margin and inside it, on both sides
    OFFSETS = (-0.3, -0.01, -2 * _EDGE_MARGIN, -0.5 * _EDGE_MARGIN,
               0.5 * _EDGE_MARGIN, 2 * _EDGE_MARGIN, 0.01, 0.3)

    def test_reliability_edge_against_forced_search(self):
        counts = {"zero": 0, "edge": 0, "searched": 0, "in_margin": 0}
        for ch, inputs in edge_channels(140, 16):
            for inp in inputs:
                threshold = positivity_thresholds(ch, inp)[0]
                critical = _reliability_critical_rate(ch, inp)
                assert critical >= threshold - 1e-12
                for base in (threshold, critical):
                    for offset in self.OFFSETS:
                        slope = base + offset
                        rates = RatePoint(0.0, max(slope, 0.0) + 0.25, 0.25 - min(slope, 0.0))
                        slope = rates.r_phi - rates.r_m
                        got = reliability_exponent(ch, inp, rates)
                        if slope - threshold <= 0.0:
                            counts["zero"] += 1
                            continue
                        edge = _reliability_edge(slope, critical)
                        search = golden_section_max(
                            _reliability_objective_for(ch, inp, rates), 0.0, 1.0)
                        want = _reliability_result(*search)
                        if slope - critical < _EDGE_MARGIN:
                            assert edge is None
                            assert result_bits(got) == result_bits(want)
                            counts["searched"] += 1
                            counts["in_margin"] += slope - critical > 0.0
                        else:
                            assert edge == 1.0 and got.argmax == 1.0
                            close_to_search(got, want)
                            counts["edge"] += 1
        assert min(counts.values()) >= 20, counts

    def test_secrecy_edges_against_forced_search(self):
        counts = {"one": 0, "alpha_min": 0, "searched": 0, "in_margin": 0}
        for ch, inputs in edge_channels(141, 16):
            for inp in inputs:
                g_one, g_min = _secrecy_critical_rates(ch, inp)
                assert g_one <= g_min + 1e-12
                for base in (g_one, g_min):
                    for offset in self.OFFSETS:
                        rate = base + offset
                        rates = RatePoint(max(rate, 0.0), 0.0, -min(rate, 0.0))
                        rate = rates.r_sk + rates.r_phi - rates.r_m
                        got = secrecy_exponent(ch, inp, rates)
                        edge = _secrecy_edge(rate, (g_one, g_min))
                        want = _secrecy_result(*golden_section_max(
                            _secrecy_objective_for(ch, inp, rates), ALPHA_MIN, 1.0))
                        if g_one - rate >= _EDGE_MARGIN:
                            assert edge == 1.0 == got.argmax
                            close_to_search(got, want)
                            counts["one"] += 1
                        elif rate - g_min >= _EDGE_MARGIN:
                            assert edge == ALPHA_MIN == got.argmax
                            close_to_search(got, want)
                            counts["alpha_min"] += 1
                        else:
                            assert edge is None
                            assert result_bits(got) == result_bits(want)
                            counts["searched"] += 1
                            counts["in_margin"] += (0.0 < g_one - rate
                                                    or 0.0 < rate - g_min)
        assert min(counts.values()) >= 20, counts

    def test_critical_rates_are_the_edge_slopes(self):
        # an explicit-loop oracle of each slope formula, then central
        # differences of the objectives at rate 0 (at ALPHA_MIN with a
        # step that stays inside (0, 1]) for the formulas themselves
        h = 1e-6
        for ch, inputs in edge_channels(142, 8):
            for inp in inputs:
                pxy, pxz = marginal_channel(ch, "xy"), marginal_channel(ch, "xz")
                S, X, Y = pxy.shape
                num = den = 0.0
                for y in range(Y):
                    i = sum(inp.probs[s] * math.sqrt(pxy[s, x, y])
                            for s in range(S) for x in range(X))
                    lift = sum(inp.probs[s] * math.sqrt(pxy[s, x, y]) * math.log2(pxy[s, x, y])
                               for s in range(S) for x in range(X) if pxy[s, x, y] > 0)
                    if i > 0:
                        num += i * i * math.log2(i) - 0.5 * i * lift
                        den += i * i
                assert _reliability_critical_rate(ch, inp) == pytest.approx(num / den, abs=1e-12)
                pz = (inp.probs[:, None, None] * pxz).sum(axis=(0, 1))
                terms = [(inp.probs[s] * pxz[s, x, z], pxz[s, x, z] / pz[z])
                         for s, x, z in product(*(range(k) for k in pxz.shape))
                         if inp.probs[s] * pxz[s, x, z] > 0]
                for alpha, g in zip((1.0, ALPHA_MIN), _secrecy_critical_rates(ch, inp)):
                    u = sum(m * r**alpha for m, r in terms)
                    assert g == pytest.approx(
                        -sum(m * r**alpha * math.log2(r) for m, r in terms) / u, abs=1e-12)
                rel = _reliability_objective_for(ch, inp, RatePoint(0.0, 0.0, 0.0))
                assert -(rel(1.0 + h) - rel(1.0 - h)) / (2 * h) == pytest.approx(
                    _reliability_critical_rate(ch, inp), abs=1e-7)
                sec = _secrecy_objective_for(ch, inp, RatePoint(0.0, 0.0, 0.0))
                g_one, g_min = _secrecy_critical_rates(ch, inp)
                assert (sec(1.0 + h) - sec(1.0 - h)) / (2 * h) == pytest.approx(
                    g_one, abs=1e-7)
                d = 1e-8
                assert (sec(ALPHA_MIN + d) - sec(ALPHA_MIN - d)) / (2 * d) == \
                    pytest.approx(g_min, abs=1e-5)

    @pytest.mark.parametrize("kind", ["reliability", "secrecy"])
    def test_chord_concavity(self, kind):
        # the rule reads a maximum off one edge slope, so it needs the
        # objective concave: above every chord, up to rounding
        rng = np.random.default_rng(143)
        lo = 0.0 if kind == "reliability" else ALPHA_MIN
        objective_for = (_reliability_objective_for if kind == "reliability"
                         else _secrecy_objective_for)
        for ch, inputs in edge_channels(144, 12):
            for inp in inputs:
                f = objective_for(ch, inp, RatePoint(0.0, 0.0, 0.0))
                for a, b, t in zip(rng.uniform(lo, 1.0, 20), rng.uniform(lo, 1.0, 20),
                                   rng.random(20)):
                    mid = t * a + (1.0 - t) * b
                    assert f(mid) >= t * f(a) + (1.0 - t) * f(b) - 1e-12
