"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (echoed in the terminal summary)
before asserting, so the full verdict table survives a partial failure.
"""

import math

import numpy as np

import conftest
from conftest import random_binary_channel, random_degraded_binary_channel
from skagree import (
    BinaryOnOffParams,
    DiscreteBroadcastChannel,
    GaussianInterferenceParams,
    OptimizerConfig,
    Pmf,
    RatePoint,
    binary_onoff_optimize,
    binary_onoff_rate,
    build_binary_onoff,
    degraded_capacity,
    ensemble_average,
    ensemble_error_bound,
    ensemble_leakage_bound,
    gaussian_capacity,
    generate_code,
    marginal_channel,
    maximize_over_inputs,
    mlmap_decode,
    optimized_exponents,
    positivity_thresholds,
    rate_split,
    reliability_exponent,
    reliability_objective,
    secrecy_exponent,
    secrecy_objective,
    strong_achievability_bound,
    upper_bound,
)
from skagree.binning_sim import index_sequence, sequence_index
from skagree.exponents import _reliability_objective_for, _secrecy_objective_for

REFERENCE_PARAMS = BinaryOnOffParams(q=0.5, q_tilde=0.8, delta=0.1, delta3=0.2)
UNIFORM = Pmf.uniform(2)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = "criterion %2d %-38s %s%s" % (
        num, name, "PASS" if ok else "FAIL", "  (%s)" % detail if detail else "")
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_binary_onoff_optimum():
    beta_star, _ = binary_onoff_optimize(REFERENCE_PARAMS)
    ok = 0.57 <= beta_star <= 0.61
    _report(1, "binary on-off optimum beta*", ok, "beta*=%.6f" % beta_star)


def test_criterion_02_binary_onoff_structure():
    betas = np.linspace(0.0, 1.0, 1001)
    vals = [binary_onoff_rate(REFERENCE_PARAMS, float(b)) for b in betas]
    r_ch = np.array([v[1] for v in vals])
    r_src = np.array([v[2] for v in vals])
    dd_src = np.abs(np.diff(r_src, 2)).max()
    dd_ch = np.diff(r_ch, 2).max()
    ok = dd_src <= 1e-8 and dd_ch <= 1e-8
    _report(2, "binary on-off curve structure", ok,
            "max|d2 R_src|=%.2e, max d2 R_ch=%.2e" % (dd_src, dd_ch))


def test_criterion_03_gaussian_sweep_shape():
    def cap_at(power):
        return gaussian_capacity(GaussianInterferenceParams(
            power=power, nu1=1.0, nu2=1.0, nu3=2.0, sigma1=1.0, sigma2=1.0,
            sigma3=1.0, rho12=0.8, rho13=0.3))

    grid_db = np.linspace(-10.0, 20.0, 61)
    powers = 10.0 ** (grid_db / 10.0)
    res = [cap_at(p) for p in powers]
    c_sk = np.array([r.capacity for r in res])
    nondecreasing = bool(np.all(np.diff(c_sk) >= -1e-9))
    r_src = np.array([r.r_src for r in res])
    src_const = float(np.ptp(r_src)) <= 1e-12
    concave = all(
        cap_at((powers[i] + powers[j]) / 2.0).capacity
        >= (c_sk[i] + c_sk[j]) / 2.0 - 1e-9
        for i, j in ((0, 10), (5, 40), (20, 60), (0, 60), (30, 50)))
    crossover = res[0].r_src > res[0].r_ch and res[-1].r_ch > res[-1].r_src
    ok = nondecreasing and src_const and concave and crossover
    _report(3, "gaussian sweep shape", ok,
            "monotone=%s concave=%s const_src=%s crossover=%s"
            % (nondecreasing, concave, src_const, crossover))


def test_criterion_04_degraded_equality():
    rng = np.random.default_rng(2024)
    cfg = OptimizerConfig(grid_step=0.01, refine_iters=120)
    worst = 0.0
    for _ in range(50):
        ch = random_degraded_binary_channel(rng)
        cap = degraded_capacity(ch, config=cfg).capacity
        _, ub = upper_bound(ch, config=cfg)
        worst = max(worst, abs(cap - ub))
    ok = worst <= 1e-6
    _report(4, "degraded capacity = upper bound", ok, "max gap %.3e" % worst)


def test_criterion_05_closed_form_generic_consistency():
    rng = np.random.default_rng(2025)
    betas = np.linspace(0.0, 1.0, 20)
    worst = 0.0
    tried = 0
    while tried < 20:
        q, qt = rng.uniform(0, 1, 2)
        d = rng.uniform(0, 0.45)
        d3 = rng.uniform(0, 0.45)
        try:
            params = BinaryOnOffParams(q=q, q_tilde=qt, delta=d, delta3=d3)
        except Exception:
            continue
        tried += 1
        ch = build_binary_onoff(params)
        for b in betas:
            _, cf_ch, cf_src = binary_onoff_rate(params, float(b))
            g_ch, g_src = rate_split(ch, Pmf.bernoulli(float(b)))
            worst = max(worst, abs(cf_ch - g_ch), abs(cf_src - g_src))
    ok = worst <= 1e-9
    _report(5, "closed form vs generic evaluation", ok, "max gap %.6f" % worst)


def test_criterion_06_exponent_slope_identities():
    rng = np.random.default_rng(2026)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        ch = random_binary_channel(rng)
        inp = Pmf.bernoulli(float(rng.uniform(0.05, 0.95)))
        rates = RatePoint(*(float(v) for v in rng.uniform(0.0, 1.0, 3)))
        rel_thr, sec_thr = positivity_thresholds(ch, inp)
        e_obj = _reliability_objective_for(ch, inp, rates)
        f_obj = _secrecy_objective_for(ch, inp, rates)
        slope_e = (e_obj(h) - e_obj(-h)) / (2 * h)
        slope_f = (f_obj(h) - f_obj(-h)) / (2 * h)
        worst = max(worst,
                    abs(slope_e - ((rates.r_phi - rates.r_m) - rel_thr)),
                    abs(slope_f - (sec_thr - (rates.r_sk + rates.r_phi
                                              - rates.r_m))))
    ok = worst <= 1e-4
    _report(6, "slope identities at the origin", ok, "max gap %.3e" % worst)


def test_criterion_07_positivity_dichotomy():
    rng = np.random.default_rng(2027)
    checked = 0
    ok = True
    while checked < 100:
        ch = random_binary_channel(rng)
        inp = Pmf.bernoulli(float(rng.uniform(0.1, 0.9)))
        rel_thr, sec_thr = positivity_thresholds(ch, inp)
        rates = RatePoint(*(float(v) for v in rng.uniform(0.0, 1.2, 3)))
        e_margin = (rates.r_phi - rates.r_m) - rel_thr
        f_margin = sec_thr - (rates.r_sk + rates.r_phi - rates.r_m)
        if abs(e_margin) < 1e-3 or abs(f_margin) < 1e-3:
            continue
        checked += 1
        e = reliability_exponent(ch, inp, rates).value
        f = secrecy_exponent(ch, inp, rates).value
        ok = ok and ((e > 0) == (e_margin > 0)) and ((f > 0) == (f_margin > 0))
    _report(7, "exponent positivity dichotomy", ok, "100 sampled rate points")


def _gallager_random_coding_exponent(p_s, p_y_given_s, rate):
    """Independent evaluator: max over rho in [0,1] of E0(rho) - rho*R,
    by plain ternary search on the concave objective."""
    def objective(rho):
        total = 0.0
        for y in range(p_y_given_s.shape[1]):
            inner = 0.0
            for s in range(p_y_given_s.shape[0]):
                inner += p_s[s] * p_y_given_s[s, y] ** (1.0 / (1.0 + rho))
            total += inner ** (1.0 + rho)
        return -math.log2(total) - rho * rate

    lo, hi = 0.0, 1.0
    for _ in range(300):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if objective(m1) < objective(m2):
            lo = m1
        else:
            hi = m2
    best = max(objective(lo), objective((lo + hi) / 2.0), objective(hi),
               objective(0.0), objective(1.0))
    return max(0.0, best)


def test_criterion_08_gallager_specialization():
    rng = np.random.default_rng(2028)
    worst = 0.0
    for _ in range(20):
        p_y_given_s = rng.dirichlet(np.ones(3), size=2)  # (S, Y)
        tr = p_y_given_s.reshape(2, 1, 3, 1)
        ch = DiscreteBroadcastChannel(tr, np.zeros(2))
        beta = float(rng.uniform(0.1, 0.9))
        inp = Pmf.bernoulli(beta)
        p_s = inp.probs
        i_sy = positivity_thresholds(ch, inp)[0] * -1.0  # |X|=1: rel_thr=-I(S;Y)
        for rate in (0.25 * i_sy, 0.75 * i_sy, 1.5 * i_sy):
            got = reliability_exponent(
                ch, inp, RatePoint(r_sk=0.0, r_phi=0.0, r_m=float(rate))).value
            want = _gallager_random_coding_exponent(p_s, p_y_given_s, float(rate))
            worst = max(worst, abs(got - want))
    ok = worst <= 1e-9
    _report(8, "Gallager specialization (|X|=1)", ok, "max gap %.3e" % worst)


def test_criterion_09_finite_n_ensemble_bounds():
    ok = True
    details = []
    for idx, seed in enumerate((301, 302, 303)):
        rng = np.random.default_rng(seed)
        ch = random_degraded_binary_channel(rng)
        rel_thr, sec_thr = positivity_thresholds(ch, UNIFORM)
        span = sec_thr - rel_thr
        rates = RatePoint(r_sk=max(0.0, 0.25 * span),
                          r_phi=max(0.0, rel_thr + 0.25 * span),
                          r_m=0.0)
        for n in (1, 2, 3):
            _, _, check = ensemble_average(ch, UNIFORM, n, rates,
                                           num_codebooks=500, seed=1000 + idx)
            ok = ok and check["error_ok"] and check["leakage_ok"]
            details.append("ch%d n%d %s/%s" % (
                idx, n, "ok" if check["error_ok"] else "ERR",
                "ok" if check["leakage_ok"] else "LEAK"))
    _report(9, "finite-n ensemble bounds", ok, "; ".join(details[:3]) + "; ...")


def test_criterion_10_bound_objective_identities():
    rng = np.random.default_rng(2030)
    worst = 0.0
    for _ in range(5):
        ch = random_binary_channel(rng)
        for n in (2, 4, 8):
            rates = RatePoint(r_sk=1.0 / n, r_phi=3.0 / n, r_m=1.0 / n)
            for rho in np.linspace(0.0, 1.0, 11):
                lhs = ensemble_error_bound(ch, UNIFORM, n, float(rho), rates)
                rhs = 2.0 ** (-n * reliability_objective(ch, UNIFORM,
                                                         float(rho), rates))
                worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
            for alpha in np.linspace(0.05, 1.0, 11):
                lhs = ensemble_leakage_bound(ch, UNIFORM, n, float(alpha), rates)
                c = math.log2(math.e) / float(alpha)
                rhs = c * 2.0 ** (-n * secrecy_objective(ch, UNIFORM,
                                                         float(alpha), rates))
                worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
    ok = worst <= 1e-10
    _report(10, "bound/objective identities", ok, "max rel gap %.3e" % worst)


def test_criterion_11_decoder_optimality():
    rates = RatePoint(r_sk=0.5, r_phi=1.0, r_m=0.5)
    mismatches = 0
    total = 0
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        ch = random_binary_channel(rng)
        n = 2 + seed % 2  # n in {2, 3}
        code = generate_code(ch, n, rates, UNIFORM, seed=seed)
        W = marginal_channel(ch, "xy")
        for y_idx in range(2**n):
            ys = index_sequence(y_idx, 2, n)
            for phi in range(code.num_public):
                best, best_score = None, -1.0
                for m in range(code.num_messages):
                    for x_idx in range(2**n):
                        if code.public_bins[m, x_idx] != phi:
                            continue
                        xs = index_sequence(x_idx, 2, n)
                        score = 1.0
                        for s, x, y in zip(code.codewords[m], xs, ys):
                            score = score * W[int(s), int(x), int(y)]
                        if score > best_score:
                            best, best_score = (m, x_idx), score
                m_hat, x_hat = mlmap_decode(code, ch, ys, phi)
                got = (m_hat, sequence_index(x_hat, 2))
                want = best if best is not None else (0, 0)
                total += 1
                if got != want:
                    mismatches += 1
    ok = mismatches == 0
    _report(11, "decoder optimality", ok,
            "%d/%d enumerated inputs agree" % (total - mismatches, total))


def test_criterion_12_exponent_surface_monotonicity():
    rng = np.random.default_rng(2032)
    ch = random_degraded_binary_channel(rng)
    cfg = OptimizerConfig(grid_step=0.02, refine_iters=80)
    rel_thr, sec_thr = positivity_thresholds(ch, UNIFORM)
    base_phi = max(0.1, rel_thr + 0.05)
    tol = 1e-6

    def surf(rates):
        (e_res, _), (f_res, _) = optimized_exponents(ch, rates, cfg)
        return e_res.value, f_res.value

    phi_grid = np.linspace(base_phi, base_phi + 0.5, 6)
    rows = [surf(RatePoint(0.02, float(p), 0.0)) for p in phi_grid]
    e_up_phi = all(b[0] >= a[0] - tol for a, b in zip(rows, rows[1:]))
    f_down_phi = all(b[1] <= a[1] + tol for a, b in zip(rows, rows[1:]))

    rm_grid = np.linspace(0.0, 0.3, 6)
    rows = [surf(RatePoint(0.02, base_phi + 0.35, float(m))) for m in rm_grid]
    e_down_rm = all(b[0] <= a[0] + tol for a, b in zip(rows, rows[1:]))
    f_up_rm = all(b[1] >= a[1] - tol for a, b in zip(rows, rows[1:]))

    rsk_grid = np.linspace(0.0, 0.3, 6)
    rows = [surf(RatePoint(float(k), base_phi, 0.0)) for k in rsk_grid]
    f_down_rsk = all(b[1] <= a[1] + tol for a, b in zip(rows, rows[1:]))

    # F_o(beta) convexity for Bernoulli inputs at a fixed rate point
    rates = RatePoint(0.02, base_phi, 0.0)
    betas = np.linspace(0.05, 0.95, 19)
    f_of_beta = [secrecy_exponent(ch, Pmf.bernoulli(float(b)),
                                  rates).value for b in betas]
    convex = bool(np.all(np.diff(f_of_beta, 2) >= -1e-8))

    ok = e_up_phi and f_down_phi and e_down_rm and f_up_rm and f_down_rsk \
        and convex
    _report(12, "exponent-surface monotonicity", ok,
            "E+phi=%s F-phi=%s E-rm=%s F+rm=%s F-rsk=%s convex=%s"
            % (e_up_phi, f_down_phi, e_down_rm, f_up_rm, f_down_rsk, convex))


def test_criterion_13_strong_achievability_consistency():
    rng = np.random.default_rng(2033)
    cfg = OptimizerConfig(grid_step=0.01, refine_iters=120)
    worst = 0.0
    for _ in range(10):
        ch = random_degraded_binary_channel(rng)
        cap = degraded_capacity(ch, config=cfg).capacity

        def value(ps, ch=ch):
            return [strong_achievability_bound(ch, Pmf(p)).value
                    for p in ps]

        _, best = maximize_over_inputs(value, 2, config=cfg)
        worst = max(worst, abs(best - cap))
    ok = worst <= 1e-6
    _report(13, "strong achievability = capacity", ok, "max gap %.3e" % worst)
