"""Command-line front end: plot-ready CSV/JSON sweeps and simulations.

Subcommands: capacity, upper-bound, sweep-gaussian, sweep-binary, exponents,
simulate, verify-bounds.  Each command parses only the flags it reads, so any
other flag exits 2.  Every command is deterministic given its config;
simulate, the only stochastic one, also needs --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import binning_sim, capacity as cap, exponents as expo
from .channels import (
    BinaryOnOffParams,
    ChannelError,
    GaussianInterferenceParams,
    build_binary_onoff,
    is_degraded,
    load_channel,
)
from .probability import Pmf


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _parse_grid(spec: str, flag: str):
    """Grid syntax: 'a:b:k' (k evenly spaced points) or a comma list.  A
    malformed spec is a ValueError naming the flag and the spec."""
    try:
        if ":" not in spec:
            return [float(v) for v in spec.split(",")]
        a, b, k = spec.split(":")
        a, b, k = float(a), float(b), int(k)
    except ValueError:
        raise ValueError("%s %r is not a:b:k or a comma list of numbers"
                         % (flag, spec)) from None
    if k < 1:
        raise ValueError("%s %r needs at least one point (k >= 1)" % (flag, spec))
    return list(np.linspace(a, b, k))


def _parse_n_range(spec: str):
    """Blocklengths 'a:b' (a..b inclusive) or a comma list; each must be >= 1,
    the list must not be empty and no blocklength may repeat (simulate keys
    its sidecar by n).  A malformed spec is a ValueError naming --n and the
    spec."""
    try:
        if ":" in spec:
            a, b = spec.split(":")
            n_list = list(range(int(a), int(b) + 1))
        else:
            n_list = [int(v) for v in spec.split(",")]
    except ValueError:
        raise ValueError("--n %r is not a:b or a comma list of integers"
                         % spec) from None
    if not n_list:
        raise ValueError("--n %r lists no blocklength" % spec)
    if min(n_list) < 1:
        raise ValueError("blocklength must be >= 1, got %d" % min(n_list))
    repeated = sorted({n for n in n_list if n_list.count(n) > 1})
    if repeated:
        raise ValueError("--n %r repeats blocklength %s"
                         % (spec, ", ".join(map(str, repeated))))
    return n_list


def _add_source_flags(p: argparse.ArgumentParser, families):
    p.add_argument("--channel", help="channel JSON file")
    p.add_argument("--family", choices=families, help="named parametric family")
    p.add_argument("--renormalize", action="store_true",
                   help="accept and renormalize off-mass transition rows")


# Each family's parameter flags and their defaults.  The flags parse to None,
# so a command can tell a given flag from an absent one; the defaults are
# filled in where the family is built.
_ONOFF_DEFAULTS = {"q": 0.5, "q_tilde": 0.8, "delta": 0.1, "delta3": 0.2}
_GAUSSIAN_DEFAULTS = {"power": 1.0, "nu1": 1.0, "nu2": 1.0, "nu3": 2.0,
                      "sigma1": 1.0, "sigma2": 1.0, "sigma3": 1.0,
                      "rho12": 0.8, "rho13": 0.3}


def _add_param_flags(p: argparse.ArgumentParser, defaults: dict):
    for name, value in defaults.items():
        p.add_argument("--" + name.replace("_", "-"), type=float, default=None,
                       help="default %g" % value)


def _add_onoff_flags(p: argparse.ArgumentParser):
    _add_param_flags(p, _ONOFF_DEFAULTS)


def _add_gaussian_flags(p: argparse.ArgumentParser):
    _add_param_flags(p, _GAUSSIAN_DEFAULTS)


def _params(args, defaults: dict) -> dict:
    return {name: value if getattr(args, name) is None else getattr(args, name)
            for name, value in defaults.items()}


def _onoff_params(args) -> BinaryOnOffParams:
    return BinaryOnOffParams(**_params(args, _ONOFF_DEFAULTS))


def _gaussian_params(args, power=None) -> GaussianInterferenceParams:
    params = _params(args, _GAUSSIAN_DEFAULTS)
    if power is not None:
        params["power"] = power
    return GaussianInterferenceParams(**params)


def _unread_source_flags(args):
    """A message naming the flags that the chosen channel source does not
    read, or None: --renormalize is read only with --channel, and each
    family's parameters only with that --family."""
    if getattr(args, "renormalize", False) and args.family:
        return "--renormalize applies only to --channel"
    for family, defaults in (("binary-onoff", _ONOFF_DEFAULTS),
                             ("gaussian", _GAUSSIAN_DEFAULTS)):
        given = ["--" + name.replace("_", "-") for name in defaults
                 if getattr(args, name, None) is not None]
        if given and args.family != family:
            return "only --family %s reads %s" % (family, ", ".join(given))
    return None


def _resolve_discrete_channel(args):
    if args.channel and args.family:
        raise ChannelError("give either --channel or --family, not both")
    if args.channel:
        return load_channel(args.channel, renormalize=args.renormalize)
    if args.family == "binary-onoff":
        return build_binary_onoff(_onoff_params(args))
    raise ChannelError("a channel source is required (--channel or --family)")


def _sim_input(args, channel) -> Pmf:
    """Bernoulli(--input-beta, default 0.5) on a binary S alphabet, uniform
    otherwise; --input-beta with a non-binary S is rejected."""
    s_size = channel.alphabet_sizes[0]
    if s_size == 2:
        return Pmf.bernoulli(0.5 if args.input_beta is None else args.input_beta)
    if args.input_beta is not None:
        raise ValueError("--input-beta needs a binary S alphabet, got |S| = %d"
                         % s_size)
    return Pmf.uniform(s_size)


def _emit(text: str, out_path, sidecar=None):
    """Write text to out_path, then the (path, text) sidecar if one is given,
    or write text to stdout without an out_path.  A failed write removes
    the files this call wrote, so an exit 2 leaves no partial output."""
    if not out_path:
        sys.stdout.write(text)
        return
    written = []
    try:
        for path, body in [(out_path, text)] + ([sidecar] if sidecar else []):
            with open(path, "w") as fh:
                written.append(path)
                fh.write(body)
    except OSError:
        for path in written:
            os.remove(path)
        raise


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def cmd_capacity(args) -> int:
    if args.channel or not args.family:
        channel = _resolve_discrete_channel(args)
        gamma = args.gamma if args.gamma is not None else math.inf
        if is_degraded(channel):
            doc = cap.degraded_capacity(channel, gamma).to_json()
            doc["upper_bound_only"] = False
        else:
            pmf, value = cap.upper_bound(channel, gamma)
            doc = {"capacity_bits": value, "input_pmf": pmf.probs.tolist(),
                   "upper_bound_only": True}
    elif args.gamma is not None:
        raise ValueError("--gamma applies only to --channel")
    elif args.family == "gaussian":
        doc = cap.gaussian_capacity(_gaussian_params(args)).to_json()
    else:
        params = _onoff_params(args)
        beta_star, _ = cap.binary_onoff_optimize(params)
        _, r_ch, r_src = cap.binary_onoff_rate(params, beta_star)
        doc = cap.CapacityResult(r_ch=r_ch, r_src=r_src,
                                 input_pmf=Pmf.bernoulli(beta_star),
                                 expected_cost=0.0).to_json()
        doc["beta_star"] = beta_star
        # the figure is the key capacity only on a degraded channel
        doc["degraded"] = is_degraded(build_binary_onoff(params))
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_upper_bound(args) -> int:
    gamma = args.gamma if args.gamma is not None else math.inf
    pmf, value = cap.upper_bound(_resolve_discrete_channel(args), gamma)
    doc = {"upper_bound_bits": value, "input_pmf": pmf.probs.tolist()}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _require_steps(count: int, flag: str):
    if count < 1:
        raise ValueError("%s needs at least one point, got %d" % (flag, count))


def cmd_sweep_gaussian(args) -> int:
    _require_steps(args.p_db_steps, "--p-db-steps")
    grid = np.linspace(args.p_db_min, args.p_db_max, args.p_db_steps)
    rows = []
    for p_db in grid:
        with np.errstate(over="ignore"):  # an infinite power is rejected below
            power = 10.0 ** (p_db / 10.0)
        res = cap.gaussian_capacity(_gaussian_params(args, power=power))
        rows.append((float(p_db), res.capacity, res.r_ch, res.r_src))
    _emit(_csv(["P_dB", "C_SK", "R_ch", "R_src"], rows), args.out)
    return 0


def cmd_sweep_binary(args) -> int:
    _require_steps(args.beta_steps, "--beta-steps")
    params = _onoff_params(args)
    betas = np.linspace(0.0, 1.0, args.beta_steps)
    values = [cap.binary_onoff_rate(params, float(b)) for b in betas]
    argmax = int(np.argmax([v[0] for v in values]))
    rows = [(float(b), v[0], v[1], v[2], int(i == argmax))
            for i, (b, v) in enumerate(zip(betas, values))]
    _emit(_csv(["beta", "R_SK", "R_ch", "R_src", "is_argmax"], rows), args.out)
    return 0


def _monotone_summary(rows):
    """Directional checks over the sweep rows (dicts with the CSV fields)."""
    def series(fixed_keys, x_key, y_key):
        groups = {}
        for r in rows:
            key = tuple(r[k] for k in fixed_keys)
            groups.setdefault(key, []).append((r[x_key], r[y_key]))
        return [sorted(g) for g in groups.values() if len(g) > 1]

    def nondecreasing(pairs):
        return all(b[1] >= a[1] - 1e-9 for a, b in zip(pairs, pairs[1:]))

    def check(fixed, x, y, increasing):
        ok = True
        for pairs in series(fixed, x, y):
            mono = nondecreasing(pairs) if increasing else \
                nondecreasing([(p[0], -p[1]) for p in pairs])
            ok = ok and mono
        return ok

    return {
        "E_o_nondecreasing_in_R_phi": check(("R_SK", "R_M", "beta_or_input_id"),
                                            "R_phi", "E_o", True),
        "E_o_nonincreasing_in_R_M": check(("R_SK", "R_phi", "beta_or_input_id"),
                                          "R_M", "E_o", False),
        "F_o_nonincreasing_in_R_phi": check(("R_SK", "R_M", "beta_or_input_id"),
                                            "R_phi", "F_o", False),
        "F_o_nonincreasing_in_R_SK": check(("R_phi", "R_M", "beta_or_input_id"),
                                           "R_SK", "F_o", False),
        "F_o_nondecreasing_in_R_M": check(("R_SK", "R_phi", "beta_or_input_id"),
                                          "R_M", "F_o", True),
    }


def cmd_exponents(args) -> int:
    channel = _resolve_discrete_channel(args)
    rsk_grid = _parse_grid(args.rsk, "--rsk")
    rphi_grid = _parse_grid(args.rphi, "--rphi")
    rm_grid = _parse_grid(args.rm, "--rm")
    beta_grid = _parse_grid(args.beta_grid, "--beta-grid") if args.beta_grid else [0.5]
    if channel.alphabet_sizes[0] != 2:
        raise ChannelError(
            "exponents sweeps Bernoulli inputs (--beta-grid, default 0.5), so it "
            "needs a binary S alphabet, got |S| = %d" % channel.alphabet_sizes[0])
    grid = [(expo.RatePoint(r_sk=rsk, r_phi=rphi, r_m=rm), beta)
            for rsk in rsk_grid for rphi in rphi_grid for rm in rm_grid
            for beta in beta_grid]
    rates = [r for r, _ in grid]
    inputs = [Pmf.bernoulli(beta) for _, beta in grid]
    rows = [{"R_SK": r.r_sk, "R_phi": r.r_phi, "R_M": r.r_m, "beta_or_input_id": beta,
             "E_o": e.value, "rho_star": e.argmax,
             "F_o_raw": f.raw_value, "F_o": f.value, "alpha_star": f.argmax}
            for (r, beta), e, f in zip(grid,
                                       expo.reliability_exponents(channel, inputs, rates),
                                       expo.secrecy_exponents(channel, inputs, rates))]
    header = ["R_SK", "R_phi", "R_M", "beta_or_input_id", "E_o", "rho_star",
              "F_o_raw", "F_o", "alpha_star"]
    _emit(_csv(header, [tuple(r[h] for h in header) for r in rows]), args.out,
          args.out and (args.out + ".summary.json",
                        json.dumps(_monotone_summary(rows), indent=2)))
    return 0


def cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ValueError("--seed must be a non-negative integer, got %d"
                         % args.seed)
    channel = _resolve_discrete_channel(args)
    inp = _sim_input(args, channel)
    rates = expo.RatePoint(r_sk=args.rsk_rate, r_phi=args.rphi_rate, r_m=args.rm_rate)
    n_list = _parse_n_range(args.n)
    rows = []
    checks = {}
    all_ok = True
    children = np.random.SeedSequence(args.seed).spawn(len(n_list))
    results = binning_sim.ensemble_averages(channel, inp, n_list, rates,
                                            args.codebooks, children)
    for n, (avg_e, avg_l, check) in zip(n_list, results):
        for idx, (err, leak) in enumerate(check["per_codebook"]):
            rows.append((n, idx, err, leak))
        ok = bool(check["error_ok"] and check["leakage_ok"])
        all_ok = all_ok and ok
        checks[str(n)] = {
            "avg_error": avg_e, "avg_leakage_bits": avg_l,
            "error_bound": check["error_bound"], "rho_star": check["rho_star"],
            "error_slack": check["error_slack"],
            "leakage_bound": check["leakage_bound"],
            "alpha_star": check["alpha_star"],
            "leakage_slack": check["leakage_slack"],
            "bound_check": "pass" if ok else "fail",
        }
    sidecar = json.dumps(checks, indent=2) + "\n"
    _emit(_csv(["n", "codebook_index", "exact_error", "exact_leakage_bits"], rows),
          args.out, args.out and (args.out + ".bounds.json", sidecar))
    if not args.out:
        sys.stderr.write(sidecar)
    return 0 if all_ok else 1


def cmd_verify_bounds(args) -> int:
    """Check the algebraic ties between the finite-n ensemble bounds and the
    exponent objectives, using effective rates ceil(n*rate)/n, the code sizes'
    own rounding, so the identity is exact.  Each n evaluates its 21 rho and
    20 alpha points in one call of the bound lanes that simulate minimizes
    with, and the objectives in one call of each exponent's lanes; every rho
    and alpha checked lies in their domains."""
    channel = _resolve_discrete_channel(args)
    inp = _sim_input(args, channel)
    rates = expo.RatePoint(r_sk=args.rsk_rate, r_phi=args.rphi_rate, r_m=args.rm_rate)
    rhos, alphas = np.linspace(0.0, 1.0, 21), np.linspace(0.05, 1.0, 20)
    points = np.concatenate((rhos, alphas))  # the error lanes, then the leakage lanes
    lanes = np.arange(points.size)
    at_input = np.zeros(points.size, dtype=np.intp)  # every lane's input is inp
    worst_e, worst_f = 0.0, 0.0
    for n in _parse_n_range(args.n):
        r_m, r_phi, r_sk = (binning_sim._size_bits(n, r, name, binning_sim._FLOAT_BITS) / n
                            for r, name in ((rates.r_m, "|M|"), (rates.r_phi, "|Phi|"),
                                            (rates.r_sk, "|K|")))  # the bounds' check order
        eff = expo.RatePoint(r_sk=r_sk, r_phi=r_phi, r_m=r_m)
        bounds = binning_sim._bound_lanes_for(channel, inp, rates, [n] * rhos.size,
                                              [n] * alphas.size)(lanes, points)
        reliability = expo._reliability_lanes_for(
            channel, [inp], at_input, [eff.r_phi - eff.r_m] * rhos.size)
        for lhs, objective in zip(bounds, reliability(lanes[:rhos.size], rhos)):
            rhs = 2.0 ** (-n * objective)
            worst_e = max(worst_e, abs(lhs - rhs) / max(rhs, 1e-300))
        secrecy = expo._secrecy_lanes_for(
            channel, [inp], at_input, [eff.r_sk + eff.r_phi - eff.r_m] * alphas.size)
        for alpha, lhs, objective in zip(alphas.tolist(), bounds[rhos.size:],
                                         secrecy(lanes[:alphas.size], alphas)):
            c = math.log2(math.e) / alpha
            rhs = c * 2.0 ** (-n * objective)
            worst_f = max(worst_f, abs(lhs - rhs) / max(rhs, 1e-300))
    ok = worst_e <= 1e-10 and worst_f <= 1e-10
    doc = {"max_rel_error_identity_gap": worst_e,
           "max_rel_leakage_identity_gap": worst_f,
           "verdict": "pass" if ok else "fail"}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The skagree parser, every subcommand with its help text and flags."""
    parser = argparse.ArgumentParser(
        prog="skagree",
        description="Secret-key capacities, exponents, and binning simulations "
                    "for sender-excited broadcast channels")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flag_groups, extra=None):
        """A subcommand that parses only the flag groups it reads, plus --out
        and then its own ``extra`` flags."""
        p = sub.add_parser(name, help=help)
        for add in flag_groups:
            add(p)
        p.add_argument("--out", help="output path (default: stdout)")
        if extra:
            extra(p)
        p.set_defaults(func=func)

    def discrete(p):  # a channel file or the on-off law
        _add_source_flags(p, ["binary-onoff"])
        _add_onoff_flags(p)

    def gamma(p):
        p.add_argument("--gamma", type=float, default=None,
                       help="input cost budget, with --channel only "
                            "(default: unconstrained)")

    def rates(p):
        p.add_argument("--rsk-rate", type=float, required=True)
        p.add_argument("--rphi-rate", type=float, required=True)
        p.add_argument("--rm-rate", type=float, required=True)
        p.add_argument("--input-beta", type=float, default=None,
                       help="Bernoulli input for a binary S alphabet (default 0.5)")
        p.add_argument("--n", required=True, help="blocklengths, e.g. 1:3 or 1,2,3")

    def power_sweep(p):
        p.add_argument("--p-db-min", type=float, default=-10.0)
        p.add_argument("--p-db-max", type=float, default=20.0)
        p.add_argument("--p-db-steps", type=int, default=61)

    def beta_sweep(p):
        p.add_argument("--beta-steps", type=int, default=1001)

    def rate_grids(p):
        p.add_argument("--rsk", required=True, help="R_SK grid, e.g. 0.01 or 0:0.2:5")
        p.add_argument("--rphi", required=True)
        p.add_argument("--rm", required=True)
        p.add_argument("--beta-grid", default=None,
                       help="Bernoulli input sweep (default: 0.5)")

    def ensemble(p):
        p.add_argument("--codebooks", type=int, default=500)
        p.add_argument("--seed", type=int, required=True)

    command("capacity", cmd_capacity, "capacity (or upper bound) as JSON",
            lambda p: _add_source_flags(p, ["gaussian", "binary-onoff"]),
            _add_onoff_flags, _add_gaussian_flags, gamma)
    command("upper-bound", cmd_upper_bound, "conditional-information upper bound",
            discrete, gamma)
    command("sweep-gaussian", cmd_sweep_gaussian, "capacity sweep over power in dB",
            _add_gaussian_flags, extra=power_sweep)
    command("sweep-binary", cmd_sweep_binary, "on-off rate curve over beta",
            _add_onoff_flags, extra=beta_sweep)
    command("exponents", cmd_exponents, "exponent surface CSV over rate grids",
            discrete, extra=rate_grids)
    command("simulate", cmd_simulate, "ensemble simulation with bound checks",
            discrete, rates, extra=ensemble)
    command("verify-bounds", cmd_verify_bounds, "bound/objective identity checks",
            discrete, rates)
    return parser


# The parser, built by the process's first main call and kept for its later
# ones.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    argv = sys.argv[1:] if argv is None else list(argv)
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    args = parser.parse_args(argv)
    if hasattr(args, "family"):  # commands with a channel-source choice
        unread = _unread_source_flags(args)
        if unread:
            parser.error(unread)
    try:
        return args.func(args)
    except (ChannelError, ValueError, OSError) as exc:  # OSError: file I/O
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OverflowError as exc:  # e.g. a bound's [sum]^n at a huge --n
        print("error: numeric overflow (%s)" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
