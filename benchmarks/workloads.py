"""The benchmark's workloads: jobs made of skagree operations on seeded inputs.

A job is the unit one closed-loop client repeats.  Each job draws fresh
channels from (seed, workload, job index), writes them as channel JSON files
and lists its operations.  CLI operations run in-process through
``skagree.cli.main(argv)`` with ``--out`` in the work directory; the
library-only operations (``optimized_exponents``, ``monte_carlo_evaluate``)
are called directly.  Functions are looked up on their modules at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import inputs

# Criterion 12's optimizer configuration for optimized_exponents.
OPT_GRID_STEP, OPT_REFINE_ITERS = 0.02, 80
# sim-enum: |M| = 2^ceil(0.3 n), |Phi| = 2^ceil(0.6 n); at n=8 that is
# |M|=8, |Phi|=32 and 8*256*256 = 524,288 enumerated cells per codebook.
ENUM_RATES = (0.1, 0.6, 0.3)  # (r_sk, r_phi, r_m)
ENUM_N, ENUM_CODEBOOKS = "8", 2
MC_N, MC_TRIALS = 6, 500
# sim-ensemble: thousands of tiny codes per job.  A job's cost depends on
# its channel's rates, so each job spreads its codes over several channels.
ENSEMBLE_N, ENSEMBLE_CODEBOOKS, ENSEMBLE_CHANNELS = "1:5", 60, 3
# exponents surface: 1 x 6 x 1 rate grid times 9 Bernoulli inputs.
EXPONENT_GRID = ("0.01", "0.2:1.2:6", "0", "0.1:0.9:9")
VERIFY_RATES, VERIFY_N = ("0.2", "0.7", "0.1"), "2,5,9"


@dataclass
class Op:
    """One user-visible operation: a CLI call or a library call."""

    name: str
    check: str                      # which output checker applies
    argv: Optional[list] = None     # CLI operation
    outputs: tuple = ()             # files the CLI operation writes
    call: Optional[Callable] = None  # library operation: call(aux) -> result doc
    expect: dict = field(default_factory=dict)


@dataclass
class Job:
    workload: str
    index: int
    kind: str
    ops: list
    fingerprints: dict              # channel slot -> sha256


@dataclass
class OpResult:
    name: str
    exit_code: Optional[int] = None
    error: Optional[str] = None
    stderr: str = ""
    files: dict = field(default_factory=dict)   # basename -> text
    doc: object = None                          # library result document
    aux: object = None                          # objects the checker needs


def _cli_op(name, check, command, channel, out, extra=(), outputs=None, expect=None):
    argv = [command, "--channel", channel, *extra, "--out", out]
    return Op(name=name, check=check, argv=argv,
              outputs=tuple(outputs or (out,)), expect=expect or {})


def _channels(seed, workload, index, work, spec):
    """Draw and write the job's channels; spec maps slot -> (recipe, |S|)."""
    paths, prints, tensors = {}, {}, {}
    for slot_no, (slot, (recipe, s_size)) in enumerate(sorted(spec.items())):
        rng = inputs.job_rng(seed, workload, index, slot_no)
        tr = recipe(rng, s_size)
        path = os.path.join(work, slot + ".json")
        prints[slot] = inputs.write_channel(path, tr)
        paths[slot], tensors[slot] = path, tr
    return paths, prints, tensors


# -- analytic ---------------------------------------------------------------
# The whole analytic mix takes ~3 s, too long for enough jobs per run, so it
# is split into three jobs of similar cost that rotate in a fixed order.
ANALYTIC_KINDS = ("capacity", "surface", "optimize")


def _analytic_job(sk, seed, index, work):
    kind = ANALYTIC_KINDS[index % len(ANALYTIC_KINDS)]
    deg, gen = inputs.degraded_channel, inputs.general_channel
    if kind == "capacity":
        spec = {"deg3": (deg, 3), "deg2": (deg, 2)}
    elif kind == "surface":
        spec = {"gen3": (gen, 3), "deg2": (deg, 2)}
    else:
        spec = {"deg2": (deg, 2)}
    paths, prints, tensors = _channels(seed, "analytic", index, work, spec)

    def out(name):
        return os.path.join(work, name)

    if kind == "capacity":
        ops = [
            _cli_op("capacity-deg3", "capacity", "capacity", paths["deg3"],
                    out("cap3.json"), expect={"s_size": 3}),
            _cli_op("capacity-deg2", "capacity", "capacity", paths["deg2"],
                    out("cap2.json"), expect={"s_size": 2}),
            _cli_op("upper-bound-deg2", "upper-bound", "upper-bound",
                    paths["deg2"], out("ub2.json"), expect={"s_size": 2}),
        ]
    elif kind == "surface":
        rsk, rphi, rm, betas = EXPONENT_GRID
        csv = out("surface.csv")
        ops = [
            _cli_op("upper-bound-gen3", "upper-bound", "upper-bound",
                    paths["gen3"], out("ub3.json"), expect={"s_size": 3}),
            _cli_op("exponents-deg2", "exponents", "exponents", paths["deg2"], csv,
                    extra=("--rsk", rsk, "--rphi", rphi, "--rm", rm,
                           "--beta-grid", betas),
                    outputs=(csv, csv + ".summary.json"),
                    expect={"rows": 1 * 6 * 1 * 9}),
            _cli_op("verify-bounds-deg2", "verify-bounds", "verify-bounds",
                    paths["deg2"], out("verify.json"),
                    extra=("--rsk-rate", VERIFY_RATES[0],
                           "--rphi-rate", VERIFY_RATES[1],
                           "--rm-rate", VERIFY_RATES[2], "--n", VERIFY_N)),
        ]
    else:
        rel, _ = inputs.positivity_thresholds(tensors["deg2"])
        r_phi = max(0.1, rel + 0.05)  # criterion 12's base rate point
        path = paths["deg2"]

        def optimize(aux):
            ch = sk.channels.load_channel(path)
            rates = sk.exponents.RatePoint(r_sk=0.02, r_phi=r_phi, r_m=0.0)
            cfg = sk.capacity.OptimizerConfig(grid_step=OPT_GRID_STEP,
                                              refine_iters=OPT_REFINE_ITERS)
            (e, e_in), (f, f_in) = sk.exponents.optimized_exponents(ch, rates, cfg)
            return {"E": _exponent_doc(e), "E_input": e_in.probs.tolist(),
                    "F": _exponent_doc(f), "F_input": f_in.probs.tolist()}

        ops = [Op(name="optimized-exponents-deg2", check="optimized-exponents",
                  call=optimize, expect={"s_size": 2})]
    return Job("analytic", index, kind, ops, prints)


def _exponent_doc(res) -> dict:
    return {"value": res.value, "argmax": res.argmax, "clamped": res.clamped,
            "raw_value": res.raw_value}


def _simulate_op(name, channel, csv, rates, n_spec, n_list, codebooks, seed, index):
    r_sk, r_phi, r_m = rates
    return _cli_op(name, "simulate", "simulate", channel, csv,
                   extra=("--rsk-rate", repr(r_sk), "--rphi-rate", repr(r_phi),
                          "--rm-rate", repr(r_m), "--n", n_spec,
                          "--codebooks", str(codebooks),
                          "--seed", str(seed * 1_000_000 + index)),
                   outputs=(csv, csv + ".bounds.json"),
                   expect={"n": n_list, "codebooks": codebooks, "r_sk": r_sk})


# -- sim-enum ---------------------------------------------------------------
def _sim_enum_job(sk, seed, index, work):
    paths, prints, _ = _channels(seed, "sim-enum", index, work,
                                 {"deg2": (inputs.degraded_channel, 2)})
    path = paths["deg2"]
    sim = _simulate_op("simulate-n8", path, os.path.join(work, "enum.csv"),
                       ENUM_RATES, ENUM_N, [int(ENUM_N)], ENUM_CODEBOOKS, seed, index)

    def monte_carlo(aux):
        ch = sk.channels.load_channel(path)
        rates = sk.exponents.RatePoint(*ENUM_RATES)
        inp = sk.channels.InputDistribution.uniform(ch.alphabet_sizes[0])
        code = sk.binning_sim.generate_code(ch, MC_N, rates, inp, [seed, index, 1])
        report = sk.binning_sim.monte_carlo_evaluate(code, ch, MC_TRIALS,
                                                     [seed, index, 2])
        aux.update(code=code, channel=ch)
        return report.to_json()

    mc = Op(name="monte-carlo-n6", check="monte-carlo", call=monte_carlo,
            expect={"trials": MC_TRIALS})
    return Job("sim-enum", index, "enum", [sim, mc], prints)


# -- sim-ensemble -----------------------------------------------------------
def _sim_ensemble_job(sk, seed, index, work):
    slots = ["deg2-%d" % i for i in range(ENSEMBLE_CHANNELS)]
    paths, prints, tensors = _channels(seed, "sim-ensemble", index, work,
                                       {s: (inputs.degraded_channel, 2) for s in slots})
    lo, hi = (int(v) for v in ENSEMBLE_N.split(":"))
    ops = []
    for slot in slots:
        r_sk, r_phi = inputs.criterion9_rates(tensors[slot])
        ops.append(_simulate_op(
            "simulate-n1-5-" + slot, paths[slot],
            os.path.join(work, "ensemble-%s.csv" % slot), (r_sk, r_phi, 0.0),
            ENSEMBLE_N, list(range(lo, hi + 1)), ENSEMBLE_CODEBOOKS, seed, index))
    return Job("sim-ensemble", index, "ensemble", ops, prints)


JOB_MAKERS = {"analytic": _analytic_job, "sim-enum": _sim_enum_job,
              "sim-ensemble": _sim_ensemble_job}
# jobs per rotation; runs end on a whole cycle so every kind is equally weighted
CYCLE = {"analytic": len(ANALYTIC_KINDS), "sim-enum": 1, "sim-ensemble": 1}


def build_job(sk, workload: str, seed: int, index: int, work: str) -> Job:
    return JOB_MAKERS[workload](sk, seed, index, work)


def execute(sk, job: Job) -> list:
    """Run the job's operations; this is the timed region of a job."""
    results = []
    for op in job.ops:
        res = OpResult(op.name)
        err = io.StringIO()
        try:  # stdout must stay clean: its last line is the benchmark's result
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                if op.argv is not None:
                    try:
                        res.exit_code = sk.cli.main(list(op.argv))
                    except SystemExit as exc:  # argparse rejects the argv
                        res.exit_code = exc.code if isinstance(exc.code, int) else 2
                else:
                    res.aux = {}
                    res.doc = op.call(res.aux)
                    res.exit_code = 0
        except Exception as exc:  # any raise is a failed operation
            res.error = "%s: %s" % (type(exc).__name__, exc)
        res.stderr = err.getvalue()
        results.append(res)
    return results


def collect(job: Job, results: list) -> None:
    """Read the files each CLI operation wrote (outside the timed region)."""
    for op, res in zip(job.ops, results):
        for path in op.outputs:
            name = os.path.basename(path)
            try:
                with open(path) as fh:
                    res.files[name] = fh.read()
                os.remove(path)
            except OSError:
                res.files[name] = None
