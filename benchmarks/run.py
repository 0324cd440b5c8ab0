#!/usr/bin/env python3
"""skagree benchmark: closed-loop workloads with checked outputs.

Usage (from the repository root):

    python3 benchmarks/run.py                      # every workload, default seed
    python3 benchmarks/run.py --workload analytic --seed 3 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload sim-enum --trace 1   # per-layer run
    python3 benchmarks/run.py --write-reference    # refresh reference outputs

One client runs jobs back to back (closed loop) in this process, with
SKAGREE_THREADS unset, for ``--seconds``, then on to the end of the current
job rotation and, untraced, until the workload's tail percentile has at
least ten jobs beyond it.  Each job's inputs come from ``--seed``.  Every operation's
output is checked; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A result file with the environment manifest, input fingerprints and the
details behind each metric is written under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy

import checks
import speed
import workloads
from tracer import MODULES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("analytic", "sim-enum", "sim-ensemble")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 30
THREADS_ENV = "SKAGREE_THREADS"
SETUP_STARTS = 7           # fresh interpreters per setup_s measurement
# leading jobs of the default seed with reference outputs: every job a 30-s
# run makes on a 2-vCPU VM, with margin; sim-ensemble writes ~40 KB per job,
# so only its first jobs are recorded
REFERENCE_JOBS = {"analytic": 45, "sim-enum": 45, "sim-ensemble": 6}
# job_tail_s is this fixed percentile (nearest rank) of the job times
TAIL_PERCENTILE = {"analytic": 60, "sim-enum": 65, "sim-ensemble": 70}
TAIL_BEYOND = 10           # samples required beyond the tail percentile

# job times are in reference-speed seconds (see speed.py); setup_s is raw
E2E_UNITS = {"setup_s": "s", "job_p50_s": "ref_s", "job_tail_s": "ref_s",
             "rows_per_s": "1/ref_s", "peak_rss_mb": "MB"}
# (traced function, stat); each value is reported per traced job
LAYER_STATS = tuple(
    (f, stat) for fs, stats in (
        (("cli.main",), ("calls", "self_s")),
        (("channels.marginal_channel", "channels.joint_distribution",
          "channels.is_degraded", "channels.load_channel",
          "probability.entropy", "probability.mutual_information",
          "probability.conditional_mutual_information"), ("calls", "self_s")),
        (("capacity.maximize_over_inputs",), ("calls", "self_s", "incl_s")),
        (("capacity.golden_section_max", "capacity.rate_split",
          "exponents.positivity_thresholds"), ("calls", "self_s")),
        (("exponents.reliability_exponent", "exponents.secrecy_exponent",
          "exponents.optimized_exponents"), ("calls", "self_s", "incl_s")),
        (("binning_sim.exact_evaluate", "binning_sim.monte_carlo_evaluate"),
         ("calls", "self_s", "incl_s")),
        (("binning_sim.mlmap_decode", "binning_sim.generate_code",
          "binning_sim.ensemble_average", "binning_sim.minimize_error_bound",
          "binning_sim.minimize_leakage_bound"), ("calls", "self_s")),
    ) for f in fs for stat in stats)
LAYER_COUNTERS = ("capacity.objective.evals", "capacity.golden_section_max.f_evals",
                  "binning_sim.exact_evaluate.cells")


def layer_units() -> dict:
    """Per-layer metric name -> unit, in the order they are reported."""
    units = {}
    for name, stat in LAYER_STATS:
        units["%s.%s" % (name, stat)] = "count" if stat == "calls" else "s"
    for name in LAYER_COUNTERS:
        units[name] = "count"
    units["exponents.analytic_zero_ratio"] = "ratio"
    for module in MODULES + ("bench",):
        units[module + ".self_share"] = "ratio"
    units.update({"trace.job_s": "s", "trace.untraced_job_s": "s",
                  "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
                  "trace.spans_per_job": "count"})
    return units


# -- environment -----------------------------------------------------------
def import_skagree():
    """Import the package from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "skagree", "__init__.py")):
        raise SystemExit("error: no skagree sources under %s; run the benchmark "
                         "from a full checkout" % SRC)
    sys.path.insert(0, SRC)
    import skagree
    import skagree.cli  # noqa: F401  (cli is not imported by the package)
    if os.path.dirname(os.path.dirname(os.path.abspath(skagree.__file__))) != SRC:
        raise SystemExit("error: imported skagree from %s, not %s"
                         % (skagree.__file__, SRC))
    return skagree


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def manifest(seed: int, threads_env) -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "nproc": os.cpu_count(), "skagree_threads_env": threads_env,
            "seed": seed, "loadavg_1min_at_start": os.getloadavg()[0]}


# -- measurement helpers ---------------------------------------------------
SETUP_SNIPPET = ("import sys; sys.path.insert(0, sys.argv[1]); import skagree; "
                 "[skagree.load_channel(p) for p in sys.argv[2:]]")


def measure_setup(files: list) -> list:
    """Wall times of fresh interpreters that import skagree and load the
    channel files; one uncounted start first warms the bytecode cache."""
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, *files],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("set-up interpreter failed: " + proc.stderr[-500:])
        if i:
            times.append(elapsed)
    return times


def min_jobs(q: int) -> int:
    """Fewest samples that leave TAIL_BEYOND beyond percentile q (nearest rank)."""
    n = TAIL_BEYOND
    while n - math.ceil(q * n / 100) < TAIL_BEYOND:
        n += 1
    return n


def tail(samples: list, q: int) -> float:
    """The q-th percentile by nearest rank; raises when fewer than
    TAIL_BEYOND samples lie beyond it."""
    xs = sorted(samples)
    rank = math.ceil(q * len(xs) / 100)
    if len(xs) - rank < TAIL_BEYOND:
        raise ValueError("%d jobs leave fewer than %d beyond p%d"
                         % (len(xs), TAIL_BEYOND, q))
    return xs[rank - 1]


def load_reference(workload: str):
    path = os.path.join(REFERENCE, workload + ".json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


# -- the run ----------------------------------------------------------------
class Tally:
    """Attempts, failures, records and reference agreement over a run."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = self.failed = self.records = 0
        self.ref_compared = self.ref_identical = 0
        self.problems: list = []

    def add(self, sk, job, results, count_records: bool, label: str) -> None:
        workloads.collect(job, results)
        problems = checks.check_job(sk, job, results)
        ref_jobs = self.reference["jobs"] if self.reference else []
        if job.index < len(ref_jobs):
            ref = ref_jobs[job.index]
            if ref["fingerprints"] != job.fingerprints:
                problems[0].append("input fingerprints differ from the reference")
            for op, res, found in zip(job.ops, results, problems):
                if op.name not in ref["ops"]:
                    found.append("no reference output; re-record with --write-reference")
                    continue
                where = "%s job %d %s" % (label, job.index, op.name)
                identical, diffs = checks.compare(checks.canonical(op, res),
                                                  ref["ops"][op.name], where)
                self.ref_compared += 1
                self.ref_identical += identical
                found.extend(diffs)
        for op, res, found in zip(job.ops, results, problems):
            self.attempted += 1
            if found:
                self.failed += 1
                self.problems.append("%s job %d %s: %s" % (label, job.index, op.name,
                                                           "; ".join(found)[:600]))
            if count_records:
                self.records += checks.records(op, res)


def timed(sk, job):
    t0 = perf_counter()
    results = workloads.execute(sk, job)
    return perf_counter() - t0, results


def run_workload(sk, workload: str, seed: int, seconds: int, trace: bool):
    """Run one workload; returns (result document, tracer or None)."""

    cycle = workloads.CYCLE[workload]
    q = TAIL_PERCENTILE[workload]
    # a traced run reports no end-to-end metrics, so it needs no tail
    needed = 0 if trace else min_jobs(q)
    reference = load_reference(workload) if seed == DEFAULT_SEED else None
    tally = Tally(reference)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=workload + "-", dir=WORK)
    try:
        job = workloads.build_job(sk, workload, seed, 0, work)
        setup_times = measure_setup(sorted(
            os.path.join(work, f) for f in os.listdir(work) if f.endswith(".json")))
        tracer = Tracer(sk) if trace else None
        job_times, traced_times, fingerprints, kernels = [], [], [], []
        start = perf_counter()
        index = 0
        while perf_counter() - start < seconds or index % cycle or index < needed:
            if index:
                job = workloads.build_job(sk, workload, seed, index, work)
            fingerprints.append({"job": index, "kind": job.kind, **job.fingerprints})
            kernels.append(speed.kernel_s())
            elapsed, results = timed(sk, job)
            job_times.append(elapsed)
            tally.add(sk, job, results, count_records=True, label="untraced")
            if tracer is not None:
                tracer.install()
                try:
                    tracer.begin_job(index)
                    results = workloads.execute(sk, job)
                    traced_times.append(tracer.end_job())
                finally:
                    tracer.uninstall()
                tally.add(sk, job, results, count_records=False, label="traced")
            index += 1
        kernels.append(speed.kernel_s())
        measured_s = perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "client": "closed loop, 1 client, in-process", "jobs": len(job_times),
        "job_cycle": cycle, "measured_s": measured_s,
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted,
        "problems": tally.problems[:50],
        "reference": {"compared_ops": tally.ref_compared,
                      "byte_identical_ops": tally.ref_identical,
                      "available": reference is not None},
        "setup_s_samples": setup_times, "job_s_samples": job_times,
        "input_fingerprints": fingerprints,
        "speed": {"reference_kernel_s": speed.REF_S, "job_kernel_s": kernels},
        "records": tally.records,
    }
    if tracer is not None:
        result["per_layer"] = layer_metrics(tracer, job_times, traced_times)
        result["spans"] = tracer.spans_seen
    else:
        job_ref = speed.normalise(job_times, kernels)
        value = tail(job_ref, q)
        result["job_tail"] = {"percentile": q, "samples": len(job_ref),
                              "samples_beyond": sum(1 for t in job_ref if t > value)}
        result["end_to_end"] = end_to_end(setup_times, job_ref, value, tally.records)
    return result, tracer


def end_to_end(setup_times: list, job_times: list, tail_value: float,
               records: int) -> dict:
    values = {"setup_s": statistics.median(setup_times),
              "job_p50_s": statistics.median(job_times),
              "job_tail_s": tail_value,
              "rows_per_s": records / sum(job_times),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def layer_metrics(tracer, job_times: list, traced_times: list) -> dict:
    jobs = len(traced_times)
    units = layer_units()
    values = {}
    for name, stat in LAYER_STATS:
        values["%s.%s" % (name, stat)] = tracer.stat(name, stat) / jobs
    for name in LAYER_COUNTERS:
        values[name] = tracer.counters[name] / jobs
    rel_calls = tracer.stat("exponents.reliability_exponent", "calls")
    values["exponents.analytic_zero_ratio"] = (
        tracer.counters["exponents.reliability_exponent.analytic_zero"] / rel_calls
        if rel_calls else 0.0)
    traced_total = sum(traced_times)
    for module in MODULES + ("bench",):
        values[module + ".self_share"] = tracer.module_self_s(module) / traced_total
    values["trace.job_s"] = statistics.median(traced_times)
    values["trace.untraced_job_s"] = statistics.median(job_times)
    values["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced_times, job_times))
    values["trace.overhead_ratio"] = traced_total / sum(job_times) - 1.0
    values["trace.spans_per_job"] = tracer.spans_seen / jobs
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def write_reference(sk) -> None:
    """Record the outputs of the default seed's leading jobs."""
    os.makedirs(REFERENCE, exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    for workload in WORKLOADS:
        work = tempfile.mkdtemp(prefix=workload + "-", dir=WORK)
        try:
            jobs = []
            for index in range(REFERENCE_JOBS[workload]):
                job = workloads.build_job(sk, workload, DEFAULT_SEED, index, work)
                results = workloads.execute(sk, job)
                workloads.collect(job, results)
                problems = checks.check_job(sk, job, results)
                if any(problems):
                    raise SystemExit("refusing to record failing outputs: %r" % problems)
                jobs.append({"index": index, "kind": job.kind,
                             "fingerprints": job.fingerprints,
                             "ops": {op.name: checks.canonical(op, res)
                                     for op, res in zip(job.ops, results)}})
        finally:
            shutil.rmtree(work, ignore_errors=True)
        with open(os.path.join(REFERENCE, workload + ".json"), "w") as fh:
            json.dump({"seed": DEFAULT_SEED, "jobs": jobs}, fh, indent=1)
            fh.write("\n")
        print("wrote reference outputs for %s" % workload)


# -- entry points ------------------------------------------------------------
def _print_human(result: dict) -> None:
    w = result["workload"]
    for name, m in result.get("end_to_end", {}).items():
        note = ""
        if name == "setup_s":
            note = "  (median of %d fresh interpreters)" % len(result["setup_s_samples"])
        elif name == "job_tail_s":
            t = result["job_tail"]
            note = "  (p%d of %d jobs, %d beyond)" % (
                t["percentile"], t["samples"], t["samples_beyond"])
        print("%-13s %-12s %14.6g %-7s%s" % (w, name, m["value"], m["unit"], note))
    print("%-13s %-12s %14.6g %-5s  (%d of %d operations)" % (
        w, "fail_ratio", result["fail_ratio"], "ratio", result["failed"],
        result["attempted"]))
    if "per_layer" in result:
        for name, m in result["per_layer"].items():
            print("%-13s %-48s %14.6g %s" % (w, name, m["value"], m["unit"]))


def main_one(args) -> int:
    threads_env = os.environ.pop(THREADS_ENV, None)
    sk = import_skagree()
    env = manifest(args.seed, threads_env)
    result, tracer = run_workload(sk, args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    result["environment"] = env
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                       args.trace))
    if tracer is not None:
        tracer.write_spans(stem + ".spans.csv.gz")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    _print_human(result)
    for line in result["problems"][:10]:
        print("FAILED " + line, file=sys.stderr)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main_all(args) -> int:
    """Run every workload, each in its own process, and summarise."""
    import_skagree()  # fail early, before any workload starts
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            doc = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise SystemExit("error: workload %s printed no result (exit %d)"
                             % (workload, proc.returncode))
        correct = correct and doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        metrics.update({"%s.%s" % (workload, k): v for k, v in doc["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record reference outputs for the default seed")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.write_reference:
        os.environ.pop(THREADS_ENV, None)
        write_reference(import_skagree())
        return 0
    if args.workload == "all":
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
