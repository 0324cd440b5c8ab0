"""Tests of the benchmark harness itself (not part of the package's suite).

Run from the repository root:  python3 -m pytest benchmarks -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

sk = run.import_skagree()


def _cheap_job(work, seed=11):
    """The capacity-kind analytic job without its |S|=3 operation."""
    job = workloads.build_job(sk, "analytic", seed, 0, work)
    job.ops = [op for op in job.ops if op.name in ("capacity-deg2", "upper-bound-deg2")]
    return job


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_fingerprints(workload, tmp_path):
    def prints(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        return [workloads.build_job(sk, workload, seed, i, str(work)).fingerprints
                for i in range(4)]

    first, again, other = prints(7, "a"), prints(7, "b"), prints(8, "c")
    assert first == again
    assert all(a != b for a, b in zip(first, other))
    assert len({tuple(sorted(p.items())) for p in first}) == 4


def test_fingerprint_is_of_the_tensor_the_program_loads(tmp_path):
    tr = inputs.degraded_channel(np.random.default_rng(3), 3)
    path = str(tmp_path / "c.json")
    written = inputs.write_channel(path, tr)
    assert inputs.fingerprint(sk.load_channel(path).transition) == written


def test_perturbed_output_counts_as_failure(tmp_path):
    job = _cheap_job(str(tmp_path))
    clean = run.Tally(None)
    clean.add(sk, job, workloads.execute(sk, job), count_records=True, label="t")
    assert (clean.attempted, clean.failed, clean.records) == (2, 0, 2)

    results = workloads.execute(sk, job)
    cap_path = job.ops[0].outputs[0]
    with open(cap_path) as fh:
        text = fh.read()
    doc = json.loads(text)
    doc["r_ch"] += 1e-6  # capacity_bits no longer equals r_ch + r_src
    with open(cap_path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    tally = run.Tally(None)
    tally.add(sk, job, results, count_records=True, label="t")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "r_ch + r_src" in tally.problems[0]


def test_reference_comparison_tolerates_last_bits_only(tmp_path):
    job = _cheap_job(str(tmp_path))
    results = workloads.execute(sk, job)
    workloads.collect(job, results)
    op, res = job.ops[1], results[1]
    ref = run.checks.canonical(op, res)
    name = os.path.basename(op.outputs[0])
    value = json.loads(ref["files"][name])["upper_bound_bits"]

    def with_value(v):
        got = {**ref, "files": {name: ref["files"][name].replace(repr(value), repr(v))}}
        return run.checks.compare(got, ref, "ub")

    assert run.checks.compare(ref, ref, "ub") == (True, [])
    identical, problems = with_value(value + 1e-13)
    assert not identical and problems == []
    identical, problems = with_value(value + 1e-6)
    assert not identical and len(problems) == 1


def test_self_times_add_up_to_traced_job_time(tmp_path):
    job = _cheap_job(str(tmp_path))
    untraced, _ = run.timed(sk, job)
    tracer = Tracer(sk)
    tracer.install()
    try:
        tracer.begin_job(0)
        workloads.execute(sk, job)
        traced = tracer.end_job()
    finally:
        tracer.uninstall()
    total_self = sum(tracer.self_s)
    program_self = total_self - tracer.stat("bench.job", "self_s")
    assert abs(total_self - traced) <= 1e-9 * max(1, tracer.spans_seen)
    assert 0.0 < program_self <= traced
    # what the benchmark itself does inside the job window is small
    assert traced - program_self <= 0.05 * traced
    assert traced > 0.5 * untraced

    # self time recomputed from the kept spans matches the online totals
    n = tracer.spans_seen
    assert len(tracer.span_name) == n
    child = [0.0] * n
    for i in range(n):
        if tracer.span_parent[i] >= 0:
            child[tracer.span_parent[i]] += tracer.span_end[i] - tracer.span_start[i]
    per_name = {}
    for i in range(n):
        name = tracer.names[tracer.span_name[i]]
        dur = tracer.span_end[i] - tracer.span_start[i]
        per_name[name] = per_name.get(name, 0.0) + dur - child[i]
    for name, value in per_name.items():
        assert value == pytest.approx(tracer.stat(name, "self_s"), abs=1e-6)


def test_cli_main_self_time_holds_the_command_handlers(tmp_path):
    job = _cheap_job(str(tmp_path))
    tracer = Tracer(sk)
    tracer.install()
    try:
        assert sk.cli.main.__wrapped__ is not None
        assert not hasattr(sk.cli.cmd_capacity, "__wrapped__")
        assert not hasattr(sk.cli.build_parser, "__wrapped__")
        assert hasattr(sk.cli.load_channel, "__wrapped__")  # channels, looked up by cli
        tracer.begin_job(0)
        workloads.execute(sk, job)
        tracer.end_job()
    finally:
        tracer.uninstall()
    cli_names = [n for n in tracer.names if n.startswith("cli.")]
    assert cli_names == ["cli.main"]
    assert tracer.stat("cli.main", "calls") == 2
    assert tracer.stat("cli.main", "self_s") > 0.0


def test_tracer_wraps_where_names_are_looked_up_and_restores():
    golden = sk.capacity.golden_section_max
    tracer = Tracer(sk)
    tracer.install()
    try:
        for mod in (sk.capacity, sk.exponents, sk.binning_sim, sk):
            assert mod.golden_section_max is not golden
            assert mod.golden_section_max.__wrapped__ is golden
        assert sk.binning_sim.mutual_information.__wrapped__ \
            is sk.probability.mutual_information.__wrapped__
    finally:
        tracer.uninstall()
    for mod in (sk.capacity, sk.exponents, sk.binning_sim, sk):
        assert mod.golden_section_max is golden


def test_normalise_scales_by_the_surrounding_kernel_times():
    ref = speed.REF_S
    assert speed.normalise([1.0, 3.0], [ref, ref, 3 * ref]) \
        == pytest.approx([1.0, 1.5])
    with pytest.raises(ValueError):
        speed.normalise([1.0], [ref])


@pytest.mark.parametrize("q", sorted(set(run.TAIL_PERCENTILE.values())))
def test_tail_needs_ten_samples_beyond_its_fixed_percentile(q):
    n = run.min_jobs(q)
    samples = list(range(n))
    value = run.tail(samples, q)
    assert sum(1 for s in samples if s > value) >= run.TAIL_BEYOND
    assert value == samples[-(-q * n // 100) - 1]
    with pytest.raises(ValueError):
        run.tail(samples[:-1], q)


def test_exits_nonzero_without_the_program(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    bench = tmp_path / "benchmarks"
    shutil.copytree(here, bench, ignore=shutil.ignore_patterns(
        "__pycache__", "results", ".work"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sim-ensemble",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
