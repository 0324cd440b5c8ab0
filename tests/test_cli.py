import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_degraded_binary_channel
from skagree import (
    DiscreteBroadcastChannel,
    binary_onoff_optimize,
    binary_onoff_rate,
    build_binary_onoff,
    is_degraded,
    save_channel,
)
import skagree
from skagree.channels import BinaryOnOffParams
from skagree.cli import build_parser, main


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
    return header, rows


@pytest.fixture
def degraded_channel_file(tmp_path):
    rng = np.random.default_rng(200)
    path = tmp_path / "ch.json"
    save_channel(random_degraded_binary_channel(rng), path)
    return str(path)


@pytest.fixture
def ternary_input_channel_file(tmp_path):
    """|S| = 3, binary X, Y, Z."""
    tr = np.random.default_rng(201).dirichlet(np.ones(8), size=3)
    path = tmp_path / "ch3.json"
    save_channel(DiscreteBroadcastChannel(tr.reshape(3, 2, 2, 2), np.zeros(3)), path)
    return str(path)


class TestCapacityCommand:
    def test_binary_onoff_json(self, tmp_path, capsys):
        out = tmp_path / "cap.json"
        rc = main(["capacity", "--family", "binary-onoff", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        beta_star, c_sk = binary_onoff_optimize(
            BinaryOnOffParams(q=0.5, q_tilde=0.8, delta=0.1, delta3=0.2))
        assert doc["beta_star"] == pytest.approx(beta_star, abs=1e-12)
        assert doc["capacity_bits"] == pytest.approx(c_sk, abs=1e-12)
        assert doc["capacity_bits"] == pytest.approx(
            doc["r_ch"] + doc["r_src"], abs=1e-9)

    def test_binary_onoff_reports_degradedness(self, tmp_path, degraded_channel_file):
        # at the reference point the on-off law is not degraded, so the
        # family figure is max_beta R_SK(beta), not the key capacity
        out = tmp_path / "cap.json"
        assert main(["capacity", "--family", "binary-onoff", "--out", str(out)]) == 0
        params = BinaryOnOffParams(q=0.5, q_tilde=0.8, delta=0.1, delta3=0.2)
        assert json.loads(out.read_text())["degraded"] is False
        assert is_degraded(build_binary_onoff(params)) is False
        assert main(["capacity", "--channel", degraded_channel_file,
                     "--out", str(out)]) == 0
        assert "degraded" not in json.loads(out.read_text())

    def test_gaussian_json(self, tmp_path):
        out = tmp_path / "cap.json"
        rc = main(["capacity", "--family", "gaussian", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["capacity_bits"] == pytest.approx(
            doc["r_ch"] + doc["r_src"], abs=1e-12)
        assert doc["input_pmf"]["family"] == "gaussian"

    def test_channel_file(self, tmp_path, degraded_channel_file):
        out = tmp_path / "cap.json"
        rc = main(["capacity", "--channel", degraded_channel_file,
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["upper_bound_only"] is False
        assert doc["capacity_bits"] >= -1e-12

    def test_missing_source_errors(self):
        assert main(["capacity"]) == 2


class TestSweeps:
    def test_gaussian_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep-gaussian", "--p-db-min", "0", "--p-db-max", "10",
                   "--p-db-steps", "11", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["P_dB", "C_SK", "R_ch", "R_src"]
        assert len(rows) == 11
        for r in rows:
            assert r["C_SK"] == pytest.approx(r["R_ch"] + r["R_src"], abs=1e-12)

    def test_binary_csv_argmax(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep-binary", "--beta-steps", "101", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["beta", "R_SK", "R_ch", "R_src", "is_argmax"]
        marked = [r for r in rows if r["is_argmax"] == 1]
        assert len(marked) == 1
        best = max(rows, key=lambda r: r["R_SK"])
        assert marked[0]["beta"] == best["beta"]
        params = BinaryOnOffParams(q=0.5, q_tilde=0.8, delta=0.1, delta3=0.2)
        r_sk, _, _ = binary_onoff_rate(params, marked[0]["beta"])
        assert marked[0]["R_SK"] == pytest.approx(r_sk, abs=1e-12)


class TestExponentsCommand:
    def test_surface_and_summary(self, tmp_path, degraded_channel_file):
        out = tmp_path / "exp.csv"
        rc = main(["exponents", "--channel", degraded_channel_file,
                   "--rsk", "0.0,0.05", "--rphi", "0.5:1.5:3", "--rm", "0.0",
                   "--beta-grid", "0.3,0.5", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["R_SK", "R_phi", "R_M", "beta_or_input_id", "E_o",
                          "rho_star", "F_o_raw", "F_o", "alpha_star"]
        assert len(rows) == 2 * 3 * 1 * 2
        for r in rows:
            assert r["E_o"] >= 0.0 and r["F_o"] >= 0.0
            assert r["F_o"] >= r["F_o_raw"] - 1e-15
        summary = json.loads((tmp_path / "exp.csv.summary.json").read_text())
        assert summary["E_o_nondecreasing_in_R_phi"] is True
        assert summary["F_o_nonincreasing_in_R_SK"] is True


    def test_non_binary_s_exit_2(self, ternary_input_channel_file, tmp_path, capsys):
        out = tmp_path / "exp.csv"
        rc = main(["exponents", "--channel", ternary_input_channel_file,
                   "--rsk", "0.01", "--rphi", "0.5", "--rm", "0", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "--beta-grid" in err and "binary S alphabet" in err and "|S| = 3" in err


class TestSimulateCommand:
    def test_requires_seed(self, degraded_channel_file, tmp_path):
        # a usage error (2), not the "a bound check failed" code (1)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--channel", degraded_channel_file,
                  "--rsk-rate", "0.25", "--rphi-rate", "0.5", "--rm-rate", "0.25",
                  "--n", "3", "--codebooks", "4",
                  "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "s.csv").exists()

    def test_deterministic_outputs(self, degraded_channel_file, tmp_path):
        args = ["simulate", "--channel", degraded_channel_file,
                "--rsk-rate", "0.25", "--rphi-rate", "0.75", "--rm-rate", "0.25",
                "--n", "3:4", "--codebooks", "8", "--seed", "11"]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        rc_a = main(args + ["--out", str(out_a)])
        rc_b = main(args + ["--out", str(out_b)])
        assert rc_a == rc_b
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.csv.bounds.json").read_bytes() == \
            (tmp_path / "b.csv.bounds.json").read_bytes()
        sidecar = json.loads((tmp_path / "a.csv.bounds.json").read_text())
        assert set(sidecar) == {"3", "4"}
        header, rows = read_csv(out_a)
        assert header == ["n", "codebook_index", "exact_error",
                          "exact_leakage_bits"]
        assert len(rows) == 16

    def test_bound_pass_exit_code(self, degraded_channel_file, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--channel", degraded_channel_file,
                   "--rsk-rate", "0.25", "--rphi-rate", "0.75",
                   "--rm-rate", "0.25", "--n", "4", "--codebooks", "16",
                   "--seed", "5", "--out", str(out)])
        sidecar = json.loads((tmp_path / "s.csv.bounds.json").read_text())
        assert (rc == 0) == (sidecar["4"]["bound_check"] == "pass")


    def test_zero_codebooks_exit_2(self, degraded_channel_file, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--channel", degraded_channel_file,
                   "--rsk-rate", "0.25", "--rphi-rate", "0.75", "--rm-rate", "0.25",
                   "--n", "3", "--codebooks", "0", "--seed", "5", "--out", str(out)])
        assert rc == 2
        assert not (tmp_path / "s.csv.bounds.json").exists()

    @pytest.mark.parametrize("n_spec,message", [
        ("0", "blocklength must be >= 1"), ("0:2", "blocklength must be >= 1"),
        ("3:1", "lists no blocklength")])
    def test_bad_blocklengths_exit_2(self, degraded_channel_file, tmp_path,
                                     capsys, n_spec, message):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--channel", degraded_channel_file,
                   "--rsk-rate", "0.25", "--rphi-rate", "0.75", "--rm-rate", "0.25",
                   "--n", n_spec, "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert not (tmp_path / "s.csv.bounds.json").exists()
        assert message in capsys.readouterr().err

    def test_input_beta_needs_binary_s(self, degraded_channel_file,
                                       ternary_input_channel_file, tmp_path):
        sim = ["simulate", "--rsk-rate", "0.25", "--rphi-rate", "0.75",
               "--rm-rate", "0.25", "--n", "2", "--codebooks", "4", "--seed", "5"]
        verify = ["verify-bounds", "--rsk-rate", "0.2", "--rphi-rate", "0.7",
                  "--rm-rate", "0.1", "--n", "2"]
        for argv in (sim, verify):
            out = str(tmp_path / "o")
            assert main(argv + ["--channel", ternary_input_channel_file,
                                "--input-beta", "0.3", "--out", out]) == 2
            assert main(argv + ["--channel", ternary_input_channel_file,
                                "--out", out]) in (0, 1)
            # on a binary S alphabet the default is Bernoulli(0.5)
            assert main(argv + ["--channel", degraded_channel_file,
                                "--out", out + "a"]) in (0, 1)
            assert main(argv + ["--channel", degraded_channel_file,
                                "--input-beta", "0.5", "--out", out + "b"]) in (0, 1)
            assert (tmp_path / "oa").read_bytes() == (tmp_path / "ob").read_bytes()


class TestVerifyBounds:
    def test_identities_pass(self, degraded_channel_file, tmp_path):
        out = tmp_path / "v.json"
        rc = main(["verify-bounds", "--channel", degraded_channel_file,
                   "--rsk-rate", "0.2", "--rphi-rate", "0.7", "--rm-rate", "0.1",
                   "--n", "2,5,9", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"
        assert doc["max_rel_error_identity_gap"] <= 1e-10

    def test_equal_to_pointwise_checks(self, degraded_channel_file, tmp_path):
        # the document the checks give when every rho and alpha goes through
        # the public bound and objective functions
        out = tmp_path / "v.json"
        assert main(["verify-bounds", "--channel", degraded_channel_file,
                     "--rsk-rate", "0.2", "--rphi-rate", "0.7", "--rm-rate", "0.1",
                     "--n", "1,2,5,9", "--input-beta", "0.3", "--out", str(out)]) == 0
        channel = skagree.load_channel(degraded_channel_file)
        inp = skagree.InputDistribution.bernoulli(0.3)
        rates = skagree.RatePoint(0.2, 0.7, 0.1)
        worst_e = worst_f = 0.0
        for n in (1, 2, 5, 9):
            eff = skagree.RatePoint(*(math.ceil(n * r - 1e-9) / n for r in (0.2, 0.7, 0.1)))
            for rho in np.linspace(0.0, 1.0, 21):
                lhs = skagree.ensemble_error_bound(channel, inp, n, float(rho), rates)
                rhs = 2.0 ** (-n * skagree.reliability_objective(channel, inp, float(rho), eff))
                worst_e = max(worst_e, abs(lhs - rhs) / max(rhs, 1e-300))
            for alpha in np.linspace(0.05, 1.0, 20):
                lhs = skagree.ensemble_leakage_bound(channel, inp, n, float(alpha), rates)
                rhs = math.log2(math.e) / float(alpha) * 2.0 ** (
                    -n * skagree.secrecy_objective(channel, inp, float(alpha), eff))
                worst_f = max(worst_f, abs(lhs - rhs) / max(rhs, 1e-300))
        doc = {"max_rel_error_identity_gap": worst_e,
               "max_rel_leakage_identity_gap": worst_f, "verdict": "pass"}
        assert out.read_text() == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("n_spec", ["0", "2,0", "5:4"])
    def test_bad_blocklengths_exit_2(self, degraded_channel_file, tmp_path,
                                     capsys, n_spec):
        out = tmp_path / "v.json"
        rc = main(["verify-bounds", "--channel", degraded_channel_file,
                   "--rsk-rate", "0.2", "--rphi-rate", "0.7", "--rm-rate", "0.1",
                   "--n", n_spec, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")


class TestErrorHandling:
    def test_nan_channel_exit_2(self, tmp_path, degraded_channel_file, capsys):
        doc = json.loads(open(degraded_channel_file).read())
        doc["transition"][0][0][0][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "cap.json"
        assert main(["capacity", "--channel", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_overflowing_code_size_exit_2(self, degraded_channel_file, tmp_path,
                                          capsys):
        out = tmp_path / "v.json"
        rc = main(["verify-bounds", "--channel", degraded_channel_file,
                   "--rsk-rate", "0.2", "--rphi-rate", "2000", "--rm-rate", "0.1",
                   "--n", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command,extra", [("simulate", ["--seed", "1"]),
                                               ("verify-bounds", [])])
    def test_huge_key_rate_exit_2(self, degraded_channel_file, command, extra):
        # 2^ceil(n*rate) at n*rate = 1e300 never returns, so the size must be
        # checked before the power; a subprocess keeps a hang from stalling
        # the suite
        src = str(Path(skagree.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "skagree.cli", command,
             "--channel", degraded_channel_file, "--rsk-rate", "1e300",
             "--rphi-rate", "0.5", "--rm-rate", "0.1", "--n", "1", *extra],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2
        assert "error: |K| = 2^ceil(n*rate) at n=1, rate=1e+300" in proc.stderr

    def test_key_table_over_int64_exit_2(self, degraded_channel_file, capsys):
        rc = main(["simulate", "--channel", degraded_channel_file,
                   "--rsk-rate", "1000", "--rphi-rate", "0.5", "--rm-rate", "0.1",
                   "--n", "1", "--seed", "1"])
        assert rc == 2
        assert "error: |K| = 2^ceil(n*rate) at n=1, rate=1000.0 exceeds 2^62" \
            in capsys.readouterr().err

    def test_overflowing_bound_exit_2(self, degraded_channel_file, capsys):
        rc = main(["verify-bounds", "--channel", degraded_channel_file,
                   "--rsk-rate", "0", "--rphi-rate", "0", "--rm-rate", "0",
                   "--n", "3000"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("grid", ["0:1:0", "0:1:-2"])
    def test_empty_rate_grid_exit_2(self, degraded_channel_file, tmp_path, grid):
        out = tmp_path / "surface.csv"
        rc = main(["exponents", "--channel", degraded_channel_file,
                   "--rsk", "0.01", "--rphi", grid, "--rm", "0", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,gamma", [("capacity", "nan"),
                                               ("upper-bound", "nan"),
                                               ("upper-bound", "-1")])
    def test_bad_gamma_exit_2(self, degraded_channel_file, tmp_path, capsys,
                              command, gamma):
        out = tmp_path / "out.json"
        rc = main([command, "--channel", degraded_channel_file,
                   "--gamma", gamma, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "error: gamma must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,name", [
        (["capacity", "--family", "gaussian", "--power", "nan"], "power"),
        (["capacity", "--family", "gaussian", "--nu3", "inf"], "nu and sigma"),
        (["sweep-gaussian", "--nu1", "nan"], "nu and sigma"),
        (["sweep-gaussian", "--p-db-max", "4000"], "power")])  # 10^400 overflows
    def test_non_finite_gaussian_parameter_exit_2(self, tmp_path, capsys, argv, name):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: %s" % name) and "finite" in err

    @pytest.mark.parametrize("command,flag", [("sweep-gaussian", "--p-db-steps"),
                                              ("sweep-binary", "--beta-steps")])
    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_empty_sweep_exit_2(self, tmp_path, capsys, command, flag, steps):
        out = tmp_path / "sweep.csv"
        assert main([command, flag, steps, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("argv", [
        ["exponents", "--rsk", "0.01", "--rphi", "0.5", "--rm", "0", "--seed", "1"],
        ["verify-bounds", "--rsk-rate", "0.2", "--rphi-rate", "0.7",
         "--rm-rate", "0.1", "--n", "2", "--seed", "1"],
        ["capacity", "--seed", "1"],
        ["exponents", "--rsk", "0.01", "--rphi", "0.5", "--rm", "0", "--gamma", "1"],
        ["simulate", "--rsk-rate", "0.2", "--rphi-rate", "0.7", "--rm-rate", "0",
         "--n", "2", "--seed", "1", "--gamma", "1"],
        ["sweep-binary", "--beta-steps", "3"],  # with the appended --channel
        ["sweep-gaussian", "--p-db-steps", "2", "--family", "binary-onoff"],
        ["upper-bound", "--nu3", "5"],
        ["exponents", "--rsk", "0.01", "--rphi", "0.5", "--rm", "0",
         "--family", "gaussian"],
        # parsed, but not read by the chosen source
        ["capacity", "--q", "0.3", "--nu3", "5"],
        ["capacity", "--nu3", "5"],
        ["capacity", "--family", "gaussian", "--delta", "0.1"],
        ["capacity", "--family", "binary-onoff", "--rho12", "0.5"],
        ["capacity", "--family", "gaussian", "--renormalize"],
        ["upper-bound", "--family", "binary-onoff", "--renormalize"],
        ["upper-bound", "--q", "0.5"],
        ["simulate", "--rsk-rate", "0.2", "--rphi-rate", "0.7", "--rm-rate", "0",
         "--n", "2", "--seed", "1", "--delta3", "0.2"],
    ])
    def test_ignored_flags_rejected(self, degraded_channel_file, argv):
        # --seed belongs to simulate, --gamma to capacity/upper-bound, the
        # channel source to the commands that read a channel, each family's
        # parameters to the commands that build that family, and
        # --renormalize to a --channel source
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--channel", degraded_channel_file])
        assert exc.value.code == 2

    @pytest.mark.parametrize("family", ["binary-onoff", "gaussian"])
    def test_family_gamma_rejected(self, tmp_path, capsys, family):
        out = tmp_path / "cap.json"
        rc = main(["capacity", "--family", family, "--gamma", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "error: --gamma applies only to --channel" in capsys.readouterr().err

    def test_family_defaults_unchanged(self, tmp_path):
        # a flag given at its default value writes the bytes of the flag left out
        for family, flags in (("binary-onoff", ["--q", "0.5", "--delta3", "0.2"]),
                              ("gaussian", ["--nu3", "2", "--power", "1"])):
            bare, given = tmp_path / "bare.json", tmp_path / "given.json"
            assert main(["capacity", "--family", family, "--out", str(bare)]) == 0
            assert main(["capacity", "--family", family, *flags,
                         "--out", str(given)]) == 0
            assert bare.read_bytes() == given.read_bytes()
        assert main(["capacity", "--family", "gaussian", "--nu3", "3",
                     "--out", str(given)]) == 0
        assert bare.read_bytes() != given.read_bytes()

    def test_bad_family_params_exit_2(self):
        rc = main(["capacity", "--family", "binary-onoff", "--q-tilde", "1.0",
                   "--delta", "0.4", "--delta3", "0.1"])
        assert rc == 2

    def test_conflicting_sources(self, degraded_channel_file):
        rc = main(["upper-bound", "--channel", degraded_channel_file,
                   "--family", "binary-onoff"])
        assert rc == 2
        for family in ("binary-onoff", "gaussian"):
            assert main(["capacity", "--channel", degraded_channel_file,
                         "--family", family]) == 2


def test_readme_cli_calls_parse():
    # README's CLI block is the documented entry point: every call in it
    # (continuation lines joined) must parse, and it covers every command
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    calls = [shlex.split(line)[1:]
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("skagree ")]
    parser = build_parser()
    for argv in calls:
        assert parser.parse_args(argv).command == argv[0]
        # the parser main builds for the call parses it the same way
        assert build_parser(argv[0]).parse_args(argv) == parser.parse_args(argv)
    assert {argv[0] for argv in calls} == {
        "capacity", "upper-bound", "sweep-gaussian", "sweep-binary",
        "exponents", "simulate", "verify-bounds"}


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["bogus"], ["capacity", "--help"], ["upper-bound", "-h"],
    ["sweep-gaussian", "--help"], ["sweep-binary", "--help"], ["exponents", "--help"],
    ["simulate", "--help"], ["verify-bounds", "--help"], ["capacity", "--bogus"],
    ["exponents", "--rsk", "1"], ["simulate", "--seed", "x"],
    ["upper-bound", "--q", "0.5"]])
def test_help_and_usage_errors_match_the_whole_parser(argv, capsys):
    # main builds only the named command's flags; what it prints is what
    # the parser with every command's flags prints
    with pytest.raises(SystemExit) as whole:
        args = build_parser().parse_args(argv)
        build_parser().error(skagree.cli._unread_source_flags(args))
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as built:
        main(argv)
    assert capsys.readouterr() == want
    assert built.value.code == whole.value.code


def test_imports_and_an_upper_bound_load_no_scipy():
    # pyproject.toml declares numpy as the only dependency
    code = ("import sys\n"
            "import numpy as np\n"
            "import skagree, skagree.cli\n"
            "tr = np.random.default_rng(1).dirichlet(np.ones(8), size=3)\n"
            "ch = skagree.DiscreteBroadcastChannel(tr.reshape(3, 2, 2, 2), np.zeros(3))\n"
            "skagree.upper_bound(ch)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(skagree.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
