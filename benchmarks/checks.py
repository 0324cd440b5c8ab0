"""Output checks that feed ``fail_ratio``, and the reference comparison.

Every operation is checked against invariants that hold for any seed: exit
code 0, parseable output, capacity = r_ch + r_src, degraded capacity <= upper
bound on the same channel, a passing verify-bounds verdict, simulate row
counts, error in [0,1], leakage in [0, log2|K|].  For the default seed every
number is also compared with committed reference outputs within 1e-9 (the
package's identity tolerance) and every discrete value exactly; outputs that
are byte-identical are counted, and last-bit differences are not failures.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

TOL = 1e-9
DISCRETE_COLUMNS = {"n", "codebook_index", "is_argmax"}
EXPONENT_HEADER = ["R_SK", "R_phi", "R_M", "beta_or_input_id", "E_o", "rho_star",
                   "F_o_raw", "F_o", "alpha_star"]
SIM_HEADER = ["n", "codebook_index", "exact_error", "exact_leakage_bits"]


class CheckError(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _finite(*values) -> None:
    for v in values:
        _require(isinstance(v, (int, float)) and not isinstance(v, bool)
                 and math.isfinite(v), "non-finite or non-numeric value %r" % (v,))


def _pmf(p, size: int) -> None:
    _require(isinstance(p, list) and len(p) == size, "input pmf of wrong length")
    _finite(*p)
    _require(min(p) >= 0.0 and abs(math.fsum(p) - 1.0) <= TOL, "invalid input pmf")


def _json(res, name):
    text = res.files.get(name)
    _require(text is not None, "missing output %s" % name)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckError("%s is not JSON: %s" % (name, exc)) from exc


def _csv(res, name):
    text = res.files.get(name)
    _require(text is not None, "missing output %s" % name)
    rows = list(csv.reader(io.StringIO(text)))
    _require(len(rows) >= 1, "%s has no header" % name)
    try:
        body = [[float(v) for v in row] for row in rows[1:]]
    except ValueError as exc:
        raise CheckError("%s has a non-numeric cell: %s" % (name, exc)) from exc
    for row in body:
        _require(len(row) == len(rows[0]), "%s has a ragged row" % name)
        _finite(*row)
    return rows[0], body


def _outputs(op):
    return [os.path.basename(p) for p in op.outputs]


# -- per-operation invariants ---------------------------------------------
def _check_capacity(sk, op, res):
    doc = _json(res, _outputs(op)[0])
    _finite(doc["capacity_bits"], doc["r_ch"], doc["r_src"])
    _require(doc.get("upper_bound_only") is False,
             "degraded channel reported as upper bound only")
    _require(abs(doc["capacity_bits"] - (doc["r_ch"] + doc["r_src"])) <= TOL,
             "capacity_bits != r_ch + r_src")
    _pmf(doc["input_pmf"], op.expect["s_size"])
    return doc


def _check_upper_bound(sk, op, res):
    doc = _json(res, _outputs(op)[0])
    _finite(doc["upper_bound_bits"])
    _require(doc["upper_bound_bits"] >= -TOL, "negative upper bound")
    _pmf(doc["input_pmf"], op.expect["s_size"])
    return doc


def _check_exponents(sk, op, res):
    csv_name, summary_name = _outputs(op)
    header, body = _csv(res, csv_name)
    _require(header == EXPONENT_HEADER, "unexpected exponents header %r" % header)
    _require(len(body) == op.expect["rows"],
             "exponents rows %d != %d" % (len(body), op.expect["rows"]))
    col = {h: i for i, h in enumerate(header)}
    for row in body:
        _require(row[col["E_o"]] >= 0.0 and row[col["F_o"]] >= 0.0, "negative exponent")
        _require(row[col["F_o"]] == max(0.0, row[col["F_o_raw"]]), "F_o != max(0, F_o_raw)")
        _require(0.0 <= row[col["rho_star"]] <= 1.0, "rho_star outside [0,1]")
        _require(0.0 <= row[col["alpha_star"]] <= 1.0, "alpha_star outside [0,1]")
    summary = _json(res, summary_name)
    _require(isinstance(summary, dict) and len(summary) == 5
             and all(v is True for v in summary.values()),
             "monotonicity summary not all true: %r" % summary)


def _check_verify(sk, op, res):
    doc = _json(res, _outputs(op)[0])
    _require(doc.get("verdict") == "pass", "verify-bounds verdict %r" % doc.get("verdict"))
    _finite(doc["max_rel_error_identity_gap"], doc["max_rel_leakage_identity_gap"])


def _check_simulate(sk, op, res):
    csv_name, bounds_name = _outputs(op)
    header, body = _csv(res, csv_name)
    _require(header == SIM_HEADER, "unexpected simulate header %r" % header)
    ns, books = op.expect["n"], op.expect["codebooks"]
    _require(len(body) == books * len(ns),
             "simulate rows %d != codebooks x |n| = %d" % (len(body), books * len(ns)))
    _require([(int(r[0]), int(r[1])) for r in body]
             == [(n, i) for n in ns for i in range(books)], "simulate row keys")
    for n, _, err, leak in body:
        keys = 2 ** max(0, math.ceil(n * op.expect["r_sk"] - 1e-9))
        _require(-TOL <= err <= 1.0 + TOL, "error %r outside [0,1]" % err)
        _require(-TOL <= leak <= math.log2(keys) + TOL,
                 "leakage %r outside [0, log2|K|]" % leak)
    bounds = _json(res, bounds_name)
    _require(sorted(bounds) == sorted(str(n) for n in ns), "bounds sidecar keys")
    _require(all(b["bound_check"] == "pass" for b in bounds.values()),
             "ensemble bound check failed")


def _check_optimized(sk, op, res):
    doc = res.doc
    for key in ("E", "F"):
        _finite(doc[key]["value"], doc[key]["argmax"], doc[key]["raw_value"])
        _require(doc[key]["value"] >= 0.0, "%s exponent negative" % key)
        _require(0.0 <= doc[key]["argmax"] <= 1.0, "%s argmax outside [0,1]" % key)
        _pmf(doc[key + "_input"], op.expect["s_size"])


def _check_monte_carlo(sk, op, res):
    doc = res.doc
    _require(doc["method"] == "monte-carlo", "method %r" % doc["method"])
    _require(doc["trials"] == op.expect["trials"], "trial count")
    p, half = doc["error_probability"], doc["error_half_width"]
    _finite(p, half)
    _require(0.0 <= p <= 1.0 and half >= 0.0, "estimate outside [0,1]")
    exact = sk.binning_sim.exact_evaluate(res.aux["code"], res.aux["channel"])
    # 3 Wilson half-widths is about 6 sigma: a false alarm is ~1e-9 per check
    _require(abs(p - exact.error_probability) <= 3.0 * half + 1e-12,
             "monte-carlo %r disagrees with exact %r" % (p, exact.error_probability))


CHECKERS = {"capacity": _check_capacity, "upper-bound": _check_upper_bound,
            "exponents": _check_exponents, "verify-bounds": _check_verify,
            "simulate": _check_simulate, "optimized-exponents": _check_optimized,
            "monte-carlo": _check_monte_carlo}


def check_job(sk, job, results) -> list:
    """One list of problems per operation; an empty list means it passed."""
    problems = []
    docs = {}
    for op, res in zip(job.ops, results):
        found = []
        if res.error is not None:
            found.append("raised " + res.error)
        elif res.exit_code != 0:
            found.append("exit code %r: %s" % (res.exit_code, res.stderr.strip()[-200:]))
        else:
            try:
                docs[op.name] = CHECKERS[op.check](sk, op, res)
            except (CheckError, KeyError, TypeError, IndexError) as exc:
                found.append("%s: %s" % (type(exc).__name__, exc))
        problems.append(found)
    # degraded capacity never exceeds the upper bound on the same channel
    cap, ub = docs.get("capacity-deg2"), docs.get("upper-bound-deg2")
    if cap is not None and ub is not None \
            and cap["capacity_bits"] > ub["upper_bound_bits"] + TOL:
        idx = [op.name for op in job.ops].index("capacity-deg2")
        problems[idx].append("degraded capacity %r above upper bound %r"
                             % (cap["capacity_bits"], ub["upper_bound_bits"]))
    return problems


def records(op, res) -> int:
    """Output records: CSV data rows, JSON documents, library results."""
    if op.argv is None:
        return 1 if res.doc is not None else 0
    count = 0
    for name in _outputs(op):
        text = res.files.get(name)
        if text is None:
            continue
        if name.endswith(".csv"):
            count += max(0, len(text.splitlines()) - 1)
        else:
            count += 1
    return count


# -- reference outputs -----------------------------------------------------
def canonical(op, res) -> dict:
    """What the reference file stores for one operation."""
    return {"exit_code": res.exit_code, "files": dict(res.files), "doc": res.doc}


def _same(a, b, where: str, out: list) -> None:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) \
            or isinstance(b, str) or a is None or b is None:
        if a != b or type(a) is not type(b):
            out.append("%s: %r != reference %r" % (where, a, b))
    elif isinstance(a, int) and isinstance(b, int):
        if a != b:
            out.append("%s: %r != reference %r" % (where, a, b))
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if not (a == b or abs(a - b) <= TOL * max(1.0, abs(b))):
            out.append("%s: %r differs from reference %r" % (where, a, b))
    elif isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            out.append("%s: keys %r != reference %r" % (where, sorted(a), sorted(b)))
        else:
            for k in b:
                _same(a[k], b[k], "%s.%s" % (where, k), out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append("%s: length %d != reference %d" % (where, len(a), len(b)))
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                _same(x, y, "%s[%d]" % (where, i), out)
    else:
        out.append("%s: type %s != reference %s" % (where, type(a).__name__,
                                                   type(b).__name__))


def _same_csv(text: str, ref: str, where: str, out: list) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    ref_rows = list(csv.reader(io.StringIO(ref)))
    if not rows or not ref_rows or rows[0] != ref_rows[0] or len(rows) != len(ref_rows):
        out.append("%s: header or row count differs from reference" % where)
        return
    header = ref_rows[0]
    for r, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
        if len(row) != len(ref_row):
            out.append("%s row %d: width differs from reference" % (where, r))
            continue
        for col, a, b in zip(header, row, ref_row):
            if a == b:
                continue
            if col in DISCRETE_COLUMNS:
                out.append("%s row %d %s: %s != reference %s" % (where, r, col, a, b))
            else:
                _same(float(a), float(b), "%s row %d %s" % (where, r, col), out)


def compare(got: dict, ref: dict, where: str):
    """(identical, problems) for one operation against its reference."""
    problems = []
    _same(got["exit_code"], ref["exit_code"], where + " exit_code", problems)
    if sorted(got["files"]) != sorted(ref["files"]):
        problems.append("%s: output files %r != reference %r"
                        % (where, sorted(got["files"]), sorted(ref["files"])))
        return False, problems
    identical = got["exit_code"] == ref["exit_code"] and got["doc"] == ref["doc"]
    for name, ref_text in ref["files"].items():
        text = got["files"][name]
        if text == ref_text:
            continue
        identical = False
        if text is None or ref_text is None:
            problems.append("%s/%s: missing output" % (where, name))
        elif name.endswith(".csv"):
            _same_csv(text, ref_text, "%s/%s" % (where, name), problems)
        else:
            _same(json.loads(text), json.loads(ref_text), "%s/%s" % (where, name),
                  problems)
    if got["doc"] != ref["doc"]:
        _same(got["doc"], ref["doc"], where + " result", problems)
    return identical, problems
