"""Seeded input generator: the benchmark's only source of channels.

Every channel is drawn from ``numpy.random.default_rng([seed, workload, job,
slot])`` with the recipes of the test suite (degraded channels as
p(x,y|s)·p(z|y), general ones as independent Dirichlet rows), written as a
channel JSON file by this module, and fingerprinted with sha256 over its
shape and float64 bytes.  The program under test only ever sees the files.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

WORKLOAD_IDS = {"analytic": 1, "sim-enum": 2, "sim-ensemble": 3}


def job_rng(seed: int, workload: str, job: int, slot: int) -> np.random.Generator:
    """Independent stream for channel ``slot`` of job ``job``."""
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], job, slot])


def degraded_channel(rng: np.random.Generator, s_size: int) -> np.ndarray:
    """Binary-output degraded law: p(x,y|s) Dirichlet rows composed with p(z|y)."""
    pxy = rng.dirichlet(np.ones(4), size=s_size).reshape(s_size, 2, 2)
    pzy = rng.dirichlet(np.ones(2), size=2)  # (y, z)
    return pxy[:, :, :, None] * pzy[None, None, :, :]


def general_channel(rng: np.random.Generator, s_size: int) -> np.ndarray:
    """Arbitrary binary-output law: independent Dirichlet rows of p(x,y,z|s)."""
    return rng.dirichlet(np.ones(8), size=s_size).reshape(s_size, 2, 2, 2)


def fingerprint(transition: np.ndarray) -> str:
    """sha256 of the tensor shape and its little-endian float64 bytes."""
    arr = np.ascontiguousarray(transition, dtype="<f8")
    h = hashlib.sha256(repr(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def write_channel(path: str, transition: np.ndarray) -> str:
    """Write the channel JSON interchange format; returns the fingerprint.

    Python float reprs round-trip exactly, so the tensor the program loads
    is bit-identical to the one fingerprinted here.
    """
    s, x, y, z = transition.shape
    doc = {"alphabets": {"S": s, "X": x, "Y": y, "Z": z},
           "transition": transition.tolist(), "cost": [0.0] * s}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return fingerprint(transition)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def positivity_thresholds(transition: np.ndarray):
    """(H(X|Y,S) - I(S;Y), H(X|Z,S) - I(S;Z)) under a uniform p(s).

    An independent numpy evaluation, used only to place the simulated rate
    points inside the positivity region as acceptance criterion 9 does.
    """
    s_size = transition.shape[0]
    joint = transition / s_size
    p_sxy, p_sxz = joint.sum(axis=3), joint.sum(axis=2)
    p_sy, p_sz = p_sxy.sum(axis=1), p_sxz.sum(axis=1)
    p_s, p_y, p_z = p_sy.sum(axis=1), p_sy.sum(axis=0), p_sz.sum(axis=0)
    rel = (_entropy(p_sxy) - _entropy(p_sy)) \
        - (_entropy(p_s) + _entropy(p_y) - _entropy(p_sy))
    sec = (_entropy(p_sxz) - _entropy(p_sz)) \
        - (_entropy(p_s) + _entropy(p_z) - _entropy(p_sz))
    return rel, sec


def criterion9_rates(transition: np.ndarray):
    """(r_sk, r_phi) = (span/4, rel_thr + span/4), clipped at 0, with
    span = sec_thr - rel_thr: a point inside the positivity region."""
    rel, sec = positivity_thresholds(transition)
    span = sec - rel
    return max(0.0, 0.25 * span), max(0.0, rel + 0.25 * span)
