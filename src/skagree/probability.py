"""Exact finite-alphabet probability primitives.

Everything downstream (channels, capacities, exponents, the binning
simulator) is built on the handful of information measures in this module.
All logarithms are base 2, so every quantity is in bits.  Sums of
entropy-like terms use compensated summation (``math.fsum``) because the
exponent expressions raise small probabilities to fractional powers and
roundoff would otherwise leak into tolerance-1e-10 comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MASS_TOL = 1e-12


class PmfError(ValueError):
    """Raised when an array fails probability-mass validation."""


def _validate_rows(rows: np.ndarray) -> None:
    """Probability-mass checks on each row of a 2-D array: every entry is
    finite and nonnegative, and each row sums to 1 within MASS_TOL."""
    if rows.size < 1:
        raise PmfError("empty probability array")
    if not (rows >= 0.0).all():  # also false for NaN
        if np.isnan(rows).any():
            raise PmfError("non-finite probability entry")
        raise PmfError("negative probability entry: min=%r" % float(rows.min()))
    try:
        totals = list(map(math.fsum, rows.tolist()))
    except OverflowError:  # fsum's partial sums left the float range
        raise PmfError("total mass overflows a float") from None
    for total in totals:
        if abs(total - 1.0) > MASS_TOL:  # also catches +inf
            raise PmfError("total mass %.17g deviates from 1 by more than %g"
                           % (total, MASS_TOL))


def _validate_mass(arr: np.ndarray) -> None:
    _validate_rows(arr.reshape(1, -1))


@dataclass(frozen=True)
class Pmf:
    """A validated probability mass function over one finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1:
            raise PmfError("Pmf must be one-dimensional, got shape %r" % (arr.shape,))
        _validate_mass(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return self.probs.size

    @staticmethod
    def uniform(k: int) -> "Pmf":
        return Pmf(np.full(k, 1.0 / k))

    @staticmethod
    def bernoulli(beta: float) -> "Pmf":
        """Binary pmf with P(1) = beta (the 'on' probability)."""
        if not 0.0 <= beta <= 1.0:
            raise PmfError("bernoulli parameter outside [0,1]: %r" % beta)
        return Pmf(np.array([1.0 - beta, beta]))


@dataclass(frozen=True)
class JointPmf:
    """A dense joint pmf over one or more finite alphabets."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        _validate_mass(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)


def _as_array(p) -> np.ndarray:
    if isinstance(p, (Pmf, JointPmf)):
        return p.probs
    return np.asarray(p, dtype=float)


def _entropy_rows(stack: np.ndarray) -> list:
    """Shannon entropy in bits, 0*log(0) = 0, of each row of a (G, ...)
    array.  Each row's terms are summed with ``math.fsum``, so its entropy
    does not depend on the other rows or on the order of its entries."""
    return [-math.fsum(x * math.log2(x) for x in row if x > 0.0)
            for row in stack.reshape(stack.shape[0], -1).tolist()]


def entropy(p) -> float:
    """Shannon entropy in bits, with the 0*log(0)=0 convention."""
    return _entropy_rows(_as_array(p).reshape(1, -1))[0]


def binary_entropy(a: float) -> float:
    """Hb(a) = -a log2 a - (1-a) log2 (1-a)."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("binary_entropy argument outside [0,1]: %r" % a)
    if a == 0.0 or a == 1.0:
        return 0.0
    return -a * math.log2(a) - (1.0 - a) * math.log2(1.0 - a)


def bsc_convolve(a: float, b: float) -> float:
    """Crossover combination a*b = a(1-b) + (1-a)b of two symmetric flips."""
    if not 0.0 <= a <= 1.0 or not 0.0 <= b <= 1.0:
        raise ValueError("bsc_convolve arguments must lie in [0,1]")
    return a * (1.0 - b) + (1.0 - a) * b


def _mi_rows(joints: np.ndarray) -> list:
    """I(A;B) = H(A) + H(B) - H(A,B) for each (A, B) joint stacked on axis 0."""
    ha = _entropy_rows(joints.sum(axis=2))
    hb = _entropy_rows(joints.sum(axis=1))
    hab = _entropy_rows(joints)
    return [a + b - ab for a, b, ab in zip(ha, hb, hab)]


def mutual_information_rows(joints: np.ndarray) -> list:
    """I(A;B) for each validated two-axis joint of a (G, A, B) stack."""
    _validate_rows(joints.reshape(joints.shape[0], -1))
    return _mi_rows(joints)


def conditional_mutual_information_rows(joints: np.ndarray) -> list:
    """I(A;B|C) for each validated three-axis joint of a (G, A, B, C) stack,
    conditioning on the last axis: the fsum over c of p(c) I(A;B|C=c)."""
    g = joints.shape[0]
    _validate_rows(joints.reshape(g, -1))
    terms = [[] for _ in range(g)]
    for c in range(joints.shape[3]):
        slab = joints[:, :, :, c]
        pc = [math.fsum(row) for row in slab.reshape(g, -1).tolist()]
        scale = np.array([p if p > 0.0 else 1.0 for p in pc])
        for row, p, mi in zip(terms, pc, _mi_rows(slab / scale[:, None, None])):
            if p > 0.0:
                row.append(p * mi)
    return [math.fsum(row) for row in terms]


def mutual_information(joint) -> float:
    """I(A;B) from a two-axis joint pmf, via H(A)+H(B)-H(A,B)."""
    arr = _as_array(joint)
    if arr.ndim != 2:
        raise ValueError("mutual_information expects a 2-axis joint, got ndim=%d" % arr.ndim)
    return mutual_information_rows(arr[None])[0]


def conditional_mutual_information(joint) -> float:
    """I(A;B|C) from a three-axis joint, conditioning on the last axis."""
    arr = _as_array(joint)
    if arr.ndim != 3:
        raise ValueError(
            "conditional_mutual_information expects a 3-axis joint, got ndim=%d" % arr.ndim
        )
    return conditional_mutual_information_rows(arr[None])[0]
