"""Exact finite-alphabet probability primitives.

Everything downstream (channels, capacities, exponents, the binning
simulator) is built on the handful of information measures in this module.
All logarithms are base 2, so every quantity is in bits.  Sums of
entropy-like terms use compensated summation (``math.fsum``) because the
exponent expressions raise small probabilities to fractional powers and
roundoff would otherwise leak into tolerance-1e-10 comparisons.  The one
exception is an entropy row of more than ``_WIDE_ROW_CELLS`` cells (such as
the simulator's leakage joints): numpy's pairwise sum adds its terms, with
error of order log2(width) * eps, a few ulps of the ``fsum`` value (tests
allow 1e-14 bits), and bit-identical for a given row on one machine and
numpy build.

Mass validation gives the verdict and message of an ``fsum`` total for
every row.  A wide row is first screened by its numpy sum, whose error
bound is far inside the screen's margin, so only rows the screen cannot
clear are summed with ``fsum``.  The conditional kernel stacks all its
conditioning slabs and makes one pass over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MASS_TOL = 1e-12


class PmfError(ValueError):
    """Raised when an array fails probability-mass validation."""


# Rows wider than this many cells are summed in numpy, which is slower on a
# lone narrow row.  Best of 7 x 200 calls on a 2-vCPU x86-64 VM, fsum loop
# against numpy: 8.3 against 9.2 us for one row of 64 cells, 23.9 against
# 9.9 us for one of 128, and 3,716 against 87 us for 60 rows of 512.
_WIDE_ROW_CELLS = 64

# numpy sums each row of a C-ordered (G, n) array pairwise: 8 running sums
# over blocks of at most 128 cells, halved recursively above that.  Each
# term is rounded at most 24 + ceil(log2(n / 128)) times, so a row of n <=
# 2**27 nonnegative cells sums to within 5e-15 * sum of its exact sum.  The
# mass screen's margin is 20 times that, and it stays above the bound for
# any row numpy can allocate.
_SCREEN_MARGIN = 1e-13


def _validate_rows(rows: np.ndarray) -> None:
    """Probability-mass checks on each row of a 2-D array: every entry is
    finite and nonnegative, and each row sums to 1 within MASS_TOL.

    The verdicts and messages are those of each row's ``math.fsum`` total.
    A row of more than ``_WIDE_ROW_CELLS`` cells is screened first: one
    numpy row sum over a C-ordered copy (pairwise, see ``_SCREEN_MARGIN``)
    clears a row whose sum lies within MASS_TOL - ``_SCREEN_MARGIN`` of 1.
    Its exact total is then within MASS_TOL of 1 and fsum's would pass, so
    only the rows the screen leaves (a non-finite or off sum) are summed
    with fsum, in order, and checked as before."""
    if rows.size < 1:
        raise PmfError("empty probability array")
    if not np.minimum.reduce(rows, axis=None) >= 0.0:  # also false for NaN
        if np.isnan(rows).any():
            raise PmfError("non-finite probability entry")
        raise PmfError("negative probability entry: min=%r" % float(rows.min()))
    if rows.shape[1] > _WIDE_ROW_CELLS:
        with np.errstate(over="ignore"):  # an overflowing row goes to fsum
            sums = np.ascontiguousarray(rows).sum(axis=1)
        unclear = np.abs(sums - 1.0) > MASS_TOL - _SCREEN_MARGIN  # also inf
        if not unclear.any():
            return
        rows = rows[unclear]
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
        if k < 1:
            raise PmfError("a uniform pmf needs k >= 1 letters, got %r" % k)
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
    array.

    A row of at most ``_WIDE_ROW_CELLS`` cells is summed with ``math.fsum``,
    so its entropy does not depend on the other rows or on the order of its
    entries.  A wider row is summed pairwise by numpy, within a few ulps of
    the fsum value.  Its terms go to a fresh C-ordered buffer, so each row
    is summed the same way whatever the stack around it or the memory
    layout of ``stack``; the bits can differ between machines, as
    np.log2's SIMD code does."""
    rows = stack.reshape(stack.shape[0], -1)
    if rows.shape[1] <= _WIDE_ROW_CELLS:
        return [-math.fsum([x * math.log2(x) for x in row if x > 0.0])
                for row in rows.tolist()]
    terms = np.zeros(rows.shape)
    np.log2(rows, out=terms, where=rows > 0.0)
    terms *= rows
    return (-terms.sum(axis=1)).tolist()


def entropy(p) -> float:
    """Shannon entropy in bits, with the 0*log(0)=0 convention, of a
    validated pmf (any shape; all its entries form one distribution)."""
    arr = _as_array(p).reshape(1, -1)
    _validate_rows(arr)
    return _entropy_rows(arr)[0]


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
    ha = _entropy_rows(np.add.reduce(joints, axis=2))
    hb = _entropy_rows(np.add.reduce(joints, axis=1))
    hab = _entropy_rows(joints)
    return [a + b - ab for a, b, ab in zip(ha, hb, hab)]


def mutual_information_rows(joints: np.ndarray) -> list:
    """I(A;B) for each validated two-axis joint of a (G, A, B) stack."""
    _validate_rows(joints.reshape(joints.shape[0], -1))
    return _mi_rows(joints)


def conditional_mutual_information_rows(joints: np.ndarray) -> list:
    """I(A;B|C) for each validated three-axis joint of a (G, A, B, C) stack,
    conditioning on the last axis: the fsum over c of p(c) I(A;B|C=c).

    All G*C slabs p(a,b,c) go to one C-ordered (G*C, A, B) copy, so one fsum
    pass gives every p(c), one division the p(a,b|c) and one ``_mi_rows``
    call every I(A;B|C=c).  The copy is C-ordered whatever the layout of
    ``joints``, so numpy sums each slab's marginals in the same order as a
    lone C-ordered slab, and a row's result does not depend on its stack."""
    g, a, b, c = joints.shape
    _validate_rows(joints.reshape(g, -1))
    slabs = np.ascontiguousarray(joints.transpose(0, 3, 1, 2)).reshape(g * c, a, b)
    pc = list(map(math.fsum, slabs.reshape(g * c, -1).tolist()))
    scale = np.array([p if p > 0.0 else 1.0 for p in pc])
    mis = _mi_rows(slabs / scale[:, None, None])
    return [math.fsum([p * mi for p, mi in zip(pc[k:k + c], mis[k:k + c]) if p > 0.0])
            for k in range(0, g * c, c)]


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
