"""Broadcast channel model p(x,y,z|s) with per-letter input cost.

The channel has one input S (the excitation chosen by the sender) and three
outputs: X back at the sender, Y at the legitimate receiver, Z at the
eavesdropper.  Transition tensors are indexed [s, x, y, z].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .probability import JointPmf, Pmf

ROW_MASS_TOL = 1e-12
JSON_ROW_TOL = 1e-9
DEGRADED_TOL = 1e-9  # is_degraded takes masses and differences up to this as 0


class ChannelError(ValueError):
    pass


@dataclass(frozen=True)
class DiscreteBroadcastChannel:
    """Conditional law p(x,y,z|s) plus a cost vector over input letters."""

    transition: np.ndarray  # axes [s, x, y, z]
    cost: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.transition, dtype=float)
        if arr.ndim != 4:
            raise ChannelError("transition must have 4 axes [s,x,y,z], got %d" % arr.ndim)
        if 0 in arr.shape:
            raise ChannelError("every alphabet needs a letter, got sizes %r" % (arr.shape,))
        if not np.isfinite(arr).all():
            raise ChannelError("non-finite transition probability")
        if np.any(arr < 0):
            raise ChannelError("negative transition probability")
        row_mass = arr.sum(axis=(1, 2, 3))
        if np.any(np.abs(row_mass - 1.0) > ROW_MASS_TOL):
            worst = float(np.abs(row_mass - 1.0).max())
            raise ChannelError("transition rows deviate from unit mass by %g" % worst)
        cost = np.asarray(self.cost, dtype=float)
        if cost.shape != (arr.shape[0],):
            raise ChannelError("cost vector length must equal |S|")
        if not np.isfinite(cost).all() or np.any(cost < 0):
            raise ChannelError("costs must be finite and nonnegative")
        arr.setflags(write=False)
        cost.setflags(write=False)
        object.__setattr__(self, "transition", arr)
        object.__setattr__(self, "cost", cost)

    @property
    def alphabet_sizes(self):
        """(|S|, |X|, |Y|, |Z|)."""
        return self.transition.shape


@dataclass(frozen=True)
class GaussianInterferenceParams:
    """Additive Gaussian interference model: receiver i sees nu_i*G_i + noise,
    where the G_i are jointly Gaussian with correlations rho_1j to the sender's
    own interference term."""

    power: float
    nu1: float
    nu2: float
    nu3: float
    sigma1: float
    sigma2: float
    sigma3: float
    rho12: float
    rho13: float

    def __post_init__(self):
        if not 0 <= self.power < math.inf:  # also rejects NaN
            raise ChannelError("power must be finite and >= 0, got %g" % self.power)
        for v in (self.nu1, self.nu2, self.nu3, self.sigma1, self.sigma2, self.sigma3):
            if not 0 < v < math.inf:
                raise ChannelError("nu and sigma parameters must be finite and "
                                   "positive, got %g" % v)
        for r in (self.rho12, self.rho13):
            if not -1.0 < r < 1.0:
                raise ChannelError("correlations must lie in (-1,1)")
        # Eve's effective noise must dominate Bob's for the closed forms to apply.
        if self.nu3**2 + self.sigma3**2 < self.nu2**2 + self.sigma2**2:
            raise ChannelError(
                "degradedness precondition nu3^2+sigma3^2 >= nu2^2+sigma2^2 violated"
            )


@dataclass(frozen=True)
class BinaryOnOffParams:
    """On-off fading model: X = H*S + N1, Y = H*S + N2, Z = (H~ * H)*S + N3
    over GF(2), with H ~ Bern(q), H~ ~ Bern(q_tilde), N1,N2 ~ Bern(delta),
    N3 ~ Bern(delta3), all independent."""

    q: float
    q_tilde: float
    delta: float
    delta3: float

    def __post_init__(self):
        for v, name in ((self.q, "q"), (self.q_tilde, "q_tilde")):
            if not 0.0 <= v <= 1.0:
                raise ChannelError("%s must lie in [0,1]" % name)
        for v, name in ((self.delta, "delta"), (self.delta3, "delta3")):
            if not 0.0 <= v < 0.5:
                raise ChannelError("%s must lie in [0, 0.5)" % name)
        # Non-strict on purpose: equality (e.g. the fully noiseless corner
        # delta=delta3=0) yields delta3'=0 and all formulas stay well defined.
        if self.q_tilde * self.delta > self.delta3:
            raise ChannelError("degradedness precondition q_tilde*delta <= delta3 violated")
        if not 1.0 - 2.0 * self.q_tilde * self.delta > 0.0:
            raise ChannelError("degradedness precondition 1 - 2*q_tilde*delta > 0 violated")
        d3p = self.delta3_prime
        if not 0.0 <= d3p <= 1.0:
            raise ChannelError("derived delta3' outside [0,1]: %r" % d3p)

    @property
    def delta3_prime(self) -> float:
        return (self.delta3 - self.q_tilde * self.delta) / (
            1.0 - 2.0 * self.q_tilde * self.delta
        )


# benchmarks/workloads.py still builds its inputs through this alias; p(s)
# is a plain Pmf everywhere else.
InputDistribution = Pmf


def _input_probs(channel: DiscreteBroadcastChannel, inp: Pmf) -> np.ndarray:
    """The probabilities of p(s), or a ChannelError unless p(s) lives on the
    channel's S alphabet."""
    s_size = channel.alphabet_sizes[0]
    if inp.probs.shape != (s_size,):
        raise ChannelError("p(s) has length %d, but |S| = %d" % (inp.probs.size, s_size))
    return inp.probs


def _joint_probs(channel: DiscreteBroadcastChannel, inp: Pmf) -> np.ndarray:
    """The array p(s,x,y,z) = p(s) p(x,y,z|s), not validated again: the
    channel and the input were validated where they were made."""
    return _input_probs(channel, inp)[:, None, None, None] * channel.transition


def joint_distribution(channel: DiscreteBroadcastChannel, inp: Pmf) -> JointPmf:
    """Full joint p(s,x,y,z) = p(s) p(x,y,z|s)."""
    return JointPmf(_joint_probs(channel, inp))


_AXIS_OF = {"x": 1, "y": 2, "z": 3}


def marginal_channel(channel: DiscreteBroadcastChannel, targets) -> np.ndarray:
    """Marginalize the transition onto a subset of outputs.

    ``targets`` is an iterable over {'x','y','z'}; the result keeps the S axis
    first and the requested output axes in x,y,z order.
    """
    names = set()
    for t in targets:
        if not isinstance(t, str):
            raise ChannelError("output %r is not a letter (expected x, y, or z)" % (t,))
        names.add(t.lower())
    if not names:
        raise ChannelError("marginal_channel requires a nonempty target set")
    unknown = sorted(names - _AXIS_OF.keys())
    if unknown:
        raise ChannelError("unknown output %r (expected x, y, or z)" % unknown[0])
    drop = tuple(ax for name, ax in _AXIS_OF.items() if name not in names)
    return channel.transition.sum(axis=drop)


def is_degraded(channel: DiscreteBroadcastChannel) -> bool:
    """Check the physical Markov chain (X,S) - Y - Z.

    True iff p(z | s,x,y) is the same for every (s,x) with p(x,y|s) > 0, for
    each y — i.e. Z is generated from Y alone.  Only the physical condition is
    tested; stochastic degradedness (existence of some p(z|y) matching the
    marginals) is out of scope.  The support is read off the channel law
    itself, so the result does not depend on any input distribution.
    """
    tr = channel.transition
    S, X, Y, Z = tr.shape
    for y in range(Y):
        ref = None
        for s in range(S):
            for x in range(X):
                mass = tr[s, x, y, :].sum()
                if mass <= DEGRADED_TOL:
                    continue
                cond = tr[s, x, y, :] / mass
                if ref is None:
                    ref = cond
                elif np.max(np.abs(cond - ref)) > DEGRADED_TOL:
                    return False
    return True


def build_binary_onoff(params: BinaryOnOffParams) -> DiscreteBroadcastChannel:
    """Exact law of the on-off fading model by enumerating the 32 latent atoms."""
    tr = np.zeros((2, 2, 2, 2))
    q, qt, d, d3 = params.q, params.q_tilde, params.delta, params.delta3
    for h, ht, n1, n2, n3 in product((0, 1), repeat=5):
        w = (
            (q if h else 1.0 - q)
            * (qt if ht else 1.0 - qt)
            * (d if n1 else 1.0 - d)
            * (d if n2 else 1.0 - d)
            * (d3 if n3 else 1.0 - d3)
        )
        for s in (0, 1):
            x = (h * s) ^ n1
            y = (h * s) ^ n2
            z = (ht * h * s) ^ n3
            tr[s, x, y, z] += w
    return DiscreteBroadcastChannel(transition=tr, cost=np.zeros(2))


def load_channel(path, renormalize: bool = False) -> DiscreteBroadcastChannel:
    """Read a channel from the JSON interchange format.

    Rows whose total mass deviates from 1 by more than 1e-9 are rejected
    unless ``renormalize`` is set.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ChannelError("malformed channel file: %s" % exc) from exc
    try:
        sizes = doc["alphabets"]
        expected = tuple(sizes[name] for name in "SXYZ")
        for name, size in zip("SXYZ", expected):
            if type(size) is not int or size < 1:  # JSON true is a bool
                raise ChannelError("malformed channel file: alphabet %s must be "
                                   "an integer >= 1, got %r" % (name, size))
        tr = np.asarray(doc["transition"], dtype=float)
        if tr.shape != expected:
            raise ChannelError("transition shape %r does not match alphabets %r"
                               % (tr.shape, expected))
        cost = np.asarray(doc["cost"], dtype=float) if "cost" in doc \
            else np.zeros(expected[0])
    except ChannelError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: ragged or non-numeric
        raise ChannelError("malformed channel file: %s" % exc) from exc
    if not np.isfinite(tr).all():
        raise ChannelError("non-finite transition probability in channel file")
    if np.any(tr < 0):
        raise ChannelError("negative transition probability in channel file")
    row_mass = tr.sum(axis=(1, 2, 3))
    dev = float(np.abs(row_mass - 1.0).max())
    if dev > JSON_ROW_TOL and not renormalize:
        raise ChannelError(
            "transition rows deviate from unit mass by %g; pass --renormalize to accept"
            % dev
        )
    if dev > ROW_MASS_TOL:
        # Accepted but beyond constructor tolerance: snap to mass 1.
        tr = tr / row_mass[:, None, None, None]
    return DiscreteBroadcastChannel(transition=tr, cost=cost)


def save_channel(channel: DiscreteBroadcastChannel, path) -> None:
    S, X, Y, Z = channel.alphabet_sizes
    doc = {
        "alphabets": {"S": S, "X": X, "Y": Y, "Z": Z},
        "transition": channel.transition.tolist(),
        "cost": channel.cost.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
