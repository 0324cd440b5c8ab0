"""Secret-key capacities, rate decompositions, and the two closed-form
channel families.

The degraded capacity and the conditional-information upper bound are both
optimized over the input distribution p(s) with a dense simplex grid followed
by local golden-section refinement.  Both objectives are concave in p(s):
I(X,S;Y|Z) is H(Y|Z), concave in p(y,z) and so in p(s), minus a term linear
in p(s); on a degraded channel I(X,S;Y) - I(X,S;Z) = I(X,S;Y|Z) - I(X,S;Z|Y)
is that same function, as I(X,S;Z|Y) = 0 for every p(s).  Grid+refine stays
because the exponent objectives that share the optimizer are not known to be
concave, and because it keeps the outputs byte-identical.  The two concave
maxima pass their gradient g to the grid scan: f lies below each tangent
plane f(q) + g(q).(p - q), so the planes at a few sample points q bound f at
every grid point, and a point whose least bound, raised by a rounding
margin, is below the best sample value is never scored.

The gradient also serves the refinement.  Each of its golden-section
searches runs along a segment t -> q(t) of the simplex on a bracket
[lo, hi] inside [0, top], where q(0) and q(top) lie on faces.  The search is
face-bound when hi = top and the slope g_i - g_j along t is finite and
positive at q(top), or when lo = 0 and it is finite and negative at q(0).
A concave f is then monotone on the whole bracket, so every comparison of
the search keeps the side toward the face, and the points it will ask for
are known before it runs: `_face_points` lists them, up to the first that
lies within _FACE_GAP = 1e-14 of the face, where values tie within
rounding and the search's path can no longer be told.  Those points are
scored in one objective call into the refinement's memo, and the unchanged
search reads them from there, scoring one row for each point the list
missed.  No byte of the result can change: the memo holds the objective's
own value for each row, a row's value does not depend on its block, and
the search, its comparisons and the row it returns are the same.  A wrong
list costs one wasted block.

Each objective validates the (G, |S|) block of p(s) it is handed, the only
array that enters it.  The joints it derives from that block and the
channel's transition, which the channel validated, go to the private
kernels ``_mi_rows`` and ``_cmi_rows`` unchecked.  ``rate_split`` runs once
per result and keeps the public, validating kernels.

There is one golden-section loop, the generator `_golden_search`: it yields
each point it needs and is sent back the value there.  `golden_section_max`
drives one search with a scalar function; `golden_section_lanes` drives many
independent searches in lockstep and evaluates all their pending points with
one call per step.  Both give the same argmax and value for a lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .channels import (
    DEGRADED_TOL,
    BinaryOnOffParams,
    ChannelError,
    DiscreteBroadcastChannel,
    GaussianInterferenceParams,
    _input_probs,
    is_degraded,
    joint_distribution,
)
from .probability import (
    Pmf,
    _cmi_rows,
    _entropy_rows,
    _mi_rows,
    _validate_rows,
    binary_entropy,
    bsc_convolve,
    conditional_mutual_information,
    mutual_information,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_BLOCK = 128  # grid points per objective call; bounds memory
_MARGIN = 1e-9  # bits; computed objective values lie within ~1e-13 of exact
_REFINE_SWEEPS = 4  # most sweeps of the |S| = 3 coordinate refinement
_FACE_GAP = 1e-14  # how near the face a face-bound search's point list runs


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget knobs for the simplex-grid + refinement input search."""

    grid_step: Optional[float] = None  # default 1e-3 for |S|<=2, 1e-2 for |S|=3
    refine_iters: int = 200

    def __post_init__(self):
        step = self.grid_step
        if step is not None and (isinstance(step, bool)
                                 or not isinstance(step, (int, float, np.integer, np.floating))
                                 or not (math.isfinite(step) and step > 0.0)):
            raise ChannelError("grid step must be finite and positive, got %r" % (step,))
        iters = self.refine_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 0:
            raise ChannelError("refine_iters must be an integer >= 0, got %r" % (iters,))

    def step_for(self, k: int) -> float:
        if self.grid_step is not None:
            return self.grid_step
        return 1e-3 if k <= 2 else 1e-2


def _golden_search(a: float, b: float, iters: int):
    """The golden-section loop as a generator: it yields each point it needs,
    is sent back the value there, and returns (argmax, value)."""
    best_x, best_v = a, (yield a)
    vb = yield b
    if vb > best_v:
        best_x, best_v = b, vb
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc = yield c
    fd = yield d
    before_last = last = None  # states after the two previous iterations
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = yield d
        if not (b - a) > 0.0:
            break
        state = (a, b, c, d, fc, fd)
        if state == before_last:
            # a 2-cycle: the remaining iterations alternate last and state,
            # which select the same point
            break
        before_last, last = last, state
    for x, v in ((c, fc), (d, fd)):
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def _face_points(a: float, b: float, iters: int, up: bool) -> list:
    """The points, in order, that ``golden_section_max`` asks for on [a, b]
    of a function that rises strictly toward b (``up``) or falls toward a:
    every comparison keeps the side toward that end, the face.  The list
    stops at the first point after the two ends that lies within _FACE_GAP
    of the face, where a real search's values tie within rounding."""
    face, sign = (b, 1.0) if up else (a, -1.0)
    search = _golden_search(a, b, iters)
    points = [next(search)]
    try:
        while len(points) < 3 or abs(points[-1] - face) > _FACE_GAP:
            points.append(search.send(sign * points[-1]))
    except StopIteration:
        pass
    return points


def golden_section_max(f, a: float, b: float, iters: int = 200):
    """Maximize a scalar function on [a, b]; returns (argmax, value).

    Ties in interval updates keep the left subinterval, biasing the argmax
    toward smaller arguments for determinism.  The best point actually
    evaluated is returned (including the endpoints).

    ``f`` must be pure: once the bracket has shrunk to a few ulps, the
    search state (a, b, c, d, f(c), f(d)) can only alternate between two
    values, so the search stops at the first repeat and returns what all
    ``iters`` iterations would have returned.  ``f`` may therefore be
    called fewer than ``iters + 4`` times.
    """
    search = _golden_search(a, b, iters)
    send = search.send
    x = next(search)
    try:
        while True:
            x = send(f(x))
    except StopIteration as done:
        return done.value


def golden_section_lanes(F, brackets, iters: int = 200):
    """Run one golden-section search per (a, b) bracket in lockstep; returns
    a list of (argmax, value), lane for lane what ``golden_section_max``
    returns for that lane's function.

    Each step calls ``F(lanes, xs)`` once, with the indices of the lanes
    still searching (an int array, ascending) and each one's pending point
    (a float array); it returns their values in that order.  Lanes leave
    the step set as their searches end, so F's value for a lane must depend
    only on that lane and its point, as ``golden_section_max`` asks of f.
    """
    searches = [_golden_search(a, b, iters) for a, b in brackets]
    sends = [search.send for search in searches]
    results = [None] * len(searches)
    lanes = list(range(len(searches)))
    xs = [next(search) for search in searches]
    while lanes:
        values = F(np.array(lanes, dtype=np.intp), np.array(xs, dtype=float))
        active, xs = [], []
        for lane, v in zip(lanes, values):
            try:
                xs.append(sends[lane](v))
                active.append(lane)
            except StopIteration as done:
                results[lane] = done.value
        lanes = active
    return results


def _grid_divisions(step: float) -> int:
    """m = round(1/step), the number of grid intervals along each axis, for a
    finite positive step (OptimizerConfig checks it)."""
    m = int(round(1.0 / step))
    if m < 1:
        raise ChannelError("grid step %g leaves no simplex grid" % step)
    return m


def _grid_points(k: int, m: int) -> np.ndarray:
    """The integer coordinates, in grid order, of the grid of m divisions:
    i in 0..m at |S|=2, (i, j) with i + j <= m at |S|=3."""
    if k == 2:
        return np.arange(m + 1)[:, None]
    i, ij = np.triu_indices(m + 1)
    return np.stack([i, ij - i], axis=1)


def _simplex_grid(k: int, step: float) -> np.ndarray:
    """Deterministic enumeration of the probability simplex with spacing
    step, one point per row."""
    if k == 1:
        return np.ones((1, 1))
    if k not in (2, 3):
        raise ChannelError("input optimization supports |S| <= 3, got %d" % k)
    m = _grid_divisions(step)
    c = _grid_points(k, m)
    if k == 2:
        return np.stack([1.0 - c[:, 0] / m, c[:, 0] / m], axis=1)
    return np.stack([c[:, 0] / m, c[:, 1] / m, 1.0 - (c[:, 0] + c[:, 1]) / m], axis=1)


def _score(f, grid, rows) -> list:
    """f on the grid rows ``rows``, in blocks of _GRID_BLOCK."""
    return [v for start in range(0, len(rows), _GRID_BLOCK)
            for v in f(grid[rows[start:start + _GRID_BLOCK]])]


def maximize_over_inputs(objective, k: int, cost=None, gamma: float = math.inf,
                         config: OptimizerConfig = OptimizerConfig(), gradient=None):
    """Maximize objective(p) over the feasible part of the simplex.

    ``objective`` takes a (G, k) block of probability vectors and returns the
    G values in row order, each row's value independent of the rest of the
    block.  The grid is scored in blocks of ``_GRID_BLOCK`` points and the
    refinement scores one-row blocks, except that, given ``gradient``, a
    face-bound search's listed points are scored in one block first (see
    the module docstring).  Feasibility means dot(p, cost) <=
    gamma, and gamma must be positive.  Returns (p_star, value).
    Deterministic: the grid maximum is the first in grid order (ties keep
    the earlier point), then refined.  p_star is always a row that
    ``objective`` was called on, byte for byte: a copy of a grid row, or the
    row the refinement built for the point its search returned, so a
    caller may key what its objective computed by ``p_star.tobytes()``.

    ``gradient``, if given, states that the objective f is concave on the
    whole simplex and returns its (G, k) gradients on a block.  The scan
    scores f once at the sample rows, the grid points whose integer
    coordinates are multiples of isqrt(m), feasible or not, and bounds every
    grid row p by min over the samples q of the tangent plane
    f(q) + g(q).(p - q) + 1e-9 * (1 + 2 max_s |g_s(q)|), the last term
    covering the rounding of a plane that p - q (|p - q|_1 <= 2) scales by
    |g|.  It skips the rows whose bound + 1e-9 lies below the best value at
    a feasible sample, which assumes computed values within well under 1e-9
    of a concave function.  Every skipped point scores strictly less than
    the grid maximum, so p_star and value are those of the full scan.
    Samples with a non-finite f or g bound nothing, and nothing is skipped
    when the best sample value is NaN or infinite.
    """
    if not gamma > 0:  # also rejects NaN
        raise ChannelError("gamma must be positive")
    cost = np.zeros(k) if cost is None else np.asarray(cost, dtype=float)
    if not np.isfinite(cost).all():
        raise ChannelError("costs must be finite")
    if float(cost.min()) > gamma:
        raise ChannelError("cost constraint infeasible: min cost %g > gamma %g"
                           % (float(cost.min()), gamma))
    step = config.step_for(k)

    # finite costs and points: every point is feasible at gamma = inf
    unconstrained = gamma == math.inf

    def feasible(p):
        return unconstrained or float(np.dot(p, cost)) <= gamma + 1e-12

    # the refinement's values by row bytes: its searches revisit points and
    # read the rows scored ahead of them, and f is pure, so these are
    # answered from here bit for bit
    refined = {}

    def value(p):
        key = p.tobytes()
        if key not in refined:
            refined[key] = objective(p[None, :])[0] if feasible(p) else -math.inf
        return refined[key]

    def heads_for_face(row, i, j, lo, hi, top):
        """True if f(row(t)) rises at t = hi = top, False if it falls at
        t = lo = 0, else None: by concavity f is then monotone on [lo, hi].
        One gradient row per bracket end that lies on a face."""
        for up, end, face in ((True, hi, top), (False, lo, 0.0)):
            if end == face:
                g = gradient(row(end)[None, :])[0]
                slope = float(g[i]) - float(g[j])  # d/dt f(row(t))
                if math.isfinite(slope) and (slope > 0.0 if up else slope < 0.0):
                    return up
        return None

    def refine(row, i, j, lo, hi, top):
        """golden_section_max of value(row(t)) on [lo, hi], where row(t) puts
        t on coordinate i and top - t on j.  A search that heads for a face
        has the points it will ask for scored first, in one block."""
        up = None if gradient is None else heads_for_face(row, i, j, lo, hi, top)
        if up is not None:
            new = {}
            for t in _face_points(lo, hi, config.refine_iters, up):
                q = row(t)
                key = q.tobytes()
                if key not in refined and feasible(q):
                    new[key] = q
            if new:
                refined.update(zip(new, objective(np.array(list(new.values())))))
        return golden_section_max(lambda t: value(row(t)), lo, hi, config.refine_iters)

    grid = _simplex_grid(k, step)
    # keep: the grid rows to scan, the feasible ones less any ruled out
    if unconstrained:
        keep = np.ones(len(grid), dtype=bool)
    else:
        keep = np.array([feasible(p) for p in grid])
    values = np.empty(len(grid))
    scored = np.zeros(len(grid), dtype=bool)
    if gradient is not None and k > 1:
        m = _grid_divisions(step)
        stride = math.isqrt(m)
        samples = np.flatnonzero((_grid_points(k, m) % stride == 0).all(axis=1))
        at = np.array(_score(objective, grid, samples))
        values[samples] = at
        scored[samples] = True
        best = at[keep[samples]].max(initial=-math.inf)
        if math.isfinite(best):
            g = np.array(_score(gradient, grid, samples))
            # f(p) <= g(q).p + height(q) for each sample q with finite f and g;
            # each plane in turn drops the rows it puts below best, the planes
            # at the highest samples first as they drop the most rows
            planes = np.flatnonzero(np.isfinite(at) & np.isfinite(g).all(axis=1))
            planes = planes[np.argsort(-at[planes], kind="stable")]
            g, q = g[planes], grid[samples[planes]]
            heights = (at[planes] - np.einsum("qk,qk->q", g, q)  # einsum: no BLAS
                       + _MARGIN * (1.0 + 2.0 * np.abs(g).max(axis=1)))
            live = np.flatnonzero(keep)
            for slope, height in zip(g, heights):
                ruled = np.einsum("gk,k->g", grid[live], slope) + height + _MARGIN < best
                live = live[~ruled]
            keep[:] = False
            keep[live] = True
    todo = np.flatnonzero(keep & ~scored)
    values[todo] = _score(objective, grid, todo)
    rows = np.flatnonzero(keep)
    best_r, best_v = None, -math.inf
    for r, v in zip(rows.tolist(), values[rows].tolist()):
        if v > best_v:
            best_r, best_v = r, v
    if best_r is None:
        raise ChannelError("no feasible grid point under the cost constraint")
    best_p = grid[best_r].copy()

    if k == 2:
        beta = best_p[1]
        lo, hi = max(0.0, beta - step), min(1.0, beta + step)
        b_ref, v_ref = refine(lambda b: np.array([1.0 - b, b]), 1, 0, lo, hi, 1.0)
        if v_ref > best_v or (v_ref == best_v and b_ref < beta):
            best_p, best_v = np.array([1.0 - b_ref, b_ref]), v_ref
    elif k == 3:
        # Sweeps over the pairs (0,1), (0,2), (1,2).  A pair's search depends
        # only on p (f is pure), so once all three have run on the current p
        # without moving it, all later sweeps would only repeat them.
        p = best_p.copy()
        v_cur = best_v
        pairs = ((0, 1), (0, 2), (1, 2))
        idle = 0  # searches in a row that left p where it was
        for step_no in range(3 * _REFINE_SWEEPS):
            if idle == 3:
                break
            i, j = pairs[step_no % 3]
            idle += 1
            mass = p[i] + p[j]
            if mass <= 0.0:
                continue

            def row(t, i=i, j=j, mass=mass, p=p):
                q = p.copy()
                q[i], q[j] = t, mass - t
                return q

            t_ref, v_ref = refine(row, i, j, max(0.0, p[i] - step),
                                  min(mass, p[i] + step), mass)
            if v_ref > v_cur:
                p = p.copy()
                p[i], p[j] = t_ref, mass - t_ref
                v_cur = v_ref
                idle = 0
        if v_cur > best_v:
            best_p, best_v = p, v_cur
    return best_p, best_v


@dataclass(frozen=True)
class CapacityResult:
    r_ch: float
    r_src: float
    input_pmf: Union[Pmf, dict]
    expected_cost: float

    @property
    def capacity(self) -> float:
        """C_SK = R_ch + R_src, the key capacity's channel and source parts."""
        return self.r_ch + self.r_src

    def to_json(self) -> dict:
        if isinstance(self.input_pmf, Pmf):
            inp = self.input_pmf.probs.tolist()
        else:
            inp = self.input_pmf
        return {
            "capacity_bits": self.capacity,
            "r_ch": self.r_ch,
            "r_src": self.r_src,
            "input_pmf": inp,
            "expected_cost": self.expected_cost,
        }


def rate_split(channel: DiscreteBroadcastChannel, inp: Pmf):
    """(R_ch, R_src) for the choice U=S, V=X: the wiretap portion
    I(S;Y)-I(S;Z) and the source portion I(X;Y|S)-I(X;Z|S)."""
    arr = joint_distribution(channel, inp).probs  # (s,x,y,z)
    mi, cmi = mutual_information, conditional_mutual_information
    r_ch = mi(arr.sum(axis=(1, 3))) - mi(arr.sum(axis=(1, 2)))  # (s,y), (s,z)
    r_src = (cmi(arr.sum(axis=3).transpose(1, 2, 0))  # (x,y,s)
             - cmi(arr.sum(axis=2).transpose(1, 2, 0)))  # (x,z,s)
    return r_ch, r_src


@dataclass(frozen=True)
class StrongAchievability:
    value: float                      # I(X,S;Y) - I(X,S;Z)
    conditional_form: Optional[float]  # I(X,S;Y|Z) when the channel is degraded


def strong_achievability_bound(channel: DiscreteBroadcastChannel,
                               inp: Pmf) -> StrongAchievability:
    """Largest strongly-achievable key rate at this input: I(X,S;Y)-I(X,S;Z),
    the objective that ``degraded_capacity`` maximizes.  On degraded channels
    the conditional form I(X,S;Y|Z), ``upper_bound``'s objective, is computed
    too; a gap of more than 1e-9 between the two raises ChannelError."""
    p = _input_probs(channel, inp)[None]
    value = _difference_objective(channel)(p)[0]
    cond = None
    if is_degraded(channel):
        cond = _conditional_objective(channel)(p)[0]
        if abs(cond - value) > 1e-9:
            raise ChannelError(
                "degraded-channel identity violated: difference form %.12g vs "
                "conditional form %.12g; is_degraded ignores (s,x,y) cells of mass "
                "<= DEGRADED_TOL = %g, which can leave I(X,S;Z|Y) above 1e-9"
                % (value, cond, DEGRADED_TOL))
    return StrongAchievability(value=value, conditional_form=cond)


def _difference_objective(channel: DiscreteBroadcastChannel):
    """p(s) -> I(X,S;Y) - I(X,S;Z) on a (G, |S|) block of inputs."""
    tr = channel.transition
    S, X, Y, Z = tr.shape

    def f(ps):
        _validate_rows(ps)
        arr = ps[:, :, None, None, None] * tr  # (G,s,x,y,z)
        g = len(ps)
        i_y = _mi_rows(np.add.reduce(arr, axis=4).reshape(g, S * X, Y))
        i_z = _mi_rows(np.add.reduce(arr, axis=3).reshape(g, S * X, Z))
        return [a - b for a, b in zip(i_y, i_z)]

    return f


def _conditional_objective(channel: DiscreteBroadcastChannel):
    """p(s) -> I(X,S;Y|Z) on a (G, |S|) block of inputs."""
    tr = channel.transition
    S, X, Y, Z = tr.shape

    def f(ps):
        _validate_rows(ps)
        arr = ps[:, :, None, None, None] * tr  # (G,s,x,y,z)
        return _cmi_rows(arr.reshape(len(ps), S * X, Y, Z))

    return f


def _conditional_slopes(channel: DiscreteBroadcastChannel):
    """p(s) -> the (G, |S|) gradient of I(X,S;Y|Z) on a (G, |S|) block of
    inputs: g_s = -sum_{y,z} p(y,z|s) log2 p(y|z) - [H(X,Y,Z|S=s) - H(X,Z|S=s)],
    as I(X,S;Y|Z) = H(Y,Z) - H(Z) - sum_s p(s) [H(X,Y,Z|S=s) - H(X,Z|S=s)].
    It is +inf or NaN where p(y,z|s) > 0 = p(y,z)."""
    tr = channel.transition
    pyz_s = tr.sum(axis=1)  # (s,y,z)
    c = np.array(_entropy_rows(tr)) - np.array(_entropy_rows(tr.sum(axis=2)))

    def slopes(ps):
        pyz = np.einsum("gs,syz->gyz", ps, pyz_s)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_y_z = np.log2(pyz) - np.log2(pyz.sum(axis=1, keepdims=True))
            terms = np.where(pyz_s > 0, pyz_s * log_y_z[:, None], 0.0)  # (G,s,y,z)
        return -terms.sum(axis=(2, 3)) - c

    return slopes


def degraded_capacity(channel: DiscreteBroadcastChannel, gamma: float = math.inf,
                      config: OptimizerConfig = OptimizerConfig()) -> CapacityResult:
    """Maximize I(X,S;Y) - I(X,S;Z) over p(s) under the cost constraint.

    Only valid for (physically) degraded channels; otherwise use
    ``upper_bound``, which bounds the capacity from above for any channel.
    There I(X,S;Z|Y) = 0 for every p(s), so the difference equals the
    concave I(X,S;Y|Z) up to ~1e-12 of rounding and has its gradient,
    ``_conditional_slopes``.  (``is_degraded`` skips (s,x,y) cells of mass
    <= DEGRADED_TOL, which can leave I(X,S;Z|Y) up to ~3e-8.)
    """
    if not is_degraded(channel):
        raise ChannelError(
            "channel is not degraded; the difference form is not its capacity — "
            "use upper_bound instead")
    p_star, _ = maximize_over_inputs(_difference_objective(channel),
                                     channel.alphabet_sizes[0], channel.cost, gamma,
                                     config, gradient=_conditional_slopes(channel))
    inp = Pmf(p_star)
    r_ch, r_src = rate_split(channel, inp)
    return CapacityResult(r_ch=r_ch, r_src=r_src, input_pmf=inp,
                          expected_cost=float(np.dot(p_star, channel.cost)))


def upper_bound(channel: DiscreteBroadcastChannel, gamma: float = math.inf,
                config: OptimizerConfig = OptimizerConfig()):
    """max over feasible p(s) of I(X,S;Y|Z); returns (p_star as a Pmf, value)."""
    p_star, value = maximize_over_inputs(_conditional_objective(channel),
                                         channel.alphabet_sizes[0], channel.cost, gamma,
                                         config, gradient=_conditional_slopes(channel))
    return Pmf(p_star), value


def _c0(snr: float) -> float:
    return 0.5 * math.log2(1.0 + snr)


def gaussian_capacity(params: GaussianInterferenceParams) -> CapacityResult:
    """Closed-form capacity of the additive Gaussian interference model."""
    p = params

    def c1(rho, nu_i, nu_j, sig_i, sig_j):
        num = rho**2 * nu_i**2 * nu_j**2
        den = (nu_i**2 + sig_i**2) * (nu_j**2 + sig_j**2) - num
        return _c0(num / den)

    r_ch = _c0(p.power / (p.nu2**2 + p.sigma2**2)) - _c0(p.power / (p.nu3**2 + p.sigma3**2))
    r_src = c1(p.rho12, p.nu1, p.nu2, p.sigma1, p.sigma2) \
        - c1(p.rho13, p.nu1, p.nu3, p.sigma1, p.sigma3)
    return CapacityResult(
        r_ch=r_ch, r_src=r_src,
        input_pmf={"family": "gaussian", "mean": 0.0, "variance": p.power},
        expected_cost=p.power)


def _weighted_hb(w: float, a: float) -> float:
    """w * Hb(a / w): the entropy of a binary variable that is 1 with mass a
    inside an event of mass w, weighted by w.  A term of weight 0 counts as 0;
    a / w is capped at 1 because a weight of a few ulps (q=1, delta=2.5e-16)
    can round below the mass a it contains."""
    if w <= 0.0:
        return 0.0
    return w * binary_entropy(min(a / w, 1.0))


def binary_onoff_rate(params: BinaryOnOffParams, beta: float):
    """(R_SK, R_ch, R_src) for a Bern(beta) input, in closed form.

    Exact for the law documented in `BinaryOnOffParams` (the one
    `build_binary_onoff` enumerates): R_ch = I(S;Y) - I(S;Z) and
    R_src = I(X;Y|S) - I(X;Z|S) equal `rate_split` on that channel.  Given
    S=0 all three outputs are independent noise, so R_src is beta times
    I(X;Y|S=1) - I(X;Z|S=1), with Pr(X=1|S=1) = q*delta and H(Y|X,S=1),
    H(Z|X,S=1) spelled out cell by cell from the joint of (X, Y) and (X, Z).
    """
    if not 0.0 <= beta <= 1.0:
        raise ChannelError("beta must lie in [0,1]")
    q, qt, d, d3 = params.q, params.q_tilde, params.delta, params.delta3
    hb, conv = binary_entropy, bsc_convolve
    i_sy = hb(conv(beta * q, d)) - beta * hb(conv(q, d)) - (1.0 - beta) * hb(d)
    i_sz = hb(conv(beta * qt * q, d3)) - beta * hb(conv(qt * q, d3)) - (1.0 - beta) * hb(d3)
    r_ch = i_sy - i_sz
    # Given S=1: X = H+N1, Y = H+N2, Z = H~*H+N3; a_x = Pr(X=x, Y=1) and
    # b_x = Pr(X=x, Z=1), split over H=0 and H=1.
    px1 = conv(q, d)
    px0 = 1.0 - px1
    z_on = conv(qt, d3)
    a0 = d * (1.0 - d)
    a1 = (1.0 - q) * d * d + q * (1.0 - d) ** 2
    b0 = (1.0 - q) * (1.0 - d) * d3 + q * d * z_on
    b1 = (1.0 - q) * d * d3 + q * (1.0 - d) * z_on
    h_y_given_x = _weighted_hb(px0, a0) + _weighted_hb(px1, a1)
    h_z_given_x = _weighted_hb(px0, b0) + _weighted_hb(px1, b1)
    r_src = beta * (hb(px1) - h_y_given_x - hb(conv(qt * q, d3)) + h_z_given_x)
    return r_ch + r_src, r_ch, r_src


def binary_onoff_optimize(params: BinaryOnOffParams,
                          config: OptimizerConfig = OptimizerConfig()):
    """Maximize the closed-form R_SK over beta = p(S=1) with the input
    optimizer; returns (beta_star, value).  Ties are broken toward smaller
    beta."""
    p_star, value = maximize_over_inputs(
        lambda ps: [binary_onoff_rate(params, float(p[1]))[0] for p in ps], 2,
        config=config)
    return float(p_star[1]), value
