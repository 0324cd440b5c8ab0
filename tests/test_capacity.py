import dataclasses
import math
import struct
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    random_binary_channel,
    random_channel,
    random_degraded_binary_channel,
    z_constant_channel,
    z_copies_y_channel,
)
from skagree import (
    BinaryOnOffParams,
    CapacityResult,
    ChannelError,
    DiscreteBroadcastChannel,
    GaussianInterferenceParams,
    OptimizerConfig,
    Pmf,
    binary_entropy,
    binary_onoff_optimize,
    binary_onoff_rate,
    build_binary_onoff,
    conditional_mutual_information,
    degraded_capacity,
    gaussian_capacity,
    golden_section_lanes,
    golden_section_max,
    is_degraded,
    joint_distribution,
    maximize_over_inputs,
    mutual_information,
    rate_split,
    strong_achievability_bound,
    upper_bound,
)
from skagree import capacity, exponents, probability
from skagree.capacity import (
    _conditional_objective,
    _conditional_slopes,
    _difference_objective,
    _simplex_grid,
)

REFERENCE_PARAMS = BinaryOnOffParams(q=0.5, q_tilde=0.8, delta=0.1, delta3=0.2)

COARSE = OptimizerConfig(grid_step=0.02, refine_iters=80)


class TestGoldenSection:
    def test_parabola(self):
        x, v = golden_section_max(lambda t: -(t - 0.37) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.37, abs=1e-10)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_endpoint_max(self):
        x, v = golden_section_max(lambda t: t, 0.0, 1.0)
        assert x == 1.0 and v == 1.0

    def test_flat_ties_left(self):
        x, _ = golden_section_max(lambda t: 0.0, 0.0, 1.0)
        assert x == 0.0


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def full_golden_section_max(f, a, b, iters=200):
    """The golden-section loop that runs all iters iterations: the reference
    the cycle exit of golden_section_max must reproduce bit for bit."""
    best_x, best_v = a, f(a)
    vb = f(b)
    if vb > best_v:
        best_x, best_v = b, vb
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = f(d)
        if not (b - a) > 0.0:
            break
    for x, v in ((c, fc), (d, fd)):
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def bits(*values):
    return struct.pack("%dd" % len(values), *values)


def counted(f):
    def g(t):
        g.calls += 1
        return f(t)
    g.calls = 0
    return g


class TestGoldenSectionCycleExit:
    FUNCTIONS = {
        "parabola": lambda t: -(t - 0.37) ** 2,
        "increasing": lambda t: t,
        "decreasing": lambda t: -t,
        "flat": lambda t: 0.0,
        "flat-negative-zero": lambda t: -0.0,
        "step": lambda t: float(t > 0.5),
        "multimodal": lambda t: math.sin(13.0 * t) * t,
        "nan": lambda t: math.nan,
        "rounded": lambda t: -abs(round(t, 3) - 0.5),
    }
    INTERVALS = [(0.0, 1.0), (1e-6, 1.0), (0.35, 0.39), (0.5, 0.5), (-0.0, 1e-300)]

    @pytest.mark.parametrize("iters", [0, 1, 80, 120, 199, 200])
    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_matches_full_loop(self, name, iters):
        f = self.FUNCTIONS[name]
        for a, b in self.INTERVALS:
            assert bits(*golden_section_max(f, a, b, iters)) == \
                bits(*full_golden_section_max(f, a, b, iters)), (a, b)

    @pytest.mark.parametrize("iters", [199, 200])
    def test_cycle_exit_saves_evaluations(self, iters):
        # both parities of the remaining iteration count end on the state
        # the full loop ends on, with fewer evaluations
        f, ref = counted(self.FUNCTIONS["parabola"]), counted(self.FUNCTIONS["parabola"])
        assert bits(*golden_section_max(f, 0.0, 1.0, iters)) == \
            bits(*full_golden_section_max(ref, 0.0, 1.0, iters))
        assert ref.calls == iters + 4
        assert f.calls < 100

    def test_exponent_objectives(self):
        # criterion 12's channel and base rate point, at the search's own
        # default and at criterion 12's refine_iters
        ch = random_degraded_binary_channel(np.random.default_rng(2032))
        inp = Pmf.bernoulli(0.3)
        rel, _ = exponents.positivity_thresholds(ch, inp)
        rates = exponents.RatePoint(0.02, max(0.1, rel + 0.05), 0.0)
        for f, lo in ((exponents._reliability_objective_for(ch, inp, rates), 0.0),
                      (exponents._secrecy_objective_for(ch, inp, rates),
                       exponents.ALPHA_MIN)):
            for iters in (80, 120, 199, 200):
                assert bits(*golden_section_max(f, lo, 1.0, iters)) == \
                    bits(*full_golden_section_max(f, lo, 1.0, iters))

    def test_criterion_12_config_end_to_end(self, monkeypatch):
        ch = random_degraded_binary_channel(np.random.default_rng(2032))
        cfg = OptimizerConfig(grid_step=0.02, refine_iters=80)
        rel, _ = exponents.positivity_thresholds(ch, Pmf.uniform(2))
        rates = exponents.RatePoint(0.02, max(0.1, rel + 0.05), 0.0)
        rng = np.random.default_rng(7)  # a degraded |S| = 3 channel
        pxy = rng.dirichlet(np.ones(4), size=3).reshape(3, 2, 2)
        pzy = rng.dirichlet(np.ones(2), size=2)
        ch3 = DiscreteBroadcastChannel(pxy[:, :, :, None] * pzy[None, None],
                                       np.zeros(3))

        def outputs():
            (e, e_in), (f, f_in) = exponents.optimized_exponents(ch, rates, cfg)
            cap = degraded_capacity(ch3, config=COARSE)
            return (bits(e.value, e.argmax, e.raw_value, f.value, f.argmax,
                         f.raw_value, *e_in.probs, *f_in.probs)
                    + bits(cap.capacity, *cap.input_pmf.probs))

        fast = outputs()
        monkeypatch.setattr(capacity, "golden_section_max", full_golden_section_max)
        monkeypatch.setattr(exponents, "golden_section_max", full_golden_section_max)
        assert outputs() == fast


class TestGoldenSectionLanes:
    FUNCTIONS = TestGoldenSectionCycleExit.FUNCTIONS
    INTERVALS = TestGoldenSectionCycleExit.INTERVALS

    @staticmethod
    def lanes_of(functions, steps):
        """F for golden_section_lanes over per-lane scalar functions; records
        the lanes of each step."""
        def F(lanes, xs):
            assert lanes.dtype.kind == "i" and (np.diff(lanes) > 0).all()
            steps.append(lanes.tolist())
            return [functions[lane](x) for lane, x in zip(lanes.tolist(), xs.tolist())]
        return F

    @pytest.mark.parametrize("iters", [0, 1, 80, 120, 199, 200])
    def test_each_lane_equals_its_scalar_search(self, iters):
        pairs = [(self.FUNCTIONS[name], ab) for name in sorted(self.FUNCTIONS)
                 for ab in self.INTERVALS]
        steps = []
        results = golden_section_lanes(self.lanes_of([f for f, _ in pairs], steps),
                                       [ab for _, ab in pairs], iters)
        assert len(results) == len(pairs)
        for (f, (a, b)), got in zip(pairs, results):
            assert bits(*got) == bits(*golden_section_max(f, a, b, iters)), (a, b)
        # every lane is in the first steps; the lanes leave at different steps
        assert steps[0] == list(range(len(pairs)))
        if iters >= 80:
            assert len({len(s) for s in steps}) > 2

    def test_lane_evaluations_equal_scalar_evaluations(self):
        f = self.FUNCTIONS["parabola"]
        scalar, steps = counted(f), []
        golden_section_lanes(self.lanes_of([f], steps), [(0.0, 1.0)])
        golden_section_max(scalar, 0.0, 1.0)
        assert len(steps) == scalar.calls

    def test_no_lanes(self):
        def F(lanes, xs):
            raise AssertionError("F called without lanes")
        assert golden_section_lanes(F, []) == []


class TestBatchedObjectives:
    """The block-batched grid objectives equal, with ==, a per-point path
    that groups (S,X) in explicit marginals for the public mutual_information
    and conditional_mutual_information, at every grid point and for any
    block size."""

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("xyz", [(2, 2, 2), (3, 2, 3), (3, 9, 1), (1, 4, 9)])
    @pytest.mark.parametrize("s_size", [1, 2, 3])
    def test_equal_to_grouped_path(self, s_size, xyz, zeros):
        rng = np.random.default_rng([s_size, *xyz, zeros])
        ch = random_channel(rng, (s_size, *xyz), zeros)
        grid = _simplex_grid(s_size, 0.05 if s_size == 3 else 0.01)

        sx, y_size, z_size = s_size * xyz[0], xyz[1], xyz[2]

        def difference(p):
            arr = p[:, None, None, None] * ch.transition
            return (mutual_information(arr.sum(axis=3).reshape(sx, y_size))
                    - mutual_information(arr.sum(axis=2).reshape(sx, z_size)))

        def conditional(p):
            arr = p[:, None, None, None] * ch.transition
            return conditional_mutual_information(arr.reshape(sx, y_size, z_size))

        for factory, point in ((_difference_objective, difference),
                               (_conditional_objective, conditional)):
            f = factory(ch)
            expect = [point(p) for p in grid]
            for block in (1, 7, 128):
                got = [v for i in range(0, len(grid), block)
                       for v in f(grid[i:i + block])]
                assert got == expect, (factory.__name__, block)

    def test_grid_is_the_nested_loop_enumeration(self):
        for k, step in ((1, 0.1), (2, 1e-3), (3, 1e-2), (3, 0.3)):
            m = int(round(1.0 / step))
            if k == 1:
                expect = [[1.0]]
            elif k == 2:
                expect = [[1.0 - i / m, i / m] for i in range(m + 1)]
            else:
                expect = [[i / m, j / m, 1.0 - (i + j) / m]
                          for i in range(m + 1) for j in range(m + 1 - i)]
            assert _simplex_grid(k, step).tolist() == expect

    def test_block_validation(self):
        ch = random_channel(np.random.default_rng(3), (2, 2, 2, 2), False)
        for f in (_difference_objective(ch), _conditional_objective(ch)):
            for bad in ([0.5, np.nan], [1.2, -0.2], [0.6, 0.6]):
                with pytest.raises(ValueError):
                    f(np.array([[0.5, 0.5], bad]))

    @pytest.mark.parametrize("s_size", [2, 3])
    @pytest.mark.parametrize("gamma", [math.inf, 0.6])
    @pytest.mark.parametrize("solve", [degraded_capacity, upper_bound])
    def test_search_validates_only_input_blocks(self, monkeypatch, solve, s_size, gamma):
        # while maximize_over_inputs runs, the objectives check the p(s)
        # block they are handed and no joint derived from it; rate_split's
        # public kernels run after the search
        rng = np.random.default_rng(30 + s_size)
        pxy = rng.dirichlet(np.ones(4), size=s_size).reshape(s_size, 2, 2)
        pzy = rng.dirichlet(np.ones(2), size=2)
        ch = DiscreteBroadcastChannel(pxy[:, :, :, None] * pzy[None, None],
                                      np.linspace(0.0, 1.0, s_size))
        seen, searching = [], [False]
        check, search = probability._validate_rows, capacity.maximize_over_inputs

        def spy(rows):
            if searching[0]:
                seen.append(rows.shape)
            check(rows)

        def timed(*args, **kwargs):
            searching[0] = True
            try:
                return search(*args, **kwargs)
            finally:
                searching[0] = False

        for module in (probability, capacity):
            monkeypatch.setattr(module, "_validate_rows", spy)
        monkeypatch.setattr(capacity, "maximize_over_inputs", timed)
        solve(ch, gamma, COARSE)
        assert seen and all(len(shape) == 2 and shape[1] == s_size
                            for shape in seen), seen

    def test_batched_and_pointwise_maximizers_agree(self):
        ch = random_channel(np.random.default_rng(4), (3, 2, 2, 2), True)
        f = _conditional_objective(ch)
        batched = maximize_over_inputs(f, 3, config=COARSE)
        pointwise = maximize_over_inputs(lambda ps: [f(p[None])[0] for p in ps], 3,
                                         config=COARSE)
        assert bits(batched[1], *batched[0]) == bits(pointwise[1], *pointwise[0])


class TestMaximizeOverInputs:
    def test_quadratic_k2(self):
        p, v = maximize_over_inputs(lambda ps: [-(p[1] - 0.3) ** 2 for p in ps], 2)
        assert p[1] == pytest.approx(0.3, abs=1e-9)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_cost_constraint_binds(self):
        # maximize p[1] subject to 2*p[1] <= 1
        p, v = maximize_over_inputs(lambda ps: [p[1] for p in ps], 2, cost=[0.0, 2.0],
                                    gamma=1.0)
        assert v == pytest.approx(0.5, abs=1e-9)

    def test_infeasible(self):
        with pytest.raises(ChannelError):
            maximize_over_inputs(lambda ps: [0.0] * len(ps), 2, cost=[5.0, 5.0],
                                 gamma=1.0)

    def test_k3_coordinate_refine(self):
        target = np.array([0.2, 0.3, 0.5])
        p, v = maximize_over_inputs(
            lambda ps: [-float(np.sum((p - target) ** 2)) for p in ps], 3,
            config=OptimizerConfig(grid_step=0.05))
        assert np.allclose(p, target, atol=1e-6)

    def test_unsupported_cardinality(self):
        with pytest.raises(ChannelError):
            maximize_over_inputs(lambda ps: [0.0] * len(ps), 4)

    def test_rejects_bad_cost_and_step(self):
        with pytest.raises(ChannelError):
            maximize_over_inputs(lambda ps: [0.0] * len(ps), 2, cost=[0.0, math.nan])
        for step in (5.0, 0.0, -0.01, math.nan, math.inf):
            for k in (2, 3):
                with pytest.raises(ChannelError):
                    maximize_over_inputs(lambda ps: [0.0] * len(ps), k,
                                         config=OptimizerConfig(grid_step=step))
        with pytest.raises(ChannelError, match="finite and positive"):
            upper_bound(random_channel(np.random.default_rng(0), (3, 2, 2, 2), False),
                        config=OptimizerConfig(grid_step=math.nan))


def full_scan_maximize(objective, k=3, cost=None, gamma=math.inf,
                       config=OptimizerConfig()):
    """maximize_over_inputs scoring every feasible grid point, with the
    |S| = 3 coordinate refinement running all capacity._REFINE_SWEEPS sweeps
    (the loop before its early stop)."""
    cost = np.zeros(k) if cost is None else np.asarray(cost, dtype=float)
    step = config.step_for(k)

    def feasible(p):
        return float(np.dot(p, cost)) <= gamma + 1e-12

    def value(p):
        return objective(p[None, :])[0] if feasible(p) else -math.inf

    grid = _simplex_grid(k, step)
    grid = grid[[feasible(p) for p in grid]]
    best_p, best_v = None, -math.inf
    for start in range(0, len(grid), capacity._GRID_BLOCK):
        block = grid[start:start + capacity._GRID_BLOCK]
        for p, v in zip(block, objective(block)):
            if v > best_v:
                best_p, best_v = p, v
    best_p = best_p.copy()
    if k == 2:
        beta = best_p[1]
        b_ref, v_ref = golden_section_max(
            lambda b: value(np.array([1.0 - b, b])), max(0.0, beta - step),
            min(1.0, beta + step), config.refine_iters)
        if v_ref > best_v or (v_ref == best_v and b_ref < beta):
            best_p, best_v = np.array([1.0 - b_ref, b_ref]), v_ref
        return best_p, best_v
    p = best_p.copy()
    v_cur = best_v
    for _ in range(capacity._REFINE_SWEEPS):
        for i, j in ((0, 1), (0, 2), (1, 2)):
            mass = p[i] + p[j]
            if mass <= 0.0:
                continue

            def g(t, i=i, j=j, mass=mass, p=p):
                q = p.copy()
                q[i], q[j] = t, mass - t
                return value(q)

            t_ref, v_ref = golden_section_max(
                g, max(0.0, p[i] - step), min(mass, p[i] + step),
                config.refine_iters)
            if v_ref > v_cur:
                p = p.copy()
                p[i], p[j] = t_ref, mass - t_ref
                v_cur = v_ref
    if v_cur > best_v:
        best_p, best_v = p, v_cur
    return best_p, best_v


class TestOptimizerConfig:
    @pytest.mark.parametrize("iters", [2.5, math.nan, -3, True, "3", None])
    def test_rejects_bad_refine_iters(self, iters):
        with pytest.raises(ChannelError, match="refine_iters"):
            OptimizerConfig(refine_iters=iters)

    @pytest.mark.parametrize("step", [0.0, -0.01, math.nan, math.inf, True, "0.1"])
    def test_rejects_bad_grid_step(self, step):
        with pytest.raises(ChannelError, match="finite and positive"):
            OptimizerConfig(grid_step=step)

    def test_accepts_integers_and_no_refinement(self):
        assert OptimizerConfig(grid_step=1, refine_iters=np.int64(3)).step_for(2) == 1
        # refine_iters = 0 still scores each bracket's ends and inner points
        p, _ = maximize_over_inputs(lambda ps: [-(p[1] - 0.3) ** 2 for p in ps], 2,
                                    config=OptimizerConfig(grid_step=0.1, refine_iters=0))
        assert p[1] == pytest.approx(0.3, abs=0.1)


class TestRefinementMemo:
    @pytest.mark.parametrize("k,seed", [(2, 0), (3, 3), (3, 11)])
    def test_each_refinement_row_is_scored_once(self, k, seed):
        # the refinement's searches revisit points; a repeat is answered
        # from the values already computed, with the same result
        ch = random_channel(np.random.default_rng(seed), (k, 2, 2, 2), False)
        f = _conditional_objective(ch)
        rows = []

        def counted(ps):
            if len(ps) == 1:
                rows.append(ps[0].tobytes())
            return f(ps)

        got = maximize_over_inputs(counted, k, config=COARSE)
        assert len(rows) == len(set(rows)) > 20
        want = full_scan_maximize(f, k, config=COARSE)
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


class TestCoordinateRefineEarlyStop:
    # (random_channel seed, zeros, objective); seed 11 puts the argmax of
    # I(X,S;Y|Z) on the edge p(s=2) = 0 of the simplex
    CASES = [(3, False, _conditional_objective), (9, False, _conditional_objective),
             (12, True, _conditional_objective), (11, False, _conditional_objective),
             (16, True, _conditional_objective), (3, False, _difference_objective),
             (19, True, _difference_objective)]

    @pytest.mark.parametrize("seed,zeros,make", CASES)
    def test_matches_four_sweeps(self, seed, zeros, make):
        ch = random_channel(np.random.default_rng(seed), (3, 2, 2, 2), zeros)
        f = make(ch)
        calls = {"new": 0, "old": 0}

        def counted_block(key):
            def g(ps):
                calls[key] += len(ps)
                return f(ps)
            return g

        edge = (seed, zeros) == (11, False)
        for config in (COARSE, OptimizerConfig()) if edge else (COARSE,):
            new = maximize_over_inputs(counted_block("new"), 3, config=config)
            old = full_scan_maximize(counted_block("old"), config=config)
            assert bits(*new[0], new[1]) == bits(*old[0], old[1])
            assert calls["new"] <= calls["old"]
        if edge:
            assert new[0][2] == 0.0
            assert calls["new"] < calls["old"]


def recipe_degraded(rng, k, zeros=False):
    """The benchmark's degraded recipe: Dirichlet rows of p(x,y|s) composed
    with a random p(z|y); with ``zeros`` about a third of p(x,y|s) is 0."""
    pxy = rng.dirichlet(np.ones(4), size=k).reshape(k, 2, 2)
    pzy = rng.dirichlet(np.ones(2), size=2)
    if zeros:
        pxy = pxy * (rng.random(pxy.shape) >= 0.35)
        pxy[:, 0, 0] += 1e-3
        pxy /= pxy.sum(axis=(1, 2), keepdims=True)
    return pxy[:, :, :, None] * pzy[None, None, :, :]


def corner_transition(k):
    """s = 0 sends a uniform X with Y = X and Z = 0, every other input sends
    X = Y = Z = 0: both maxima sit on the corner p(s=0) = 1."""
    tr = np.zeros((k, 2, 2, 2))
    tr[0, 0, 0, 0] = tr[0, 1, 1, 0] = 0.5
    tr[1:, 0, 0, 0] = 1.0
    return tr


def skip_scan_transition(kind, k, seed):
    rng = np.random.default_rng([seed, k])
    if kind == "general":
        return random_channel(rng, (k, 2, 2, 2), seed % 2 == 1).transition
    if kind == "edge":  # seed 11 puts the |S| = 3 argmax on the edge p(s=2) = 0
        rng = np.random.default_rng(11)
        return random_channel(rng, (k, 2, 2, 2), False).transition
    if kind == "corner":
        return corner_transition(k)
    if kind == "z-copies-y":  # I(X,S;Y|Z) = 0 everywhere: nothing can be skipped
        tr = np.zeros((k, 2, 2, 2))
        pxy = rng.dirichlet(np.ones(4), size=k).reshape(k, 2, 2)
        for y in range(2):
            tr[:, :, y, y] = pxy[:, :, y]
        return tr
    tr = recipe_degraded(rng, k, zeros=kind == "zeros")
    if kind == "near-degraded":  # within is_degraded's tolerance only
        tr = tr + 1e-11 * rng.random(tr.shape)
        tr /= tr.sum(axis=(1, 2, 3), keepdims=True)
    return tr


SKIP_KINDS = ["general", "edge", "corner", "z-copies-y", "degraded", "zeros",
              "near-degraded"]
# the kinds that is_degraded accepts, on which the difference objective is
# concave with the gradient of I(X,S;Y|Z)
DEGRADED_KINDS = {"corner", "z-copies-y", "degraded", "zeros", "near-degraded"}
# (|S|, grid step, kind): default and coarse steps, with m = round(1/step)
# a multiple of the skipping scan's stride isqrt(m) (m = 100) and not
# (m = 1000, 50); the 5,151-point default |S| = 3 grid only on two kinds,
# for time.  test_capacity_and_upper_bound_match_full_scan covers the
# degraded kinds.
SKIP_CASES = ([(k, step, kind) for k, step in ((2, None), (2, 0.01), (3, 0.02))
               for kind in SKIP_KINDS[:5]]
              + [(3, None, kind) for kind in ("edge", "zeros")])


class TestMajorantSkipping:
    """Given the gradient of a concave objective, the grid scan skips the rows
    that the objective's tangent planes rule out (the objective is its own
    concave majorant); (p_star, value) stay bit-identical to a scan of every
    grid point."""

    @pytest.mark.parametrize("k,step,kind", SKIP_CASES)
    def test_matches_full_scan(self, k, step, kind):
        tr = skip_scan_transition(kind, k, 5)
        cost = np.arange(k, dtype=float)
        ch = DiscreteBroadcastChannel(tr, cost)
        assert is_degraded(ch) == (kind in DEGRADED_KINDS)
        cond, diff = _conditional_objective(ch), _difference_objective(ch)
        config = OptimizerConfig(grid_step=step, refine_iters=20)
        # gamma = 0.5 binds wherever the unconstrained argmax costs more
        for gamma in (math.inf, 0.5):
            for objective in (cond, diff) if kind in DEGRADED_KINDS else (cond,):
                got = maximize_over_inputs(objective, k, cost, gamma, config,
                                           gradient=_conditional_slopes(ch))
                want = full_scan_maximize(objective, k, cost, gamma, config)
                assert bits(*got[0], got[1]) == bits(*want[0], want[1]), \
                    (objective.__name__, gamma)
        if kind == "corner":
            assert got[0][0] > 1.0 - 1e-6
        if kind == "edge" and k == 3:
            assert got[0][2] == 0.0

    @pytest.mark.parametrize("kind", ["degraded", "near-degraded", "zeros",
                                      "z-copies-y", "corner"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_capacity_and_upper_bound_match_full_scan(self, k, kind):
        tr = skip_scan_transition(kind, k, 7)
        config = OptimizerConfig() if k == 2 else COARSE
        for cost, gamma in ((np.zeros(k), math.inf),
                            (np.arange(k, dtype=float), 0.4)):
            ch = DiscreteBroadcastChannel(tr, cost)
            assert is_degraded(ch)
            p_ub, v_ub = upper_bound(ch, gamma, config)
            want = full_scan_maximize(_conditional_objective(ch), k, cost, gamma,
                                      config)
            assert bits(*p_ub.probs, v_ub) == bits(*want[0], want[1])
            cap = degraded_capacity(ch, gamma, config)
            p_full, _ = full_scan_maximize(_difference_objective(ch), k, cost, gamma,
                                           config)
            r_ch, r_src = rate_split(ch, Pmf(p_full))
            got = bits(*cap.input_pmf.probs, cap.r_ch, cap.r_src, cap.expected_cost)
            assert got == bits(*p_full, r_ch, r_src, float(np.dot(p_full, cost)))

    @pytest.mark.parametrize("k", [2, 3])
    def test_steep_ridge(self, k):
        # a concave ridge rising along direction theta from the sample
        # p(s=0) = p(s=k-1) = 0.3: for many theta the grid maximum lies far
        # from every sample, between samples all far below the one on the
        # ridge; its supergradient d - 100 sign(u) n has a kink at u = 0
        config = OptimizerConfig(refine_iters=20)
        for theta in np.linspace(0.05, 6.2, 12):
            d = (math.cos(theta), math.sin(theta))
            n = (-d[1], d[0])

            def ridge(ps):
                return [-100.0 * abs(n[0] * (p[0] - 0.3) + n[1] * (p[-1] - 0.3))
                        + d[0] * (p[0] - 0.3) + d[1] * (p[-1] - 0.3)
                        for p in ps.tolist()]

            def slopes(ps):
                u = n[0] * (ps[:, 0] - 0.3) + n[1] * (ps[:, -1] - 0.3)
                g = np.zeros_like(ps)
                g[:, 0] = d[0] - 100.0 * np.sign(u) * n[0]
                g[:, -1] = d[1] - 100.0 * np.sign(u) * n[1]
                return g

            got = maximize_over_inputs(ridge, k, config=config, gradient=slopes)
            want = full_scan_maximize(ridge, k, config=config)
            assert bits(*got[0], got[1]) == bits(*want[0], want[1]), theta

    def test_finite_gamma_binds(self):
        # the gamma = 0.5 of test_matches_full_scan on its degraded channel
        ch = DiscreteBroadcastChannel(skip_scan_transition("degraded", 3, 5),
                                      np.arange(3, dtype=float))
        free, _ = upper_bound(ch)
        assert float(np.dot(free.probs, ch.cost)) > 0.5

    def test_difference_is_below_conditional(self):
        # I(X,S;Y) - I(X,S;Z) = I(X,S;Y|Z) - I(X,S;Z|Y)
        rng = np.random.default_rng(40)
        for trial in range(20):
            k = 2 + trial % 2
            ps = rng.dirichlet(np.ones(k), size=16)
            general = random_channel(rng, (k, 2, 3, 2), trial % 4 == 1)
            diff = _difference_objective(general)(ps)
            cond = _conditional_objective(general)(ps)
            assert all(a <= b + 1e-12 for a, b in zip(diff, cond))
            degraded = DiscreteBroadcastChannel(recipe_degraded(rng, k), np.zeros(k))
            diff = _difference_objective(degraded)(ps)
            cond = _conditional_objective(degraded)(ps)
            assert all(abs(a - b) <= 1e-12 for a, b in zip(diff, cond))

    def test_conditional_objective_is_midpoint_concave(self):
        rng = np.random.default_rng(41)
        for trial in range(20):
            k = 2 + trial % 2
            ch = random_channel(rng, (k, 2, 2, 3), trial % 3 == 0)
            f = _conditional_objective(ch)
            p, q = rng.dirichlet(np.ones(k), size=(2, 16))
            for fp, fq, fm in zip(f(p), f(q), f((p + q) / 2)):
                assert fm >= (fp + fq) / 2 - 1e-12

    @staticmethod
    def grid_rows_scored(monkeypatch, gradient):
        """Rows the |S| = 3 grid scan scores on a benchmark-recipe channel:
        the objective's rows that pass through capacity._score, which only
        the scan calls."""
        ch = DiscreteBroadcastChannel(
            recipe_degraded(np.random.default_rng(2031), 3), np.zeros(3))
        f = _conditional_objective(ch)
        rows, score = [], capacity._score

        def counting(g, grid, block_rows):
            if g is f:
                rows.append(len(block_rows))
            return score(g, grid, block_rows)

        monkeypatch.setattr(capacity, "_score", counting)
        maximize_over_inputs(f, 3,
                             gradient=_conditional_slopes(ch) if gradient else None)
        return sum(rows)

    def test_skipping_scores_under_a_tenth_of_the_grid(self, monkeypatch):
        grid = _simplex_grid(3, 1e-2)
        assert self.grid_rows_scored(monkeypatch, True) < 0.1 * len(grid)

    def test_without_majorant_every_point_is_scored(self, monkeypatch):
        assert self.grid_rows_scored(monkeypatch, False) == len(_simplex_grid(3, 1e-2))

    def test_scan_scores_each_grid_row_once(self, monkeypatch):
        # a wrapper around the objective, as a tracer passes it, sees each
        # sample row once: the scan's planes come from the objective's own
        # values, not from a second function scored at the same rows
        ch = random_channel(np.random.default_rng(3), (3, 2, 2, 2), False)
        f = _conditional_objective(ch)
        seen = []

        def wrapped(ps):
            seen.extend(map(tuple, ps.tolist()))
            return f(ps)

        # no refinement: every row the wrapper sees comes from the grid scan
        monkeypatch.setattr(capacity, "golden_section_max",
                            lambda g, a, b, iters: (a, -math.inf))
        maximize_over_inputs(wrapped, 3, gradient=_conditional_slopes(ch))
        assert 0 < len(seen) == len(set(seen)) < len(_simplex_grid(3, 1e-2))


def slope_channels(rng):
    """General, degraded and zero-entry channels at |S| = 2 and 3."""
    for k in (2, 3):
        yield random_channel(rng, (k, 2, 3, 2), False)
        yield random_channel(rng, (k, 3, 2, 2), True)
        yield DiscreteBroadcastChannel(recipe_degraded(rng, k), np.zeros(k))
        yield DiscreteBroadcastChannel(recipe_degraded(rng, k, zeros=True), np.zeros(k))


class TestConditionalSlopes:
    """_conditional_slopes is the gradient of I(X,S;Y|Z) in p(s)."""

    def test_matches_central_differences(self):
        rng = np.random.default_rng(50)
        h = 1e-6
        for ch in slope_channels(rng):
            k = ch.alphabet_sizes[0]
            f, slopes = _conditional_objective(ch), _conditional_slopes(ch)
            for p in 0.1 / k + (1.0 - 0.1) * rng.dirichlet(np.ones(k), size=4):
                g = slopes(p[None])[0]
                for i, j in combinations(range(k), 2):
                    e = np.zeros(k)
                    e[i], e[j] = h, -h
                    up, down = f(np.stack([p + e, p - e]))
                    assert abs((up - down) / (2 * h) - (g[i] - g[j])) < 1e-6

    def test_plane_through_each_point_passes_the_origin(self):
        # the conditional entropy part is positively homogeneous in p(s), so
        # f(q) = g(q).q: this pins the part of g that differences do not see
        rng = np.random.default_rng(51)
        for ch in slope_channels(rng):
            k = ch.alphabet_sizes[0]
            qs = rng.dirichlet(np.ones(k), size=8)
            for q, fq, g in zip(qs, _conditional_objective(ch)(qs),
                                _conditional_slopes(ch)(qs)):
                assert abs(fq - float(np.dot(g, q))) < 1e-12

    def test_tangent_planes_lie_above(self):
        rng = np.random.default_rng(52)
        for ch in slope_channels(rng):
            k = ch.alphabet_sizes[0]
            f, slopes = _conditional_objective(ch), _conditional_slopes(ch)
            ps, qs = rng.dirichlet(np.full(k, 0.5), size=(2, 16))
            g = slopes(qs)
            assert np.isfinite(g).all()
            for fp, fq, gq, p, q in zip(f(ps), f(qs), g, ps, qs):
                assert fp <= fq + float(np.dot(gq, p - q)) + 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_boundary_with_an_unreachable_output_is_not_finite(self, k):
        # at q = (0, 1, 0...) only (y, z) = (0, 0) occurs, but s = 0 reaches
        # (y, z) = (1, 0): the slope toward s = 0 is +inf, and the interior
        # row of the same block stays finite
        ch = DiscreteBroadcastChannel(corner_transition(k), np.zeros(k))
        q = np.zeros((2, k))
        q[0, 1] = 1.0
        q[1] = 1.0 / k
        g = _conditional_slopes(ch)(q)
        assert g[0, 0] == math.inf
        assert np.isfinite(g[1]).all()


class TestRateSplit:
    def test_z_copies_y_gives_zero(self):
        rng = np.random.default_rng(20)
        ch = z_copies_y_channel(rng)
        r_ch, r_src = rate_split(ch, Pmf.uniform(2))
        assert r_ch == pytest.approx(0.0, abs=1e-12)
        assert r_src == pytest.approx(0.0, abs=1e-12)

    def test_blind_eavesdropper(self):
        # Z constant: the split reduces to (I(S;Y), I(X;Y|S))
        rng = np.random.default_rng(21)
        ch = z_constant_channel(rng)
        inp = Pmf.bernoulli(0.4)
        r_ch, r_src = rate_split(ch, inp)
        arr = joint_distribution(ch, inp).probs
        p_sy = arr.sum(axis=(1, 3))
        assert r_ch == pytest.approx(mutual_information(p_sy), abs=1e-12)
        p_xys = np.moveaxis(arr.sum(axis=3), 0, 2)  # (x,y,s)
        assert r_src == pytest.approx(
            conditional_mutual_information(p_xys), abs=1e-12)

    def test_wiretap_portion_closed_form_agreement(self):
        # I(S;Y)-I(S;Z) from the generic evaluator must match the on-off
        # closed form exactly (both are exact functionals of the same law)
        ch = build_binary_onoff(REFERENCE_PARAMS)
        for beta in (0.2, 0.5, 0.77):
            r_ch, _ = rate_split(ch, Pmf.bernoulli(beta))
            _, r_ch_cf, _ = binary_onoff_rate(REFERENCE_PARAMS, beta)
            assert r_ch == pytest.approx(r_ch_cf, abs=1e-12)

    @pytest.mark.parametrize("sizes, zeros", [((2, 2, 2, 2), False),
                                              ((3, 2, 3, 2), True)])
    def test_brute_force_oracle_and_chain_rule(self, sizes, zeros):
        # each information term as E[log2 of its ratio] over the full joint,
        # summed with an explicit loop over (s,x,y,z)
        rng = np.random.default_rng(28)
        ch = random_channel(rng, sizes, zeros)
        p = rng.dirichlet(np.ones(sizes[0]))
        joint = p[:, None, None, None] * ch.transition

        def marginal(*keep):  # axes 0..3 are s, x, y, z
            return joint.sum(axis=tuple(a for a in range(4) if a not in keep))

        p_s, p_y, p_z = marginal(0), marginal(2), marginal(3)
        p_sx, p_sy, p_sz = marginal(0, 1), marginal(0, 2), marginal(0, 3)
        p_sxy, p_sxz = marginal(0, 1, 2), marginal(0, 1, 3)
        r_ch = r_src = 0.0
        for s, x, y, z in product(*map(range, sizes)):
            m = joint[s, x, y, z]
            if m == 0:
                continue
            r_ch += m * (math.log2(p_sy[s, y] / (p_s[s] * p_y[y]))
                         - math.log2(p_sz[s, z] / (p_s[s] * p_z[z])))
            r_src += m * (math.log2(p_sxy[s, x, y] * p_s[s] / (p_sx[s, x] * p_sy[s, y]))
                          - math.log2(p_sxz[s, x, z] * p_s[s]
                                      / (p_sx[s, x] * p_sz[s, z])))
        inp = Pmf(p)
        got_ch, got_src = rate_split(ch, inp)
        assert got_ch == pytest.approx(r_ch, abs=1e-12)
        assert got_src == pytest.approx(r_src, abs=1e-12)
        # chain rule: I(S;.) + I(X;.|S) = I(X,S;.) for Y and for Z
        total = got_ch + got_src
        assert total == pytest.approx(_difference_objective(ch)(p[None])[0], abs=1e-12)
        assert total == pytest.approx(strong_achievability_bound(ch, inp).value,
                                      abs=1e-12)


class TestDegradedCapacity:
    def test_refuses_non_degraded(self):
        # Z = X exactly is not physically degraded
        tr = np.zeros((2, 2, 2, 2))
        for s, x, y in product(range(2), repeat=3):
            tr[s, x, y, x] = 0.25
        from skagree import DiscreteBroadcastChannel
        with pytest.raises(ChannelError):
            degraded_capacity(DiscreteBroadcastChannel(tr, np.zeros(2)))

    def test_z_copies_y_capacity_zero(self):
        rng = np.random.default_rng(22)
        res = degraded_capacity(z_copies_y_channel(rng), config=COARSE)
        assert res.capacity == pytest.approx(0.0, abs=1e-9)

    def test_equals_upper_bound_when_degraded(self):
        rng = np.random.default_rng(23)
        for _ in range(4):
            ch = random_degraded_binary_channel(rng)
            cap = degraded_capacity(ch, config=COARSE).capacity
            _, ub = upper_bound(ch, config=COARSE)
            assert cap == pytest.approx(ub, abs=1e-7)

    def test_cost_constraint_reduces_capacity(self):
        rng = np.random.default_rng(24)
        pxy = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2)
        pzy = np.array([[0.9, 0.1], [0.2, 0.8]])
        tr = pxy[:, :, :, None] * pzy[None, None, :, :]
        from skagree import DiscreteBroadcastChannel
        ch = DiscreteBroadcastChannel(tr, np.array([0.0, 1.0]))
        free = degraded_capacity(ch, config=COARSE)
        tight = degraded_capacity(ch, gamma=1e-6, config=COARSE)
        assert tight.capacity <= free.capacity + 1e-12
        assert tight.expected_cost <= 1e-6 + 1e-12

    def test_gamma_validation(self):
        rng = np.random.default_rng(25)
        with pytest.raises(ChannelError):
            degraded_capacity(random_degraded_binary_channel(rng), gamma=0.0)


class TestUpperBound:
    def test_dominates_difference_form(self):
        rng = np.random.default_rng(26)
        for _ in range(4):
            ch = random_binary_channel(rng)
            _, ub = upper_bound(ch, config=COARSE)
            r_ch, r_src = rate_split(ch, Pmf.uniform(2))
            assert ub >= r_ch + r_src - 1e-9

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(27)
        ch = random_degraded_binary_channel(rng)
        from skagree import DiscreteBroadcastChannel
        ch = DiscreteBroadcastChannel(ch.transition, np.array([0.0, 1.0]))
        gammas = (0.1, 0.4, 1.0)
        results = [upper_bound(ch, gamma=g, config=COARSE) for g in gammas]
        vals = [v for _, v in results]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12
        for g, (pmf, _) in zip(gammas, results):  # the returned input meets g
            assert float(np.dot(pmf.probs, ch.cost)) <= g + 1e-12


class TestGaussianCapacity:
    def _params(self, **kw):
        base = dict(power=1.0, nu1=1.0, nu2=1.0, nu3=1.0, sigma1=1.0,
                    sigma2=1.0, sigma3=1.0, rho12=0.5, rho13=0.5)
        base.update(kw)
        return GaussianInterferenceParams(**base)

    def test_symmetric_legs_cancel(self):
        res = gaussian_capacity(self._params())
        assert res.capacity == pytest.approx(0.0, abs=1e-12)

    def test_wiretap_leg_only(self):
        # identical correlation legs kill R_src; R_ch is a log-SNR difference
        res = gaussian_capacity(self._params(sigma3=2.0, rho12=0.0, rho13=0.0))
        expect = 0.5 * math.log2(1 + 1.0 / 2.0) - 0.5 * math.log2(1 + 1.0 / 5.0)
        assert res.r_src == pytest.approx(0.0, abs=1e-12)
        assert res.capacity == pytest.approx(expect, abs=1e-12)

    def test_source_leg_only(self):
        res = gaussian_capacity(self._params(rho13=0.0))
        assert res.r_ch == pytest.approx(0.0, abs=1e-12)
        # 0.5 log2( (2*2) / (2*2 - 0.25) )
        assert res.r_src == pytest.approx(0.5 * math.log2(4.0 / 3.75), abs=1e-12)

    def test_degradedness_precondition(self):
        with pytest.raises(ChannelError):
            self._params(sigma3=0.5)

    def test_capacity_consistency(self):
        res = gaussian_capacity(self._params(sigma3=1.5, rho13=0.2))
        assert res.capacity == pytest.approx(res.r_ch + res.r_src, abs=1e-12)
        assert res.expected_cost == 1.0


class TestBinaryOnOffClosedForm:
    def test_frozen_values_at_reference_point(self):
        # Values from a direct count of the 64 latent atoms (h, h~, n1, n2,
        # n3, s) at uniform S, as in test_against_direct_law_oracle, fed to
        # mutual_information and conditional_mutual_information; the closed
        # form agrees with that count to 2e-16.
        r_sk, r_ch, r_src = binary_onoff_rate(REFERENCE_PARAMS, 0.5)
        assert r_sk == pytest.approx(0.20264137809353355, abs=1e-12)
        assert r_ch == pytest.approx(0.0981694527662672, abs=1e-12)
        assert r_src == pytest.approx(0.10447192532726647, abs=1e-12)

    def test_beta_zero(self):
        assert binary_onoff_rate(REFERENCE_PARAMS, 0.0) == (0.0, 0.0, 0.0)

    def test_noiseless_corner(self):
        p = BinaryOnOffParams(q=1.0, q_tilde=1.0, delta=0.0, delta3=0.0)
        r_sk, r_ch, r_src = binary_onoff_rate(p, 0.5)
        assert r_sk == pytest.approx(0.0, abs=1e-12)

    def test_blind_eavesdropper_corner(self):
        # q_tilde = 0: Z is independent noise, so the wiretap portion
        # equals I(S;Y) in full
        p = BinaryOnOffParams(q=0.5, q_tilde=0.0, delta=0.1, delta3=0.3)
        _, r_ch, _ = binary_onoff_rate(p, 0.5)
        hb, q, d = binary_entropy, 0.5, 0.1
        conv = lambda a, b: a * (1 - b) + (1 - a) * b
        expect = hb(conv(0.25, d)) - 0.5 * hb(conv(q, d)) - 0.5 * hb(d)
        assert r_ch == pytest.approx(expect, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ChannelError):
            binary_onoff_rate(REFERENCE_PARAMS, 1.5)

    @pytest.mark.parametrize("params", [
        BinaryOnOffParams(q=0.0, q_tilde=0.7, delta=0.0, delta3=0.2),
        BinaryOnOffParams(q=1.0, q_tilde=0.7, delta=0.0, delta3=0.2),
        BinaryOnOffParams(q=0.5, q_tilde=0.0, delta=0.1, delta3=0.3),
        BinaryOnOffParams(q=1.0, q_tilde=0.7, delta=2.5e-16, delta3=0.2),
    ], ids=["q0-delta0", "q1-delta0", "qtilde0", "q1-delta-ulp"])
    def test_zero_weight_corners_match_generic(self, params):
        # Pr(X=1|S=1) = q*delta is 0 at (q=0, delta=0) and 1 at (q=1,
        # delta=0), so one term of each H(.|X,S=1) has weight 0; at
        # q_tilde=0 Eve's output carries no trace of H.  At delta=2.5e-16
        # the weight 1 - q*delta rounds below the mass Pr(X=0, Y=1).
        r_sk, r_ch, r_src = binary_onoff_rate(params, 0.5)
        assert all(math.isfinite(v) for v in (r_sk, r_ch, r_src))
        g_ch, g_src = rate_split(build_binary_onoff(params),
                                 Pmf.bernoulli(0.5))
        assert r_ch == pytest.approx(g_ch, abs=1e-12)
        assert r_src == pytest.approx(g_src, abs=1e-12)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=40)
    def test_split_sums(self, beta):
        r_sk, r_ch, r_src = binary_onoff_rate(REFERENCE_PARAMS, beta)
        assert r_sk == pytest.approx(r_ch + r_src, abs=1e-12)

    @pytest.mark.parametrize("params", [
        REFERENCE_PARAMS,
        BinaryOnOffParams(q=0.9, q_tilde=0.3, delta=0.05, delta3=0.3),
        BinaryOnOffParams(q=1.0, q_tilde=1.0, delta=0.0, delta3=0.0),
    ])
    @pytest.mark.parametrize("config", [OptimizerConfig(), COARSE])
    def test_optimize_matches_own_grid_loop(self, params, config):
        # the dedicated beta grid + golden-section loop that the shared
        # input optimizer replaced: same beta* and C_SK, bit for bit
        step = config.step_for(2)
        m = int(round(1.0 / step))
        best_b, best_v = 0.0, -math.inf
        for i in range(m + 1):
            v = binary_onoff_rate(params, i / m)[0]
            if v > best_v:
                best_b, best_v = i / m, v
        b_ref, v_ref = full_golden_section_max(
            lambda b: binary_onoff_rate(params, b)[0],
            max(0.0, best_b - step), min(1.0, best_b + step), config.refine_iters)
        if v_ref > best_v or (v_ref == best_v and b_ref < best_b):
            best_b, best_v = b_ref, v_ref
        beta, value = binary_onoff_optimize(params, config)
        assert bits(beta, value) == bits(best_b, best_v)
        assert type(beta) is float and type(value) is float

    def test_optimize_matches_dense_grid(self):
        beta_star, v_star = binary_onoff_optimize(REFERENCE_PARAMS)
        grid = [(binary_onoff_rate(REFERENCE_PARAMS, i / 20000)[0], i / 20000)
                for i in range(20001)]
        v_grid, b_grid = max(grid)
        assert v_star >= v_grid - 1e-12
        assert abs(beta_star - b_grid) < 1e-3


class TestCapacityResult:
    def test_sum_invariant(self):
        # C_SK = R_ch + R_src holds by construction: capacity is not a field
        res = CapacityResult(r_ch=0.3, r_src=0.1, input_pmf=Pmf.uniform(2),
                             expected_cost=0.0)
        assert res.capacity == 0.3 + 0.1
        assert [f.name for f in dataclasses.fields(res)] == [
            "r_ch", "r_src", "input_pmf", "expected_cost"]

    def test_json_shape(self):
        res = CapacityResult(r_ch=0.375, r_src=0.25,
                             input_pmf=Pmf.uniform(2), expected_cost=0.1)
        doc = res.to_json()
        assert doc["capacity_bits"] == 0.625
        assert doc["input_pmf"] == [0.5, 0.5]
        assert set(doc) == {"capacity_bits", "r_ch", "r_src", "input_pmf",
                            "expected_cost"}
