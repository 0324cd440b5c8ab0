import dataclasses
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from conftest import random_binary_channel, random_degraded_binary_channel
from skagree import (
    BinaryOnOffParams,
    BudgetError,
    DiscreteBroadcastChannel,
    RatePoint,
    build_binary_onoff,
    ensemble_average,
    ensemble_averages,
    ensemble_error_bound,
    ensemble_leakage_bound,
    exact_evaluate,
    generate_code,
    marginal_channel,
    mlmap_decode,
    monte_carlo_evaluate,
    reliability_objective,
    save_channel,
    secrecy_objective,
)
from skagree import binning_sim
from skagree.binning_sim import (
    _Workspace,
    _bin_winners,
    _evaluate_stack,
    _likelihoods,
    _score_tables,
    _stacked_likelihoods,
    _size_bits,
    index_sequence,
    minimize_error_bound,
    minimize_leakage_bound,
    sequence_index,
)
from skagree.capacity import golden_section_max
from skagree.cli import main
from skagree.exponents import (
    _EDGE_MARGIN,
    ALPHA_MIN,
    _reliability_critical_rate,
    _secrecy_critical_rates,
    positivity_thresholds,
)
from skagree.probability import Pmf, mutual_information

UNIFORM = Pmf.uniform(2)
RATES = RatePoint(r_sk=0.25, r_phi=0.5, r_m=0.25)


def lossless_channel():
    """Y reveals (S, X) losslessly; Z is constant."""
    tr = np.zeros((2, 2, 4, 1))
    for s, x in product(range(2), repeat=2):
        tr[s, x, 2 * s + x, 0] = 0.5
    return DiscreteBroadcastChannel(tr, np.zeros(2))


def tie_heavy_channel():
    """Per-letter likelihoods are powers of 2, so many products tie exactly."""
    w = np.array([[[0.25, 0.25], [0.25, 0.25]],
                  [[0.5, 0.125], [0.125, 0.25]]])
    return DiscreteBroadcastChannel(w[:, :, :, None] * 0.5 * np.ones(2),
                                    np.zeros(2))


def ternary_channel(rng):
    """|X| = |Z| = 3, |Y| = 2: rows and columns of unequal length."""
    tr = rng.dirichlet(np.ones(3 * 2 * 3), size=2).reshape(2, 3, 2, 3)
    return DiscreteBroadcastChannel(tr, np.zeros(2))


def brute_force_decision(code, W, ys, phi):
    """First (m, x^n index) of maximal score within bin phi, or None."""
    X = W.shape[1]
    best, best_score = None, -1.0
    for m in range(code.num_messages):
        for x_idx in range(X**code.n):
            if code.public_bins[m, x_idx] != phi:
                continue
            xs = index_sequence(x_idx, X, code.n)
            score = 1.0
            for s, x, y in zip(code.codewords[m], xs, ys):
                score = score * W[int(s), int(x), int(y)]
            if score > best_score:
                best, best_score = (m, x_idx), score
    return best


def reference_monte_carlo_error(code, channel, trials, seed):
    """Trial-by-trial protocol run with brute-force decoding."""
    rng = np.random.default_rng(seed)
    W = marginal_channel(channel, "xy")
    S, X, Y = W.shape
    cdf = W.reshape(S, X * Y).cumsum(axis=1)
    failures = 0
    for _ in range(trials):
        m = int(rng.integers(code.num_messages))
        u = rng.random(code.n)
        xs = np.zeros(code.n, dtype=np.int64)
        ys = np.zeros(code.n, dtype=np.int64)
        for i, s in enumerate(code.codewords[m]):
            cell = int(np.searchsorted(cdf[int(s)], u[i], side="right"))
            xs[i], ys[i] = divmod(cell, Y)
        x_idx = sequence_index(xs, X)
        phi = int(code.public_bins[m, x_idx])
        best = brute_force_decision(code, W, ys, phi) or (0, 0)
        failures += int(code.key_bins[m, x_idx] != code.key_bins[best])
    return failures / trials


def reference_exact(code, channel):
    """(error, leakage) of one code, evaluated on its own: the per-code
    kernels as they were before codes were stacked, copied verbatim."""
    def likelihoods(table, outputs):
        num_cols = outputs.shape[1]
        scores = table[code.codewords[:, 0]].take(outputs[0], axis=2)
        for i in range(1, code.n):
            letter = table[code.codewords[:, i]].take(outputs[i], axis=2)
            scores = (scores[:, :, None, :] * letter[:, None, :, :]).reshape(
                code.num_messages, -1, num_cols)
        return scores.reshape(-1, num_cols)

    def bin_winners(scores, pub_flat, num_public):
        order = np.argsort(pub_flat, kind="stable")
        ends = np.cumsum(np.bincount(pub_flat, minlength=num_public))
        winners = np.zeros((num_public, scores.shape[1]), dtype=np.int64)
        start = 0
        for phi, end in enumerate(ends):
            if end > start:
                rows = order[start:end]
                winners[phi] = rows[np.argmax(scores[rows], axis=0)]
            start = end
        return winners

    S, X, Y, Z = channel.alphabet_sizes
    n = code.n
    pub_flat, key_flat = code.public_bins.ravel(), code.key_bins.ravel()
    score_y = likelihoods(marginal_channel(channel, "xy"),
                          np.indices((Y,) * n).reshape(n, -1))
    k_b = key_flat[bin_winners(score_y, pub_flat, code.num_public)]
    np.multiply(score_y, key_flat[:, None] != k_b[pub_flat], out=score_y)
    error = float(score_y.sum() / code.num_messages)
    score_z = likelihoods(marginal_channel(channel, "xz"),
                          np.indices((Z,) * n).reshape(n, -1))
    score_z /= code.num_messages
    cell = key_flat * code.num_public + pub_flat
    joint_kpz = np.bincount((cell[:, None] * Z**n + np.arange(Z**n)).ravel(),
                            weights=score_z.ravel(),
                            minlength=code.num_keys * code.num_public * Z**n)
    leakage = mutual_information(joint_kpz.reshape(code.num_keys, -1))
    return error, max(0.0, leakage) if code.num_keys > 1 else 0.0


def quantized_channel(rng, sizes):
    """Random rows rounded to powers of 2 and renormalized: many exact ties."""
    S, X, Y, Z = sizes
    tr = np.exp2(np.round(np.log2(rng.dirichlet(np.ones(X * Y * Z), size=S))))
    return DiscreteBroadcastChannel((tr / tr.sum(axis=1, keepdims=True)).reshape(
        S, X, Y, Z), np.zeros(S))


def random_channel(rng, sizes):
    S, X, Y, Z = sizes
    tr = rng.dirichlet(np.ones(X * Y * Z), size=S).reshape(S, X, Y, Z)
    return DiscreteBroadcastChannel(tr, np.zeros(S))


class TestSizing:
    def test_size_from_rate(self):
        assert 2 ** _size_bits(4, 0.25) == 2
        assert 2 ** _size_bits(4, 0.0) == 1
        assert 2 ** _size_bits(3, 1.0 / 3.0) == 2  # robust to float fuzz
        assert 2 ** _size_bits(5, 0.5) == 8  # ceil(2.5) = 3

    def test_size_limits(self):
        assert 2 ** _size_bits(1, 62.0) == 2**62
        with pytest.raises(ValueError, match=r"\|K\| = .* exceeds 2\^62"):
            _size_bits(1, 63.0, "|K|")
        assert 2 ** _size_bits(1, 63.0, "|K|", 1023) == 2**63
        with pytest.raises(ValueError, match=r"\|Phi\|"):
            binning_sim._code_size(1, 1024.0, "|Phi|")

    def test_leakage_joint_counts_against_enum_budget(self, monkeypatch):
        # |K| |Phi| |Z|^n = 16 * 2 * 2 = 64 leakage cells, while the decoder
        # enumerates only |M| |X|^n |Y|^n = 1 * 2 * 2 = 4 cells
        ch = random_binary_channel(np.random.default_rng(80))
        code = generate_code(ch, 1, RatePoint(4.0, 1.0, 0.0), UNIFORM, seed=3)
        monkeypatch.setattr(binning_sim, "ENUM_BUDGET", 63)
        with pytest.raises(BudgetError, match="64 cells"):
            exact_evaluate(code, ch)
        monkeypatch.setattr(binning_sim, "ENUM_BUDGET", 64)
        assert exact_evaluate(code, ch).trials == 4

    def test_sequence_index_round_trip(self):
        for idx in range(27):
            seq = index_sequence(idx, 3, 3)
            assert sequence_index(seq, 3) == idx

    def test_lex_order(self):
        assert sequence_index([0, 0, 1], 2) == 1
        assert sequence_index([1, 0, 0], 2) == 4


class TestGenerateCode:
    def test_shapes_and_determinism(self):
        rng = np.random.default_rng(70)
        ch = random_binary_channel(rng)
        a = generate_code(ch, 4, RATES, UNIFORM, seed=5)
        b = generate_code(ch, 4, RATES, UNIFORM, seed=5)
        assert a.codewords.shape == (2, 4)  # |M| = 2^ceil(4*0.25)
        assert a.key_bins.shape == (2, 16)
        assert a.num_public == 4 and a.num_keys == 2
        assert np.array_equal(a.codewords, b.codewords)
        assert np.array_equal(a.key_bins, b.key_bins)
        assert np.array_equal(a.public_bins, b.public_bins)

    def test_seed_changes_tables(self):
        rng = np.random.default_rng(71)
        ch = random_binary_channel(rng)
        a = generate_code(ch, 6, RATES, UNIFORM, seed=1)
        b = generate_code(ch, 6, RATES, UNIFORM, seed=2)
        assert not (np.array_equal(a.key_bins, b.key_bins)
                    and np.array_equal(a.public_bins, b.public_bins))

    def test_table_budget(self, monkeypatch):
        rng = np.random.default_rng(72)
        ch = random_binary_channel(rng)
        monkeypatch.setattr(binning_sim, "TABLE_BUDGET", 100)
        with pytest.raises(BudgetError):
            generate_code(ch, 8, RATES, UNIFORM, seed=0)

    def test_sizes_come_from_the_codeword_table(self):
        ch = random_binary_channel(np.random.default_rng(75))
        code = generate_code(ch, 4, RATES, UNIFORM, seed=5)
        assert (code.n, code.num_messages) == (4, 2) == code.codewords.shape[::-1]
        assert [f.name for f in dataclasses.fields(code)] == [
            "codewords", "key_bins", "public_bins", "num_public", "num_keys"]

    def test_point_mass_input(self):
        rng = np.random.default_rng(73)
        ch = random_binary_channel(rng)
        code = generate_code(ch, 5, RATES, Pmf.bernoulli(1.0), seed=3)
        assert np.all(code.codewords == 1)


def choice_tables(seed, s_size, probs, num_m, n, width, num_k, num_phi):
    """One code's tables drawn with Generator.choice for the codewords, then
    two integers calls: the draws the sampler must reproduce bit for bit."""
    rng = np.random.default_rng(seed)
    codewords = rng.choice(s_size, size=(num_m, n), p=probs)
    key_bins = rng.integers(0, num_k, size=(num_m, width))
    public_bins = rng.integers(0, num_phi, size=(num_m, width))
    return codewords, key_bins, public_bins


def pcg64_states(seeds):
    """The states numpy's own PCG64 seeding gives, as _draw_tables takes them."""
    return [np.random.PCG64(seed).state for seed in seeds]


class TestSampler:
    # (input probabilities, |X|, n, rates): a zero-probability letter at
    # |S| = 2 and 3, Bern(0) and Bern(1), |M| > 1, n up to 6
    CASES = [
        ([0.3, 0.7], 2, 1, RatePoint(r_sk=0.5, r_phi=1.0, r_m=1.0)),
        ([0.0, 1.0], 2, 3, RatePoint(r_sk=0.4, r_phi=0.7, r_m=0.4)),
        ([1.0, 0.0], 2, 4, RatePoint(r_sk=0.25, r_phi=0.5, r_m=0.5)),
        ([0.5, 0.0, 0.5], 3, 2, RatePoint(r_sk=0.5, r_phi=1.5, r_m=1.0)),
        ([0.0, 0.25, 0.75], 2, 5, RatePoint(r_sk=0.2, r_phi=0.6, r_m=0.4)),
        ([0.2, 0.3, 0.5], 2, 6, RatePoint(r_sk=0.2, r_phi=0.5, r_m=0.2)),
    ]

    @pytest.mark.parametrize("probs,x_size,n,rates", CASES)
    def test_tables_equal_choice_draws(self, probs, x_size, n, rates):
        s_size = len(probs)
        ch = random_channel(np.random.default_rng(98), (s_size, x_size, 2, 2))
        inp = Pmf(np.array(probs))
        num_m, num_phi, num_k = binning_sim._code_sizes(n, rates)
        width = x_size**n
        children = np.random.SeedSequence(len(probs) * 100 + n).spawn(40)
        codewords, key, pub = binning_sim._draw_tables(
            np.random.PCG64(0), pcg64_states(children),
            binning_sim._input_cdf(inp), n, num_m, width, num_k, num_phi)
        assert codewords.dtype == key.dtype == pub.dtype == np.int64
        assert num_m > 1
        for c, child in enumerate(children):
            expect = choice_tables(child, s_size, inp.probs, num_m, n, width,
                                   num_k, num_phi)
            code = generate_code(ch, n, rates, inp, child)
            for got in ((codewords[c], key[c].reshape(num_m, width),
                         pub[c].reshape(num_m, width)),
                        (code.codewords, code.key_bins, code.public_bins)):
                for table, want in zip(got, expect):
                    assert table.dtype == np.int64
                    assert table.shape == want.shape
                    assert (table == want).all()
        zero = [s for s, p in enumerate(probs) if p == 0.0]
        assert not np.isin(codewords, zero).any()

    # Table sizes CASES never reaches: |K| = 1 before a public table, and
    # |Phi| = 1; an odd |M|*|X|^n, after which the public table starts with
    # the key's leftover half-word; |K| = |Phi| = 2^32; |Phi| > 2^32 after an
    # odd-sized key table; |K| > 2^32 before a public table of 32 bits or fewer.
    SIZE_CASES = [
        ([0.4, 0.6], 2, 3, RatePoint(r_sk=0.0, r_phi=1.0, r_m=0.4)),
        ([0.4, 0.6], 2, 2, RatePoint(r_sk=0.5, r_phi=0.0, r_m=0.5)),
        ([0.4, 0.6], 3, 3, RatePoint(r_sk=0.5, r_phi=1.0, r_m=0.0)),
        ([0.4, 0.6], 3, 1, RatePoint(r_sk=32.0, r_phi=32.0, r_m=0.0)),
        ([0.4, 0.6], 3, 1, RatePoint(r_sk=3.0, r_phi=40.0, r_m=0.0)),
        ([0.2, 0.0, 0.8], 3, 1, RatePoint(r_sk=40.0, r_phi=5.0, r_m=1.0)),
    ]

    @pytest.mark.parametrize("probs,x_size,n,rates", SIZE_CASES)
    def test_table_size_classes_equal_choice_draws(self, probs, x_size, n, rates):
        ch = random_channel(np.random.default_rng(97), (len(probs), x_size, 2, 2))
        inp = Pmf(np.array(probs))
        num_m, num_phi, num_k = binning_sim._code_sizes(n, rates)
        width = x_size**n
        children = np.random.SeedSequence([n, num_k, num_phi]).spawn(20)
        stacked = binning_sim._draw_tables(
            np.random.PCG64(0), pcg64_states(children),
            binning_sim._input_cdf(inp), n, num_m, width, num_k, num_phi)
        for c, child in enumerate(children):
            expect = choice_tables(child, len(probs), inp.probs, num_m, n, width,
                                   num_k, num_phi)
            code = generate_code(ch, n, rates, inp, child)
            for got in ([table[c] for table in stacked],
                        (code.codewords, code.key_bins, code.public_bins)):
                for table, want in zip(got, expect):
                    assert table.dtype == np.int64
                    assert (table.reshape(want.shape) == want).all()

    @pytest.mark.parametrize("seed", [np.random.default_rng(1), np.random.PCG64(1)],
                             ids=["Generator", "BitGenerator"])
    def test_generator_seed_refused(self, seed):
        # one raw block cannot take up a generator's position or buffer
        ch = random_binary_channel(np.random.default_rng(102))
        with pytest.raises(ValueError, match="SeedSequence, not"):
            generate_code(ch, 3, RATES, UNIFORM, seed)
        with pytest.raises(ValueError, match="SeedSequence, not"):
            ensemble_average(ch, UNIFORM, 3, RATES, 4, seed)

    def test_input_size_must_match_channel(self):
        ch = random_binary_channel(np.random.default_rng(99))
        for inp in (Pmf.uniform(3), Pmf.uniform(1)):
            with pytest.raises(ValueError, match=r"\|S\| = 2"):
                generate_code(ch, 3, RATES, inp, seed=1)
            with pytest.raises(ValueError, match=r"\|S\| = 2"):
                ensemble_average(ch, inp, 3, RATES, 4, seed=1)

    def test_checks_run_before_any_draw(self, monkeypatch):
        ch = random_binary_channel(np.random.default_rng(100))

        def no_draws(*args):
            raise AssertionError("tables drawn before the checks")

        monkeypatch.setattr(binning_sim, "_draw_tables", no_draws)
        with pytest.raises(ValueError, match="blocklength"):
            ensemble_average(ch, UNIFORM, 0, RATES, 4, seed=1)
        monkeypatch.setattr(binning_sim, "TABLE_BUDGET", 100)
        with pytest.raises(BudgetError):
            ensemble_average(ch, UNIFORM, 8, RATES, 4, seed=1)

    def test_enum_budget_checked_before_any_draw(self, monkeypatch):
        # the code sizes alone decide the enumeration cells, so an ensemble
        # over the budget is refused before a seed is spawned or a table drawn
        ch = random_binary_channel(np.random.default_rng(101))

        def no_draws(*args):
            raise AssertionError("tables drawn before the enumeration budget check")

        monkeypatch.setattr(binning_sim, "_draw_tables", no_draws)
        monkeypatch.setattr(binning_sim, "ENUM_BUDGET", 511)
        with pytest.raises(BudgetError, match="enumeration needs 512 cells"):
            ensemble_average(ch, UNIFORM, 4, RATES, 4, seed=1)

    # entropy values: one-word, two-word and three-word ints, OS entropy,
    # a list with multi-word elements and a uint32 array; then ints of
    # exactly 4 and 8 words, each a pool size, and of 9 words, past both
    ENTROPIES = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30, None,
                 [2**40 + 3, 7, 2**70], np.array([7, 2**31, 0], dtype=np.uint32),
                 2**96 + 1, 2**224 + 1, 10**80]

    @pytest.mark.parametrize("entropy", ENTROPIES, ids=[
        "0", "1", "2^32-1", "2^32", "2^64+5", "10^30", "None", "list",
        "uint32-array", "2^96+1", "2^224+1", "10^80"])
    def test_derived_streams_equal_spawned_children(self, entropy):
        # spawn keys of 0 to 3 words and one of 9, longer than either pool
        for spawn_key, pool_size, spawned in product(
                [(), (3,), (2**33 + 1, 4), tuple(range(9))], [4, 8], [0, 7]):
            seq = np.random.SeedSequence(entropy, spawn_key=spawn_key,
                                         pool_size=pool_size,
                                         n_children_spawned=spawned)
            children = np.random.SeedSequence(
                seq.entropy, spawn_key=spawn_key, pool_size=pool_size,
                n_children_spawned=spawned).spawn(6)
            states = binning_sim._pcg64_states(binning_sim._child_pools(
                binning_sim._spawn_prefix(seq), spawned, 6))
            bit_gen = np.random.PCG64(0)
            for state, child in zip(states, children, strict=True):
                bit_gen.state = state
                assert (bit_gen.random_raw(9)
                        == np.random.PCG64(child).random_raw(9)).all()
            # generate_code's path: a seed sequence's own pool
            assert binning_sim._pcg64_states(seq.pool[None]) == [
                np.random.PCG64(seq).state]
            assert seq.n_children_spawned == spawned

    def test_child_index_limit(self, monkeypatch):
        ch = random_binary_channel(np.random.default_rng(103))
        seq = np.random.SeedSequence(1, n_children_spawned=2**32 - 1)
        last = np.random.SeedSequence(1, spawn_key=(2**32 - 1,))
        row = reference_exact(generate_code(ch, 2, RATES, UNIFORM, last), ch)
        assert ensemble_average(ch, UNIFORM, 2, RATES, 1, seq)[2][
            "per_codebook"] == [row]

        def no_draws(*args):
            raise AssertionError("tables drawn before the child index check")

        monkeypatch.setattr(binning_sim, "_draw_tables", no_draws)
        with pytest.raises(ValueError, match=r"children 4294967295 to "
                                             r"4294967296.*below 2\^32"):
            ensemble_average(ch, UNIFORM, 2, RATES, 2, seq)

    def test_seed_sequence_is_read_not_advanced(self):
        ch = random_binary_channel(np.random.default_rng(104))
        for spawned in (0, 7):
            seq = np.random.SeedSequence(11, n_children_spawned=spawned)
            first = ensemble_average(ch, UNIFORM, 3, RATES, 5, seq)[2]
            second = ensemble_average(ch, UNIFORM, 3, RATES, 5, seq)[2]
            assert seq.n_children_spawned == spawned
            assert first["per_codebook"] == second["per_codebook"]
            children = np.random.SeedSequence(
                11, n_children_spawned=spawned).spawn(5)
            assert first["per_codebook"] == [
                reference_exact(generate_code(ch, 3, RATES, UNIFORM, child), ch)
                for child in children]

    def test_equivalent_seeds_draw_equal_rows(self):
        ch = random_binary_channel(np.random.default_rng(105))
        rows = [ensemble_average(ch, UNIFORM, 3, RATES, 6, seed)[2]["per_codebook"]
                for seed in (5, np.random.SeedSequence(5), [5],
                             np.random.SeedSequence([5]))]
        assert rows[0] == rows[1] == rows[2] == rows[3]
        codes = [generate_code(ch, 3, RATES, UNIFORM, seed).key_bins
                 for seed in (5, np.random.SeedSequence(5), [5])]
        assert (codes[0] == codes[1]).all() and (codes[0] == codes[2]).all()

    def test_string_entropy_refused(self):
        ch = random_binary_channel(np.random.default_rng(106))
        with pytest.raises(ValueError, match="not the string"):
            ensemble_average(ch, UNIFORM, 2, RATES, 2,
                             np.random.SeedSequence(["10"]))

    def test_one_bit_generator_and_no_spawn_per_ensemble(self, monkeypatch):
        # the per-code seeding cost as a count: 60 codebooks in 8 stacks
        # build one PCG64 and spawn no SeedSequence child
        calls = {"PCG64": 0, "spawn": 0}
        pcg64 = np.random.PCG64

        def counting_pcg64(*args, **kwargs):
            calls["PCG64"] += 1
            return pcg64(*args, **kwargs)

        class CountingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                calls["spawn"] += 1
                return super().spawn(n_children)

        ch = random_binary_channel(np.random.default_rng(107))
        cells = 2 * 2**2 * 2**2  # |M| * |X|^n * |Y|^n at n=2
        monkeypatch.setattr(binning_sim, "_STACK_CELLS", 8 * cells)
        monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        for seed in (3, CountingSeedSequence(3)):
            calls.update(PCG64=0, spawn=0)
            ensemble_average(ch, UNIFORM, 2, RATES, 60, seed)
            assert calls["PCG64"] <= 1 and calls["spawn"] == 0


class TestMlMapDecode:
    def test_matches_brute_force(self):
        # One random code, one on a tie-heavy channel, and one with an empty
        # public bin.  The brute-force search decides every (y^n, phi); the
        # decoder, exact_evaluate's K_B table and Monte-Carlo must all agree.
        rng = np.random.default_rng(74)
        ch = random_binary_channel(rng)
        ties = tie_heavy_channel()
        tie_code = generate_code(ties, 3, RATES, UNIFORM, seed=9)
        gap_code = generate_code(ch, 3, RATES, UNIFORM, seed=9)
        gap_code = dataclasses.replace(
            gap_code, public_bins=np.where(gap_code.public_bins == 1, 0,
                                           gap_code.public_bins))
        cases = [(ch, generate_code(ch, 3, RATES, UNIFORM, seed=9)),
                 (ties, tie_code), (ch, gap_code)]
        tied_maxima = 0
        for channel, code in cases:
            W = marginal_channel(channel, "xy")
            m_x = code.key_bins.size
            scores = _likelihoods(code, W, np.indices((2,) * 3).reshape(3, -1))
            table = _bin_winners(scores, code.public_bins.reshape(m_x),
                                 code.num_public)  # (phi, y^n) -> winner row
            error = 0.0
            for y_idx in range(8):
                ys = index_sequence(y_idx, 2, 3)
                for phi in range(code.num_public):
                    best = brute_force_decision(code, W, ys, phi)
                    m_hat, x_hat = mlmap_decode(code, channel, ys, phi)
                    if best is None:
                        assert m_hat == 0 and not x_hat.any()
                        assert table[phi, y_idx] == 0
                        best = (0, 0)
                    else:
                        assert (m_hat, sequence_index(x_hat, 2)) == best
                        assert table[phi, y_idx] == best[0] * 8 + best[1]
                        in_bin = code.public_bins.reshape(m_x) == phi
                        tied_maxima += int((scores[in_bin, y_idx] == scores[
                            best[0] * 8 + best[1], y_idx]).sum() > 1)
                    for m, x_idx in zip(*np.nonzero(code.public_bins == phi)):
                        if code.key_bins[m, x_idx] != code.key_bins[best]:
                            error += scores[m * 8 + x_idx, y_idx] / code.num_messages
            assert exact_evaluate(code, channel).error_probability == pytest.approx(
                error, abs=1e-12)
            assert monte_carlo_evaluate(code, channel, 300, seed=3).error_probability \
                == reference_monte_carlo_error(code, channel, 300, seed=3)
        assert tied_maxima > 0

    def test_input_validation(self):
        rng = np.random.default_rng(75)
        ch = random_binary_channel(rng)
        code = generate_code(ch, 3, RATES, UNIFORM, seed=9)
        with pytest.raises(ValueError):
            mlmap_decode(code, ch, [0, 1], 0)
        with pytest.raises(ValueError):
            mlmap_decode(code, ch, [0, 1, 0], code.num_public)


def first_maximum_oracle(scores, pub, num_public):
    """(C, num_public, columns) winners by an explicit scan: the first row,
    in row order, of maximal score in each code's bin per column, and row 0
    for a bin the code leaves empty."""
    num_codes, num_rows, num_cols = scores.shape
    out = np.zeros((num_codes, num_public, num_cols), dtype=np.int64)
    for c, phi, d in product(range(num_codes), range(num_public), range(num_cols)):
        best = None
        for r in range(num_rows):
            if pub[c, r] == phi and (best is None
                                     or scores[c, r, d] > scores[c, best, d]):
                best = r
        out[c, phi, d] = 0 if best is None else best
    return out


def bins_of_width(rng, num_codes, num_public, width, bins):
    """(C, rows) public bins in which the fullest bin holds exactly width
    rows and exactly bins of the num_public bins hold a row in some code.
    Code 0 puts width rows in one bin and one row in each other bin; the
    other codes spread their rows more evenly, and the last code leaves
    one of the bins empty when it can, so the codes' bin counts differ."""
    labels = rng.permutation(num_public)[:bins]
    num_rows = width + bins - 1
    spread = [np.arange(num_rows) % bins] * (num_codes - 1)
    if num_codes > 1 and bins > 2 and width > 1:
        spread[-1] = np.arange(num_rows) % (bins - 1)
    rows = [np.r_[np.zeros(width - 1, dtype=int), np.arange(bins)]] + spread
    return np.stack([labels[rng.permutation(r)] for r in rows])


def rank_levels(monkeypatch):
    """Spy on _stacked_bin_winners: one list per call, holding the ranks
    that each of its _rank_winners levels loops over, in call order."""
    levels = []
    rank_winners = binning_sim._rank_winners
    bin_winners = binning_sim._stacked_bin_winners

    def level(scores, keys, order, rank, counts, work):
        levels[-1].append(int(counts.max()))
        return rank_winners(scores, keys, order, rank, counts, work)

    def call(*args):
        levels.append([])
        return bin_winners(*args)

    monkeypatch.setattr(binning_sim, "_rank_winners", level)
    monkeypatch.setattr(binning_sim, "_stacked_bin_winners", call)
    return levels


class TestBinWinners:
    """_stacked_bin_winners against the first-maximum oracle, on shapes
    that reach one level of _rank_winners (W^2 below the scores' cells,
    W the fullest pair's rows) and shapes that reach two (bins cut into
    runs of ceil(sqrt(W)) ranks)."""

    # (codes, |Phi|, fullest width W, bins holding a row, columns); a code
    # has W + bins - 1 rows
    CASES = [
        (1, 8, 4, 5, 3),    # one level
        (3, 8, 4, 5, 3),    # codes of unequal bin counts
        (3, 8, 7, 5, 3),
        (4, 40, 2, 6, 2),   # |Phi| above the rows of a code
        (3, 6, 1, 6, 2),    # one row per bin: no later rank
        (1, 12, 3, 9, 5),
        (1, 8, 6, 4, 4),    # W^2 = 36 cells: cut, runs of 3
        (1, 8, 5, 4, 4),    # one row fewer: 25 < 32 cells, one level
        (1, 8, 7, 4, 4),    # one row more: 49 >= 40 cells, cut
        (2, 1, 9, 1, 4),    # |Phi| = 1: 81 >= 72 cells, cut
        (2, 1, 40, 1, 3),   # |Phi| = 1, runs of 7 ranks
        (3, 4, 30, 3, 2),   # a wide bin beside narrow and empty ones
    ]

    def cases(self):
        rng = np.random.default_rng(118)
        for codes, num_public, width, bins, cols in self.CASES:
            pub = bins_of_width(rng, codes, num_public, width, bins)
            for quantized in (True, False):
                scores = rng.random((codes, pub.shape[1], cols))
                if quantized:  # many exact ties, zeros included
                    scores = rng.integers(0, 3, scores.shape) / 2.0
                yield scores, pub, num_public

    @pytest.mark.parametrize("cut", [True, False])
    def test_forced_loop_matches_oracle(self, monkeypatch, cut):
        # the shape forces the loop: two levels on the cut cases (W^2 at
        # least the scores' cells), one level on the others
        levels = rank_levels(monkeypatch)
        ties = short_bins = 0
        for scores, pub, num_public in self.cases():
            width = max(np.bincount(p).max() for p in pub)
            if (width**2 >= scores.size) != cut:
                continue
            got = binning_sim._stacked_bin_winners(scores, pub, num_public)
            assert len(levels[-1]) == (2 if cut else 1)
            expect = first_maximum_oracle(scores, pub, num_public)
            assert np.array_equal(got, expect), (pub, num_public)
            counts = np.stack([np.bincount(p, minlength=num_public) for p in pub])
            short_bins += int((counts.min(axis=0) < counts.max(axis=0)).any())
            winning = np.take_along_axis(scores, expect.reshape(
                len(pub), -1, scores.shape[2]), axis=1).reshape(expect.shape)
            for c, phi in product(range(len(pub)), range(num_public)):
                in_bin = scores[c, pub[c] == phi]
                ties += int((in_bin == winning[c, phi]).sum(axis=0).max(initial=0) > 1)
        assert ties > 0 and short_bins > 0

    def test_each_level_loops_at_most_sqrt_w_ranks(self, monkeypatch):
        # one level of W ranks while W^2 < cells, else two of at most
        # ceil(sqrt(W)) ranks each
        levels = rank_levels(monkeypatch)
        for scores, pub, num_public in self.cases():
            binning_sim._stacked_bin_winners(scores, pub, num_public)
            width = max(np.bincount(p).max() for p in pub)
            if width**2 < scores.size:
                assert levels[-1] == [width]
            else:
                step = math.isqrt(width - 1) + 1
                assert len(levels[-1]) == 2 and max(levels[-1]) <= step
        assert {len(calls) for calls in levels} == {1, 2}

    def test_rank_tables_fit_in_the_scores(self):
        # bins of two rows: the pairs' tables would need 25/16 of the
        # scores' bytes, so the rank loop takes them in two blocks; and
        # one public bin of 40 rows, cut into runs of 7 ranks
        rng = np.random.default_rng(119)
        pub = np.stack([rng.permutation(np.arange(40) // 2) for _ in range(3)])
        pub[1, pub[1] == 7] = 8  # one bin of four rows and one empty bin
        reserved = []

        class Recording(_Workspace):
            def reserve(self, **nbytes):
                reserved.append(nbytes["scratch"])
                super().reserve(**nbytes)

        for pub, num_public in ((pub, 20), (np.zeros_like(pub), 1)):
            for scores in (rng.random((3, 40, 3)), rng.integers(0, 3, (3, 40, 3)) / 2.0):
                got = binning_sim._stacked_bin_winners(scores, pub, num_public,
                                                       Recording())
                assert np.array_equal(
                    got, first_maximum_oracle(scores, pub, num_public))
                # two blocks of one level, or one block of each of two
                assert len(reserved) == 2 and max(reserved) <= scores.nbytes
                reserved.clear()


class TestExactEvaluate:
    def test_single_key_never_errs(self):
        rng = np.random.default_rng(76)
        ch = random_binary_channel(rng)
        rates = RatePoint(r_sk=0.0, r_phi=0.5, r_m=0.25)
        code = generate_code(ch, 4, rates, UNIFORM, seed=11)
        rep = exact_evaluate(code, ch)
        assert code.num_keys == 1
        assert rep.error_probability == pytest.approx(0.0, abs=1e-15)
        assert rep.leakage_bits == pytest.approx(0.0, abs=1e-12)

    def test_lossless_channel_decodes_perfectly(self):
        # Y determines (s, x) exactly, so as long as the codewords are
        # distinct the true pair is the unique positive-score entry in its
        # public bin and the error probability is exactly 0
        ch = lossless_channel()
        code = generate_code(ch, 4, RATES, UNIFORM, seed=13)
        assert not np.array_equal(code.codewords[0], code.codewords[1])
        rep = exact_evaluate(code, ch)
        assert rep.error_probability == pytest.approx(0.0, abs=1e-12)

    def test_n1_leakage_oracle(self):
        # accumulate p(k, phi, z) with explicit dict arithmetic at n = 1
        rng = np.random.default_rng(77)
        ch = random_binary_channel(rng)
        rates = RatePoint(r_sk=1.0, r_phi=1.0, r_m=1.0)
        code = generate_code(ch, 1, rates, UNIFORM, seed=17)
        pxz = marginal_channel(ch, "xz")
        acc = {}
        for m in range(code.num_messages):
            s = int(code.codewords[m, 0])
            for x in range(2):
                k = int(code.key_bins[m, x])
                phi = int(code.public_bins[m, x])
                for z in range(2):
                    key = (k, phi, z)
                    acc[key] = acc.get(key, 0.0) + pxz[s, x, z] / code.num_messages
        # I(K; Phi, Z) from the accumulated joint
        pk, prest, expect = {}, {}, 0.0
        for (k, phi, z), v in acc.items():
            pk[k] = pk.get(k, 0.0) + v
            prest[(phi, z)] = prest.get((phi, z), 0.0) + v
        for (k, phi, z), v in acc.items():
            if v > 0:
                expect += v * math.log2(v / (pk[k] * prest[(phi, z)]))
        rep = exact_evaluate(code, ch)
        assert rep.leakage_bits == pytest.approx(expect, abs=1e-12)

    def test_enum_budget(self, monkeypatch):
        rng = np.random.default_rng(78)
        ch = random_binary_channel(rng)
        code = generate_code(ch, 6, RATES, UNIFORM, seed=19)
        monkeypatch.setattr(binning_sim, "ENUM_BUDGET", 100)
        with pytest.raises(BudgetError):
            exact_evaluate(code, ch)

    def test_one_public_bin_peak_memory(self):
        # |Phi| = 1: the bin winners copy no cells-sized table, so the
        # peak is the two 8-byte stores per score cell and small tables
        ch = random_binary_channel(np.random.default_rng(120))
        code = generate_code(ch, 8, RatePoint(0.1, 0.0, 0.3), UNIFORM, seed=5)
        assert code.num_public == 1
        tracemalloc.start()
        try:
            exact_evaluate(code, ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * code.key_bins.size * 2**8

    def test_report_fields(self):
        rng = np.random.default_rng(79)
        ch = random_binary_channel(rng)
        code = generate_code(ch, 3, RATES, UNIFORM, seed=21)
        rep = exact_evaluate(code, ch)
        assert rep.method == "exact"
        assert rep.leakage_bits is not None
        assert 0.0 <= rep.error_probability <= 1.0
        doc = rep.to_json()
        assert doc["method"] == "exact"


def independent_z_channel(rng):
    """Binary letters whose Z is independent of (S, X, Y), so no key leaks:
    the computed leakage is rounding around 0."""
    w = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2, 1)
    return DiscreteBroadcastChannel(w * rng.dirichlet(np.ones(2)), np.zeros(2))


class TestLeakageSign:
    """H(K) + H(Phi,Z^n) - H(K,Phi,Z^n) rounds a few ulps around the true
    I(K;Phi,Z^n); the leakage reported is never below 0, and exactly 0
    for a single key."""

    def test_single_key_leaks_exactly_zero(self):
        for seed in range(4):
            ch = random_binary_channel(np.random.default_rng(130 + seed))
            for n, r_phi in ((1, 0.0), (2, 0.5), (3, 1.0), (5, 0.6)):
                rates = RatePoint(r_sk=0.0, r_phi=r_phi, r_m=0.25)
                _, avg, check = ensemble_average(ch, UNIFORM, n, rates, 6, seed)
                assert avg == 0.0
                assert [leak for _, leak in check["per_codebook"]] == [0.0] * 6
                code = generate_code(ch, n, rates, UNIFORM, seed=seed)
                assert exact_evaluate(code, ch).leakage_bits == 0.0

    def test_leakage_never_negative(self):
        zeros = 0
        for seed in range(6):
            rng = np.random.default_rng(140 + seed)
            for ch in (random_binary_channel(rng), independent_z_channel(rng)):
                for n in (1, 2, 3, 4):
                    for rates in ((0.25, 0.5, 0.25), (0.5, 1.0, 0.5),
                                  (0.5, 0.0, 0.5), (1.0, 1.0, 0.0)):
                        rows = ensemble_average(ch, UNIFORM, n, RatePoint(*rates),
                                                8, seed)[2]["per_codebook"]
                        assert all(leak >= 0.0 for _, leak in rows)
                        zeros += sum(leak == 0.0 for _, leak in rows)
        assert zeros > 0


class TestFrozenOutputs:
    # Values recorded before the decoders were merged into one kernel.  The
    # exact error and the Monte-Carlo results must not move by a single bit.
    # The leakage joints at n=6 (and ternary n=3) have rows wider than
    # _WIDE_ROW_CELLS, which numpy sums pairwise: their bits may differ from
    # the fsum values pinned here by a few ulps, and between CPUs.
    LEAKAGE_TOL = 1e-14
    PINS = {
        ("binary", 3): (0.22679041089065075, 0.18707469547607136, 0.2675),
        ("binary", 6): (0.6264740982709649, 0.15626811319736333, 0.645),
        ("ternary", 3): (0.3654825910015084, 0.10062206124239026, 0.3925),
        ("ternary", 6): (0.7382253303084402, 0.010112286961952321, 0.71),
    }

    @staticmethod
    def channels():
        return {"binary": random_binary_channel(np.random.default_rng(94)),
                "ternary": ternary_channel(np.random.default_rng(95))}

    def test_exact_and_monte_carlo_pins(self):
        channels = self.channels()
        for (name, n), (error, leakage, mc_error) in self.PINS.items():
            ch = channels[name]
            code = generate_code(ch, n, RATES, UNIFORM, seed=[n, 1])
            rep = exact_evaluate(code, ch)
            assert rep.error_probability == error
            assert abs(rep.leakage_bits - leakage) <= self.LEAKAGE_TOL
            mc = monte_carlo_evaluate(code, ch, trials=400, seed=[n, 2])
            assert mc.error_probability == mc_error

    def test_second_run_is_identical(self):
        # the wide-row leakage bits are not pinned, but do not move in-process
        channels = self.channels()
        for name, n in self.PINS:
            ch = channels[name]
            first, second = (exact_evaluate(generate_code(ch, n, RATES, UNIFORM,
                                                          seed=[n, 1]), ch)
                             for _ in range(2))
            assert first == second


class TestMonteCarlo:
    def test_agrees_with_exact(self):
        rng = np.random.default_rng(80)
        ch = random_degraded_binary_channel(rng)
        code = generate_code(ch, 4, RATES, UNIFORM, seed=23)
        exact = exact_evaluate(code, ch)
        mc = monte_carlo_evaluate(code, ch, trials=4000, seed=29)
        assert mc.method == "monte-carlo"
        assert mc.leakage_bits is None
        assert abs(mc.error_probability - exact.error_probability) \
            <= mc.error_half_width + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(81)
        ch = random_binary_channel(rng)
        code = generate_code(ch, 3, RATES, UNIFORM, seed=31)
        a = monte_carlo_evaluate(code, ch, trials=500, seed=7)
        b = monte_carlo_evaluate(code, ch, trials=500, seed=7)
        assert a == b

    def test_trials_validation(self):
        rng = np.random.default_rng(82)
        ch = random_binary_channel(rng)
        code = generate_code(ch, 3, RATES, UNIFORM, seed=31)
        for trials in (0, -3, 2.5, 3.0, True, False, "3", None):
            with pytest.raises(ValueError, match="trials must be an integer >= 1"):
                monte_carlo_evaluate(code, ch, trials=trials, seed=7)
        assert monte_carlo_evaluate(code, ch, trials=np.int64(9), seed=7) == \
            monte_carlo_evaluate(code, ch, trials=9, seed=7)

    @staticmethod
    def per_trial_draws(num_m, n, trials, seed):
        """The protocol's draws trial by trial: integers(|M|), then random(n)."""
        rng = np.random.default_rng(seed)
        draws = [(rng.integers(num_m), rng.random(n)) for _ in range(trials)]
        return np.array([m for m, _ in draws]), np.array([u for _, u in draws])

    @pytest.mark.parametrize("num_m", [1, 2, 4, 8, 2**16, 2**32])
    def test_raw_block_equals_per_trial_draws(self, monkeypatch, num_m):
        seeds = [7, [3, num_m], np.random.SeedSequence(11)]
        for n, trials, seed in product((1, 3, 6), (1, 2, 7, 500), seeds):
            want = self.per_trial_draws(num_m, n, trials, seed)
            with monkeypatch.context() as m:  # one raw block, no Generator
                m.setattr(np.random, "default_rng", None)
                got = binning_sim._trial_draws(num_m, n, trials, seed)
            for arr, ref in zip(got, want):
                assert arr.dtype == ref.dtype and arr.shape == ref.shape
                assert (arr == ref).all()

    def test_other_sizes_and_generator_seeds_draw_per_trial(self):
        # |M| = 3 (a user-built code) or 2^33 is not a power of two of 32 bits
        # or fewer; a Generator or BitGenerator seed is used where it stands
        for num_m in (3, 2**33):
            got = binning_sim._trial_draws(num_m, 3, 7, 5)
            for arr, ref in zip(got, self.per_trial_draws(num_m, 3, 7, 5)):
                assert (arr == ref).all()
        for make in (np.random.default_rng, np.random.PCG64):
            gen = make(5)
            got = binning_sim._trial_draws(4, 3, 7, gen)
            rng = np.random.default_rng(5)
            for arr, ref in zip(got, self.per_trial_draws(4, 3, 7, rng)):
                assert (arr == ref).all()
            # the generator moved on by exactly the per-trial draws
            after = gen if make is np.random.default_rng else np.random.default_rng(gen)
            assert after.random() == rng.random()

    def test_results_equal_the_trial_by_trial_oracle(self):
        rng = np.random.default_rng(83)
        ch = random_binary_channel(rng)
        code = generate_code(ch, 3, RATES, UNIFORM, seed=31)  # |M| = 2
        three = generate_code(ch, 3, RatePoint(0.25, 0.5, 0.5), UNIFORM, seed=32)
        three = dataclasses.replace(three, codewords=three.codewords[:3],
                                    key_bins=three.key_bins[:3],
                                    public_bins=three.public_bins[:3])
        assert three.num_messages == 3
        for c in (code, three):
            for seed in (7, [7, 1], np.random.SeedSequence(7)):
                got = monte_carlo_evaluate(c, ch, trials=61, seed=seed)
                assert got.error_probability == reference_monte_carlo_error(
                    c, ch, 61, seed)
            generator = monte_carlo_evaluate(c, ch, 61, np.random.default_rng(7))
            assert generator == monte_carlo_evaluate(c, ch, 61, 7)


class TestCodeFitsChannel:
    """User-built codes and received sequences are checked against the
    channel, on the on-off law at n=3."""

    @staticmethod
    def onoff_code():
        ch = build_binary_onoff(BinaryOnOffParams(q=0.5, q_tilde=0.8, delta=0.1,
                                                  delta3=0.2))
        return ch, generate_code(ch, 3, RATES, UNIFORM, seed=9)

    EVALUATORS = {
        "exact_evaluate": lambda code, ch: exact_evaluate(code, ch),
        "monte_carlo_evaluate": lambda code, ch: monte_carlo_evaluate(code, ch, 50, 1),
        "mlmap_decode": lambda code, ch: mlmap_decode(code, ch, [0, 1, 1], 0),
    }

    @pytest.mark.parametrize("y_seq", [[0, 1, -1], [0, 1, 2]])
    def test_y_symbol_outside_y_alphabet(self, y_seq):
        ch, code = self.onoff_code()
        with pytest.raises(ValueError, match=r"y_seq symbols .* \[0, 2\)"):
            mlmap_decode(code, ch, y_seq, 0)

    def test_y_symbol_not_an_integer(self):
        ch, code = self.onoff_code()
        with pytest.raises(ValueError, match="y_seq symbols"):
            mlmap_decode(code, ch, [0, 1, 1.7], 0)
        assert mlmap_decode(code, ch, [0.0, 1.0, 1.0], 0)[0] == \
            mlmap_decode(code, ch, [0, 1, 1], 0)[0]

    @pytest.mark.parametrize("symbol", [-1, 2])
    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_codeword_symbol_outside_s_alphabet(self, evaluator, symbol):
        ch, code = self.onoff_code()
        codewords = code.codewords.copy()
        codewords[codewords == 1] = symbol
        bad = dataclasses.replace(code, codewords=codewords)
        with pytest.raises(ValueError, match=r"codeword symbols .* \[0, 2\)"):
            self.EVALUATORS[evaluator](bad, ch)

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_float_codewords_refused(self, evaluator):
        ch, code = self.onoff_code()
        bad = dataclasses.replace(code, codewords=code.codewords.astype(float))
        with pytest.raises(ValueError, match="codeword symbols"):
            self.EVALUATORS[evaluator](bad, ch)

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_bin_tables_must_cover_every_x_sequence(self, evaluator):
        ch, code = self.onoff_code()
        bad = dataclasses.replace(code, key_bins=code.key_bins[:, :4],
                                  public_bins=code.public_bins[:, :4])
        with pytest.raises(ValueError, match=r"\(\|M\|, \|X\|\^n\) = \(2, 8\)"):
            self.EVALUATORS[evaluator](bad, ch)

    def test_codewords_must_be_a_table(self):
        _, code = self.onoff_code()
        with pytest.raises(ValueError, match=r"\(\|M\|, n\) table, not 1-D"):
            dataclasses.replace(code, codewords=code.codewords[:, 0])

    @pytest.mark.parametrize("field", ["key_bins", "public_bins"])
    def test_float_bin_tables_refused(self, field):
        _, code = self.onoff_code()
        with pytest.raises(ValueError, match="integer dtype"):
            dataclasses.replace(code, **{field: getattr(code, field).astype(float)})

    @pytest.mark.parametrize("phi", [0.5, 1.0])
    def test_public_index_not_an_integer(self, phi):
        ch, code = self.onoff_code()
        with pytest.raises(ValueError, match="public message index"):
            mlmap_decode(code, ch, [0, 1, 1], phi)


class TestEnsembleBounds:
    def test_error_bound_rho_zero_is_one(self):
        rng = np.random.default_rng(83)
        ch = random_binary_channel(rng)
        assert ensemble_error_bound(ch, UNIFORM, 5, 0.0, RATES) == pytest.approx(
            1.0, abs=1e-12)

    def test_error_bound_matches_exponent_at_integer_rates(self):
        # when n*R is integral the bound is exactly 2^(-n * objective)
        rng = np.random.default_rng(84)
        ch = random_binary_channel(rng)
        rates = RatePoint(r_sk=0.25, r_phi=0.75, r_m=0.25)
        n = 4
        for rho in (0.2, 0.7, 1.0):
            bound = ensemble_error_bound(ch, UNIFORM, n, rho, rates)
            obj = reliability_objective(ch, UNIFORM, rho, rates)
            assert math.log2(bound) == pytest.approx(-n * obj, abs=1e-10)

    def test_leakage_bound_matches_exponent_at_integer_rates(self):
        rng = np.random.default_rng(85)
        ch = random_binary_channel(rng)
        rates = RatePoint(r_sk=0.25, r_phi=0.75, r_m=0.25)
        n = 4
        for alpha in (0.3, 0.8, 1.0):
            bound = ensemble_leakage_bound(ch, UNIFORM, n, alpha, rates)
            obj = secrecy_objective(ch, UNIFORM, alpha, rates)
            c = math.log2(math.e) / alpha
            assert math.log2(bound) == pytest.approx(
                math.log2(c) - n * obj, abs=1e-10)

    def test_minimizers_beat_fixed_parameters(self):
        rng = np.random.default_rng(86)
        ch = random_degraded_binary_channel(rng)
        rho_star, b_err = minimize_error_bound(ch, UNIFORM, 6, RATES)
        alpha_star, b_leak = minimize_leakage_bound(ch, UNIFORM, 6, RATES)
        for t in np.linspace(0.05, 1.0, 20):
            assert b_err <= ensemble_error_bound(ch, UNIFORM, 6, t, RATES) + 1e-12
            assert b_leak <= ensemble_leakage_bound(ch, UNIFORM, 6, t, RATES) + 1e-12
        assert 0.0 <= rho_star <= 1.0 and 0.0 < alpha_star <= 1.0

    def test_domain(self):
        rng = np.random.default_rng(87)
        ch = random_binary_channel(rng)
        with pytest.raises(ValueError):
            ensemble_error_bound(ch, UNIFORM, 4, 1.5, RATES)
        with pytest.raises(ValueError):
            ensemble_leakage_bound(ch, UNIFORM, 4, 0.0, RATES)


def degraded_channel(rng, sizes):
    """p(x,y|s) with Z a random degradation of Y: Dirichlet rows."""
    S, X, Y, Z = sizes
    pxy = rng.dirichlet(np.ones(X * Y), size=S).reshape(S, X, Y)
    pzy = rng.dirichlet(np.ones(Z), size=Y)  # (y, z)
    return DiscreteBroadcastChannel(pxy[:, :, :, None] * pzy[None, None], np.zeros(S))


def bound_cases(seed, count):
    """(channel, input, rates) on random |S| = 2 and 3 channels, degraded and
    general, with uniform and non-uniform inputs, the sim-enum rates and
    random ones (many of them with a vacuous error bound, rho* = 0)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        sizes = (int(rng.integers(2, 4)),) + tuple(int(v) for v in rng.integers(2, 4, 3))
        ch = (degraded_channel if i % 2 else random_channel)(rng, sizes)
        inp = Pmf.uniform(sizes[0]) if i % 3 else Pmf(rng.dirichlet(np.ones(sizes[0])))
        rates = RATES if i % 4 == 0 else RatePoint(*rng.uniform(0.0, 1.2, 3))
        yield ch, inp, rates


def searched_ns(ch, inp, ns, rates):
    """(the n of ns whose error bound is searched, those whose leakage bound
    is): the ones not decided at an edge."""
    threshold = positivity_thresholds(ch, inp)[0]
    rel = _reliability_critical_rate(ch, inp)
    sec = _secrecy_critical_rates(ch, inp)[0]
    return ([n for n in ns if binning_sim._decided_error_bound(
                ch, inp, n, rates, threshold, rel) is None],
            [n for n in ns if binning_sim._decided_leakage_bound(
                ch, inp, n, rates, sec) is None])


def criterion9_rates(ch, inp):
    """Criterion 9's rate point: r_sk = span/4, r_phi = rel_thr + span/4
    with span = sec_thr - rel_thr, each at least 0, and r_m = 0."""
    rel, sec = positivity_thresholds(ch, inp)
    span = sec - rel
    return RatePoint(max(0.0, 0.25 * span), max(0.0, rel + 0.25 * span), 0.0)


class TestBoundLanes:
    """The lane evaluator of the finite-n bounds and the one lane set of
    searches give the scalar closures' and searches' values bit for bit."""

    @staticmethod
    def scalar(ch, inp, rates, kind, n, x):
        return (binning_sim._error_bound_for if kind == "error"
                else binning_sim._leakage_bound_for)(ch, inp, n, rates)(x)

    def test_values_equal_scalar_closures(self):
        # the edges and numpy power's fast-path exponents (rho = 1, alpha =
        # 0.5) among random points, over lane subsets that start, end or
        # split anywhere
        rng = np.random.default_rng(120)
        for ch, inp, rates in bound_cases(121, 12):
            ns = [1, 2, 3, 5]
            bounds = binning_sim._bound_lanes_for(ch, inp, rates, ns, ns)
            kinds = [("error", n) for n in ns] + [("leakage", n) for n in ns]
            for points in ([0.0, 1.0, 0.5, 0.25], [ALPHA_MIN, 0.5, 1.0, 0.75],
                           rng.uniform(0.0, 1.0, 4).tolist()):
                xs = np.array(points * 2)
                xs[4:] = np.maximum(xs[4:], ALPHA_MIN)
                for lanes in (np.arange(8), np.array([0, 3, 4, 7]),
                              np.array([1, 2]), np.array([5, 6])):
                    got = bounds(lanes, xs[lanes])
                    want = [self.scalar(ch, inp, rates, *kinds[lane], x)
                            for lane, x in zip(lanes.tolist(), xs[lanes].tolist())]
                    assert got == want

    def test_fast_path_lanes_take_the_scalar_total(self, monkeypatch):
        # whether numpy's power gives the fast path's bits for an array of
        # exponents depends on the array layout, and an fsum often rounds a
        # last-bit difference away, so a lane at rho = 1 (exponents 1/2 and
        # 2) or alpha = 1/2 is checked to take the scalar total
        taken = []
        for name in ("_error_total", "_leakage_total"):
            total = getattr(binning_sim, name)
            monkeypatch.setattr(binning_sim, name, lambda *args, total=total, name=name:
                                taken.append((name, args[-1])) or total(*args))
        ch = random_degraded_binary_channel(np.random.default_rng(127))
        bounds = binning_sim._bound_lanes_for(ch, UNIFORM, RATES, [2, 3], [2, 3])
        bounds(np.arange(4), np.array([1.0, 0.4, 0.5, 0.7]))
        assert taken == [("_error_total", 1.0), ("_leakage_total", 0.5)]

    @staticmethod
    def spy_lanes(monkeypatch):
        """Record the (error_ns, leakage_ns) of each lane evaluator built
        and every (lanes, xs, values) call made to it."""
        calls, lane_ns = [], []
        lanes_for = binning_sim._bound_lanes_for

        def spy(*args):
            lane_ns.append(args[3:])
            bounds = lanes_for(*args)

            def spied(lanes, xs, overflow=None):
                values = bounds(lanes, xs, overflow)
                calls.append((lanes.tolist(), xs.tolist(), values))
                return values
            return spied

        monkeypatch.setattr(binning_sim, "_bound_lanes_for", spy)
        return calls, lane_ns

    def test_every_searched_point_equals_scalar_closure(self, monkeypatch):
        # the lane set holds the error lanes and then the leakage lanes of
        # the n whose bound is not decided at an edge; two or fewer
        # searches build no lane set
        calls, lane_ns = self.spy_lanes(monkeypatch)
        decided = lane_sets = 0
        cases = [(ch, inp, r) for ch, inp, rates in bound_cases(122, 6)
                 for r in (rates, criterion9_rates(ch, inp))]
        for ch, inp, rates in cases:
            ns = [1, 2, 3, 4, 5]
            del calls[:], lane_ns[:]
            binning_sim._minimized_bounds(ch, inp, ns, rates)
            error_ns, leakage_ns = searched_ns(ch, inp, ns, rates)
            decided += 2 * len(ns) - len(error_ns) - len(leakage_ns)
            if len(error_ns) + len(leakage_ns) <= 2:
                assert lane_ns == calls == []
                continue
            assert lane_ns == [(error_ns, leakage_ns)]
            assert len(calls) > 50
            lane_sets += 1
            kinds = [("error", n) for n in error_ns] + [("leakage", n) for n in leakage_ns]
            for lanes, xs, values in calls:
                assert values == [self.scalar(ch, inp, rates, *kinds[lane], x)
                                  for lane, x in zip(lanes, xs)]
        assert decided > 0 and lane_sets >= 4

    def test_searches_equal_scalar_searches(self, monkeypatch):
        _, lane_ns = self.spy_lanes(monkeypatch)
        vacuous = at_one = 0
        cases = [(ch, inp, r) for ch, inp, rates in bound_cases(123, 40)
                 for r in (rates, criterion9_rates(ch, inp))]
        for ch, inp, rates in cases:
            ns = [1, 2, 3, 4, 5]
            got = binning_sim._minimized_bounds(ch, inp, ns, rates)
            want = [(minimize_error_bound(ch, inp, n, rates),
                     minimize_leakage_bound(ch, inp, n, rates)) for n in ns]
            assert got == want
            vacuous += sum(error == (0.0, 1.0) for error, _ in got)
            at_one += sum(error[0] == 1.0 for error, _ in got)
        assert vacuous > 0 and at_one > 0 and len(lane_ns) >= 20

    def test_one_n_takes_the_scalar_searches(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("lane evaluator built for one n")

        monkeypatch.setattr(binning_sim, "_bound_lanes_for", refuse)
        ch = random_degraded_binary_channel(np.random.default_rng(124))
        assert binning_sim._minimized_bounds(ch, UNIFORM, [4], RATES) == [
            (minimize_error_bound(ch, UNIFORM, 4, RATES),
             minimize_leakage_bound(ch, UNIFORM, 4, RATES))]

    @pytest.mark.parametrize("seed,error", [(126, (0.0, 1.0)),
                                            (122, (0.1093773550443281, 0.017682719023781976))])
    def test_unrepresentable_trial_bound_is_never_the_minimum(self, seed, error):
        # at n = 1500 and r_m = 0 the error bound's total**n overflows at
        # rho = 1; its minimum is bound(0) = 1 on one channel and below 1 on
        # the other.  The leakage tail at alpha = 1 overflows in a float
        # product (inf), on the first channel while total**n underflows (NaN).
        # There the leakage slope at alpha = 1 points outward, but the edge
        # is unrepresentable, so the search decides.
        ch = random_degraded_binary_channel(np.random.default_rng(seed))
        rates = RatePoint(0.1, 0.6, 0.0)
        with pytest.raises(OverflowError):
            binning_sim._error_bound_for(ch, UNIFORM, 1500, rates)(1.0)
        with pytest.raises(OverflowError):
            binning_sim._leakage_bound_for(ch, UNIFORM, 1500, rates)(1.0)
        assert minimize_error_bound(ch, UNIFORM, 1500, rates) == error
        alpha, leak = minimize_leakage_bound(ch, UNIFORM, 1500, rates)
        assert 0.0 < alpha < 1.0 and 0.0 < leak < math.inf
        outward = (math.log2(math.e) - 1500 * 0.7
                   + 1500 * _secrecy_critical_rates(ch, UNIFORM)[0]) >= 1500 * _EDGE_MARGIN
        assert outward == (seed == 126)
        assert binning_sim._minimized_bounds(ch, UNIFORM, [1300, 1400, 1500], rates) == [
            (minimize_error_bound(ch, UNIFORM, n, rates),
             minimize_leakage_bound(ch, UNIFORM, n, rates)) for n in (1300, 1400, 1500)]
        lanes = binning_sim._bound_lanes_for(ch, UNIFORM, rates, [1500], [])
        with pytest.raises(OverflowError):
            lanes(np.array([0]), np.array([1.0]))
        assert lanes(np.array([0]), np.array([1.0]), math.inf) == [math.inf]

    def test_public_bounds_raise_rather_than_return_nan(self):
        # |K|^a |Phi|^a overflows in a float product while total**n
        # underflows: inf * 0 would be NaN
        ch = random_degraded_binary_channel(np.random.default_rng(126))
        rates = RatePoint(0.1, 0.6, 0.0)
        with pytest.raises(OverflowError, match="beyond the float range"):
            ensemble_leakage_bound(ch, UNIFORM, 1500, 1.0, rates)
        # and a product that overflows to inf with no ** overflowing:
        # |M|^rho = 2^1000 times total**n = 2^-1000, then 2^1000
        tail = binning_sim._error_tail_for(1000, RatePoint(0.0, 0.0, 1.0))
        assert tail(1.0, 0.5) == 1.0
        with pytest.raises(OverflowError, match="beyond the float range"):
            tail(1.0, 2.0)


def edge_cases(seed, count):
    """(channel, input) on random |S| = 2 and 3 channels, degraded and
    general, at the simplex's vertices (beta = 0 and 1 at |S| = 2), the
    uniform input and a random one."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        sizes = (2 + i % 2,) + tuple(int(v) for v in rng.integers(2, 4, 3))
        ch = (degraded_channel if i % 4 < 2 else random_channel)(rng, sizes)
        k = sizes[0]
        for p in list(np.eye(k)) + [np.full(k, 1.0 / k), rng.dirichlet(np.ones(k))]:
            yield ch, Pmf(p)


class TestEdgeBounds:
    """A bound is decided at rho* = 1 or alpha* = 1 only where -log2 of it
    slopes outward there by n * _EDGE_MARGIN; the decided bound is then the
    forced search's, rho* or alpha* within 1e-9 and the bound within 1e-14
    (relative)."""

    @staticmethod
    def forced(bound, a):
        x, neg = golden_section_max(binning_sim._search_objective(bound), a, 1.0)
        return x, 2.0**-neg

    @staticmethod
    def close(got, want):
        assert abs(got[0] - want[0]) <= 1e-9, (got, want)
        assert abs(got[1] - want[1]) <= 1e-14 * want[1], (got, want)

    def test_error_edge_against_forced_search(self):
        counts = {0.0: 0, 1.0: 0, None: 0}
        for ch, inp in edge_cases(150, 12):
            threshold = positivity_thresholds(ch, inp)[0]
            critical = _reliability_critical_rate(ch, inp)
            for offset in (-0.3, -0.05, 0.05, 0.3):
                rates = RatePoint(0.0, max(0.0, critical + offset), 0.0)
                for n in (1, 2, 3, 5, 8):
                    got = minimize_error_bound(ch, inp, n, rates)
                    want = self.forced(binning_sim._error_bound_for(ch, inp, n, rates), 0.0)
                    decided = binning_sim._decided_error_bound(
                        ch, inp, n, rates, threshold, critical)
                    edge = None if decided is None else decided[0]
                    counts[edge] += 1
                    if edge is None:
                        assert got == want
                    else:
                        assert got == decided and got[0] == edge
                        self.close(got, want)
        assert min(counts.values()) >= 30, counts

    def test_leakage_edge_against_forced_search(self):
        counts = {1.0: 0, None: 0}
        for ch, inp in edge_cases(151, 12):
            critical = _secrecy_critical_rates(ch, inp)[0]
            for offset in (-0.3, -0.05, 0.05, 0.3):
                rates = RatePoint(max(0.0, critical + offset), 0.0, 0.0)
                for n in (1, 2, 3, 5, 8):
                    got = minimize_leakage_bound(ch, inp, n, rates)
                    want = self.forced(binning_sim._leakage_bound_for(ch, inp, n, rates),
                                       ALPHA_MIN)
                    decided = binning_sim._decided_leakage_bound(ch, inp, n, rates, critical)
                    counts[None if decided is None else decided[0]] += 1
                    if decided is None:
                        assert got == want
                    else:
                        assert got == decided and got[0] == 1.0
                        self.close(got, want)
        assert min(counts.values()) >= 30, counts

    def test_edge_bound_that_underflows_is_searched(self):
        # Z is constant and X uniform given S, so the leakage total at
        # alpha = 1 is 1/2: at n = 1,100 and rates 0 the bound there
        # underflows to 0 although its slope points outward
        ch = lossless_channel()
        rates = RatePoint(0.0, 0.0, 0.0)
        bound = binning_sim._leakage_bound_for(ch, UNIFORM, 1100, rates)
        assert bound(1.0) == 0.0
        critical = _secrecy_critical_rates(ch, UNIFORM)[0]
        assert math.log2(math.e) + 1100 * critical >= 1100 * _EDGE_MARGIN
        assert binning_sim._decided_leakage_bound(ch, UNIFORM, 1100, rates, critical) is None
        alpha, leak = minimize_leakage_bound(ch, UNIFORM, 1100, rates)
        assert (alpha, leak) == self.forced(bound, ALPHA_MIN)
        assert ALPHA_MIN < alpha < 1.0 and 0.0 < leak < math.inf

    def test_nothing_inside_the_margin_is_decided(self):
        # the critical rate is set so that the slope at the edge is a
        # fraction of n * _EDGE_MARGIN: inside the margin, then just past it
        ch = degraded_channel(np.random.default_rng(152), (2, 2, 3, 2))
        rates = RatePoint(0.25, 0.5, 0.25)
        for n in (1, 4, 7):
            m_bits, phi_bits, k_bits = (math.ceil(n * r - 1e-9)
                                        for r in (rates.r_m, rates.r_phi, rates.r_sk))
            error_edge = (phi_bits - m_bits) / n
            leakage_edge = (k_bits + phi_bits - m_bits - math.log2(math.e)) / n
            for fraction, decided in ((0.5, False), (2.0, True)):
                shift = fraction * _EDGE_MARGIN
                error = binning_sim._decided_error_bound(
                    ch, UNIFORM, n, rates, -math.inf, error_edge - shift)
                leakage = binning_sim._decided_leakage_bound(
                    ch, UNIFORM, n, rates, leakage_edge + shift)
                assert (error is not None) == decided
                assert (leakage is not None) == decided
                if decided:
                    assert error[0] == leakage[0] == 1.0

    @pytest.mark.parametrize("kind", ["error", "leakage"])
    def test_chord_concavity(self, kind):
        # -log2 of each bound is concave in rho or alpha, which the edge
        # rule needs: above every chord, up to rounding
        rng = np.random.default_rng(153)
        lo, bound_for = ((0.0, binning_sim._error_bound_for) if kind == "error"
                         else (ALPHA_MIN, binning_sim._leakage_bound_for))
        for ch, inp in edge_cases(154, 6):
            for n in (1, 3, 8):
                bound = bound_for(ch, inp, n, RatePoint(0.2, 0.6, 0.1))

                def f(x):
                    return -math.log2(bound(x))

                for a, b, t in zip(rng.uniform(lo, 1.0, 10), rng.uniform(lo, 1.0, 10),
                                   rng.random(10)):
                    mid = t * a + (1.0 - t) * b
                    assert f(mid) >= t * f(a) + (1.0 - t) * f(b) - 1e-11 * n


class TestVacuousErrorBound:
    """A vacuous error bound is decided from the reliability threshold with
    no search; the search it replaces stays here as the oracle."""

    @staticmethod
    def oracle(ch, inp, n, rates):
        rho, neg = golden_section_max(binning_sim._search_objective(
            binning_sim._error_bound_for(ch, inp, n, rates)), 0.0, 1.0)
        return rho, 2.0**-neg

    def test_decision_agrees_with_the_search(self):
        # a bound decided at rho* = 1 (past the critical rate) is the
        # search's up to the rounding that steers its last steps
        rng = np.random.default_rng(130)
        counts = {0.0: 0, 1.0: 0, None: 0}
        for i in range(48):
            sizes = (int(rng.integers(2, 4)),) + tuple(int(v) for v in rng.integers(2, 4, 3))
            ch = (degraded_channel if i % 2 else random_channel)(rng, sizes)
            inp = Pmf.uniform(sizes[0]) if i % 3 else Pmf(rng.dirichlet(np.ones(sizes[0])))
            threshold = positivity_thresholds(ch, inp)[0]
            critical = _reliability_critical_rate(ch, inp)
            for rates in (criterion9_rates(ch, inp), RatePoint(0.1, 0.6, 0.3)):
                for n in range(1, 9):
                    got = minimize_error_bound(ch, inp, n, rates)
                    want = self.oracle(ch, inp, n, rates)
                    decided = binning_sim._decided_error_bound(
                        ch, inp, n, rates, threshold, critical)
                    edge = None if decided is None else decided[0]
                    counts[edge] += 1
                    if edge == 0.0:
                        assert got[0] == 0.0 and want[0] <= 1e-9
                        at_zero = ensemble_error_bound(ch, inp, n, 0.0, rates)
                        assert abs(got[1] - at_zero) <= 1e-12
                        assert abs(want[1] - at_zero) <= 1e-12
                    elif edge == 1.0:
                        assert got[0] == 1.0 and abs(want[0] - 1.0) <= 1e-9
                        assert abs(got[1] - want[1]) <= 1e-14 * want[1]
                    else:
                        assert got == want
        assert min(counts.values()) >= 80, counts

    def test_vacuous_bound_is_the_search_point_at_zero(self, monkeypatch):
        ch = random_degraded_binary_channel(np.random.default_rng(131))
        rates = RatePoint(0.1, 0.6, 0.3)
        # at n = 8, log2|Phi| - log2|M| = 5 - 3 is at most n * threshold
        assert 5 - 3 <= 8 * positivity_thresholds(ch, UNIFORM)[0]
        bound = binning_sim._error_bound_for(ch, UNIFORM, 8, rates)(0.0)

        def no_search(*args):
            raise AssertionError("searched a vacuous error bound")

        monkeypatch.setattr(binning_sim, "golden_section_max", no_search)
        assert minimize_error_bound(ch, UNIFORM, 8, rates) == (
            0.0, 2.0**-binning_sim._neg_log2(bound))

    def test_oversize_code_raises_the_tail_message(self):
        ch = random_degraded_binary_channel(np.random.default_rng(132))
        for rates, name in ((RatePoint(0.1, 2.0, 2.0), "|M|"),
                            (RatePoint(0.1, 2.0, 0.0), "|Phi|")):
            with pytest.raises(ValueError) as tail:
                binning_sim._error_tail_for(600, rates)
            assert name in str(tail.value)
            for n_list in ([600], [600, 601]):
                with pytest.raises(ValueError) as got:
                    binning_sim._minimized_bounds(ch, UNIFORM, n_list, rates)
                assert str(got.value) == str(tail.value)
            with pytest.raises(ValueError) as got:
                minimize_error_bound(ch, UNIFORM, 600, rates)
            assert str(got.value) == str(tail.value)


class TestBlocklengthCheck:
    """Every entry point takes an integer n >= 1, a numpy integer too, and
    refuses anything else, a bool included, with a ValueError naming n."""

    BAD = [0, -2, 2.5, 3.0, True, False, "3", None]
    ENTRY_POINTS = {
        "generate_code": lambda ch, n: generate_code(ch, n, RATES, UNIFORM, 1),
        "ensemble_average": lambda ch, n: ensemble_average(ch, UNIFORM, n, RATES, 2, 1),
        "ensemble_error_bound":
            lambda ch, n: ensemble_error_bound(ch, UNIFORM, n, 0.5, RATES),
        "ensemble_leakage_bound":
            lambda ch, n: ensemble_leakage_bound(ch, UNIFORM, n, 0.5, RATES),
        "minimize_error_bound": lambda ch, n: minimize_error_bound(ch, UNIFORM, n, RATES),
        "minimize_leakage_bound":
            lambda ch, n: minimize_leakage_bound(ch, UNIFORM, n, RATES),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_non_integer_or_small_n_refused(self, entry):
        ch = random_degraded_binary_channel(np.random.default_rng(133))
        call = self.ENTRY_POINTS[entry]
        for n in self.BAD:
            with pytest.raises(ValueError, match="blocklength n must be an integer >= 1"):
                call(ch, n)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_numpy_integer_n_accepted(self, entry):
        ch = random_degraded_binary_channel(np.random.default_rng(133))
        call = self.ENTRY_POINTS[entry]
        got, want = call(ch, np.int64(3)), call(ch, 3)
        if entry == "generate_code":
            got, want = dataclasses.astuple(got), dataclasses.astuple(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        else:
            assert got == want


class TestEnsembleAverage:
    def test_single_key_ensemble(self):
        rng = np.random.default_rng(88)
        ch = random_degraded_binary_channel(rng)
        rates = RatePoint(r_sk=0.0, r_phi=0.5, r_m=0.25)
        avg_e, avg_l, check = ensemble_average(ch, UNIFORM, 4, rates,
                                               num_codebooks=8, seed=101)
        assert avg_e == pytest.approx(0.0, abs=1e-15)
        assert avg_l == pytest.approx(0.0, abs=1e-12)
        assert check["error_ok"] and check["leakage_ok"]
        assert len(check["per_codebook"]) == 8

    def test_deterministic_and_bounded(self):
        rng = np.random.default_rng(89)
        ch = random_degraded_binary_channel(rng)
        a = ensemble_average(ch, UNIFORM, 4, RATES, num_codebooks=16, seed=7)
        b = ensemble_average(ch, UNIFORM, 4, RATES, num_codebooks=16, seed=7)
        assert a[0] == b[0] and a[1] == b[1]
        assert a[2]["error_ok"] and a[2]["leakage_ok"]

    def test_several_blocklengths_equal_one_at_a_time(self):
        # one workspace and one lane set of bound searches for the call,
        # yet every result is ensemble_average's at its n and seed
        ch = random_degraded_binary_channel(np.random.default_rng(95))
        rates = RatePoint(r_sk=0.2, r_phi=0.6, r_m=0.0)
        n_list, seeds = [1, 4, 2], [11, np.random.SeedSequence(12), 13]
        assert ensemble_averages(ch, UNIFORM, n_list, rates, 7, seeds) == [
            ensemble_average(ch, UNIFORM, n, rates, 7, seed)
            for n, seed in zip(n_list, seeds)]
        with pytest.raises(ValueError, match="one seed per blocklength"):
            ensemble_averages(ch, UNIFORM, [1, 2], rates, 7, [1])

    def test_rejects_empty_ensemble(self):
        rng = np.random.default_rng(94)
        ch = random_degraded_binary_channel(rng)
        for count in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match="num_codebooks must be an integer"):
                ensemble_average(ch, UNIFORM, 3, RATES, num_codebooks=count, seed=1)


class TestStackedBitIdentity:
    # (sizes (S, X, Y, Z), quantized, n, (r_sk, r_phi, r_m), codebooks).
    # |M| > 1 in most cases; r_phi > log2|X| + r_m leaves public bins empty;
    # at n=5 with binary letters a stack holds 16 codes, so 37 codebooks
    # cross two stack boundaries; n=6 at |M|=4 and n=8 at |M|=8 are one code
    # per stack, so the second stack reuses the first one's workspace.  Of
    # the last three, n=5 at |Phi| = 32 has bins of a few rows each, |Y| !=
    # |Z| at |Phi| = 32 > |M|*|X|^n = 8, and n=6 at |Phi| = 1 puts 256 rows
    # in one bin, which _stacked_bin_winners cuts into runs (256^2 >= its
    # 16,384 cells).
    CASES = [
        ((2, 2, 2, 2), False, 1, (0.5, 1.0, 1.0), 40),
        ((3, 2, 3, 2), False, 3, (0.4, 0.7, 0.4), 9),
        ((2, 3, 2, 3), True, 2, (0.5, 1.0, 0.5), 7),
        ((3, 3, 3, 3), False, 2, (0.5, 1.5, 0.5), 6),
        ((2, 2, 3, 3), True, 4, (0.25, 0.5, 0.5), 5),
        ((2, 2, 2, 2), True, 4, (0.25, 0.75, 0.25), 12),
        ((2, 2, 2, 2), False, 3, (0.4, 2.0, 0.0), 10),
        ((2, 2, 2, 2), False, 4, (0.25, 0.5, 0.25), 1),
        ((2, 2, 2, 2), True, 5, (0.2, 0.6, 0.0), 37),
        ((2, 2, 2, 2), False, 6, (0.2, 0.5, 0.2), 3),
        ((2, 2, 2, 2), False, 8, (0.1, 0.6, 0.3), 2),
        ((2, 2, 2, 2), False, 5, (0.2, 1.0, 0.0), 20),
        ((2, 2, 3, 2), True, 2, (0.5, 2.5, 0.5), 9),
        ((2, 2, 2, 2), True, 6, (0.2, 0.0, 0.2), 3),
    ]

    def test_rows_match_per_code_reference(self, monkeypatch):
        rng = np.random.default_rng(96)
        empty_bins = 0
        levels = rank_levels(monkeypatch)
        for sizes, quantized, n, rate_tuple, count in self.CASES:
            ch = (quantized_channel if quantized else random_channel)(rng, sizes)
            rates = RatePoint(*rate_tuple)
            inp = Pmf.uniform(sizes[0])
            seed = int(rng.integers(1 << 30))
            _, _, check = ensemble_average(ch, inp, n, rates, count, seed)
            expect = []
            for child in np.random.SeedSequence(seed).spawn(count):
                code = generate_code(ch, n, rates, inp, child)
                expect.append(reference_exact(code, ch))
                empty_bins += int(np.bincount(code.public_bins.ravel(),
                                              minlength=code.num_public).min() == 0)
            assert check["per_codebook"] == expect, (sizes, n, rate_tuple)
            rep = exact_evaluate(code, ch)
            assert (rep.error_probability, rep.leakage_bits) == expect[-1]
        assert empty_bins > 0
        assert {len(calls) for calls in levels} == {1, 2}

    def test_stack_size_does_not_change_rows(self, monkeypatch):
        # stacks of 1, 2, 3 and all 8 codes give the same rows
        ch = quantized_channel(np.random.default_rng(97), (3, 2, 3, 2))
        rates = RatePoint(r_sk=0.4, r_phi=0.7, r_m=0.4)
        inp = Pmf.uniform(3)
        cells = 4 * 2**3 * 3**3  # |M| * |X|^n * |Y|^n at n=3
        rows = []
        for stack in (1, 2, 3, 8):
            monkeypatch.setattr(binning_sim, "_STACK_CELLS", stack * cells)
            rows.append(ensemble_average(ch, inp, 3, rates, 8, 5)[2]["per_codebook"])
        assert rows[0] == rows[1] == rows[2] == rows[3]
        expect = [reference_exact(generate_code(ch, 3, rates, inp, child), ch)
                  for child in np.random.SeedSequence(5).spawn(8)]
        assert rows[0] == expect


class TestWorkspace:
    """A workspace left over from earlier stacks gives the bits of a fresh
    one: every cell of it is written before it is read."""

    @staticmethod
    def poison(work):
        # all-ones bytes read as NaN floats, True masks and index -1
        work._buffer.fill(255)

    @staticmethod
    def codes(channel, n, rates, count, seed):
        return [generate_code(channel, n, rates, Pmf.uniform(2), child)
                for child in np.random.SeedSequence(seed).spawn(count)]

    @staticmethod
    def stack(codes):
        """(codewords, key, pub, |K|, |Phi|) of codes of one size, stacked."""
        return (np.stack([c.codewords for c in codes]),
                np.stack([c.key_bins.ravel() for c in codes]),
                np.stack([c.public_bins.ravel() for c in codes]),
                codes[0].num_keys, codes[0].num_public)

    def test_stale_workspace_gives_fresh_bits(self):
        # n = 1 has no product step; n = 2 and 3 start the alternating
        # products in either store.  The ternary channel (|Y| = 2, |Z| = 3)
        # sizes the stores by Z^n, and its n = 4 call leaves a workspace
        # larger than any later call needs.
        rng = np.random.default_rng(112)
        channel = ternary_channel(rng)
        rates = RatePoint(r_sk=0.5, r_phi=1.0, r_m=0.5)
        leftover = _Workspace()
        _evaluate_stack(_score_tables(channel, 4),
                        *self.stack(self.codes(channel, 4, rates, 3, 0)), leftover)
        for n in (1, 2, 3):
            codes = self.codes(channel, n, rates, 4, n)
            codewords, key, pub, num_k, num_phi = self.stack(codes)
            outputs = np.indices((3,) * n).reshape(n, -1)
            table = marginal_channel(channel, "xz")
            expect = _stacked_likelihoods(codewords, table, outputs)
            tables = _score_tables(channel, n)
            rows = _evaluate_stack(tables, codewords, key, pub, num_k, num_phi)
            assert rows == [reference_exact(code, channel) for code in codes]
            reused = _Workspace()
            _evaluate_stack(tables, codewords, key, pub, num_k, num_phi, reused)
            for work in (reused, leftover):
                self.poison(work)
                got = _stacked_likelihoods(codewords, table, outputs, work)
                assert got.tobytes() == expect.tobytes(), n
                self.poison(work)
                assert _evaluate_stack(tables, codewords, key, pub, num_k,
                                       num_phi, work) == rows, n

    @staticmethod
    def one_workspace_rows(monkeypatch, n, rates):
        """6 codebooks in stacks of 2: one workspace, whose buffer is
        allocated once, for the first stack, and never replaced."""
        made, buffers = [], []

        class CountingWorkspace(_Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

            def reserve(self, **nbytes):
                super().reserve(**nbytes)
                if not any(b is self._buffer for b in buffers):
                    buffers.append(self._buffer)

        ch = random_binary_channel(np.random.default_rng(113))
        num_m, _, _ = binning_sim._code_sizes(n, rates)
        cells = num_m * 2**n * 2**n  # |M| * |X|^n * |Y|^n
        monkeypatch.setattr(binning_sim, "_STACK_CELLS", 2 * cells)
        monkeypatch.setattr(binning_sim, "_Workspace", CountingWorkspace)
        rows = ensemble_average(ch, UNIFORM, n, rates, 6, 4)[2]["per_codebook"]
        assert len(made) == 1 and len(buffers) == 1
        expect = [reference_exact(generate_code(ch, n, rates, UNIFORM, child), ch)
                  for child in np.random.SeedSequence(4).spawn(6)]
        assert rows == expect

    def test_one_workspace_per_ensemble_call(self, monkeypatch):
        # |Phi| = 4 bins of 16 rows
        self.one_workspace_rows(monkeypatch, 3, RATES)

    def test_one_workspace_per_simulate_call(self, monkeypatch, tmp_path):
        # the stacks of every blocklength share the call's one workspace
        made, stacks = [], []

        class CountingWorkspace(_Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

            def reserve(self, **nbytes):
                stacks.append(self)
                super().reserve(**nbytes)

        monkeypatch.setattr(binning_sim, "_Workspace", CountingWorkspace)
        path = tmp_path / "ch.json"
        save_channel(random_binary_channel(np.random.default_rng(114)), path)
        rc = main(["simulate", "--channel", str(path), "--rsk-rate", "0.25",
                   "--rphi-rate", "0.5", "--rm-rate", "0.25", "--n", "1:4",
                   "--codebooks", "6", "--seed", "4", "--out", str(tmp_path / "s.csv")])
        assert rc in (0, 1)
        assert len(made) == 1 and len(stacks) >= 4 and set(stacks) == set(made)

    def test_one_workspace_when_decoded_by_rank(self, monkeypatch):
        # |Phi| = 32 bins for 32 rows
        self.one_workspace_rows(monkeypatch, 5, RatePoint(0.2, 1.0, 0.0))

    def test_one_workspace_when_bins_are_cut(self, monkeypatch):
        # |Phi| = 1: a stack of two 16-row codes, cut into runs of 4 ranks
        levels = rank_levels(monkeypatch)
        self.one_workspace_rows(monkeypatch, 3, RatePoint(0.25, 0.0, 0.25))
        assert levels and all(len(calls) == 2 for calls in levels)
