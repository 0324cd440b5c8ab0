"""Small-blocklength simulation of the random-binning secret key protocol.

A code is a random i.i.d. codebook s^n(m) plus two uniform, independent
binning tables over (m, x^n): one producing the key, one producing the
public reconciliation message.  Bob decodes with the joint ML-MAP rule
(maximize the product of per-letter p(x_i, y_i | s_i(m)) over bin-consistent
pairs).  Everything at these blocklengths is small enough to enumerate, so
error probability and key leakage are computed exactly.  Monte-Carlo shares
the exact evaluation's decoder, so it cross-checks the sampling of the
protocol; the tests cross-check the decoder against a brute-force search.

Each blocklength's codes are checked against the finite-n ensemble bounds,
minimized over rho and alpha.  -log2 of each bound is concave, so a minimum
on an edge of the domain is decided from the slope there, with no search
(_error_edge, _leakage_edge).  The error bound's slope at rho = 0 is
log2|Phi| - log2|M| - n*theta, with theta the reliability threshold
H(X|Y,S) - I(S;Y) (exponents.positivity_thresholds); when it is <= 0 the
bound is vacuous and its minimum is at rho* = 0 (reliability_exponent's
rule at the code's effective rates).  Its slope at rho = 1 takes the
critical rate in place of theta, and the leakage bound's slope at alpha = 1
takes the secrecy critical rate G(1); a slope there of at least
n*_EDGE_MARGIN puts the minimum at rho* = 1 or alpha* = 1, unless the float
tail cannot represent the bound at that edge.  Only the bounds between the
threshold and those edges, margin included, are searched, by golden-section
search; a decided bound is within about 2.4e-15 (relative) of the searched
one, and its rho* or alpha* within about 1e-13.  Every blocklength of an
ensemble_averages call, the one n of ensemble_average included, takes one
path (_minimized_bounds): exponents._lane_maxima over one lane evaluator,
which evaluates the decided bounds in one call and runs the searches as
lanes of one golden_section_lanes set.  The lane evaluator gives the
values of the public bounds (ensemble_error_bound, ensemble_leakage_bound),
each a tail applied to a scalar total (_error_total, _leakage_total), bit
for bit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass
from itertools import takewhile
from typing import Optional

import numpy as np

from .channels import DiscreteBroadcastChannel, _input_probs, marginal_channel
from .exponents import (_EDGE_MARGIN, ALPHA_MIN, RatePoint, _fast_path_positions,
                        _lane_maxima, _reliability_critical_rate,
                        _reliability_threshold, _secrecy_critical_rates)
from .probability import Pmf, _mi_rows
# golden_section_max and mutual_information are no longer called here but stay
# importable from this module: benchmarks/test_benchmark.py checks the
# tracer's wrapping through them.
from .capacity import golden_section_max  # noqa: F401
from .probability import mutual_information  # noqa: F401

TABLE_BUDGET = 2**24  # most binning-table entries, |M|*|X|^n, of one code
ENUM_BUDGET = 2**26   # most enumeration cells of one code
_DECODE_BLOCK_CELLS = 2**22  # Monte-Carlo decodes at most this many cells at once
# ensemble_average evaluates its codes in stacks of at most this many cells
# (one code may exceed it).  A stack's arrays are its float y-scores with
# their partial products, the bin winners' loop tables, the error mask, and
# its z-scores, leakage index and leakage joint (_evaluate_stack); so peak
# RSS grows with it.  A code whose z-scores alone are over it is a stack of
# its own, and its leakage joint is built from the two halves of its
# blocklength, with no z-score table, unless the halves' spread table would
# be the larger (_takes_halves).
_STACK_CELLS = 2**14
# bytes per (pair, column) cell of the rank loop's tables (_block_winners):
# float64 best and candidate scores, intp winning rows and a bool mask
_RANK_CELL_BYTES = 25
_WILSON_Z = 1.959963984540054  # two-sided 95%
_TABLE_BITS = 62    # code sizes in the int64 codebook and bin tables
_FLOAT_BITS = 1023  # code sizes in the float ensemble bounds
# numpy's SeedSequence hash constants (entropy mixing, then generate_state)
# and PCG64's 128-bit LCG multiplier, for the codebook streams.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_CHILD_LIMIT = 2**32  # a child index below this is one spawn-key word


class BudgetError(ValueError):
    pass


def _positive_int(value, name: str) -> int:
    """value as an int, or a ValueError naming it unless it is an integer
    >= 1: a numpy integer counts, a bool does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < 1:
        raise ValueError("%s must be an integer >= 1, got %r" % (name, value))
    return int(value)


def _size_bits(n: int, rate: float, name: str = "|set|",
               max_bits: int = _TABLE_BITS) -> int:
    """log2 |set| = ceil(n*rate), robust to float fuzz in n*rate, or a
    ValueError naming the set if that exceeds max_bits.  The check comes
    before any power, which would take forever at n*rate = 1e300."""
    bits = n * rate - 1e-9
    if bits > max_bits:
        raise ValueError("%s = 2^ceil(n*rate) at n=%d, rate=%r exceeds 2^%d"
                         % (name, n, rate, max_bits))
    return math.ceil(bits)


def _code_sizes(n: int, rates: RatePoint):
    """(|M|, |Phi|, |K|) of a code of blocklength n at the given rates."""
    return (2 ** _size_bits(n, rates.r_m, "|M|"),
            2 ** _size_bits(n, rates.r_phi, "|Phi|"),
            2 ** _size_bits(n, rates.r_sk, "|K|"))


@dataclass(frozen=True)
class SecretKeyCode:
    codewords: np.ndarray     # (|M|, n) input symbols
    key_bins: np.ndarray      # (|M|, |X|^n) -> [0, |K|)
    public_bins: np.ndarray   # (|M|, |X|^n) -> [0, |Phi|)
    num_public: int
    num_keys: int

    @property
    def n(self) -> int:
        return self.codewords.shape[1]

    @property
    def num_messages(self) -> int:
        return self.codewords.shape[0]

    def __post_init__(self):
        # The evaluators refuse non-integer codewords (_check_code); a
        # table that is not 2-D has no blocklength to check them against.
        if self.codewords.ndim != 2:
            raise ValueError("codewords must be an (|M|, n) table, not %d-D"
                             % self.codewords.ndim)
        if self.public_bins.shape != self.key_bins.shape:
            raise ValueError("binning tables must share shape")
        if not all(t.dtype.kind in "iu" for t in (self.key_bins, self.public_bins)):
            raise ValueError("binning tables must have an integer dtype")
        for table, size in ((self.key_bins, self.num_keys),
                            (self.public_bins, self.num_public)):
            if table.min() < 0 or table.max() >= size:
                raise ValueError("bin index out of range")


@dataclass(frozen=True)
class SimReport:
    error_probability: float
    leakage_bits: Optional[float]   # None for Monte-Carlo runs (exact only)
    method: str                     # "exact" | "monte-carlo"
    trials: int                     # MC trials, or enumeration size for exact
    error_half_width: Optional[float] = None  # Wilson 95% half width (MC only)

    def to_json(self) -> dict:
        return asdict(self)


def _table_sizes(channel: DiscreteBroadcastChannel, n: int, rates: RatePoint,
                 inp: Pmf):
    """(|M|, |Phi|, |K|, |X|^n) of the codes of one draw, after the checks
    that every draw needs: an integer n >= 1, an input over the channel's S
    alphabet and binning tables within TABLE_BUDGET."""
    n = _positive_int(n, "blocklength n")
    _input_probs(channel, inp)
    X = channel.alphabet_sizes[1]
    num_m, num_phi, num_k = _code_sizes(n, rates)
    entries = num_m * X**n
    if entries > TABLE_BUDGET:
        raise BudgetError(
            "binning tables need |M|*|X|^n = %d entries, over the budget %d"
            % (entries, TABLE_BUDGET))
    return num_m, num_phi, num_k, X**n


def _enumeration_cells(channel: DiscreteBroadcastChannel, n: int, m_x: int,
                       num_k: int, num_phi: int) -> int:
    """Cells one code's enumeration needs: its (m, x^n, y^n) and (m, x^n, z^n)
    score tables, m_x = |M|*|X|^n rows each, and its (k, phi, z^n) leakage
    joint.  Raises BudgetError when that is over ENUM_BUDGET.

    The evaluation makes each array where it is computed (_evaluate_stack).
    Its direct leakage path holds the z-scores and their int64 bincount
    index, 16 bytes per cell: 1 GiB at ENUM_BUDGET = 2^26 score cells.  The
    y-scores are held with at most as many bytes again: their last partial
    product (1/|X| of them), the bin winners' loop tables (in blocks within
    the scores' bytes, _rank_winners), or the K_B of each row's bin and an
    error mask.  A leakage joint larger than the score tables adds itself
    and its entropy terms, and a joint built from the halves of the
    blocklength (_takes_halves) needs no z-score table, only their spread
    table, at most the size of the z-scores.  By tracemalloc, one binary
    n=9 code at rates (0.1, r_phi, 0.3), 4,096 rows, peaks at 24.3 MiB at
    r_phi = 0 (|Phi| = 1, halves) and at 0.6 (|Phi| = 64, halves: a 4 MiB
    spread table), 36.4 MiB at 1.0 (|Phi| = 512) and 140.1 MiB at 1.4
    (|Phi| = 8,192; the leakage joint)."""
    Y, Z = channel.alphabet_sizes[2:]
    cells = max(m_x * Y**n, m_x * Z**n, num_k * num_phi * Z**n)
    if cells > ENUM_BUDGET:
        raise BudgetError("enumeration needs %d cells, over the budget %d"
                          % (cells, ENUM_BUDGET))
    return cells


def _input_cdf(inp: Pmf) -> np.ndarray:
    """The normalized cdf that Generator.choice(S, p=inp.probs) samples by."""
    cdf = inp.probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _top_bits(raw: np.ndarray, first_half: int, count: int, bits: int):
    """(C, count) uint64: the top `bits` bits of `count` consecutive 32-bit
    half-words of each row of raw, from half-word first_half on, where word
    w holds half-words 2w (w & 0xFFFFFFFF) and 2w+1 (w >> 32)."""
    words = raw[:, first_half // 2:(first_half + count + 1) // 2, None]
    halves = words >> np.array([32 - bits, 64 - bits], dtype=np.uint64)
    halves &= np.uint64(2**bits - 1)
    skip = first_half % 2
    return halves.reshape(len(raw), -1)[:, skip:skip + count]


def _hash_keys(h: int, mult: int, count: int):
    """(XOR, multiplier) uint32 arrays of count successive SeedSequence
    hashes from the hash constant h: each hash XORs in the current constant,
    steps it to constant * mult mod 2^32 and multiplies by the result."""
    keys = [h]
    for _ in range(count):
        keys.append(keys[-1] * mult & _MASK32)
    return (np.array(keys[:-1], dtype=np.uint32),
            np.array(keys[1:], dtype=np.uint32))


def _hash(value, xor, mult):
    """numpy's SeedSequence hash of value with one (xor, multiplier) pair,
    mod 2^32; on ints or uint32 arrays alike."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """numpy's SeedSequence mix of two 32-bit words; on ints or uint32
    arrays alike."""
    value = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
    return value ^ value >> 16


def _words(value) -> list:
    """The uint32 words a SeedSequence reads from an entropy value or spawn
    key: an int as its 32-bit words, least significant first (0 is one
    word), a uint32 array as its elements, any other sequence as its items'
    words in turn."""
    if isinstance(value, np.ndarray) and value.dtype == np.uint32:
        return value.tolist()
    if isinstance(value, str):
        raise ValueError("seed entropy must be ints, not the string %r" % value)
    if isinstance(value, (int, np.integer)):
        value = int(value)
        return [value >> shift & _MASK32
                for shift in range(0, max(value.bit_length(), 1), 32)]
    return [word for item in value for word in _words(item)]


def _spawn_prefix(seq: np.random.SeedSequence):
    """What every child of seq shares of numpy's entropy mixing: the pool
    and hash constant after all of a child's entropy words but its last,
    the child index.  A child's words are seq's entropy words, padded with
    zeros to the pool size, then the words of seq's spawn key and of its
    index, so that pool is seq.pool.  Mixing W words takes pool size * W
    hashes, each of which steps the constant by _MULT_A."""
    words = max(len(_words(seq.entropy)), seq.pool_size) \
        + len(_words(seq.spawn_key))
    return seq.pool, _INIT_A * pow(_MULT_A, seq.pool_size * words, 2**32) \
        & _MASK32


def _child_pools(prefix, first: int, count: int) -> np.ndarray:
    """(count, pool size) uint32 pools of the children first .. first +
    count - 1 of the SeedSequence whose _spawn_prefix is prefix: each
    index, one word below 2^32, hashed into every pool word."""
    pool, h = prefix
    xor, mult = _hash_keys(h, _MULT_A, len(pool))
    index = np.arange(first, first + count).astype(np.uint32)[:, None]
    return _mix(pool, _hash(index, xor, mult))


def _pcg64_states(pools: np.ndarray) -> list:
    """The .state of np.random.PCG64(s) for each SeedSequence s whose pool
    is a row of pools.  s.generate_state(4, np.uint64) hashes the pool words
    cyclically into 8 uint32 words, read as little-endian uint64 pairs
    (initstate high, low, initseq high, low); PCG64's seeding then sets
    inc = 2*initseq + 1 and state = (inc + initstate) * mult + inc, mod
    2^128."""
    xor, mult = _hash_keys(_INIT_B, _MULT_B, 8)
    words = _hash(pools[:, np.arange(8) % pools.shape[1]], xor, mult)
    seeds = words.astype("<u4", order="C").view("<u8")
    states = []
    for s_hi, s_lo, i_hi, i_lo in seeds.tolist():
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = ((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _draw_tables(bit_gen: np.random.PCG64, states, cdf: np.ndarray, n: int,
                 num_m: int, width: int, num_k: int, num_phi: int):
    """Stacked tables of one code per PCG64 state: (C, |M|, n) codewords and
    (C, |M|*width) key and public bins, all int64.  bit_gen is set to each
    state in turn, so one bit generator reads every stream.

    Code c reads raw words w from the stream that starts at states[c], in
    order:
    - |M|*n words give the doubles (w >> 11) * 2**-53, and the codewords are
      cdf.searchsorted(doubles, side="right") in row order;
    - then the key table, then the public table, each of |M|*width entries
      in row order, from a table of size 2^b:
      - b = 0 reads nothing and is all zeros;
      - b <= 32: each entry is the top b bits of the next 32-bit half-word,
        low half first.  Both tables read one shared half-word stream, so
        after an odd-sized key table the public table starts with the key's
        leftover high half;
      - b > 32: each entry is the top b bits of a whole word, after any
        leftover half-word is skipped.
    The codewords and the tables of 32 bits or fewer come from one
    random_raw block per code.  A wider table is its own block, shifted in
    place, so no table is a view of a block and a block is freed on return:
    the peak memory is the tables plus at most one table-sized block.  A
    later block sets the state again and advances past the words before it.
    With the states of _pcg64_states this is exactly, at the installed
    NumPy, what default_rng(seed) draws for the seed that gave the state:
    random((|M|, n)) (through the cdf, as Generator.choice does), then
    integers(0, |K|) and integers(0, |Phi|).  PCG64 buffers the unused high
    half of a word for the next 32-bit draw, and Lemire's method never
    rejects at a power-of-two size.  TestSampler pins the equality.
    """
    entries = num_m * width
    bits = [size.bit_length() - 1 for size in (num_k, num_phi)]
    done = 0  # words each stream has read

    def draw(words):
        """The next `words` raw words of every stream, as a (C, words) array."""
        nonlocal done
        blocks = []
        for state in states:
            bit_gen.state = state
            if done:
                bit_gen.advance(done)
            blocks.append(bit_gen.random_raw(words))
        done += words
        # a single code's block is used as drawn: a copy would double its peak
        return blocks[0][None] if len(blocks) == 1 else np.stack(blocks)

    # The first block holds the codeword words, then the half-words of the
    # tables of 32 bits or fewer that come before any wider table.
    narrow = sum(1 for b in takewhile(lambda b: b <= 32, bits) if b)
    raw = draw(num_m * n + (narrow * entries + 1) // 2)
    half = 2 * num_m * n  # index in raw of the next half-word to read
    doubles = (raw[:, :num_m * n] >> 11) * 2.0**-53
    codewords = cdf.searchsorted(doubles.reshape(len(states), num_m, n),
                                 side="right").astype(np.int64, copy=False)
    tables = []
    for b in bits:
        if b == 0:
            table = np.zeros((len(states), entries), dtype=np.uint64)
        elif b <= 32:
            if half is None:  # after a wider table
                raw, half = draw((entries + 1) // 2), 0
            table = _top_bits(raw, half, entries, b)
            half += entries
        else:
            table = draw(entries)
            table >>= 64 - b
            half = None
        tables.append(table.view(np.int64))
    return codewords, tables[0], tables[1]


_GENERATORS = (np.random.Generator, np.random.BitGenerator)


def _seed_sequence(seed) -> np.random.SeedSequence:
    """seed itself if it is a SeedSequence, else SeedSequence(seed).  A
    Generator or BitGenerator seed raises ValueError: a raw draw cannot take
    up such a generator's position."""
    if isinstance(seed, _GENERATORS):
        raise ValueError("seed must be None, an int, a sequence of ints or a "
                         "SeedSequence, not %s" % type(seed).__name__)
    return seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)


def generate_code(channel: DiscreteBroadcastChannel, n: int, rates: RatePoint,
                  inp: Pmf, seed) -> SecretKeyCode:
    """Draw a codebook and both binning tables; deterministic given seed.

    seed is what np.random.PCG64 takes: None, an int, a sequence of ints or
    a SeedSequence.  The code reads the raw words of the PCG64 stream that
    np.random.PCG64(seed) would start, its state computed from
    SeedSequence(seed).pool (_pcg64_states), as _draw_tables lays them out
    and matches them to default_rng(seed)'s draws.  A Generator or
    BitGenerator seed raises ValueError (_seed_sequence).  ensemble_average
    draws each of its codebooks the same way.
    """
    seq = _seed_sequence(seed)
    num_m, num_phi, num_k, width = _table_sizes(channel, n, rates, inp)
    states = _pcg64_states(seq.pool[None])
    codewords, key, pub = _draw_tables(np.random.PCG64(0), states,
                                       _input_cdf(inp), n, num_m, width,
                                       num_k, num_phi)
    return SecretKeyCode(codewords=codewords[0],
                         key_bins=key.reshape(num_m, width),
                         public_bins=pub.reshape(num_m, width),
                         num_public=num_phi, num_keys=num_k)


def sequence_index(symbols, base: int) -> int:
    """Lexicographic index of a symbol sequence (first symbol most significant)."""
    idx = 0
    for s in symbols:
        idx = idx * base + int(s)
    return idx


def index_sequence(idx: int, base: int, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[i] = idx % base
        idx //= base
    return out


def _stacked_likelihoods(codewords: np.ndarray, table: np.ndarray,
                         outputs: np.ndarray):
    """(C, |M|*|X|^n, D) array of prod_i table[s_i(m), x_i, outputs[i, d]]
    for each code of a (C, |M|, n) codeword stack, rows (m, x^n) in
    lexicographic order.  The product runs left to right over i and the
    result is C-contiguous: both fix the bits of the sums taken over it.
    """
    num_codes, num_m, n = codewords.shape
    num_cols = outputs.shape[1]
    rows = num_codes * num_m
    letters = codewords.reshape(rows, n)
    scores = table.take(outputs[0], axis=2)[letters[:, 0]]  # (C*M, X, D)
    for i in range(1, n):
        letter = table.take(outputs[i], axis=2)[letters[:, i]]
        scores = (scores[:, :, None, :] * letter[:, None, :, :]).reshape(
            rows, -1, num_cols)
    return scores.reshape(num_codes, -1, num_cols)


def _check_code(code: SecretKeyCode, channel: DiscreteBroadcastChannel, y_seq=()):
    """y_seq as an int64 array, or a ValueError unless the code and y_seq fit
    the channel: the bin tables have shape (|M|, |X|^n), and the codeword
    and y_seq symbols are integers in [0, |S|) and [0, |Y|).  The codewords
    index arrays, so they must also have an integer dtype."""
    S, X, Y = channel.alphabet_sizes[:3]
    shape = (code.num_messages, X**code.n)
    if code.key_bins.shape != shape:
        raise ValueError("binning tables have shape %r, not (|M|, |X|^n) = %r"
                         % (code.key_bins.shape, shape))
    y_seq = np.asarray(y_seq)
    for arr, size, name, kinds in ((code.codewords, S, "codeword", "iu"),
                                   (y_seq, Y, "y_seq", "iuf")):
        if arr.dtype.kind not in kinds or not (
                (arr >= 0) & (arr < size) & (arr % 1 == 0)).all():
            raise ValueError("%s symbols must be integers in [0, %d)" % (name, size))
    return y_seq.astype(np.int64)


def _stacked_bin_winners(scores: np.ndarray, pub: np.ndarray, num_public: int):
    """(C, num_public, columns) array: the winning row of each code's bins
    per column, for (C, rows, columns) scores and (C, rows) public bins.

    Each bin takes the first maximum over its own rows in their original
    order (smallest m, then lexicographically smallest x^n); an empty bin
    falls back to row 0 (first message, all-zero sequence).  Rank j of a
    (code, bin) pair is its j-th row in that order.  _rank_winners takes
    one Python step per rank of the fullest pair: W steps, which gather the
    scores' cells between them.  When W^2 >= the cells, a step would gather
    at most W cells on average, so each pair is cut into runs of
    ceil(sqrt(W)) consecutive ranks.  _rank_winners takes each run's first
    maximum, and then, on the runs' best scores (a (runs, columns) table
    gathered again from the scores) listed in rank order, each pair's
    first maximal run.  Both levels replace a best only where strictly
    greater, so the first maximum wins, and neither takes more than
    ceil(sqrt(W)) steps.
    """
    num_codes, num_rows, num_cols = scores.shape
    # Sorting the (code, bin) keys stably lists each code's bins in turn,
    # each bin's rows in their original order, as flat row indices.
    keys = (pub + num_public * np.arange(num_codes)[:, None]).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = np.bincount(keys, minlength=num_codes * num_public)
    rank = np.arange(keys.size) - (np.cumsum(counts) - counts)[keys]
    width = int(counts.max())
    if width**2 < scores.size:
        winners = _rank_winners(scores, keys, order, rank, counts)
    else:
        step = math.isqrt(width - 1) + 1  # ceil(sqrt(W))
        runs = -(-counts // step)  # of each pair
        first = np.cumsum(runs) - runs  # each pair's first run
        run = first[keys] + rank // step  # each listed row's run
        run_rows = _rank_winners(scores, run, order, rank % step,
                                 np.bincount(run))
        pair = np.repeat(np.arange(counts.size), runs)  # each run's pair
        base = num_rows * (pair // num_public)  # flat row 0 of its code
        run_best = np.take_along_axis(scores.reshape(-1, num_cols),
                                      run_rows + base[:, None], axis=0)
        listed = np.arange(pair.size)
        won = _rank_winners(run_best[None], pair, listed, listed - first[pair],
                            runs)  # each pair's first maximal run
        winners = np.take_along_axis(run_rows, won, axis=0)
        winners[counts == 0] = 0
    return winners.reshape(num_codes, num_public, num_cols)


def _rank_winners(scores: np.ndarray, keys: np.ndarray, order: np.ndarray,
                  rank: np.ndarray, counts: np.ndarray):
    """(pairs, columns) array: the first maximum of each pair per column,
    as its row within its code, for (C, rows, columns) scores, the pair
    key, flat row index and rank of each row as the pairs list them, and
    each pair's row count; a pair is a (code, bin) pair or a run of one
    (_stacked_bin_winners).

    An empty pair takes row 0 and a pair of one row takes that row.  The
    pairs of two or more rows are sorted fullest first, so the pairs
    holding a rank form a prefix of them, and go through the rank loop
    (_block_winners) in blocks whose tables fit in the scores' bytes, at
    most two as such a pair holds at least two rows.
    """
    num_codes, num_rows, num_cols = scores.shape
    flat = scores.reshape(num_codes * num_rows, num_cols)
    local = order % num_rows  # each listed row within its code
    winners = np.zeros((counts.size, num_cols), dtype=np.intp)
    first = rank == 0
    winners[keys[first]] = local[first, None]
    # The rows of pairs of two or more rows, rank by rank, each rank's
    # pairs fullest first: rank j of the pairs holding it is rows[at[j]:].
    multi = np.flatnonzero(counts > 1)
    fullest = multi[np.argsort(-counts[multi], kind="stable")]
    place = np.zeros_like(counts)
    place[fullest] = np.arange(fullest.size)
    listed = counts[keys] > 1
    ranked = np.argsort(rank[listed] * fullest.size + place[keys[listed]])
    rows, local = order[listed][ranked], local[listed][ranked]
    at = np.cumsum([0] + np.bincount(rank[listed]).tolist()).tolist()
    block = max(1, scores.nbytes // (_RANK_CELL_BYTES * num_cols))
    for lo in range(0, fullest.size, block):
        size = min(block, fullest.size - lo)
        winners[fullest[lo:lo + size]] = _block_winners(flat, rows, local, at,
                                                        lo, size)
    return winners


def _block_winners(flat: np.ndarray, rows: np.ndarray, local: np.ndarray,
                   at: list, lo: int, size: int):
    """(size, columns) array: the first maximum per column of the pairs lo
    .. lo + size - 1 of _rank_winners' fullest-first order, for (rows,
    columns) scores flat and the listed rows rank by rank, as flat rows and
    as rows within their codes (local); rank j of the pairs holding it is
    rows[at[j]:at[j + 1]].

    The rank-0 scores start a table of the best scores; each later rank of
    every pair holding it is taken in one gather and replaces the best only
    where it is strictly greater, so the first maximum wins, in one step
    per rank of the fullest pair.  The loop's tables take _RANK_CELL_BYTES
    per (pair, column) cell.
    """
    shape = (size, flat.shape[1])
    best = flat[rows[lo:lo + size]]
    win = local[lo:lo + size, None].repeat(shape[1], axis=1)
    cand, better = np.empty(shape), np.empty(shape, bool)
    for j in range(1, len(at) - 1):
        m = min(at[j + 1] - at[j] - lo, size)  # the block's pairs holding rank j
        if m <= 0:
            break
        now = slice(at[j] + lo, at[j] + lo + m)
        # the rows index in range, so "clip" only spares a copy of out
        flat.take(rows[now], axis=0, out=cand[:m], mode="clip")
        np.greater(cand[:m], best[:m], out=better[:m])
        np.maximum(best[:m], cand[:m], out=best[:m])
        np.copyto(win[:m], local[now, None], where=better[:m])
    return win


def mlmap_decode(code: SecretKeyCode, channel: DiscreteBroadcastChannel,
                 y_seq, phi: int):
    """Joint ML-MAP decoding of (m, x^n) within the public bin phi.

    Ties go to the smallest m, then the lexicographically smallest x^n.
    If the bin is empty the decoder falls back to (first message, all-zero
    sequence).
    """
    y_seq = _check_code(code, channel, y_seq)
    if y_seq.shape != (code.n,):
        raise ValueError("y sequence length must equal the blocklength")
    if isinstance(phi, bool) or not isinstance(phi, (int, np.integer)) \
            or not 0 <= phi < code.num_public:
        raise ValueError("public message index must be an integer in [0, %d)"
                         % code.num_public)
    scores = _stacked_likelihoods(code.codewords[None],
                                  marginal_channel(channel, "xy"), y_seq[:, None])
    winners = _stacked_bin_winners(scores, code.public_bins.reshape(1, -1),
                                   code.num_public)[0]
    X = channel.alphabet_sizes[1]
    m_hat, x_idx = divmod(int(winners[phi, 0]), X**code.n)
    return m_hat, index_sequence(x_idx, X, code.n)


def _score_tables(channel: DiscreteBroadcastChannel, n: int):
    """((p(x,y|s), y^n), (p(x,z|s), z^n)): the letter table and the
    (n, |Y|^n) or (n, |Z|^n) output sequences, in lexicographic order, of
    the y- and the z-scores of blocklength-n codes (_evaluate_stack)."""
    Y, Z = channel.alphabet_sizes[2:]
    return ((marginal_channel(channel, "xy"), np.indices((Y,) * n).reshape(n, -1)),
            (marginal_channel(channel, "xz"), np.indices((Z,) * n).reshape(n, -1)))


def _takes_halves(n: int, X: int, Z: int, m_x: int, code_cells: int) -> bool:
    """Whether the leakage joint of a code of blocklength n, with m_x =
    |M|*|X|^n rows and code_cells = |K|*|Phi|, is built from the halves of
    its blocklength (_halves_joint): when n >= 2, its z-score table is over
    _STACK_CELLS, and the halves' spread table is smaller than that one."""
    return n >= 2 and m_x * Z**n > _STACK_CELLS \
        and code_cells < X**(n - n // 2) * Z**(n // 2)


def _halves_joint(table_z: np.ndarray, z_seqs: np.ndarray,
                  codewords: np.ndarray, cell: np.ndarray, code_cells: int):
    """(C, code_cells, Z^n1, Z^n2) leakage joint p(cell, z^n) of a stack of
    codes with (C, |M|*|X|^n) cells key*|Phi| + phi, built from the two
    halves of the blocklength, n1 = n // 2 and n2 = n - n1 letters, with
    no (m, x^n, z^n) table.  The z-scores B ("tail") of (m, x2) on the
    last n2 letters are spread over every x1 as the weights of one
    bincount:
    D[(m, x1), c, z2] = sum over x2 of [cell(m, x1 x2) = c] * B[(m, x2), z2].
    The z-scores A ("head") of (m, x1) on the first n1 letters then give
    p(c, z1 z2) = (1/|M|) sum over (m, x1) of A[(m, x1), z1] D[(m, x1), c, z2]
    by np.einsum: a BLAS product of these shapes ran its threads far slower
    than the sum itself."""
    num_codes, num_m, n = codewords.shape
    n1, n2 = n // 2, n - n // 2
    X, Z = table_z.shape[1:]
    rows = num_codes * num_m * X**n1  # (code, m, x1)
    # the first Z^k columns of z_seqs' last k rows list the k-letter z's
    tail = _stacked_likelihoods(codewords[:, :, n1:], table_z,
                                z_seqs[n1:, :Z**n2])
    weights = np.broadcast_to(tail.reshape(-1, 1, X**n2 * Z**n2),
                              (rows // X**n1, X**n1, X**n2 * Z**n2)).ravel()
    del tail
    row_cell = np.arange(rows)[:, None] * code_cells + cell.reshape(rows, X**n2)
    index = (row_cell * Z**n2)[:, :, None] + np.arange(Z**n2)
    spread = np.bincount(index.ravel(), weights=weights,
                         minlength=rows * code_cells * Z**n2)
    del weights, index
    head = _stacked_likelihoods(codewords[:, :, :n1], table_z,
                                z_seqs[n2:, :Z**n1])
    head /= num_m
    # summed into (code, z1, c, z2), whose last two axes make a long inner
    # loop, and then moved to (code, c, z1, z2)
    return np.einsum("crz,crkw->czkw", head, spread.reshape(
        num_codes, -1, code_cells, Z**n2)).transpose(0, 2, 1, 3)


def _evaluate_stack(tables, codewords: np.ndarray, key: np.ndarray,
                    pub: np.ndarray, num_k: int, num_phi: int):
    """[(error, leakage)] of each code of a stack, by full enumeration: (C,
    |M|, n) codewords and (C, |M|*|X|^n) key and public bins, rows (m, x^n)
    in lexicographic order, of codes with |K| = num_k and |Phi| = num_phi,
    with the channel's _score_tables at n.  A leakage is never below 0,
    and is 0 for a single key.

    The leakage joint p(k, phi, z^n) of a code that _takes_halves comes
    from the two halves of its blocklength (_halves_joint), within 1e-13
    bits of the direct path's leakage.  Every other code takes the direct
    path: its z-scores, divided by |M|, summed by one bincount.  The errors
    never depend on the path.

    Every array is made where it is computed and dropped once read: the
    y-scores, the bin winners' loop tables (which fit in the scores'
    bytes), the K_B of each row's public bin and the error mask, and then
    the leakage path's z-scores or halves and its bincount arrays."""
    (table_y, y_seqs), (table_z, z_seqs) = tables
    y_cols, z_cols = y_seqs.shape[1], z_seqs.shape[1]
    num_codes, num_m, n = codewords.shape
    code_idx = np.arange(num_codes)[:, None]

    # Decode table: K_B for every (code, phi, y^n).
    score_y = _stacked_likelihoods(codewords, table_y, y_seqs)
    winners = _stacked_bin_winners(score_y, pub, num_phi)
    narrow = np.min_scalar_type(num_k - 1)  # holds every key index
    k_b = key[code_idx[:, :, None], winners].astype(narrow)
    del winners
    # The K_B of each row's public bin, then the error mask.
    gather = k_b.reshape(-1, y_cols)[(pub + num_phi * code_idx).ravel()]
    score_y *= key.astype(narrow)[:, :, None] != gather.reshape(score_y.shape)
    del gather
    # one pairwise sum per code's contiguous scores, as score_y[c].sum()
    errors = (score_y.reshape(num_codes, -1).sum(axis=1) / num_m).tolist()
    del score_y
    if num_k == 1:  # a single key leaks nothing
        return [(error, 0.0) for error in errors]

    # Exact joint of (K_A, Phi, Z^n) for the leakage, one block per code.
    code_cells = num_k * num_phi
    cell = key * num_phi + pub
    if _takes_halves(n, *table_z.shape[1:], key.shape[1], code_cells):
        joint = _halves_joint(table_z, z_seqs, codewords, cell, code_cells)
    else:
        score_z = _stacked_likelihoods(codewords, table_z, z_seqs)
        score_z /= num_m
        index = ((cell + code_cells * code_idx) * z_cols)[:, :, None] \
            + np.arange(z_cols)
        joint = np.bincount(index.ravel(), weights=score_z.ravel(),
                            minlength=num_codes * code_cells * z_cols)
        del score_z, index
    # H(K) + H(Phi,Z^n) - H(K,Phi,Z^n) rounds a few ulps to either side of
    # I(K;Phi,Z^n) >= 0.  The joint is built from a validated channel and
    # code, so it is not checked again.
    leaks = _mi_rows(joint.reshape(num_codes, num_k, -1))
    return [(error, max(0.0, leak)) for error, leak in zip(errors, leaks)]


def exact_evaluate(code: SecretKeyCode,
                   channel: DiscreteBroadcastChannel) -> SimReport:
    """Exact error probability and key leakage by full enumeration."""
    _check_code(code, channel)
    _enumeration_cells(channel, code.n, code.key_bins.size, code.num_keys,
                       code.num_public)
    (error, leakage), = _evaluate_stack(
        _score_tables(channel, code.n), code.codewords[None],
        code.key_bins.reshape(1, -1), code.public_bins.reshape(1, -1),
        code.num_keys, code.num_public)
    Y = channel.alphabet_sizes[2]
    return SimReport(error_probability=error, leakage_bits=leakage,
                     method="exact", trials=code.key_bins.size * Y**code.n)


def _trial_draws(num_m: int, n: int, trials: int, seed):
    """(messages, uniforms) of `trials` protocol runs: an int64 array of
    each trial's message, drawn by integers(num_m), and a (trials, n) array
    of the uniforms it then draws by random(n), in the order in which
    default_rng(seed) draws them.

    When num_m is a power of two 2^b <= 2^32 and seed is what
    _seed_sequence takes, they come from one random_raw block of
    np.random.PCG64(seed), which default_rng(seed) wraps.  Each pair of
    trials first reads one word: its low 32-bit half gives the first
    trial's message and its high half the second's, each as the top b bits
    (the half-word rule of _draw_tables; Lemire's method never rejects at a
    power-of-two size).  b = 0 reads no such word.  Each trial then reads n
    words, each word w giving the uniform (w >> 11) * 2**-53.  An odd trial
    count reads a whole last pair and uses its first trial only.  Any
    other num_m, and a Generator or BitGenerator seed, take the per-trial
    Generator calls."""
    bits = num_m.bit_length() - 1
    if num_m != 1 << bits or bits > 32 or isinstance(seed, _GENERATORS):
        rng = np.random.default_rng(seed)
        draws = [(rng.integers(num_m), rng.random(n)) for _ in range(trials)]
        return (np.array([m for m, _ in draws], dtype=np.int64),
                np.array([u for _, u in draws]))
    bit_gen = np.random.PCG64(_seed_sequence(seed))
    if bits == 0:
        words = bit_gen.random_raw(trials * n).reshape(trials, n)
        messages = np.zeros(trials, dtype=np.int64)
    else:
        pairs = (trials + 1) // 2
        raw = bit_gen.random_raw(pairs * (2 * n + 1)).reshape(pairs, 2 * n + 1)
        messages = _top_bits(raw, 0, 2, bits).ravel()[:trials].view(np.int64)
        words = raw[:, 1:].reshape(2 * pairs, n)[:trials]
    return messages, (words >> 11) * 2.0**-53


def monte_carlo_evaluate(code: SecretKeyCode, channel: DiscreteBroadcastChannel,
                         trials: int, seed) -> SimReport:
    """Estimate the error probability by sampling the protocol.

    trials must be an integer >= 1 (a bool is not), else ValueError.  seed
    is what np.random.default_rng takes: trial by trial, the protocol draws
    its message with integers(|M|) and then its n channel uniforms with
    random(n) from default_rng(seed).  At a power-of-two |M| up to 2^32,
    with a seed other than a Generator or BitGenerator, the same numbers are
    read from one raw PCG64 block (_trial_draws, whose word layout follows
    _draw_tables' half-word rule), so the results are those of the
    per-trial draws bit for bit.

    Leakage is not estimated (mutual-information estimators are biased at
    these sample sizes); use exact_evaluate for leakage.
    """
    trials = _positive_int(trials, "trials")
    _check_code(code, channel)
    W = marginal_channel(channel, "xy")
    S, X, Y = W.shape
    cdf = W.reshape(S, X * Y).cumsum(axis=1)
    messages, uniforms = _trial_draws(code.num_messages, code.n, trials, seed)
    letters = code.codewords[messages]  # (trials, n)
    cells = np.empty_like(letters)
    for s in range(S):
        here = letters == s
        cells[here] = np.searchsorted(cdf[s], uniforms[here], side="right")
    xs, ys = np.divmod(cells, Y)
    powers = np.arange(code.n - 1, -1, -1)
    x_idx, y_idx = xs @ X**powers, ys @ Y**powers
    phi = code.public_bins[messages, x_idx]
    k_a = code.key_bins[messages, x_idx]

    # Decode each distinct y^n once, for every public bin.
    _, first, y_col = np.unique(y_idx, return_index=True, return_inverse=True)
    pub, key_flat = code.public_bins.reshape(1, -1), code.key_bins.ravel()
    k_b = np.empty((code.num_public, len(first)), dtype=np.int64)
    block = max(1, _DECODE_BLOCK_CELLS // pub.size)
    for lo in range(0, len(first), block):
        scores = _stacked_likelihoods(code.codewords[None], W,
                                      ys[first[lo:lo + block]].T)
        k_b[:, lo:lo + block] = key_flat[
            _stacked_bin_winners(scores, pub, code.num_public)[0]]
    failures = int(np.count_nonzero(k_a != k_b[phi, y_col]))
    p_hat = failures / trials
    z2 = _WILSON_Z**2
    center = (p_hat + z2 / (2 * trials)) / (1 + z2 / trials)
    half = (_WILSON_Z / (1 + z2 / trials)) * math.sqrt(
        p_hat * (1 - p_hat) / trials + z2 / (4 * trials**2))
    return SimReport(error_probability=p_hat, leakage_bits=None,
                     method="monte-carlo", trials=trials,
                     error_half_width=half + abs(center - p_hat))


# A bound is a rate-free sum of terms, "total", which depends on the input and
# on rho or alpha, raised to the n-th power and scaled by the code sizes: the
# tail.  The public bounds and the lane evaluator share the tensors behind the
# total, the scalar total and the tail, so their values agree bit for bit.

def _error_tensors(channel, inp):
    """(p(s) as (S,1), p(y|s) as (S,Y), p(x|y,s) as (S,X,Y)): the rho-free
    tensors of the error bound."""
    pxy = marginal_channel(channel, "xy")  # (S,X,Y)
    py = pxy.sum(axis=1)                   # (S,Y)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_x_given_ys = np.where(py[:, None, :] > 0, pxy / py[:, None, :], 0.0)
    return _input_probs(channel, inp)[:, None], py, p_x_given_ys


def _error_total(weights, py, p_x_given_ys, rho):
    """sum_y Psi4(y, rho)."""
    e = 1.0 / (1.0 + rho)
    inner = (weights * np.power(py, e)
             * np.power(p_x_given_ys, e).sum(axis=1)).sum(axis=0)  # per y
    return math.fsum(np.power(inner, 1.0 + rho).tolist())


def _finite(bound: float) -> float:
    """bound, or OverflowError if a tail's float product lost it: inf when
    a product overflows, NaN when an overflowing factor meets an underflowing
    one.  A ** that overflows raises OverflowError by itself."""
    if not math.isfinite(bound):
        raise OverflowError("ensemble bound %r is beyond the float range"
                            % bound)
    return bound


def _error_tail_for(n, rates):
    """(rho, total) -> |Phi|^-rho |M|^rho total^n, in Python floats, or
    OverflowError beyond their range (_finite)."""
    num_m = 2.0 ** _size_bits(n, rates.r_m, "|M|", _FLOAT_BITS)
    num_phi = 2.0 ** _size_bits(n, rates.r_phi, "|Phi|", _FLOAT_BITS)
    return lambda rho, total: _finite(
        float(num_phi**-rho * num_m**rho * total**n))


def ensemble_error_bound(channel: DiscreteBroadcastChannel, inp: Pmf,
                         n: int, rho: float, rates: RatePoint) -> float:
    """Ensemble-average error bound |Phi|^-rho |M|^rho [sum_y Psi4(y,rho)]^n,
    with the actual integer code sizes.  The raw value is returned (it can
    exceed 1; clip only when reporting as a probability); OverflowError if
    it is beyond the float range.  n must be an integer >= 1, else
    ValueError, as in every bound function here."""
    n = _positive_int(n, "blocklength n")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0,1]")
    return _error_tail_for(n, rates)(
        rho, _error_total(*_error_tensors(channel, inp), rho))


def _leakage_tensors(channel, inp):
    """(p(s,x,z), p(z|s)/p(z) * p(x|s,z)), each on the support p(s,x,z) > 0:
    the alpha-free tensors of the leakage bound."""
    pxz = marginal_channel(channel, "xz")  # (S,X,Z)
    joint = _input_probs(channel, inp)[:, None, None] * pxz
    pz = joint.sum(axis=(0, 1))
    pz_given_s = pxz.sum(axis=1)  # (S,Z)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_x_given_sz = np.where(pz_given_s[:, None, :] > 0,
                                pxz / pz_given_s[:, None, :], 0.0)
        lift = np.where(pz[None, None, :] > 0,
                        pz_given_s[:, None, :] / np.where(pz[None, None, :] > 0,
                                                          pz[None, None, :], 1.0),
                        0.0) * p_x_given_sz
    support = joint > 0
    return joint[support], lift[support]


def _leakage_total(joint, lift, alpha):
    """sum Upsilon(s,x,z,alpha)."""
    return math.fsum((joint * np.power(lift, alpha)).tolist())


def _leakage_tail_for(n, rates):
    """(alpha, total) -> c(alpha) |K|^a |Phi|^a |M|^-a total^n, in Python
    floats, or OverflowError beyond their range (_finite)."""
    num_m = 2.0 ** _size_bits(n, rates.r_m, "|M|", _FLOAT_BITS)
    num_phi = 2.0 ** _size_bits(n, rates.r_phi, "|Phi|", _FLOAT_BITS)
    num_k = 2.0 ** _size_bits(n, rates.r_sk, "|K|", _FLOAT_BITS)

    def tail(alpha, total):
        c = math.log2(math.e) / alpha
        return _finite(float(
            c * num_k**alpha * num_phi**alpha * num_m**-alpha * total**n))

    return tail


def ensemble_leakage_bound(channel: DiscreteBroadcastChannel, inp: Pmf,
                           n: int, alpha: float, rates: RatePoint) -> float:
    """Ensemble-average leakage bound in bits:
    c(alpha) |K|^a |Phi|^a |M|^-a [sum Upsilon(s,x,z,alpha)]^n with
    c(alpha) = log2(e)/alpha; OverflowError, never NaN, if it is beyond the
    float range."""
    n = _positive_int(n, "blocklength n")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0,1]")
    return _leakage_tail_for(n, rates)(
        alpha, _leakage_total(*_leakage_tensors(channel, inp), alpha))


def _bound_lanes_for(channel, inp, rates, error_ns, leakage_ns):
    """bounds(lanes, xs, overflow=None) -> the ensemble bounds of many lanes
    at one input: lane l < len(error_ns) is the error bound at n =
    error_ns[l] and rho xs, each later lane the leakage bound at n =
    leakage_ns[l - len(error_ns)] and alpha xs (lanes an ascending int
    array, xs a float array, as golden_section_lanes passes them).

    Each value is the public bound's (ensemble_error_bound,
    ensemble_leakage_bound) bit for bit.  One numpy pass per kind computes the
    powers of every lane's terms; each lane then takes its own fsum and its
    Python-float tail.  A lane whose rho or alpha gives one of numpy power's
    fast-path exponents (exponents._fast_path_positions) takes the scalar
    total instead.  A bound beyond the float range raises the tail's
    OverflowError, or is overflow if that is given."""
    tails = ([_error_tail_for(n, rates) for n in error_ns]
             + [_leakage_tail_for(n, rates) for n in leakage_ns])
    num_error = len(error_ns)
    error_tensors = weights, py, p_x_given_ys = _error_tensors(channel, inp)
    leakage_tensors = joint, lift = _leakage_tensors(channel, inp)

    def bounds(lanes, xs, overflow=None):
        lane_list, x_list = lanes.tolist(), xs.tolist()
        split = bisect.bisect_left(lane_list, num_error)
        totals = []
        if split:
            power = 1.0 + xs[:split]
            e = 1.0 / power
            e_col = e[:, None, None]
            inner = np.add.reduce(weights * np.power(py, e_col) * np.add.reduce(
                np.power(p_x_given_ys, e_col[:, None]), axis=2), axis=1)
            totals += map(math.fsum, np.power(inner, power[:, None]).tolist())
            for j in _fast_path_positions(e, power):
                totals[j] = _error_total(*error_tensors, x_list[j])
        if split < len(lane_list):
            alphas = xs[split:]
            totals += map(math.fsum, (joint * np.power(lift, alphas[:, None])).tolist())
            for j in _fast_path_positions(alphas):
                totals[split + j] = _leakage_total(*leakage_tensors, x_list[split + j])
        values = []
        for lane, x, total in zip(lane_list, x_list, totals):
            try:
                values.append(tails[lane](x, total))
            except OverflowError:  # the tail's product, see _finite
                if overflow is None:
                    raise
                values.append(overflow)
        return values

    return bounds


def _neg_log2(bound: float) -> float:
    """-log2 bound, which a bound search maximizes.  A bound that the
    Python-float tail cannot represent, the lanes' overflow value inf or 0
    when a power underflows, is -inf: never the minimum, and at an edge
    left to the search (exponents._lane_maxima); so the bound reported is
    one that was evaluated."""
    return -math.log2(bound) if bound > 0.0 else -math.inf


def _error_edge(n, rates, threshold, critical):
    """0.0 or 1.0 when the error bound's minimum is at that edge of [0, 1],
    else None: search.  -log2 of the bound is n times the reliability
    objective at the code's effective rates, concave in rho, so its slope at
    rho is log2|Phi| - log2|M| - n*T'(rho) with T' the slope of the log
    term: the reliability threshold at rho = 0 and the critical rate
    critical at rho = 1 (exponents._reliability_critical_rate).

    The bound is vacuous, minimized at rho* = 0, exactly when the slope at
    0 is <= 0 (reliability_exponent's rule at the code's effective rates).
    It is minimized at rho* = 1 when the slope at 1 is at least
    n*_EDGE_MARGIN.  The code sizes are read as _error_tail_for reads them,
    |M| first, so an oversize code raises its ValueError."""
    m_bits = _size_bits(n, rates.r_m, "|M|", _FLOAT_BITS)
    phi_bits = _size_bits(n, rates.r_phi, "|Phi|", _FLOAT_BITS)
    if phi_bits - m_bits <= n * threshold:
        return 0.0
    if phi_bits - m_bits - n * critical >= n * _EDGE_MARGIN:
        return 1.0
    return None


def _leakage_edge(n, rates, critical):
    """1.0 when the leakage bound's minimum is at alpha* = 1, else None:
    search.  -log2 of the bound is log2(alpha / log2 e) - alpha (log2|K| +
    log2|Phi| - log2|M|) plus n times the secrecy objective's log term,
    concave in alpha; its slope at alpha = 1 is log2 e - (log2|K| +
    log2|Phi| - log2|M|) + n*critical, with critical the secrecy critical
    rate G(1) (exponents._secrecy_critical_rates).  The rule needs that
    slope to be at least n*_EDGE_MARGIN.  (At ALPHA_MIN the log2 alpha
    term's slope, about 1.4e6, points inward for every code the float tail
    can represent.)  The code sizes are read as _leakage_tail_for reads
    them, so an oversize code raises its ValueError."""
    m_bits = _size_bits(n, rates.r_m, "|M|", _FLOAT_BITS)
    phi_bits = _size_bits(n, rates.r_phi, "|Phi|", _FLOAT_BITS)
    k_bits = _size_bits(n, rates.r_sk, "|K|", _FLOAT_BITS)
    if math.log2(math.e) - (k_bits + phi_bits - m_bits) + n * critical \
            >= n * _EDGE_MARGIN:
        return 1.0
    return None


def _minimized_bounds(channel, inp, n_list, rates) -> list:
    """((rho*, min over rho in [0, 1] of the error bound), (alpha*, min over
    alpha in [ALPHA_MIN, 1] of the leakage bound)) at each n of n_list.

    The reliability threshold and the critical rates are computed once, and
    the edge rules (_error_edge, _leakage_edge) decide the bounds minimized
    at an edge of their domain.  exponents._lane_maxima then maximizes
    -log2 of every bound on one lane evaluator (_bound_lanes_for), the
    error lanes and then the leakage lanes, with a bound beyond the float
    range as -inf: the decided lanes take one call, and the rest, with any
    decided lane whose bound the float tail cannot represent, one
    golden_section_lanes set.  Each bound is reported as 2^-(-log2 bound)."""
    threshold = _reliability_threshold(channel, inp)
    rel_critical = _reliability_critical_rate(channel, inp)
    sec_critical = _secrecy_critical_rates(channel, inp)[0]
    edges = ([_error_edge(n, rates, threshold, rel_critical) for n in n_list]
             + [_leakage_edge(n, rates, sec_critical) for n in n_list])
    bounds = _bound_lanes_for(channel, inp, rates, n_list, n_list)
    found = [(x, 2.0**-neg) for x, neg in _lane_maxima(
        lambda lanes, xs: [_neg_log2(b) for b in bounds(lanes, xs, math.inf)],
        edges, [(0.0, 1.0)] * len(n_list) + [(ALPHA_MIN, 1.0)] * len(n_list))]
    return list(zip(found[:len(n_list)], found[len(n_list):]))


def _codebook_rows(channel: DiscreteBroadcastChannel, inp: Pmf, n: int,
                   rates: RatePoint, num_codebooks: int, seed):
    """[(error, leakage)] of num_codebooks codebooks at blocklength n, each
    by exact enumeration.

    seed is wrapped in a SeedSequence if it is not one.  Codebook i is
    drawn from its child n_children_spawned + i, the child that
    seed.spawn would give, exactly as generate_code draws from that child
    (the raw-word layout is _draw_tables').  The children are not spawned:
    each stack's PCG64 states come from the seed's pool and other public
    attributes in one pass (_spawn_prefix, _child_pools, _pcg64_states),
    and one bit generator reads them all.  So a SeedSequence seed is read
    but not advanced, and two calls with one SeedSequence draw the same
    codebooks.  A child index must stay below 2^32 (a larger one needs a
    second spawn-key word), else ValueError.  The codebooks are drawn
    straight into stacked tables and evaluated in stacks of about
    _STACK_CELLS cells; every row equals exact_evaluate on
    generate_code(..., child i)."""
    num_codebooks = _positive_int(num_codebooks, "num_codebooks")
    seq = _seed_sequence(seed)
    num_m, num_phi, num_k, width = _table_sizes(channel, n, rates, inp)
    cells = _enumeration_cells(channel, n, num_m * width, num_k, num_phi)
    stack = max(1, _STACK_CELLS // cells)
    first = seq.n_children_spawned
    if first + num_codebooks > _CHILD_LIMIT:
        raise ValueError(
            "codebooks need SeedSequence children %d to %d, past the limit "
            "of child indices below 2^32" % (first, first + num_codebooks - 1))
    prefix = _spawn_prefix(seq)
    bit_gen = np.random.PCG64(0)
    cdf = _input_cdf(inp)
    tables = _score_tables(channel, n)
    rows = []
    for lo in range(0, num_codebooks, stack):
        states = _pcg64_states(_child_pools(
            prefix, first + lo, min(stack, num_codebooks - lo)))
        codewords, key, pub = _draw_tables(bit_gen, states, cdf, n, num_m,
                                           width, num_k, num_phi)
        rows += _evaluate_stack(tables, codewords, key, pub, num_k, num_phi)
    return rows


def _bound_check(rows, bounds):
    """(avg_error, avg_leakage, check) of the per-codebook rows against
    bounds, the ((rho*, error bound), (alpha*, leakage bound)) of their n."""
    (rho_star, err_bound), (alpha_star, leak_bound) = bounds
    count = len(rows)
    errors = np.array([r[0] for r in rows])
    leaks = np.array([r[1] for r in rows])
    avg_error = float(errors.mean())
    avg_leakage = float(leaks.mean())
    slack_e = 3.0 * float(errors.std(ddof=1)) / math.sqrt(count) \
        if count > 1 else 0.0
    slack_l = 3.0 * float(leaks.std(ddof=1)) / math.sqrt(count) \
        if count > 1 else 0.0
    check = {
        "error_bound": err_bound,
        "rho_star": rho_star,
        "error_slack": slack_e,
        "error_ok": avg_error <= err_bound + slack_e,
        "leakage_bound": leak_bound,
        "alpha_star": alpha_star,
        "leakage_slack": slack_l,
        "leakage_ok": avg_leakage <= leak_bound + slack_l,
        "per_codebook": rows,
    }
    return avg_error, avg_leakage, check


def ensemble_average(channel: DiscreteBroadcastChannel, inp: Pmf,
                     n: int, rates: RatePoint, num_codebooks: int, seed):
    """Average exact error/leakage over independently drawn codebooks and
    compare against the minimized ensemble bounds.

    Returns (avg_error, avg_leakage, check) where check carries the bounds,
    the 3*sigma/sqrt(N) slack terms, per-codebook rows, and pass verdicts.
    Codebook i is drawn from child n_children_spawned + i of seed (a
    SeedSequence or what one is made from), as _codebook_rows describes.
    This is ensemble_averages at one blocklength: the codebook rows and the
    bound check, each bound decided at an edge of its domain when it peaks
    there (_error_edge, _leakage_edge) and searched otherwise
    (_minimized_bounds).
    """
    return ensemble_averages(channel, inp, [n], rates, num_codebooks, [seed])[0]


def ensemble_averages(channel: DiscreteBroadcastChannel, inp: Pmf, n_list,
                      rates: RatePoint, num_codebooks: int, seeds) -> list:
    """ensemble_average at each blocklength of n_list with the seed of equal
    position in seeds, result for result and bit for bit.  The codebook
    rows of every n are drawn and evaluated first; then the bounds minimized
    at an edge are decided from one reliability threshold and one set of
    critical rates, and the other bound searches of the call run in one
    lane set (_minimized_bounds).  A blocklength that fails a check
    (TABLE_BUDGET, ENUM_BUDGET) raises before any later n is drawn, with
    the message ensemble_average gives."""
    if len(seeds) != len(n_list):
        raise ValueError("ensemble_averages needs one seed per blocklength, "
                         "got %d for %d" % (len(seeds), len(n_list)))
    rows = [_codebook_rows(channel, inp, n, rates, num_codebooks, seed)
            for n, seed in zip(n_list, seeds)]
    return [_bound_check(n_rows, n_bounds) for n_rows, n_bounds in
            zip(rows, _minimized_bounds(channel, inp, n_list, rates))]
