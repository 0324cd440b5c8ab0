import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from skagree import (
    JointPmf,
    Pmf,
    PmfError,
    binary_entropy,
    bsc_convolve,
    conditional_mutual_information,
    entropy,
    mutual_information,
)
from skagree.probability import (
    _WIDE_ROW_CELLS,
    MASS_TOL,
    _entropy_rows,
    _validate_rows,
    conditional_mutual_information_rows,
    mutual_information_rows,
)

# A row wider than _WIDE_ROW_CELLS is summed pairwise by numpy, not by fsum;
# its entropy may differ from the fsum loop oracle by a few ulps.
WIDE_TOL = 1e-14


def normalized(values):
    arr = np.asarray(values, dtype=float)
    return arr / math.fsum(arr.ravel().tolist())


pmf_values = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5)


class TestPmfValidation:
    def test_negative_entry_rejected(self):
        with pytest.raises(PmfError):
            Pmf(np.array([1.1, -0.1]))

    def test_bad_mass_rejected(self):
        with pytest.raises(PmfError):
            Pmf(np.array([0.5, 0.4]))

    def test_empty_rejected(self):
        with pytest.raises(PmfError):
            Pmf(np.array([]))

    @pytest.mark.parametrize("k", [0, -1])
    def test_uniform_needs_a_letter(self, k):
        with pytest.raises(PmfError, match="k >= 1"):
            Pmf.uniform(k)

    @given(pmf_values, st.data(), st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_entry_rejected(self, vals, data, bad):
        # NaN slips through "< 0" and "|mass - 1| > tol"; it must still fail
        arr = normalized(vals)
        arr[data.draw(st.integers(0, arr.size - 1))] = bad
        with pytest.raises(PmfError):
            Pmf(arr)
        with pytest.raises(PmfError):
            JointPmf(arr.reshape(1, -1))
        # the batched kernels validate every row of the stack
        stack = np.stack([normalized(vals), arr])[:, :, None]
        with pytest.raises(PmfError):
            mutual_information_rows(stack)
        with pytest.raises(PmfError):
            conditional_mutual_information_rows(stack[:, :, :, None])

    def test_overflowing_mass_rejected(self):
        # fsum raises OverflowError when its partial sums leave the float range
        for big in ([1e308, 1e308], [1e308, 1e308, -0.0]):
            with pytest.raises(PmfError):
                Pmf(np.array(big))
            with pytest.raises(PmfError):
                JointPmf(np.array(big).reshape(1, -1))
            with pytest.raises(PmfError):
                mutual_information_rows(np.array([[[0.5, 0.5]], [big[:2]]]))


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(Pmf.uniform(2)) == 1.0

    def test_point_mass(self):
        assert entropy(Pmf(np.array([0.0, 1.0]))) == 0.0

    def test_skewed(self):
        # -0.9 log2 0.9 - 0.1 log2 0.1
        assert entropy(Pmf(np.array([0.9, 0.1]))) == pytest.approx(0.468996, abs=1e-6)

    @pytest.mark.parametrize("values", [
        [math.nan, 1.0], [-0.5, 1.5], [0.2, 0.2], [math.inf, 0.0], [],
        np.full(100, 0.02),  # a wide row with twice the mass
    ])
    def test_non_pmf_rejected(self, values):
        with pytest.raises(PmfError):
            entropy(values)


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_deterministic(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_matches_entropy(self):
        assert binary_entropy(0.1) == pytest.approx(
            entropy(Pmf(np.array([0.1, 0.9]))), abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)


class TestBscConvolve:
    def test_identity_element(self):
        assert bsc_convolve(0.3, 0.0) == 0.3

    def test_absorbing_element(self):
        assert bsc_convolve(0.3, 0.5) == 0.5

    def test_hand_value(self):
        assert bsc_convolve(0.1, 0.2) == pytest.approx(0.26, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            bsc_convolve(-0.1, 0.2)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_commutative_associative(self, a, b, c):
        assert bsc_convolve(a, b) == pytest.approx(bsc_convolve(b, a), abs=1e-14)
        left = bsc_convolve(bsc_convolve(a, b), c)
        right = bsc_convolve(a, bsc_convolve(b, c))
        assert left == pytest.approx(right, abs=1e-14)


class TestMutualInformation:
    def test_product_joint(self):
        pa, pb = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        assert mutual_information(np.outer(pa, pb)) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation(self):
        assert mutual_information(np.diag([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_pair(self):
        # equals 1 - Hb(0.2) by direct evaluation
        j = np.array([[0.4, 0.1], [0.1, 0.4]])
        assert mutual_information(j) == pytest.approx(0.278072, abs=1e-6)

    def test_arity(self):
        with pytest.raises(ValueError):
            mutual_information(np.full((2, 2, 2), 0.125))

    @given(pmf_values, pmf_values)
    def test_nonnegative(self, a, b):
        j = normalized(np.outer(normalized(a), normalized(b)) ** 1.3)
        assert mutual_information(j) >= -1e-10


class TestConditionalMutualInformation:
    def test_conditionally_independent(self):
        # p(a,b|c) = p(a|c)p(b|c)
        j = np.zeros((2, 2, 2))
        for c, pc in enumerate([0.4, 0.6]):
            pa = np.array([0.2 + 0.5 * c, 0.8 - 0.5 * c])
            pb = np.array([0.7 - 0.3 * c, 0.3 + 0.3 * c])
            j[:, :, c] = pc * np.outer(pa, pb)
        assert conditional_mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_constant_conditioning(self):
        ab = np.array([[0.4, 0.1], [0.1, 0.4]])
        j = ab[:, :, None] * np.array([1.0])[None, None, :]
        assert conditional_mutual_information(j) == pytest.approx(
            mutual_information(ab), abs=1e-12)

    def test_arity(self):
        with pytest.raises(ValueError):
            conditional_mutual_information(np.array([[0.5, 0.5]]))

    @given(st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8))
    def test_per_slice_oracle(self, vals):
        j = normalized(vals).reshape(2, 2, 2)
        expected = 0.0
        for c in range(2):
            pc = j[:, :, c].sum()
            expected += pc * mutual_information(j[:, :, c] / pc)
        assert conditional_mutual_information(j) == pytest.approx(expected, abs=1e-12)


def _loop_entropy(arr):
    return -math.fsum(x * math.log2(x) for x in arr.ravel().tolist() if x > 0.0)


def _loop_mi(arr):
    return _loop_entropy(arr.sum(axis=1)) + _loop_entropy(arr.sum(axis=0)) \
        - _loop_entropy(arr)


def _loop_cmi(arr):
    terms = []
    for c in range(arr.shape[2]):
        pc = math.fsum(arr[:, :, c].ravel().tolist())
        if pc > 0.0:
            terms.append(pc * _loop_mi(arr[:, :, c] / pc))
    return math.fsum(terms)


class TestBatchedKernels:
    """The row kernels against the per-joint loops they replaced: == where
    every entropy row has at most _WIDE_ROW_CELLS cells, within WIDE_TOL
    where the joint is wider."""

    @staticmethod
    def joints(rng, shape, count):
        out = []
        for _ in range(count):
            arr = rng.dirichlet(np.full(int(np.prod(shape)), rng.choice([0.2, 1.0])))
            keep = rng.random(arr.size) >= 0.25  # zero entries, zero slices
            keep[rng.integers(arr.size)] = True
            arr = arr * keep
            out.append((arr / math.fsum(arr.tolist())).reshape(shape))
        return np.stack(out)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (9, 2), (3, 11), (12, 9)])
    def test_mutual_information_rows(self, shape):
        stack = self.joints(np.random.default_rng(shape), shape, 20)
        rows = mutual_information_rows(stack)
        assert rows == [mutual_information(j) for j in stack]
        entropies = [entropy(j) for j in stack]
        loop_rows = [_loop_mi(j) for j in stack]
        loop_entropies = [_loop_entropy(j) for j in stack]
        if math.prod(shape) <= _WIDE_ROW_CELLS:
            assert rows == loop_rows
            assert entropies == loop_entropies
        else:
            assert np.abs(np.subtract(rows, loop_rows)).max() <= WIDE_TOL
            assert np.abs(np.subtract(entropies, loop_entropies)).max() <= WIDE_TOL

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 2, 3), (9, 2, 2), (3, 10, 4),
                                       (2, 3, 9), (4, 9, 2), (2, 16, 3), (12, 5, 2)])
    def test_conditional_mutual_information_rows(self, shape):
        stack = self.joints(np.random.default_rng(shape), shape, 20)
        if shape[2] > 1:  # a joint with a zero-mass slab
            stack[0, :, :, 0] = 0.0
            stack[0] /= math.fsum(stack[0].ravel().tolist())
        want = [_loop_cmi(j) for j in stack]
        rows = conditional_mutual_information_rows(stack)
        assert rows == want
        assert rows == [conditional_mutual_information(j) for j in stack]
        # one joint alone (G = 1), an F-ordered stack, and rate_split's
        # transposed view of (c, a, b)-ordered data give the same bits
        assert [conditional_mutual_information_rows(j[None])[0] for j in stack] == want
        assert conditional_mutual_information_rows(np.asfortranarray(stack)) == want
        view = np.ascontiguousarray(stack.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)
        assert conditional_mutual_information_rows(view) == want
        assert [conditional_mutual_information(j) for j in view] == want


class TestWideRows:
    """Rows wider than _WIDE_ROW_CELLS: close to the fsum loop, and bit for
    bit the same whatever the stack around a row or its memory layout."""

    @staticmethod
    def wide_rows(rng, width, count):
        """count rows of one width: a quarter of the cells zero, the first
        two cells subnormal, and the last row a lone 1.0."""
        rows = rng.dirichlet(np.full(width, rng.choice([0.05, 1.0])), size=count)
        rows[rng.random(rows.shape) < 0.25] = 0.0
        rows[:, :2] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        rows[:, :2] = [5e-324, 1e-310]
        rows[-1] = 0.0
        rows[-1, rng.integers(width)] = 1.0
        return rows

    @pytest.mark.parametrize("width", [65, 128, 1000, 16384])
    def test_against_loop_oracle(self, width):
        rows = self.wide_rows(np.random.default_rng(width), width, 6)
        got = _entropy_rows(rows)
        want = [_loop_entropy(r) for r in rows]
        assert np.abs(np.subtract(got, want)).max() <= WIDE_TOL
        assert got[-1] == want[-1] == 0.0
        assert [entropy(r) for r in rows] == got

    @pytest.mark.parametrize("width", [65, 97, 512, 16384])
    def test_layout_and_stack_independence(self, width):
        stack = self.wide_rows(np.random.default_rng(width + 1), width, 60)
        alone = [_entropy_rows(row[None])[0] for row in stack]
        for lo in (0, 28, 57):
            assert _entropy_rows(stack[lo:lo + 3]) == alone[lo:lo + 3]
        assert _entropy_rows(stack) == alone
        assert _entropy_rows(np.asfortranarray(stack)) == alone
        assert _entropy_rows(np.ascontiguousarray(stack.T).T) == alone
        assert _entropy_rows(stack[::-1]) == alone[::-1]

    @pytest.mark.parametrize("shape", [(64,), (8, 8), (4, 4, 4), (2, 32)])
    def test_boundary_rows_stay_on_the_loop(self, shape):
        rng = np.random.default_rng(shape)
        stack = np.stack([normalized(rng.dirichlet(np.full(64, 0.3))).reshape(shape)
                          for _ in range(30)])
        assert _entropy_rows(stack) == [_loop_entropy(j) for j in stack]
        assert [entropy(j) for j in stack] == [_loop_entropy(j) for j in stack]


def _fsum_validate(rows):
    """The mass checks written out: every row's fsum total, in order."""
    if rows.size < 1:
        raise PmfError("empty probability array")
    if not (rows >= 0.0).all():
        if np.isnan(rows).any():
            raise PmfError("non-finite probability entry")
        raise PmfError("negative probability entry: min=%r" % float(rows.min()))
    try:
        totals = list(map(math.fsum, rows.tolist()))
    except OverflowError:
        raise PmfError("total mass overflows a float") from None
    for total in totals:
        if abs(total - 1.0) > MASS_TOL:
            raise PmfError("total mass %.17g deviates from 1 by more than %g"
                           % (total, MASS_TOL))


def _verdict(check, arg):
    """None if check(arg) passes, else the type and text of what it raised."""
    try:
        check(arg)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _first_failing_total(outward):
    """The float total nearest 1 on the ``outward`` side that fails."""
    t = 1.0
    while abs(t - 1.0) <= MASS_TOL:
        t = float(np.nextafter(t, outward))
    return t


class TestMassScreen:
    """_validate_rows on wide, narrow, Fortran-ordered and reversed stacks:
    every verdict and message must be the fsum loop's."""

    EDGES = [_first_failing_total(2.0), _first_failing_total(0.0)]
    BAND = MASS_TOL - 1e-13
    # 1 +- MASS_TOL (1 +- 1e-6), the floats on each side of the MASS_TOL
    # boundary, and totals about 1e-13 inside the boundary, where a pairwise
    # numpy sum's rounding could take them across
    TOTALS = [1.0, 1.0 + MASS_TOL * (1 + 1e-6), 1.0 + MASS_TOL * (1 - 1e-6),
              1.0 - MASS_TOL * (1 + 1e-6), 1.0 - MASS_TOL * (1 - 1e-6),
              *EDGES, *(float(np.nextafter(t, 1.0)) for t in EDGES),
              1.0 + BAND * (1 - 1e-3), 1.0 + BAND * (1 + 1e-3),
              1.0 - BAND * (1 - 1e-3), 1.0 - BAND * (1 + 1e-3)]

    @staticmethod
    def row_with_total(rng, width, total):
        """width cells, multiples of 2**-55, whose exact sum is ``total``."""
        k = int(total * 2**55)
        assert k == total * 2**55
        cuts = np.sort(rng.integers(0, k, width - 1))
        row = np.diff(np.concatenate([[0], cuts, [k]])).astype(float) * 2.0**-55
        assert math.fsum(row.tolist()) == total
        return row

    def agree(self, rows):
        want = _verdict(_fsum_validate, rows)
        assert _verdict(_validate_rows, rows) == want
        return want

    @pytest.mark.parametrize("width", [65, 4096])
    def test_totals_near_the_tolerance_and_the_screen_band(self, width):
        rng = np.random.default_rng(width)
        good = np.stack([self.row_with_total(rng, width, 1.0) for _ in range(3)])
        verdicts = set()
        for total in self.TOTALS:
            row = self.row_with_total(rng, width, total)
            verdicts.add(self.agree(row[None]))
            # a failing row after passing ones, and passing ones after it
            stack = np.concatenate([good[:2], row[None], good[2:]])
            self.agree(stack)
            self.agree(np.asfortranarray(stack))
            self.agree(np.ascontiguousarray(stack.T).T)
            self.agree(stack[::-1])
            assert _verdict(Pmf, row) == _verdict(_fsum_validate, row[None])
        assert None in verdicts and len(verdicts) > 2  # passes and failures

    @pytest.mark.parametrize("width", [65, 4096])
    def test_rounded_sum_on_the_wrong_side(self, width):
        # rows of random cells whose fsum total is the first float past the
        # tolerance, but whose numpy sum rounds back inside it: they fail
        rng = np.random.default_rng(width + 3)
        for total in self.EDGES:
            found = 0
            for _ in range(400):
                row = rng.dirichlet(np.full(width, 0.5)) * total
                while math.fsum(row.tolist()) != total:
                    row[row.argmax()] += total - math.fsum(row.tolist())
                if abs(row.sum() - 1.0) <= MASS_TOL:
                    found += 1
                    assert "deviates" in self.agree(row[None])[1]
                    if found == 3:
                        break
            assert found == 3

    @pytest.mark.parametrize("width", [65, 4096])
    def test_first_failing_row_is_reported(self, width):
        rng = np.random.default_rng(width + 1)
        totals = (1.0, 1.0 + 2e-12, 1.0, 1.0 - 3e-12)
        rows = np.stack([self.row_with_total(rng, width, t) for t in totals])
        assert "mass %.17g deviates" % totals[1] in self.agree(rows)[1]
        assert "mass %.17g deviates" % totals[3] in self.agree(rows[::-1])[1]

    @pytest.mark.parametrize("width", [65, 4096])
    def test_bad_entries(self, width):
        rng = np.random.default_rng(width + 2)
        good = self.row_with_total(rng, width, 1.0)
        overflow = np.zeros(width)
        overflow[[3, -2]] = 1e308
        infinite = good.copy()
        infinite[5] = math.inf
        nan = good.copy()
        nan[-1] = math.nan
        negative = good.copy()
        negative[7] = -negative[7]
        for bad, text in ((overflow, "overflows"), (infinite, "inf deviates"),
                          (nan, "non-finite"), (negative, "negative")):
            for rows in (bad[None], np.stack([good, bad]), np.stack([bad, good])):
                assert text in self.agree(rows)[1]
                self.agree(np.asfortranarray(rows))
            assert _verdict(Pmf, bad) == _verdict(_fsum_validate, bad[None])

    def test_pmf_of_65_cells(self):
        rng = np.random.default_rng(65)
        for total in self.TOTALS:
            row = self.row_with_total(rng, 65, total)
            assert _verdict(Pmf, row) == _verdict(_fsum_validate, row[None])
            assert _verdict(JointPmf, row.reshape(5, 13)) \
                == _verdict(_fsum_validate, row[None])
