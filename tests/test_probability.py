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
    conditional_mutual_information_rows,
    mutual_information_rows,
)


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
    """The row kernels against the per-joint loops they replaced, with ==."""

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
        assert rows == [_loop_mi(j) for j in stack]
        assert rows == [mutual_information(j) for j in stack]
        assert [entropy(j) for j in stack] == [_loop_entropy(j) for j in stack]

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 2, 3), (9, 2, 2), (3, 10, 4),
                                       (2, 3, 9)])
    def test_conditional_mutual_information_rows(self, shape):
        stack = self.joints(np.random.default_rng(shape), shape, 20)
        rows = conditional_mutual_information_rows(stack)
        assert rows == [_loop_cmi(j) for j in stack]
        assert rows == [conditional_mutual_information(j) for j in stack]
