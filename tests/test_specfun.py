import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference_values as ref
from hhfrac import specfun
from hhfrac.errors import ConvergenceError, DomainError, MLOverflowError
from hhfrac.specfun import beta, gamma_ratio, mittag_leffler, mittag_leffler_array


class TestGamma:
    def test_at_one(self):
        assert math.gamma(1.0) == 1.0

    def test_half_is_sqrt_pi(self):
        assert math.gamma(0.5) == pytest.approx(ref.SQRT_PI, rel=1e-12)

    def test_seven_ninths(self):
        assert math.gamma(7.0 / 9.0) == pytest.approx(ref.GAMMA_7_9, rel=1e-12)


class TestBeta:
    def test_unit(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_reference_pair(self):
        assert beta(7.0 / 9.0, 1.0 / 3.0) == pytest.approx(
            ref.BETA_7_9_1_3, rel=1e-12
        )
        assert beta(7.0 / 9.0, 1.0 / 3.0) == pytest.approx(
            ref.GAMMA_7_9 * ref.GAMMA_1_3 / ref.GAMMA_10_9, rel=1e-12
        )

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.05, max_value=20.0),
    )
    def test_symmetry(self, a, b):
        assert beta(a, b) == pytest.approx(beta(b, a), rel=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=15.0),
        st.floats(min_value=0.05, max_value=15.0),
    )
    def test_gamma_identity(self, a, b):
        assert beta(a, b) * math.gamma(a + b) == pytest.approx(
            math.gamma(a) * math.gamma(b), rel=1e-10
        )

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            beta(-1.0, 2.0)
        with pytest.raises(DomainError):
            beta(1.0, 0.0)


class TestGammaRatio:
    def test_plain_region(self):
        assert gamma_ratio(2.0, 0.5) == pytest.approx(
            math.gamma(2.0) / math.gamma(1.5), rel=1e-13
        )

    def test_pole_gives_zero(self):
        # Gamma(c - mu) has a pole at 0: the critical mode is annihilated
        assert gamma_ratio(0.5, 0.5) == 0.0

    def test_reflection_region(self):
        # c - mu = -0.25: scipy's gamma continues through negative arguments
        from scipy.special import gamma as sp_gamma

        assert gamma_ratio(0.25, 0.5) == pytest.approx(
            float(sp_gamma(0.25) / sp_gamma(-0.25)), rel=1e-12
        )


class TestMittagLeffler:
    def test_exponential_special_case(self):
        for z in np.linspace(0.0, 20.0, 41):
            result = mittag_leffler(1.0, float(z))
            assert result.value == pytest.approx(math.exp(z), rel=1e-10)

    def test_at_zero_is_exactly_one(self):
        for alpha in (0.1, 1.0 / 3.0, 0.5, 1.0):
            result = mittag_leffler(alpha, 0.0)
            assert result.value == 1.0
            assert result.terms_used == 1
            assert result.truncation_estimate == 0.0

    @pytest.mark.parametrize(
        "z,expected",
        [
            (0.1, ref.ML_1_3_AT_0_1),
            (0.5, ref.ML_1_3_AT_0_5),
            (1.0, ref.ML_1_3_AT_1_0),
            (2.0, ref.ML_1_3_AT_2_0),
        ],
    )
    def test_one_third_reference_values(self, z, expected):
        assert mittag_leffler(1.0 / 3.0, z).value == pytest.approx(expected, rel=1e-12)

    @given(st.floats(min_value=0.25, max_value=1.0))
    def test_nondecreasing_in_z(self, alpha):
        zs = np.linspace(0.0, 2.0, 16)
        values = [mittag_leffler(float(alpha), float(z)).value for z in zs]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_result_metadata(self):
        result = mittag_leffler(0.5, 1.0)
        assert result.terms_used >= 2
        assert 0.0 <= result.truncation_estimate < 1e-15 * result.value

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler(1.5, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, -0.1)

    def test_overflow_rejected(self):
        with pytest.raises(MLOverflowError):
            mittag_leffler(1.0 / 3.0, 50.0)

    def test_term_cap(self, monkeypatch):
        monkeypatch.setattr(specfun, "ML_TERM_CAP", 5)
        with pytest.raises(ConvergenceError, match="within 5 terms"):
            mittag_leffler(1.0 / 3.0, 3.0)


def _mpmath_series(alpha, z, dps=50):
    """E_alpha(z) summed in 50-digit arithmetic until the terms fall below 1e-60."""
    import mpmath

    with mpmath.workdps(dps):
        a, zz = mpmath.mpf(alpha), mpmath.mpf(z)
        total, k = mpmath.mpf(0), 0
        while True:
            term = zz**k / mpmath.gamma(k * a + 1)
            total += term
            if term < mpmath.mpf(10) ** -60 * total:
                return float(total)
            k += 1


class TestMittagLefflerArray:
    @pytest.mark.parametrize("alpha", [0.2, 1.0 / 3.0, 0.75, 1.0])
    def test_against_mpmath_series(self, alpha):
        # E_alpha(z) ~ exp(z^(1/alpha)) / alpha: arguments kept where the
        # exponent stays small, so double-precision exp is not the limit
        z = np.array([0.0, 1e-3, 0.3, 1.0, 1.7])
        values = mittag_leffler_array(alpha, z)
        assert values[0] == 1.0
        for zi, v in zip(z[1:], values[1:]):
            assert v == pytest.approx(_mpmath_series(alpha, zi), rel=1e-14)

    def test_order_of_arguments_is_free(self):
        z = np.array([2.0, 0.0, 0.5, 1.0, 0.25])
        values = mittag_leffler_array(0.5, z)
        np.testing.assert_allclose(
            values, [mittag_leffler(0.5, float(zi)).value for zi in z], rtol=2e-15
        )
        assert values[1] == 1.0

    def test_all_zero_arguments(self):
        np.testing.assert_array_equal(mittag_leffler_array(0.5, np.zeros(4)), np.ones(4))

    def test_overflow_at_last_argument_raises(self):
        z = np.linspace(0.0, 50.0, 11)
        with pytest.raises(MLOverflowError):
            mittag_leffler(1.0 / 3.0, float(z[-1]))
        with pytest.raises(MLOverflowError):
            mittag_leffler_array(1.0 / 3.0, z)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mittag_leffler_array(0.0, np.ones(3))
        with pytest.raises(DomainError):
            mittag_leffler_array(1.5, np.ones(3))
        with pytest.raises(DomainError):
            mittag_leffler_array(0.5, np.array([0.0, -0.1]))
        with pytest.raises(DomainError):
            mittag_leffler_array(0.5, np.array([0.0, math.nan]))
