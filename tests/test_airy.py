import math

import mpmath
import numpy as np
import pytest

from growthdiff.airy import airy_ai, airy_first_zero

mpmath.mp.dps = 30

C1 = airy_first_zero()


def _oracle(x):
    return float(mpmath.airyai(x)), float(mpmath.airyai(x, 1))


class TestValues:
    def test_at_zero_against_gamma_formulas(self):
        ai, aip = airy_ai(0.0)
        assert ai == pytest.approx(3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0), abs=1e-15)
        assert aip == pytest.approx(-(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0), abs=1e-15)
        ref_ai, ref_aip = _oracle(0.0)
        assert ai == pytest.approx(ref_ai, abs=1e-14)
        assert aip == pytest.approx(ref_aip, abs=1e-14)

    def test_at_one(self):
        ai, _ = airy_ai(1.0)
        assert ai == pytest.approx(0.135292416313, abs=1e-12)

    def test_oracle_agreement_on_working_domain(self):
        for x in np.linspace(C1 - 1.0, 5.0, 181):
            ai, aip = airy_ai(float(x))
            ref_ai, ref_aip = _oracle(float(x))
            assert ai == pytest.approx(ref_ai, abs=1e-14)
            assert aip == pytest.approx(ref_aip, abs=1e-14)

    def test_oracle_agreement_past_branch_switch(self):
        for x in (5.5, 6.5, 8.0):
            ai, aip = airy_ai(x)
            ref_ai, ref_aip = _oracle(x)
            assert ai == pytest.approx(ref_ai, abs=1e-14)
            assert aip == pytest.approx(ref_aip, abs=1e-14)

    def test_stays_sane_left_of_working_domain(self):
        # Accuracy is only contracted on [c1-1, 5]; further left Ai
        # oscillates and a looser bound is enough.
        for x in (-4.0, -6.5):
            ai, aip = airy_ai(x)
            ref_ai, ref_aip = _oracle(x)
            assert ai == pytest.approx(ref_ai, abs=1e-9)
            assert aip == pytest.approx(ref_aip, abs=1e-9)


class TestFirstZero:
    def test_bracket_and_residual(self):
        assert -2.4 < C1 < -2.3
        assert abs(airy_ai(C1)[0]) < 1e-13

    def test_against_root_oracle(self):
        assert C1 == pytest.approx(float(mpmath.airyaizero(1)), abs=2e-15)

    def test_largest_zero(self):
        assert airy_ai(C1 + 1e-8)[0] > 0.0
        for x in np.linspace(C1 + 1e-6, 0.0, 50):
            assert airy_ai(float(x))[0] > 0.0

    def test_slope_at_zero(self):
        assert airy_ai(C1)[1] == pytest.approx(0.701211, abs=1e-6)
        assert airy_ai(C1)[1] > 0.0


class TestShape:
    def test_sign_pattern(self):
        for x in np.linspace(0.0, 5.0, 60):
            ai, aip = airy_ai(float(x))
            assert aip < 0.0
        for x in np.linspace(C1 + 1e-3, 5.0, 60):
            assert airy_ai(float(x))[0] > 0.0

    def test_inflection_at_origin(self):
        # Richardson pair cancels the h^2 truncation term; the plain h=1e-4
        # stencil bottoms out near 3e-9 from roundoff alone.
        def second(h):
            return (airy_ai(h)[0] - 2.0 * airy_ai(0.0)[0] + airy_ai(-h)[0]) / h ** 2
        rich = (4.0 * second(0.005) - second(0.01)) / 3.0
        assert abs(rich) < 1e-10

    def test_ode_residual(self):
        # Fourth-order stencil with a 1e-9 budget for its truncation and
        # roundoff error; the step widens on the slowly varying side x > 2.
        for x in np.linspace(C1 - 1.0, 5.0, 241):
            x = float(x)
            h = 0.004 if x <= 2.0 else 0.02
            second = (-airy_ai(x + 2 * h)[0] + 16.0 * airy_ai(x + h)[0]
                      - 30.0 * airy_ai(x)[0] + 16.0 * airy_ai(x - h)[0]
                      - airy_ai(x - 2 * h)[0]) / (12.0 * h ** 2)
            assert abs(second - x * airy_ai(x)[0]) < 1e-9


class TestContract:
    def test_scalar_gives_floats(self):
        ai, aip = airy_ai(-1.0)
        assert type(ai) is float and type(aip) is float

    def test_array_matches_scalar_calls(self):
        xs = np.linspace(C1, 0.0, 97)
        ai, aip = airy_ai(xs)
        assert isinstance(ai, np.ndarray) and ai.shape == xs.shape
        pairs = np.array([airy_ai(float(x)) for x in xs])
        assert np.array_equal(ai, pairs[:, 0])
        assert np.array_equal(aip, pairs[:, 1])

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf,
                                   np.array([0.0, math.nan, -1.0])])
    def test_rejects_non_finite_arguments(self, x):
        with pytest.raises(ValueError, match="finite argument"):
            airy_ai(x)
