"""Rate laws, occupation numbers, and coherence bounds."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvrelax.core import BOLTZMANN_MEV_PER_K
from nvrelax.models import (
    CoherenceLimit,
    Mode,
    NModeParams,
    PriorModelParams,
    SampleConstants,
    coherence_limits,
    eval_n_mode,
    eval_prior_model,
    occupation,
    orbach_factor,
    orbach_factor_ddelta,
    ratio_curve,
)

# strategy for a well-separated mode ladder with strictly positive coefficients
mode_energies = st.lists(
    st.floats(min_value=5.0, max_value=300.0), min_size=1, max_size=3, unique=True
).filter(lambda ds: all(b - a > 1.5 for a, b in zip(sorted(ds), sorted(ds)[1:])))
coefficients = st.floats(min_value=1e-3, max_value=1e4)


def build_params(deltas, coeffs_a, coeffs_b):
    modes = tuple(
        Mode(d, a, b) for d, a, b in sorted(zip(deltas, coeffs_a, coeffs_b))
    )
    return NModeParams(modes=modes)


class TestOccupation:
    def test_low_energy_mode_at_room_temperature(self):
        assert occupation(68.2, 295.0) == pytest.approx(0.07338859910764672, rel=1e-12)

    def test_frozen_out_limit(self):
        assert occupation(68.2, 9.0) < 1e-30

    def test_underflow_guard_is_exact_zero(self):
        # 68.2 meV at 1 K puts the exp argument near 791, beyond the guard
        assert occupation(68.2, 1.0) == 0.0

    def test_high_temperature_expansion(self):
        # for delta/(k_B T) = 1e-8, n approaches k_B T / delta
        delta = 1e-8 * BOLTZMANN_MEV_PER_K * 300.0
        expected = BOLTZMANN_MEV_PER_K * 300.0 / delta
        assert occupation(delta, 300.0) == pytest.approx(expected, rel=1e-6)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            occupation(0.0, 300.0)
        with pytest.raises(ValueError):
            occupation(68.2, 0.0)

    def test_vectorized_over_temperature(self):
        t = np.array([100.0, 200.0, 300.0])
        n = occupation(68.2, t)
        assert n.shape == (3,)
        assert n[0] == occupation(68.2, 100.0)

    @given(
        delta=st.floats(min_value=1.0, max_value=200.0),
        t1=st.floats(min_value=2.0, max_value=999.0),
        dt=st.floats(min_value=1.0, max_value=500.0),
    )
    @settings(max_examples=100)
    def test_monotone_increasing_in_temperature(self, delta, t1, dt):
        """Occupation grows with temperature whenever it has not underflowed."""
        lo, hi = occupation(delta, t1), occupation(delta, t1 + dt)
        assert hi >= lo
        if lo > 0:
            assert hi > lo


class TestOrbachFactor:
    def test_room_temperature_value(self):
        assert orbach_factor(68.2, 295.0) == pytest.approx(0.0787744855866296, rel=1e-12)

    def test_vanishes_at_low_temperature(self):
        assert orbach_factor(68.2, 1.0) == 0.0

    @given(x=st.floats(min_value=5.0, max_value=600.0))
    @settings(max_examples=100)
    def test_arrhenius_limit(self, x):
        """n(n+1) approaches exp(-x) from above; the relative excess is
        1/(1-exp(-x))^2 - 1, which falls below 1% for x >= 5.32 and below
        1.5% already at x = 5."""
        delta = 68.2
        t = delta / (BOLTZMANN_MEV_PER_K * x)
        factor = orbach_factor(delta, t)
        arrhenius = math.exp(-x)
        excess = factor / arrhenius - 1.0
        # mathematically nonnegative; allow rounding noise at large x where
        # the true excess is far below float resolution
        assert excess >= -1e-12
        assert excess < 0.015
        if x >= 5.32:
            assert excess < 0.01

    @given(
        delta=st.floats(min_value=5.0, max_value=300.0),
        t=st.floats(min_value=20.0, max_value=1000.0),
    )
    @settings(max_examples=100)
    def test_derivative_matches_finite_difference(self, delta, t):
        """Closed-form d/d(delta) agrees with a central difference."""
        step = delta * 1e-6
        numeric = (orbach_factor(delta + step, t) - orbach_factor(delta - step, t)) / (
            2.0 * step
        )
        analytic = orbach_factor_ddelta(delta, t)
        if numeric == 0.0:
            assert analytic == pytest.approx(0.0, abs=1e-300)
        else:
            assert analytic == pytest.approx(numeric, rel=1e-5)


class TestParameterValidation:
    def test_mode_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            Mode(0.0, 1.0, 1.0)

    def test_mode_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            Mode(68.2, -1.0, 1.0)

    def test_sample_constants_nonnegative(self):
        with pytest.raises(ValueError):
            SampleConstants(-0.01, 0.0)

    def test_modes_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            NModeParams(modes=(Mode(167.0, 1.0, 1.0), Mode(68.2, 1.0, 1.0)))

    def test_close_modes_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            NModeParams(modes=(Mode(68.2, 1.0, 1.0), Mode(68.9, 1.0, 1.0)))

    def test_mode_count_bounds(self):
        with pytest.raises(ValueError):
            NModeParams(modes=())
        four = tuple(Mode(20.0 * (i + 1), 1.0, 1.0) for i in range(4))
        with pytest.raises(ValueError):
            NModeParams(modes=four)

    def test_prior_model_rejects_negative(self):
        with pytest.raises(ValueError):
            PriorModelParams(delta=70.0, a1=1.0, b1=1.0, a2=-1e-12, b2=0.0)


class TestEvalNMode:
    def test_published_parameters_at_room_temperature(self, published_params):
        rates = eval_n_mode(published_params, "A", 295.0)
        # frozen model values; consistent with the measured 60(3) and 128(7)
        assert rates.omega == pytest.approx(58.3622331, rel=1e-6)
        assert rates.gamma == pytest.approx(125.7614900, rel=1e-6)
        assert abs(rates.omega - 60.0) < 3.0
        assert abs(rates.gamma - 128.0) < 7.0

    def test_constants_dominate_when_frozen_out(self, published_params):
        rates = eval_n_mode(published_params, "A", 9.0)
        # Orbach terms are below 1e-35 s^-1 at 9 K; only the floor remains
        assert rates.omega == pytest.approx(0.013, abs=1e-20)
        assert rates.gamma == pytest.approx(0.06, abs=1e-20)

    def test_all_zero_coefficients_give_zero_rates(self):
        params = NModeParams(modes=(Mode(68.2, 0.0, 0.0),))
        rates = eval_n_mode(params, None, 295.0)
        assert rates.omega == 0.0 and rates.gamma == 0.0

    def test_unknown_sample_raises(self, published_params):
        with pytest.raises(KeyError, match="unknown sample"):
            eval_n_mode(published_params, "C", 295.0)

    def test_none_sample_means_no_constants(self, published_params):
        bare = eval_n_mode(published_params, None, 295.0)
        with_const = eval_n_mode(published_params, "A", 295.0)
        assert with_const.omega - bare.omega == pytest.approx(0.013, rel=1e-9)
        reversed_constants = dict(reversed(published_params.sample_constants.items()))
        assert NModeParams(published_params.modes, reversed_constants).samples == ("A", "B")
        assert NModeParams(published_params.modes).samples == (None,)

    @given(deltas=mode_energies, data=st.data())
    @settings(max_examples=60)
    def test_rates_strictly_increasing_in_temperature(self, deltas, data):
        """With every coefficient positive, both rates grow monotonically
        over the 50-1000 K window."""
        n = len(deltas)
        coeffs_a = data.draw(st.lists(coefficients, min_size=n, max_size=n))
        coeffs_b = data.draw(st.lists(coefficients, min_size=n, max_size=n))
        params = build_params(deltas, coeffs_a, coeffs_b)
        t = np.linspace(50.0, 1000.0, 40)
        rates = eval_n_mode(params, None, t)
        assert np.all(np.diff(rates.omega) > 0)
        assert np.all(np.diff(rates.gamma) > 0)


class TestEvalPriorModel:
    def test_pure_t5_term(self):
        params = PriorModelParams(delta=70.0, a1=0.0, b1=0.0, a2=2.5e-12, b2=0.0)
        rates = eval_prior_model(params, None, 300.0)
        assert rates.omega == pytest.approx(2.5e-12 * 300.0**5, rel=1e-12)
        assert rates.gamma == 0.0

    def test_t5_doubling_scales_32x(self):
        params = PriorModelParams(delta=70.0, a1=0.0, b1=0.0, a2=1e-12, b2=3e-12)
        low = eval_prior_model(params, None, 200.0)
        high = eval_prior_model(params, None, 400.0)
        assert high.omega == pytest.approx(32.0 * low.omega, rel=1e-12)
        assert high.gamma == pytest.approx(32.0 * low.gamma, rel=1e-12)

    def test_orbach_term_matches_n_mode_single(self):
        prior = PriorModelParams(delta=68.2, a1=580.0, b1=1510.0, a2=0.0, b2=0.0)
        single = NModeParams(modes=(Mode(68.2, 580.0, 1510.0),))
        t = 295.0
        assert eval_prior_model(prior, None, t).omega == pytest.approx(
            eval_n_mode(single, None, t).omega, rel=1e-12
        )
        assert prior.rates(None, t) == eval_prior_model(prior, None, t)
        assert single.rates(None, t) == eval_n_mode(single, None, t)


class TestCoherenceLimits:
    def test_single_quantum_bound(self):
        limits = coherence_limits(58.5, 126.0)
        assert limits.t2_sq == pytest.approx(6.6334992e-3, rel=1e-6)

    def test_double_quantum_bound_and_t1(self):
        limits = coherence_limits(60.0, 128.0)
        assert limits.t2_dq == pytest.approx(5.3191489e-3, rel=1e-6)
        assert limits.t1 == pytest.approx(1.0 / 180.0, rel=1e-12)

    def test_gamma_zero_reduces_to_qubit_picture(self):
        limits = coherence_limits(60.0, 0.0)
        assert limits.t2_sq == pytest.approx(2.0 * limits.t1, rel=1e-12)

    def test_both_zero_rates_give_infinite_sentinels(self):
        limits = coherence_limits(0.0, 0.0)
        assert math.isinf(limits.t2_sq)
        assert math.isinf(limits.t2_dq)
        assert math.isinf(limits.t1)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            coherence_limits(-1.0, 10.0)

    @given(
        omega=st.floats(min_value=1e-3, max_value=1e4),
        gamma=st.floats(min_value=1e-3, max_value=1e4),
    )
    @settings(max_examples=100)
    def test_identities_hold_as_algebra(self, omega, gamma):
        """1/t2_sq = (3 Omega + gamma)/2, 1/t2_dq = Omega + gamma,
        3 Omega t1 = 1, for any positive rates."""
        limits = coherence_limits(omega, gamma)
        assert 1.0 / limits.t2_sq == pytest.approx((3 * omega + gamma) / 2, rel=1e-12)
        assert 1.0 / limits.t2_dq == pytest.approx(omega + gamma, rel=1e-12)
        assert 3.0 * omega * limits.t1 == pytest.approx(1.0, rel=1e-12)


class TestRatioCurve:
    def test_room_temperature_ratio_near_two(self, published_params):
        ((_, ratio),) = ratio_curve(published_params, "A", [295.0])
        assert ratio == pytest.approx(2.1548, abs=0.1)

    def test_declines_across_phonon_limited_range(self, published_params):
        points = ratio_curve(published_params, "A", np.linspace(200.0, 474.0, 24))
        ratios = [r for _, r in points]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] == pytest.approx(2.5, abs=0.15)
        assert 1.5 <= ratios[-1] <= 2.0

    def test_identical_coefficient_vectors_give_unity(self):
        params = NModeParams(
            modes=(Mode(68.2, 580.0, 580.0), Mode(167.0, 9000.0, 9000.0))
        )
        points = ratio_curve(params, None, [150.0, 300.0, 450.0])
        assert all(r == 1.0 for _, r in points)

    def test_vanishing_omega_raises(self):
        params = NModeParams(modes=(Mode(68.2, 0.0, 100.0),))
        with pytest.raises(ZeroDivisionError, match="T = 295"):
            ratio_curve(params, None, [295.0])
