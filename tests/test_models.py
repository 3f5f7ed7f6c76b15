"""Rate laws, occupation numbers, and coherence bounds."""
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvrelax.core import BOLTZMANN_MEV_PER_K
from nvrelax.models import (
    CoherenceLimit,
    ModelSpec,
    RateLaw,
    RatePair,
    coherence_limits,
    occupation,
    orbach_factor,
    orbach_factor_ddelta,
)
from nvrelax.models import _bose_einstein, _term_column

# strategy for a well-separated mode ladder with strictly positive coefficients
mode_energies = st.lists(
    st.floats(min_value=5.0, max_value=300.0), min_size=1, max_size=3, unique=True
).filter(lambda ds: all(b - a > 1.5 for a, b in zip(sorted(ds), sorted(ds)[1:])))
coefficients = st.floats(min_value=1e-3, max_value=1e4)


def n_mode(*modes, **floors):
    """The n-mode law of (delta, a, b) per mode, plus a3_<s>/b3_<s> floors."""
    values = {}
    for k, (delta, a, b) in enumerate(modes, 1):
        values.update({f"delta_{k}": delta, f"a_{k}": a, f"b_{k}": b})
    return RateLaw(ModelSpec("n_mode", len(modes)), {**values, **floors})


def prior(delta, a1, b1, a2, b2, **floors):
    """The prior law: one Orbach term plus T^5, plus a3_<s>/b3_<s> floors."""
    return RateLaw(ModelSpec("prior"),
                   {"delta": delta, "a1": a1, "b1": b1, "a2": a2, "b2": b2, **floors})


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


def _written_out(delta, temps):
    """n(n+1) and d/d delta of it, -(2n+1) n(n+1) / k_B T, from
    n = 1/expm1(delta / k_B T), 0 past x = 700: written out here, not
    taken from the kernel under test."""
    kT = BOLTZMANN_MEV_PER_K * temps
    x = delta / kT
    n = np.zeros_like(x)
    n[x <= 700.0] = 1.0 / np.expm1(x[x <= 700.0])
    return n * (n + 1.0), -(2.0 * n + 1.0) * n * (n + 1.0) / kT


class TestTermKernel:
    """``_term_column``, the one evaluation of every rate-law column and slope."""

    @given(delta=st.floats(min_value=5.0, max_value=400.0),
           temps=st.lists(st.floats(min_value=1e-3, max_value=1e4), min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_column_and_slope_are_the_written_out_formula_bit_for_bit(self, delta, temps):
        # 1e-3 K freezes every mode out (x > 700), where n is exactly 0
        temps = np.array([1e-3, *temps])
        want = _written_out(delta, temps)
        for got in (_term_column(delta, temps, slope=True),
                    (_term_column(delta, temps), want[1])):
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert want[0][0] == 0.0

    @pytest.mark.parametrize("x", [
        [1e-3, 0.5, 2.0, 37.0, 699.999],                    # all live: the whole-array path
        [700.0, -3.0, 1.5],                                 # 700 itself is live
        [699.9, 700.0, np.nextafter(700.0, np.inf), 1e4],   # mixed across 700
        [0.7, np.inf, 3.0],
        [0.7, np.nan, 3.0],
        [np.nan, np.inf, -np.inf],
        [],
    ])
    def test_occupation_is_the_masked_formula_bit_for_bit(self, x):
        x = np.array(x, dtype=float)
        want = np.zeros_like(x)
        live = x <= 700.0
        want[live] = 1.0 / np.expm1(x[live])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _bose_einstein(x.copy())
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("temps", [
        [5.0, 77.0, 295.0, 1e4],            # every entry live: the whole-array path
        [0.1, 0.9946, 0.9947, 295.0],       # 60 meV crosses x = 700 near 0.99467 K
    ])
    @pytest.mark.parametrize("deltas", [[60.0], [60.0, 145.0, 230.0], [60.0, np.inf, np.nan]])
    def test_mode_by_row_shapes_are_the_written_out_formula_bit_for_bit(self, deltas, temps):
        # the fitter's (mode, row) layout; an inf or NaN delta gives n = 0
        deltas, temps = np.array(deltas)[:, None], np.array(temps)
        want = _written_out(deltas, temps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (_term_column(deltas, temps, slope=True), _term_column(deltas, temps))
        assert [g.tobytes() for g in (*got[0], got[1])] == \
            [w.tobytes() for w in (*want, want[0])]

    def test_t5_rule_has_no_slope(self):
        temps = np.array([1.0, 300.0, 1e4])
        assert _term_column(None, temps).tobytes() == (temps**5).tobytes()
        column, slope = _term_column(None, temps, slope=True)
        assert column.tobytes() == (temps**5).tobytes() and slope is None

    def test_public_functions_are_the_kernel(self):
        temps = np.array([9.0, 295.0, 1000.0])
        column, slope = _written_out(68.2, temps)
        assert orbach_factor(68.2, temps).tobytes() == column.tobytes()
        assert orbach_factor_ddelta(68.2, temps).tobytes() == slope.tobytes()
        assert orbach_factor(68.2, 295.0) == column[1]
        assert orbach_factor_ddelta(68.2, 295.0) == slope[1]

    def test_slope_is_negative_zero_where_k_b_t_rounds_to_zero(self):
        # k_B T is 0 at 5e-324 K and subnormal at 1e-320 K; both freeze the
        # mode out, so the slope is -0.0, not 0/0, and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (5e-324, 1e-320):
                slope = orbach_factor_ddelta(60.0, t)
                assert slope == 0.0 and math.copysign(1.0, slope) == -1.0
            slopes = orbach_factor_ddelta(60.0, np.array([5e-324, 1e-320, 295.0]))
        assert slopes.tobytes() == np.array(
            [-0.0, -0.0, _written_out(60.0, np.array([295.0]))[1][0]]).tobytes()


class TestParameterValidation:
    def test_mode_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError, match="delta_1 must be positive"):
            n_mode((0.0, 1.0, 1.0))

    def test_mode_rejects_negative_coefficients(self):
        with pytest.raises(ValueError, match="a_1 must be nonnegative"):
            n_mode((68.2, -1.0, 1.0))

    def test_sample_constants_nonnegative(self):
        with pytest.raises(ValueError, match="a3_A must be nonnegative"):
            n_mode((68.2, 1.0, 1.0), a3_A=-0.01, b3_A=0.0)

    def test_modes_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            n_mode((167.0, 1.0, 1.0), (68.2, 1.0, 1.0))

    def test_close_modes_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            n_mode((68.2, 1.0, 1.0), (68.9, 1.0, 1.0))

    def test_mode_count_bounds(self):
        for count in (0, 4):
            with pytest.raises(ValueError, match="1 to 3 modes"):
                RateLaw(ModelSpec("n_mode", count), {})

    @pytest.mark.parametrize("count", [True, 2.0, np.float64(2.0), "2"])
    def test_mode_count_must_be_an_integer(self, count):
        message = re.escape(f"n_modes must be an integer, got {count!r}")
        with pytest.raises(ValueError, match=message):
            ModelSpec("n_mode", count)

    def test_numpy_integer_mode_count_is_accepted(self):
        assert ModelSpec("n_mode", np.int64(2)).label == "n-mode:2"

    def test_prior_model_rejects_negative(self):
        with pytest.raises(ValueError, match="a2 must be nonnegative"):
            prior(70.0, 1.0, 1.0, -1e-12, 0.0)

    def test_missing_parameter_named(self):
        with pytest.raises(KeyError, match="missing parameter 'b_1'"):
            RateLaw(ModelSpec("n_mode", 1), {"delta_1": 68.2, "a_1": 1.0})
        with pytest.raises(KeyError, match="missing parameter 'b3_A'"):
            RateLaw(ModelSpec("n_mode", 1),
                    {"delta_1": 68.2, "a_1": 1.0, "b_1": 1.0, "a3_A": 0.1})
        # a lone b3_A was once dropped, and its floor silently not used
        with pytest.raises(KeyError, match="missing parameter 'a3_A'"):
            RateLaw(ModelSpec("n_mode", 1), {"delta_1": 68.2, "a_1": 1.0, "b_1": 1.0, "b3_A": 0.1})

    def test_finiteness_checked_before_names(self):
        with pytest.raises(ValueError, match="a_1 must be finite"):
            RateLaw(ModelSpec("n_mode", 1), {"delta_1": 68.2, "a_1": math.nan})

    def test_extra_keys_ignored(self):
        law = RateLaw(ModelSpec("n_mode", 1),
                      {"delta_1": 68.2, "a_1": 1.0, "b_1": 1.0, "chi2": 3.0})
        assert law.rates(None, 295.0) == n_mode((68.2, 1.0, 1.0)).rates(None, 295.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_mode_rejects_nonfinite_naming_field(self, bad):
        with pytest.raises(ValueError, match="delta_1 must be finite"):
            n_mode((bad, 1.0, 1.0))
        with pytest.raises(ValueError, match="b_1 must be finite"):
            n_mode((68.2, 1.0, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sample_constants_reject_nonfinite_naming_field(self, bad):
        with pytest.raises(ValueError, match="a3_A must be finite"):
            n_mode((68.2, 1.0, 1.0), a3_A=bad, b3_A=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_prior_model_rejects_nonfinite_naming_field(self, bad):
        with pytest.raises(ValueError, match="delta must be finite"):
            prior(bad, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="a2 must be finite"):
            prior(70.0, 1.0, 1.0, bad, 0.0)


class TestEvalNMode:
    def test_published_parameters_at_room_temperature(self, published_params):
        rates = published_params.rates("A", 295.0)
        # frozen model values; consistent with the measured 60(3) and 128(7)
        assert rates.omega == pytest.approx(58.3622331, rel=1e-6)
        assert rates.gamma == pytest.approx(125.7614900, rel=1e-6)
        assert abs(rates.omega - 60.0) < 3.0
        assert abs(rates.gamma - 128.0) < 7.0

    def test_constants_dominate_when_frozen_out(self, published_params):
        rates = published_params.rates("A", 9.0)
        # Orbach terms are below 1e-35 s^-1 at 9 K; only the floor remains
        assert rates.omega == pytest.approx(0.013, abs=1e-20)
        assert rates.gamma == pytest.approx(0.06, abs=1e-20)

    def test_all_zero_coefficients_give_zero_rates(self):
        params = n_mode((68.2, 0.0, 0.0))
        rates = params.rates(None, 295.0)
        assert rates.omega == 0.0 and rates.gamma == 0.0

    def test_overflowing_rate_names_its_temperature(self, published_params):
        # n(n+1) overflows near 1e155 K; a coefficient of 0 would make it 0 * inf
        with pytest.raises(ValueError, match=r"not finite at temperature 1e\+200 K"):
            published_params.rates("A", np.array([300.0, 1e200, 1e300]))
        with pytest.raises(ValueError, match=r"temperature 1e\+100 K"):
            prior(70.0, 600.0, 1500.0, 0.0, 2e-12).rates(None, 1e100)   # T^5 overflows

    def test_subnormal_temperature_leaves_the_floors(self, published_params):
        # delta / k_B T overflows to inf, which gives n = 0 without a warning
        rates = published_params.rates("A", np.array([1e-320, 5e-324]))
        assert rates.omega.tolist() == [0.013, 0.013]
        assert rates.gamma.tolist() == [0.06, 0.06]

    @pytest.mark.parametrize("bad, reason", [
        (0.0, "positive, got 0.0"), (-5.0, "positive, got -5.0"),
        (math.nan, "finite, got nan"), (True, "a number, not a boolean"),
        (np.array([300.0, -5.0]), "positive, got -5.0"),
    ])
    def test_rates_check_their_own_temperature(self, published_params, bad, reason):
        with pytest.raises(ValueError, match=rf"^temperature(\[1\])? must be {reason}$"):
            published_params.rates("A", bad)

    def test_unknown_sample_raises(self, published_params):
        with pytest.raises(KeyError, match="unknown sample"):
            published_params.rates("C", 295.0)

    def test_none_sample_means_no_constants(self, published_params):
        bare = published_params.rates(None, 295.0)
        with_const = published_params.rates("A", 295.0)
        assert with_const.omega - bare.omega == pytest.approx(0.013, rel=1e-9)
        values = published_params.values
        reversed_values = dict(reversed(values.items()))
        assert RateLaw(published_params.spec, reversed_values).samples == ("A", "B")
        lattice = {k: v for k, v in values.items() if k in published_params.spec.param_names}
        assert RateLaw(published_params.spec, lattice).samples == (None,)

    @given(deltas=mode_energies, data=st.data())
    @settings(max_examples=60)
    def test_rates_strictly_increasing_in_temperature(self, deltas, data):
        """With every coefficient positive, both rates grow monotonically
        over the 50-1000 K window."""
        n = len(deltas)
        coeffs_a = data.draw(st.lists(coefficients, min_size=n, max_size=n))
        coeffs_b = data.draw(st.lists(coefficients, min_size=n, max_size=n))
        params = n_mode(*sorted(zip(deltas, coeffs_a, coeffs_b)))
        t = np.linspace(50.0, 1000.0, 40)
        rates = params.rates(None, t)
        assert np.all(np.diff(rates.omega) > 0)
        assert np.all(np.diff(rates.gamma) > 0)


class TestEvalPriorModel:
    def test_pure_t5_term(self):
        params = prior(70.0, 0.0, 0.0, 2.5e-12, 0.0)
        rates = params.rates(None, 300.0)
        assert rates.omega == pytest.approx(2.5e-12 * 300.0**5, rel=1e-12)
        assert rates.gamma == 0.0

    def test_t5_doubling_scales_32x(self):
        params = prior(70.0, 0.0, 0.0, 1e-12, 3e-12)
        low = params.rates(None, 200.0)
        high = params.rates(None, 400.0)
        assert high.omega == pytest.approx(32.0 * low.omega, rel=1e-12)
        assert high.gamma == pytest.approx(32.0 * low.gamma, rel=1e-12)

    def test_orbach_term_matches_n_mode_single(self):
        orbach_only = prior(68.2, 580.0, 1510.0, 0.0, 0.0)
        single = n_mode((68.2, 580.0, 1510.0))
        t = 295.0
        assert orbach_only.rates(None, t).omega == pytest.approx(
            single.rates(None, t).omega, rel=1e-12
        )


class TestRatePair:
    def test_unpacks_into_its_named_fields(self):
        pair = n_mode((68.2, 1.0, 1.0)).rates(None, 295.0)
        assert isinstance(pair, RatePair)
        omega, gamma = pair
        assert (omega, gamma) == (pair.omega, pair.gamma)
        assert repr(RatePair(1.5, 3.0)) == "RatePair(omega=1.5, gamma=3.0)"

    def test_fields_are_read_only(self):
        pair = n_mode((68.2, 1.0, 1.0)).rates(None, 295.0)
        with pytest.raises(AttributeError):
            pair.omega = 0.0
        with pytest.raises(AttributeError):
            pair.gamma = 0.0


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_rates_rejected_naming_field(self, bad):
        with pytest.raises(ValueError, match="omega must be finite"):
            coherence_limits(bad, 1.0)
        with pytest.raises(ValueError, match="gamma must be finite"):
            coherence_limits(1.0, bad)

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

