"""Tests for three-level dynamics, protocol simulation, and rate extraction."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares as scipy_least_squares

from nvrelax import dynamics
from nvrelax.core import DEFAULT_SEED
from nvrelax.dynamics import (
    DecayCurve,
    ProtocolSpec,
    RateMatrix,
    _fit_single_exponential,
    evolve,
    extract_rates,
    simulate_experiment,
    to_rate_measurement,
)
from nvrelax.fitting import RankDeficiencyError

RATES = st.floats(min_value=1e-2, max_value=1e3, allow_nan=False)


class TestRateMatrix:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RateMatrix(-1.0, 10.0)
        with pytest.raises(ValueError, match="nonnegative"):
            RateMatrix(10.0, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_rates_naming_field(self, bad):
        with pytest.raises(ValueError, match="omega must be finite"):
            RateMatrix(bad, 10.0)
        with pytest.raises(ValueError, match="gamma must be finite"):
            RateMatrix(10.0, bad)

    def test_generator_structure(self):
        g = RateMatrix(60.0, 128.0).generator
        assert g[1, 0] == g[2, 0] == g[0, 1] == g[0, 2] == 60.0
        assert g[2, 1] == g[1, 2] == 128.0
        assert g[0, 0] == -120.0
        assert g[1, 1] == g[2, 2] == -188.0

    def test_columns_sum_to_zero(self):
        g = RateMatrix(3.7, 11.2).generator
        np.testing.assert_allclose(g.sum(axis=0), 0.0, atol=1e-12)

    def test_eigenvalues_over_random_draws(self):
        # spectrum {0, -3 Omega, -(Omega + 2 gamma)} to 1e-10 across 100
        # draws spanning five decades
        rng = np.random.default_rng(7)
        for _ in range(100):
            w, g = 10 ** rng.uniform(-2, 3, 2)
            m = RateMatrix(w, g)
            computed = np.sort(np.linalg.eigvals(m.generator).real)
            expected = np.sort(m.eigenvalues)
            scale = max(abs(expected[0]), 1.0)
            assert np.max(np.abs(computed - expected)) / scale < 1e-10

    @given(w=RATES, g=RATES)
    @settings(max_examples=50, deadline=None)
    def test_detailed_balance_at_stationarity(self, w, g):
        # uniform stationary state: every pairwise flow cancels
        gen = RateMatrix(w, g).generator
        pi = np.full(3, 1.0 / 3.0)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert gen[i, j] * pi[j] == pytest.approx(gen[j, i] * pi[i], rel=1e-12)


class TestEvolve:
    def test_zero_time_is_identity(self):
        for state, idx in (("0", 0), ("-1", 1), ("+1", 2)):
            p = evolve(RateMatrix(60.0, 128.0), state, 0.0)
            expected = np.zeros(3)
            expected[idx] = 1.0
            np.testing.assert_array_equal(p, expected)

    def test_long_time_reaches_uniform(self):
        p = evolve(RateMatrix(60.0, 128.0), "+1", 1e9)
        np.testing.assert_allclose(p, 1.0 / 3.0, atol=1e-12)

    def test_known_difference_at_one_millisecond(self):
        p = evolve(RateMatrix(60.0, 128.0), "+1", 1e-3)
        # Omega + 2 gamma = 316 /s, so the +-1 contrast is exp(-0.316)
        assert p[2] - p[1] == pytest.approx(math.exp(-0.316), abs=1e-15)

    def test_array_tau_shape(self):
        taus = np.linspace(0.0, 0.01, 7)
        p = evolve(RateMatrix(60.0, 128.0), "0", taus)
        assert p.shape == (7, 3)
        np.testing.assert_array_equal(p[0], [1.0, 0.0, 0.0])
        # an empty grid has nothing to check and nothing to evolve
        assert evolve(RateMatrix(1.0, 1.0), "0", []).shape == (0, 3)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            evolve(RateMatrix(60.0, 128.0), "0", -1e-6)

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown spin state"):
            evolve(RateMatrix(60.0, 128.0), "2", 0.0)

    def test_integer_state_labels_accepted(self):
        p_int = evolve(RateMatrix(60.0, 128.0), -1, 1e-3)
        p_str = evolve(RateMatrix(60.0, 128.0), "-1", 1e-3)
        np.testing.assert_array_equal(p_int, p_str)

    @given(w=RATES, g=RATES, tau=st.floats(min_value=0.0, max_value=100.0),
           state=st.sampled_from(["0", "-1", "+1"]))
    @settings(max_examples=100, deadline=None)
    def test_conservation_and_positivity(self, w, g, tau, state):
        p = evolve(RateMatrix(w, g), state, tau)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= -1e-15)


def _difference(rates, init, pair, taus):
    """P_a - P_b from the populations of ``evolve``."""
    populations = evolve(rates, init, taus)
    a, b = (("0", "-1", "+1").index(state) for state in pair)
    return populations[:, a] - populations[:, b]


def _noise_free(rates, taus):
    """Both branches of the protocol without noise on an explicit grid."""
    return simulate_experiment(rates, ProtocolSpec(shots=None, tau_grid=taus))


class TestDifferenceCurve:
    TAUS = np.linspace(0.0, 0.02, 40)

    def test_zero_init_pair_matches_exponential(self):
        # the protocol reads (0, -1); its mirror (0, +1) decays alike
        rm = RateMatrix(60.0, 128.0)
        for partner in ("-1", "+1"):
            d = _difference(rm, "0", ("0", partner), self.TAUS)
            np.testing.assert_allclose(d, np.exp(-180.0 * self.TAUS), atol=1e-12)

    def test_plus_one_init_matches_exponential(self):
        rm = RateMatrix(60.0, 128.0)
        d = _difference(rm, "+1", ("+1", "-1"), self.TAUS)
        np.testing.assert_allclose(d, np.exp(-316.0 * self.TAUS), atol=1e-12)

    def test_minus_one_init_matches_exponential(self):
        rm = RateMatrix(60.0, 128.0)
        d = _difference(rm, "-1", ("-1", "+1"), self.TAUS)
        np.testing.assert_allclose(d, np.exp(-316.0 * self.TAUS), atol=1e-12)

    def test_zero_gamma_decays_at_omega_exactly(self):
        sim = _noise_free(RateMatrix(75.0, 0.0), self.TAUS)
        np.testing.assert_allclose(sim.gamma_branch.values, np.exp(-75.0 * self.TAUS),
                                   atol=1e-14)

    def test_zero_rates_stay_constant(self):
        sim = _noise_free(RateMatrix(0.0, 0.0), self.TAUS)
        np.testing.assert_array_equal(sim.omega_branch.values, 1.0)
        np.testing.assert_array_equal(sim.gamma_branch.values, 1.0)

    @given(w=RATES, g=RATES)
    @settings(max_examples=20, deadline=None)
    def test_protocol_branches_are_evolve_differences(self, w, g):
        # simulate_experiment reads (0, -1) from init 0 and (+1, -1) from init
        # +1: its noise-free values are those differences of evolve, bit for bit
        rm = RateMatrix(w, g)
        sim = _noise_free(rm, self.TAUS)
        np.testing.assert_array_equal(sim.omega_branch.values,
                                      _difference(rm, "0", ("0", "-1"), self.TAUS))
        np.testing.assert_array_equal(sim.gamma_branch.values,
                                      _difference(rm, "+1", ("+1", "-1"), self.TAUS))

    @given(w=RATES, g=RATES)
    @settings(max_examples=20, deadline=None)
    def test_mirror_pairings_measure_the_protocol_decays(self, w, g):
        # (0, +1) and (-1, +1) decay as the protocol's (0, -1) and (+1, -1)
        rm = RateMatrix(w, g)
        sim = _noise_free(rm, self.TAUS)
        np.testing.assert_allclose(_difference(rm, "0", ("0", "+1"), self.TAUS),
                                   sim.omega_branch.values, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(_difference(rm, "-1", ("-1", "+1"), self.TAUS),
                                   sim.gamma_branch.values, rtol=0.0, atol=1e-15)

    @given(w=RATES, g=RATES)
    @settings(max_examples=50, deadline=None)
    def test_both_branches_are_pure_exponentials(self, w, g):
        rm = RateMatrix(w, g)
        taus = np.linspace(0.0, 2.5 / max(3 * w, w + 2 * g), 9)
        sim = _noise_free(rm, taus)
        np.testing.assert_allclose(sim.omega_branch.values, np.exp(-3 * w * taus), atol=1e-12)
        np.testing.assert_allclose(sim.gamma_branch.values, np.exp(-(w + 2 * g) * taus),
                                   atol=1e-12)


class TestProtocolSpec:
    def test_shot_count_bound(self):
        with pytest.raises(ValueError, match="shot count"):
            ProtocolSpec(shots=0)
        # the binomial draw takes a C long
        with pytest.raises(ValueError, match=r"shot count must be <= 2\*\*63 - 1, got 9223"):
            ProtocolSpec(shots=2**63)
        assert ProtocolSpec(shots=2**63 - 1).shots == 2**63 - 1

    def test_shots_is_the_one_noise_knob(self):
        # a lower readout fidelity is a lower shot count
        with pytest.raises(TypeError, match="readout_fidelity"):
            ProtocolSpec(shots=100, readout_fidelity=0.8)
        assert not hasattr(ProtocolSpec(shots=100), "effective_shots")
        assert "difference_curve" not in dynamics.__all__
        assert not hasattr(dynamics, "difference_curve")

    def test_tau_grid_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            ProtocolSpec(shots=100, tau_grid=())
        with pytest.raises(ValueError, match="nonnegative"):
            ProtocolSpec(shots=100, tau_grid=(-1e-3, 1e-3))
        with pytest.raises(ValueError, match="ascending"):
            ProtocolSpec(shots=100, tau_grid=(1e-3, 1e-3))

    def test_auto_grid_needs_enough_points(self):
        with pytest.raises(ValueError, match="n_tau"):
            ProtocolSpec(shots=100, n_tau=2)

    @pytest.mark.parametrize("field, value", [
        ("shots", math.nan),
        ("shots", 2.5),
        ("shots", 100.0),
        ("n_tau", math.nan),
        ("n_tau", 3.5),
        ("n_tau", 20.0),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be an integer"):
            ProtocolSpec(**{"shots": 100, field: value})

    def test_numpy_integer_counts_are_accepted(self):
        assert ProtocolSpec(shots=np.int64(100), n_tau=np.int32(5)).shots == 100

    def test_explicit_grid_needs_enough_points(self):
        for grid in ((0.0,), (0.0, 1e-3)):
            with pytest.raises(ValueError, match="at least 3 points"):
                ProtocolSpec(shots=100, tau_grid=grid)
        assert len(ProtocolSpec(shots=100, tau_grid=(0.0, 1e-3, 2e-3)).tau_grid) == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_inputs_naming_field(self, bad):
        with pytest.raises(ValueError, match="tau_max_scale must be finite"):
            ProtocolSpec(shots=100, tau_max_scale=bad)
        with pytest.raises(ValueError, match=r"tau_grid\[1\] must be finite"):
            ProtocolSpec(shots=100, tau_grid=(0.0, bad, 2e-3))


class TestSimulateExperiment:
    RM = RateMatrix(60.0, 128.0)

    def test_fixed_seed_is_bit_identical(self):
        spec = ProtocolSpec(shots=1000)
        assert simulate_experiment(self.RM, spec, seed=42) == \
            simulate_experiment(self.RM, spec, seed=42)

    def test_different_seeds_differ(self):
        spec = ProtocolSpec(shots=1000)
        a = simulate_experiment(self.RM, spec, seed=1)
        b = simulate_experiment(self.RM, spec, seed=2)
        assert a.omega_branch.values != b.omega_branch.values

    def test_noise_free_values_are_exact(self):
        sim = simulate_experiment(self.RM, ProtocolSpec(shots=None))
        taus = np.asarray(sim.omega_branch.tau_grid)
        assert len(sim.omega_branch) == len(taus) == ProtocolSpec(shots=None).n_tau
        np.testing.assert_allclose(sim.omega_branch.values,
                                   np.exp(-180.0 * taus), atol=1e-14)

    def test_large_shot_count_converges_within_three_sigma(self):
        sim = simulate_experiment(self.RM, ProtocolSpec(shots=10_000_000),
                                  seed=DEFAULT_SEED)
        est = extract_rates(sim.omega_branch, sim.gamma_branch)
        assert abs(est.omega - 60.0) < 3.0 * est.omega_err
        assert abs(est.gamma - 128.0) < 3.0 * est.gamma_err
        assert est.omega == pytest.approx(60.0, rel=1e-3)
        assert est.gamma == pytest.approx(128.0, rel=1e-3)

    @pytest.mark.parametrize("gamma", [0.0, 5.0])
    def test_zero_rates_require_explicit_grid(self, gamma):
        with pytest.raises(ValueError, match="expected decay rate 3 Omega is zero.*tau_grid"):
            simulate_experiment(RateMatrix(0.0, gamma), ProtocolSpec(shots=100))

    def test_overflowing_decay_rate_is_named(self):
        # both rates are finite, but 3 Omega and Omega + 2 gamma are not
        with pytest.raises(ValueError, match="expected decay rate 3 Omega must be finite"):
            simulate_experiment(RateMatrix(1e308, 1e308), ProtocolSpec(shots=100))
        with pytest.raises(ValueError, match="Omega \\+ 2 gamma must be finite"):
            simulate_experiment(RateMatrix(1.0, 1e308),
                                ProtocolSpec(shots=100, tau_grid=(0.0, 1e-3, 2e-3)))

    def test_unreachable_grid_end_is_named(self):
        # tau_max_scale / (3 Omega) overflows for a subnormal Omega
        with pytest.raises(ValueError, match="tau grid end"):
            simulate_experiment(RateMatrix(1e-320, 1.0), ProtocolSpec(shots=100))

    def test_simulated_errors_are_positive(self):
        sim = simulate_experiment(self.RM, ProtocolSpec(shots=50), seed=3)
        assert all(e > 0 for e in sim.omega_branch.errors)
        assert all(e > 0 for e in sim.gamma_branch.errors)

    def test_fewer_shots_inflate_errors(self):
        # binomial errors scale as 1 / sqrt(shots): a quarter of the shots
        # doubles them
        many = simulate_experiment(self.RM, ProtocolSpec(shots=4000), seed=5)
        few = simulate_experiment(self.RM, ProtocolSpec(shots=1000), seed=5)
        for crisp, fuzzy in ((many.omega_branch, few.omega_branch),
                             (many.gamma_branch, few.gamma_branch)):
            assert np.mean(fuzzy.errors) > 1.5 * np.mean(crisp.errors)

    def test_rounding_negative_population_is_drawn_as_zero(self):
        # from init 0 with Omega = 0, P-1 rounds to -5.5e-19 at 1 ms, which
        # the binomial draw would refuse
        rates = RateMatrix(0.0, 5.0)
        assert evolve(rates, "0", 1e-3)[1] < 0.0
        sim = simulate_experiment(rates, ProtocolSpec(shots=10, tau_grid=(0.0, 1e-3, 2e-3)))
        assert sim.omega_branch.values == (1.0, 1.0, 1.0)


def _loop_measured_branch(rates, init, pair, taus, shots, rng):
    """Per-delay reference readout: one binomial call per state and delay."""
    populations = evolve(rates, init, taus)
    a, b = ({"0": 0, "-1": 1, "+1": 2}[state] for state in pair)
    values, errors = [], []
    for i in range(len(taus)):
        k_a = rng.binomial(shots, populations[i, a])
        k_b = rng.binomial(shots, populations[i, b])
        values.append((k_a - k_b) / shots)
        var = 0.0
        for k in (k_a, k_b):
            q = (k + 0.5) / (shots + 1)
            var += q * (1.0 - q) / shots
        errors.append(math.sqrt(var))
    return DecayCurve(init, pair, tuple(float(t) for t in taus),
                      tuple(float(v) for v in values), tuple(float(e) for e in errors))


class TestBatchedReadout:
    @pytest.mark.parametrize("shots", [3, 100, 10**5, 10**9])
    @pytest.mark.parametrize("seed", [0, 7, DEFAULT_SEED])
    def test_matches_per_delay_draws(self, shots, seed):
        rates = RateMatrix(60.0, 128.0)
        sim = simulate_experiment(rates, ProtocolSpec(shots=shots), seed=seed)
        rng = np.random.default_rng(seed)
        for branch in (sim.omega_branch, sim.gamma_branch):
            want = _loop_measured_branch(rates, branch.init_state, branch.readout_pair,
                                         np.asarray(branch.tau_grid), shots, rng)
            assert branch == want


class TestDecayCurve:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_entries_naming_field(self, bad):
        with pytest.raises(ValueError, match=r"values\[1\] must be finite"):
            DecayCurve("0", ("0", "-1"), (0.0, 1.0, 2.0), (1.0, bad, 0.1), (0.1,) * 3)
        with pytest.raises(ValueError, match=r"errors\[2\] must be finite"):
            DecayCurve("0", ("0", "-1"), (0.0, 1.0, 2.0), (1.0, 0.3, 0.1), (0.1, 0.1, bad))
        with pytest.raises(ValueError, match=r"tau_grid\[0\] must be finite"):
            DecayCurve("0", ("0", "-1"), (bad, 1.0, 2.0), (1.0, 0.3, 0.1), (0.1,) * 3)

    def test_rejects_empty_and_nonpositive_errors(self):
        with pytest.raises(ValueError, match="at least one point"):
            DecayCurve("0", ("0", "-1"), (), (), ())
        with pytest.raises(ValueError, match="must have equal length"):
            DecayCurve("0", ("0", "-1"), (0.0, 1.0), (1.0, 0.3), (0.1,))
        with pytest.raises(ValueError, match="positive"):
            DecayCurve("0", ("0", "-1"), (0.0, 1.0), (1.0, 0.3), (0.1, 0.0))


class TestExtractRates:
    TAUS = tuple(np.linspace(0.0, 0.012, 25))

    @staticmethod
    def _exact_curves(r1: float, r2: float, taus):
        taus = np.asarray(taus)
        ones = tuple(np.ones_like(taus))
        c1 = DecayCurve("0", ("0", "-1"), tuple(taus),
                        tuple(np.exp(-r1 * taus)), ones)
        c2 = DecayCurve("+1", ("+1", "-1"), tuple(taus),
                        tuple(np.exp(-r2 * taus)), ones)
        return c1, c2

    def test_noise_free_round_trip(self):
        # simulate with the noise model off, then invert; recovery must be
        # far inside 1e-9 relative
        sim = simulate_experiment(RateMatrix(60.0, 128.0), ProtocolSpec(shots=None))
        est = extract_rates(sim.omega_branch, sim.gamma_branch)
        assert abs(est.omega - 60.0) / 60.0 < 1e-9
        assert abs(est.gamma - 128.0) / 128.0 < 1e-9

    def test_decay_constant_inversion(self):
        c1, c2 = self._exact_curves(180.0, 316.0, self.TAUS)
        est = extract_rates(c1, c2)
        assert est.omega == pytest.approx(60.0, abs=1e-9)
        assert est.gamma == pytest.approx(128.0, abs=1e-9)
        assert est.r1 == pytest.approx(180.0, abs=1e-9)
        assert est.r2 == pytest.approx(316.0, abs=1e-9)

    def test_one_percent_noise_recovers_within_reported_errors(self):
        rng = np.random.default_rng(DEFAULT_SEED)
        t1 = np.linspace(0.0, 2.5 / 180.0, 20)
        t2 = np.linspace(0.0, 2.5 / 316.0, 20)
        errs = tuple(np.full(20, 0.01))
        c1 = DecayCurve("0", ("0", "-1"), tuple(t1),
                        tuple(np.exp(-180.0 * t1) + 0.01 * rng.standard_normal(20)),
                        errs)
        c2 = DecayCurve("+1", ("+1", "-1"), tuple(t2),
                        tuple(np.exp(-316.0 * t2) + 0.01 * rng.standard_normal(20)),
                        errs)
        est = extract_rates(c1, c2)
        assert abs(est.omega - 60.0) < est.omega_err
        assert abs(est.gamma - 128.0) < est.gamma_err

    def test_negative_gamma_is_flagged_not_raised(self):
        taus = np.asarray(self.TAUS)
        ones = tuple(np.ones_like(taus))
        c1, _ = self._exact_curves(180.0, 316.0, self.TAUS)
        slow = DecayCurve("+1", ("+1", "-1"), tuple(taus),
                          tuple(np.exp(-40.0 * taus)), ones)
        est = extract_rates(c1, slow)
        assert est.gamma_negative
        assert est.gamma == pytest.approx(-10.0, abs=1e-6)

    def test_branch_roles_are_checked(self):
        c1, c2 = self._exact_curves(180.0, 316.0, self.TAUS)
        with pytest.raises(ValueError, match="init"):
            extract_rates(c2, c2)
        with pytest.raises(ValueError, match=r"\+1|-1"):
            extract_rates(c1, c1)

    def test_error_propagation_combines_both_fits(self):
        spec = ProtocolSpec(shots=10_000)
        sim = simulate_experiment(RateMatrix(60.0, 128.0), spec, seed=11)
        est = extract_rates(sim.omega_branch, sim.gamma_branch)
        assert est.omega_err == pytest.approx(est.r1_err / 3.0, rel=1e-12)
        expected = math.sqrt(est.r2_err**2 + est.omega_err**2) / 2.0
        assert est.gamma_err == pytest.approx(expected, rel=1e-12)

    def test_measurement_row_round_trip(self):
        sim = simulate_experiment(RateMatrix(60.0, 128.0),
                                  ProtocolSpec(shots=100_000), seed=0)
        est = extract_rates(sim.omega_branch, sim.gamma_branch)
        row = to_rate_measurement(est, temperature=295.0)
        assert row.temperature == 295.0
        assert row.omega == est.omega
        assert row.gamma_err == est.gamma_err
        assert row.nv_id == "SIM"

    def test_measurement_row_refuses_negative_rates(self):
        taus = np.asarray(self.TAUS)
        ones = tuple(np.ones_like(taus))
        c1, _ = self._exact_curves(180.0, 316.0, self.TAUS)
        slow = DecayCurve("+1", ("+1", "-1"), tuple(taus),
                          tuple(np.exp(-40.0 * taus)), ones)
        est = extract_rates(c1, slow)
        with pytest.raises(ValueError, match="negative rate"):
            to_rate_measurement(est, temperature=295.0)


class TestMonteCarloCalibration:
    """End-to-end calibration: simulate, extract, compare against truth.

    Quoted errors are one-standard-error bars, so truth can only fall
    inside them about 68% of the time for a calibrated estimator; the
    95%-of-seeds requirement is therefore checked at two standard errors,
    the conventional 95%-confidence reading.
    """

    def test_hundred_seed_coverage(self):
        truth = RateMatrix(60.0, 128.0)
        spec = ProtocolSpec(shots=100_000)
        pulls_w, pulls_g = [], []
        for seed in range(100):
            sim = simulate_experiment(truth, spec, seed=seed)
            est = extract_rates(sim.omega_branch, sim.gamma_branch)
            pulls_w.append((est.omega - 60.0) / est.omega_err)
            pulls_g.append((est.gamma - 128.0) / est.gamma_err)
        pulls_w = np.asarray(pulls_w)
        pulls_g = np.asarray(pulls_g)
        # >= 95 of 100 seeds within two quoted standard errors
        assert np.sum(np.abs(pulls_w) <= 2.0) >= 95
        assert np.sum(np.abs(pulls_g) <= 2.0) >= 95
        # unbiased to well under half an error bar
        assert abs(pulls_w.mean()) < 0.35
        assert abs(pulls_g.mean()) < 0.35
        # pull spread near 1; the smoothed binomial variance is slightly
        # conservative near tau = 0, so the lower bound sits below 1
        assert 0.6 < pulls_w.std() < 1.25
        assert 0.6 < pulls_g.std() < 1.25


def _trf_fit(curve):
    """The log-space TRF fit of A exp(-r tau) that the separable solve
    replaced, kept as an oracle.

    Returns (r, sigma_r, step): ``step`` is the Gauss-Newton step in log r
    still left at the point where TRF stopped.  TRF stops once chi^2 stops
    falling beyond rounding, which can leave it a few 1e-9 short of the
    optimum in log r; ``step`` measures that shortfall.
    """
    taus = np.asarray(curve.tau_grid)
    values = np.asarray(curve.values)
    errors = np.asarray(curve.errors)
    a0 = max(values[0], 0.1)
    usable = np.flatnonzero(values > 0.05 * a0)
    if len(usable) >= 2 and taus[usable[-1]] > taus[usable[0]]:
        i, j = usable[0], usable[-1]
        r0 = math.log(values[i] / values[j]) / (taus[j] - taus[i])
    else:
        r0 = 1.0 / max(taus[-1], 1e-12)
    r0 = max(r0, 1e-9)

    def residuals(u):
        a, r = np.exp(u)
        return (a * np.exp(-r * taus) - values) / errors

    def jacobian(u):
        a, r = np.exp(u)
        model = a * np.exp(-r * taus)
        return np.column_stack([model / errors, -r * taus * model / errors])

    result = scipy_least_squares(
        residuals, np.log([a0, r0]), jac=jacobian, method="trf",
        ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=10000)
    _, s, vt = np.linalg.svd(jacobian(result.x), full_matrices=False)
    cov_log = (vt.T * (1.0 / s**2)) @ vt
    r = float(np.exp(result.x[1]))
    step = np.linalg.lstsq(jacobian(result.x), -result.fun, rcond=None)[0]
    return r, r * math.sqrt(cov_log[1, 1]), float(step[1])


def _projected_chi2(curve, r):
    """chi^2 of A exp(-r tau) with the best amplitude for this r."""
    taus = np.asarray(curve.tau_grid)
    w = 1.0 / np.asarray(curve.errors)
    basis = w * np.exp(-r * taus)
    weighted = w * np.asarray(curve.values)
    residual = (basis @ weighted) / (basis @ basis) * basis - weighted
    return float(residual @ residual)


class TestSeparableFit:
    """The separable solve against scipy's TRF on the same log-space problem."""

    @given(rate=st.floats(min_value=1.0, max_value=1e4),
           n=st.integers(min_value=5, max_value=40),
           span=st.floats(min_value=1.0, max_value=5.0),
           start=st.floats(min_value=0.0, max_value=0.5),
           noise=st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=0.03)),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_trf_oracle(self, rate, n, span, start, noise, seed):
        # grids from `start` to `start + span` decay times, Gaussian noise
        # of `noise` with matching error bars (unit errors when noise-free)
        taus = np.linspace(start / rate, (start + span) / rate, n)
        rng = np.random.default_rng(seed)
        values = np.exp(-rate * taus) + noise * rng.standard_normal(n)
        errors = np.full(n, noise if noise > 0 else 1.0)
        curve = DecayCurve("0", ("0", "-1"), tuple(taus), tuple(values), tuple(errors))
        r, sigma_r = _fit_single_exponential(curve)
        r_trf, sigma_trf, shortfall = _trf_fit(curve)
        # agreement to 2e-9 relative, beyond the oracle's own shortfall
        allowed = 2e-9 + 2.0 * abs(shortfall)
        assert abs(math.log(r / r_trf)) <= allowed
        assert abs(sigma_r / sigma_trf - 1.0) <= allowed
        # both chi^2 by one formula; each residual carries a rounding error
        # of about eps |y / error|, which bounds how well chi^2 can compare
        chi2, chi2_trf = _projected_chi2(curve, r), _projected_chi2(curve, r_trf)
        scale = np.finfo(float).eps * np.linalg.norm(values / errors)
        rounding = 4.0 * scale * (math.sqrt(chi2_trf) + scale)
        assert chi2 <= chi2_trf * (1.0 + 1e-12) + rounding

    def test_step_is_halved_on_a_three_shot_curve(self, monkeypatch):
        # a random 3-shot curve whose full step would raise chi^2
        solve, solves = dynamics.least_squares, []
        monkeypatch.setattr(dynamics, "least_squares",
                            lambda *args: solves.append(solve(*args)) or solves[-1])
        sim = simulate_experiment(RateMatrix(60.0, 128.0), ProtocolSpec(shots=3, n_tau=3),
                                  seed=27)
        _fit_single_exponential(sim.gamma_branch)
        (solve,) = solves
        assert solve.converged
        assert solve.nfev > solve.njev + 1     # more evaluations than steps: one was halved

    def test_capped_solve_on_a_three_shot_curve_is_degenerate(self):
        # this curve's best fit drives r towards infinity, so the solve
        # spends its whole iteration cap before the rank check names it
        sim = simulate_experiment(RateMatrix(60.0, 128.0), ProtocolSpec(shots=3, n_tau=3),
                                  seed=0)
        with pytest.raises(RankDeficiencyError):
            _fit_single_exponential(sim.gamma_branch)

    def test_line_search_stops_when_no_shorter_step_can_gain(self, monkeypatch):
        # a noisy 4-point curve (one of a seeded search over such curves)
        # started far out on the plateau r tau >> 1, where chi^2 is the same
        # to the last bit wherever r is: no trial lowers it, so the step is
        # halved until its first-order gain is within chi^2's rounding, and
        # the solve stops at its start
        taus = np.linspace(0.0, 0.04413513353622117, 4)
        values = np.array([0.5320407460097436, -0.20398001026573317,
                           -0.010272075925725883, -0.12448525464869789])
        rate0 = 2607.498323736433
        chi2s, projected = [], dynamics._projected
        monkeypatch.setattr(dynamics, "_projected",
                            lambda *args: chi2s.append(projected(*args)[3]) or projected(*args))
        fit = dynamics.least_squares(taus, values, np.full(4, 0.5), rate0)
        assert fit.converged and fit.njev == 1 and fit.nfev == len(chi2s) == 5
        assert len(set(chi2s)) == 1
        assert fit.rate == math.exp(math.log(rate0))

    @pytest.mark.parametrize("taus, rate0", [
        ([0.0, 0.01, 0.02, 0.03], 1e308),           # log r above its cap
        ([0.0, 1e299, 5e299, 1e300], 1e10),         # r tau_max overflows
        ([1e299, 5e299, 1e300], 1.0),               # every exp(-r tau) underflows
    ], ids=["log-rate-cap", "rate-tau-overflow", "basis-underflow"])
    def test_infeasible_start_is_degenerate(self, taus, rate0):
        n = len(taus)
        with pytest.raises(RuntimeError, match="exponential fit is degenerate"):
            dynamics.least_squares(np.array(taus), np.ones(n), np.full(n, 0.01), rate0)

    def test_one_point_curve_is_degenerate(self):
        one = DecayCurve("0", ("0", "-1"), (0.0,), (0.998,), (0.002,))
        with pytest.raises(RuntimeError, match="degenerate"):
            _fit_single_exponential(one)

    def test_negative_amplitude_is_degenerate(self):
        taus = np.linspace(0.0, 0.012, 25)
        curve = DecayCurve("0", ("0", "-1"), tuple(taus),
                           tuple(-np.exp(-100.0 * taus)), tuple(np.ones(25)))
        with pytest.raises(RuntimeError, match="amplitude"):
            _fit_single_exponential(curve)

    def test_constant_grid_is_degenerate(self):
        # every point at tau = 0 leaves the rate undetermined
        curve = DecayCurve("0", ("0", "-1"), (0.0, 0.0, 0.0), (1.0, 0.98, 1.01),
                           (0.01, 0.01, 0.01))
        with pytest.raises(RuntimeError, match="degenerate"):
            _fit_single_exponential(curve)
