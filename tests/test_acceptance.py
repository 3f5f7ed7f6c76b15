"""Acceptance suite: one test (and one pass/fail line) per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion
verdict lines; each test also prints the measured numbers behind its
verdict (visible with ``-rP``).
"""
import math
import time

import numpy as np

from nvrelax.core import (
    BOLTZMANN_MEV_PER_K,
    DEFAULT_SEED,
    HBAR_MEV_S,
    TransitionChannel,
    parse_dataset_text,
)
from nvrelax.dynamics import (
    ProtocolSpec,
    RateMatrix,
    extract_rates,
    simulate_experiment,
)
from nvrelax.fitting import FitProblem, ModelSpec, fit
from nvrelax.models import (
    coherence_limits,
    occupation,
    orbach_factor,
    orbach_factor_ddelta,
    ratio_curve,
)
from nvrelax.spectral import (
    order_dominance_ratio,
    second_order_rate,
    synthetic_peak_function,
)

# published two-mode joint-fit values as (central, one sigma)
PUBLISHED_FIT = {
    "delta_1": (68.2, 1.7),
    "a_1": (580.0, 80.0),
    "b_1": (1510.0, 170.0),
    "delta_2": (167.0, 12.0),
    "a_2": (9000.0, 2000.0),
    "b_2": (4800.0, 1400.0),
    "a3_A": (0.013, 0.008),
    "b3_A": (0.06, 0.02),
    "a3_B": (0.010, 0.005),
    "b3_B": (0.30, 0.06),
}


def test_criterion_01_headline_refit_recovers_published_values(builtin_dataset):
    start = time.perf_counter()
    result = fit(FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2)))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert result.converged
    for name, (central, sigma) in PUBLISHED_FIT.items():
        assert abs(result.params[name] - central) <= 2.0 * sigma, (
            f"{name}: fitted {result.params[name]:.4g} vs "
            f"published {central} +- {sigma} (2-sigma window)")
    print(f"CRITERION 1: PASS (delta_1={result.params['delta_1']:.2f}, "
          f"delta_2={result.params['delta_2']:.1f}, all 10 parameters within "
          f"2 sigma, runtime {elapsed:.2f} s)")


def test_criterion_02_model_selection_ladder(one_mode_fit, two_mode_fit,
                                             three_mode_fit, prior_fit):
    assert 3.4 <= one_mode_fit.chi2_reduced <= 4.4
    assert abs(one_mode_fit.params["delta_1"] - 80.5) <= 2.0
    assert 1.1 <= two_mode_fit.chi2_reduced <= 1.5
    assert three_mode_fit.chi2_reduced <= two_mode_fit.chi2_reduced
    assert prior_fit.chi2_reduced >= two_mode_fit.chi2_reduced
    print("CRITERION 2: PASS (chi2v: 1-mode "
          f"{one_mode_fit.chi2_reduced:.3f} at delta "
          f"{one_mode_fit.params['delta_1']:.1f}, 2-mode "
          f"{two_mode_fit.chi2_reduced:.3f}, 3-mode "
          f"{three_mode_fit.chi2_reduced:.3f}, prior "
          f"{prior_fit.chi2_reduced:.3f})")


def test_criterion_03_high_temperature_divergence(two_mode_fit, prior_fit):
    proposed = two_mode_fit.to_model_params()
    prior = prior_fit.to_model_params()
    omega_p, gamma_p = proposed.rates("A", 700.0)
    omega_q, gamma_q = prior.rates("A", 700.0)
    omega_excess = 100.0 * (omega_q / omega_p - 1.0)
    gamma_excess = 100.0 * (gamma_q / gamma_p - 1.0)
    assert 30.0 <= omega_excess <= 70.0
    assert 10.0 <= gamma_excess <= 30.0
    print(f"CRITERION 3: PASS (700 K prior excess: Omega +{omega_excess:.1f}%, "
          f"gamma +{gamma_excess:.1f}%)")


def test_criterion_04_rate_ratio_declines(two_mode_fit):
    params = two_mode_fit.to_model_params()
    curve = ratio_curve(params, "A", np.linspace(200.0, 474.0, 120))
    ratios = [r for _, r in curve]
    assert all(b < a for a, b in zip(ratios, ratios[1:])), "ratio not monotone"
    assert abs(ratios[0] - 2.5) <= 0.25
    assert 1.5 <= ratios[-1] <= 2.0
    (_, at_295), = ratio_curve(params, "A", [295.0])
    assert abs(at_295 - 2.0) <= 0.2
    print(f"CRITERION 4: PASS (gamma/Omega {ratios[0]:.3f} -> {ratios[-1]:.3f} "
          f"monotone on [200, 474] K, {at_295:.3f} at 295 K)")


def test_criterion_05_delta_function_raman_oracle():
    delta, area = 68.2, 580.0
    f = synthetic_peak_function(
        peaks=[(delta, area)], sigma=0.01,
        channel=TransitionChannel.SINGLE_QUANTUM,
        grid=np.linspace(0.0, 100.0, 200001))
    worst = 0.0
    for t in (100.0, 295.0, 500.0):
        exact = 4.0 * math.pi / HBAR_MEV_S * area * orbach_factor(delta, t)
        computed = second_order_rate(f, t)
        worst = max(worst, abs(computed - exact) / exact)
    assert worst < 1e-3
    print(f"CRITERION 5: PASS (narrow-peak quadrature vs analytic rate, "
          f"worst relative error {worst:.2e} at T in {{100, 295, 500}} K)")


def test_criterion_06_pipeline_bias_reproduction(bias_study):
    narrow = bias_study[7.5]
    wide = bias_study[15.0]
    biases = {}
    for sigma, (d1, d2) in ((7.5, narrow), (15.0, wide)):
        biases[sigma] = (1.0 - d1 / 65.0, 1.0 - d2 / 155.0)
    for bias in biases[7.5]:
        assert 0.05 <= bias <= 0.10, f"sigma=7.5 bias {bias:.3f} outside [5%, 10%]"
    assert biases[15.0][0] > biases[7.5][0]
    assert biases[15.0][1] > biases[7.5][1]
    print(f"CRITERION 6: PASS (sigma=7.5: activation energies "
          f"{100*biases[7.5][0]:.1f}%/{100*biases[7.5][1]:.1f}% below peaks; "
          f"sigma=15: {100*biases[15.0][0]:.1f}%/{100*biases[15.0][1]:.1f}%, larger)")


def test_criterion_07_dynamics_oracle():
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    for _ in range(100):
        w, g = 10 ** rng.uniform(-2, 3, 2)
        m = RateMatrix(w, g)
        computed = np.sort(np.linalg.eigvals(m.generator).real)
        expected = np.sort(m.eigenvalues)
        scale = max(abs(expected[0]), 1.0)
        worst = max(worst, float(np.max(np.abs(computed - expected))) / scale)
    assert worst < 1e-10

    sim = simulate_experiment(RateMatrix(60.0, 128.0), ProtocolSpec(shots=None))
    est = extract_rates(sim.omega_branch, sim.gamma_branch)
    round_trip = max(abs(est.omega - 60.0) / 60.0, abs(est.gamma - 128.0) / 128.0)
    assert round_trip < 1e-9

    for _ in range(100):
        w, g = 10 ** rng.uniform(-2, 3, 2)
        lim = coherence_limits(w, g)
        assert lim.t1 == 1.0 / (3.0 * w)
        assert lim.t2_sq == 2.0 / (3.0 * w + g)
        assert lim.t2_dq == 1.0 / (w + g)
    print(f"CRITERION 7: PASS (eigenvalues to {worst:.1e} over 100 draws, "
          f"noise-free round trip {round_trip:.1e}, coherence identities exact)")


def test_criterion_08_residual_normality(two_mode_fit):
    residuals = np.asarray(two_mode_fit.residuals_normalized)
    mean = float(residuals.mean())
    variance = float(residuals.var())
    assert abs(mean) < 0.2
    assert 0.8 <= variance <= 1.6
    print(f"CRITERION 8: PASS (normalized residuals: mean {mean:+.3f}, "
          f"variance {variance:.3f})")


def test_criterion_09_order_dominance_estimate():
    ratio = order_dominance_ratio(2.87, 50.0)
    assert 1e-8 <= ratio <= 1e-6
    print(f"CRITERION 9: PASS ((2 pi D / omega)^2 = {ratio:.3e} for "
          f"D = 2.87 GHz, 50 meV phonons)")


def test_criterion_10_property_spot_checks(builtin_dataset):
    # full hypothesis property suites live in the per-module test files;
    # these are deterministic representatives of each family
    # occupation limits: frozen to exactly zero deep in the cold tail,
    # classical kT/delta at high temperature
    assert occupation(68.2, 1.0) == 0.0
    high_t = occupation(1.0, 1e6)
    classical = BOLTZMANN_MEV_PER_K * 1e6 / 1.0
    assert abs(high_t / classical - 1.0) < 0.01

    # rate-law monotonicity in temperature
    factors = [orbach_factor(68.2, t) for t in (100.0, 200.0, 400.0, 800.0)]
    assert all(b > a for a, b in zip(factors, factors[1:]))

    # fit objective decrease: the returned optimum beats every start
    result = fit(FitProblem(dataset=builtin_dataset, model=ModelSpec("prior")))
    assert result.chi2 <= min(result.start_chi2) * (1.0 + 1e-12)

    # analytic activation-energy derivative vs central finite difference
    h = 1e-5
    fd = (orbach_factor(68.2 + h, 295.0) - orbach_factor(68.2 - h, 295.0)) / (2 * h)
    analytic = orbach_factor_ddelta(68.2, 295.0)
    assert abs(fd - analytic) / abs(analytic) < 1e-5

    # CSV round trip is bit-exact
    text = builtin_dataset.to_csv_text()
    assert parse_dataset_text(text).to_csv_text() == text

    # seeded determinism end to end
    a = simulate_experiment(RateMatrix(60.0, 128.0), ProtocolSpec(shots=200),
                            seed=DEFAULT_SEED)
    b = simulate_experiment(RateMatrix(60.0, 128.0), ProtocolSpec(shots=200),
                            seed=DEFAULT_SEED)
    assert a == b
    print("CRITERION 10: PASS (occupation limits, monotonicity, objective "
          "decrease, derivative vs finite difference, CSV round trip, "
          "seeded determinism)")
