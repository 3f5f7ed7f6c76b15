"""Tests for the weighted nonlinear least-squares machinery."""
import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from nvrelax import fitting
from nvrelax.core import BOLTZMANN_MEV_PER_K, Dataset, RateMeasurement, parse_dataset_text
from nvrelax.fitting import (
    FitProblem,
    FitResult,
    ModelSpec,
    RankDeficiencyError,
    compare_models,
    estimate_covariance,
    fit,
    residual_diagnostics,
)
from nvrelax.fitting import (
    _assemble,
    _best_feasible,
    _canonical_order,
    _model,
    _nnls,
    _profile,
    _project,
    _solve,
    least_squares,
)
from nvrelax.models import RateLaw, orbach_factor


# 1.0-1.4 K rows: the occupancies underflow over most of the profile, and
# the Orbach (and T^5) coefficients want more than their upper bounds
_COLD_TABLE = parse_dataset_text(
    "nv_id,sample,temperature_k,omega_s,omega_err_s,gamma_s,gamma_err_s\n"
    "C1,A,1.0,0.0105,0.002,0.042,0.008\n"
    "C1,A,1.1,0.009781,0.002,0.03896,0.008\n"
    "C1,A,1.2,0.01254,0.002,0.04548,0.008\n"
    "C1,A,1.3,0.03681,0.002,0.09322,0.008\n"
    "C1,A,1.4,0.0915,0.002,0.185,0.008\n")


def _synthetic_dataset(params, temps, sample="A", rel_err=0.02, provenance="synthetic"):
    """Zero-noise rows drawn exactly from a model curve."""
    rows = []
    eval_sample = None if params.samples == (None,) else sample
    for i, t in enumerate(temps):
        omega, gamma = params.rates(eval_sample, t)
        rows.append(RateMeasurement(
            nv_id=f"SYN{i}", sample=sample, temperature=float(t),
            omega=omega, omega_err=max(rel_err * omega, 1e-5),
            gamma=gamma, gamma_err=max(rel_err * gamma, 1e-5),
        ))
    return Dataset(rows=tuple(rows), provenance=provenance)


def _rescaled(dataset, factor):
    """Same dataset with every rate and error multiplied by ``factor``."""
    rows = tuple(
        RateMeasurement(
            nv_id=r.nv_id, sample=r.sample, temperature=r.temperature,
            omega=r.omega * factor, omega_err=r.omega_err * factor,
            gamma=r.gamma * factor, gamma_err=r.gamma_err * factor,
        )
        for r in dataset
    )
    return Dataset(rows=rows, provenance=dataset.provenance + "-rescaled")


class TestModelSpec:
    def test_labels(self):
        assert ModelSpec("n_mode", 2).label == "n-mode:2"
        assert ModelSpec("prior").label == "prior"

    def test_parse_round_trip(self):
        for token in ("n-mode:1", "n-mode:2", "n-mode:3", "prior"):
            assert ModelSpec.parse(token).label == token

    @pytest.mark.parametrize("token", ["quartic", "n-mode:x", "n-mode:"])
    def test_parse_rejects_unknown(self, token):
        with pytest.raises(ValueError, match=f"unknown model '{token}'; expected"):
            ModelSpec.parse(token)

    def test_mode_count_bounds(self):
        with pytest.raises(ValueError):
            ModelSpec("n_mode", 0)
        with pytest.raises(ValueError):
            ModelSpec("n_mode", 4)

    def test_prior_has_one_spelling(self):
        assert ModelSpec("prior", 2) == ModelSpec.parse("prior")
        with pytest.raises(ValueError, match="n_modes"):
            ModelSpec("prior", 7)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelSpec("polynomial")


class TestEstimateCovariance:
    def test_linear_one_parameter_oracle(self):
        # y = a x with per-point errors: sigma_a^2 = 1 / sum (x_i/err_i)^2
        x = np.array([1.0, 2.0, 3.0, 4.0])
        err = np.array([0.1, 0.2, 0.1, 0.3])
        jac = (x / err)[:, None]
        cov = estimate_covariance(jac, ["a"])
        expected = 1.0 / np.sum((x / err) ** 2)
        assert cov.shape == (1, 1)
        assert abs(cov[0, 0] - expected) / expected < 1e-10

    def test_linear_two_parameter_oracle(self):
        # y = a + b x: covariance is the closed-form 2x2 inverse
        x = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
        err = np.full_like(x, 0.5)
        jac = np.column_stack([1.0 / err, x / err])
        cov = estimate_covariance(jac, ["a", "b"])
        normal = jac.T @ jac
        expected = np.linalg.inv(normal)
        assert np.allclose(cov, expected, rtol=1e-10, atol=0)

    def test_duplicated_parameter_raises(self):
        x = np.array([1.0, 2.0, 3.0])
        jac = np.column_stack([x, x])
        with pytest.raises(RankDeficiencyError, match="alpha and beta"):
            estimate_covariance(jac, ["alpha", "beta"])

    @pytest.mark.parametrize("jac", [
        np.zeros((4, 2)),                                            # s[0] == 0
        np.array([[-1.0, 0.0], [0.0, -0.0], [0.0, 0.0], [0.0, 0.0]]),  # s[-1] == -0.0
    ])
    def test_zero_singular_value_raises_without_warning(self, jac):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficiencyError, match="ratio 0.00e") as info:
                estimate_covariance(jac, ["a", "b"])
        assert "-0.00" not in str(info.value)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(3)
        jac = rng.normal(size=(20, 4))
        cov = estimate_covariance(jac, list("abcd"))
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > 0)


class TestFitProblemValidation:
    def test_constants_token(self, builtin_dataset):
        with pytest.raises(ValueError, match="per_sample"):
            FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2),
                       constants="shared")

    def test_underdetermined_rejected(self, published_params):
        tiny = _synthetic_dataset(published_params, [250.0, 300.0, 350.0])
        problem = FitProblem(dataset=tiny, model=ModelSpec("n_mode", 2))
        with pytest.raises(ValueError, match="underdetermined"):
            fit(problem)

    def test_empty_after_restriction(self, builtin_dataset):
        problem = FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2),
                             t_min=5000.0)
        with pytest.raises(ValueError, match="no dataset rows"):
            fit(problem)

    def test_phonon_limited_framing(self, builtin_dataset):
        problem = FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2),
                             constants="none", t_min=125.0)
        assert problem.constants == "none"
        assert problem.t_min == 125.0


class TestSyntheticRecovery:
    def test_two_mode_zero_noise(self):
        truth = RateLaw(ModelSpec("n_mode", 2), {
            "delta_1": 65.0, "a_1": 500.0, "b_1": 1300.0,
            "delta_2": 160.0, "a_2": 8000.0, "b_2": 5000.0,
            "a3_A": 0.01, "b3_A": 0.07,
        })
        temps = np.geomspace(15.0, 500.0, 16)
        dataset = _synthetic_dataset(truth, temps)
        result = fit(FitProblem(dataset=dataset, model=ModelSpec("n_mode", 2)))
        assert result.converged
        expected = {
            "delta_1": 65.0, "delta_2": 160.0, "a_1": 500.0, "a_2": 8000.0,
            "b_1": 1300.0, "b_2": 5000.0, "a3_A": 0.01, "b3_A": 0.07,
        }
        for name, value in expected.items():
            assert abs(result.params[name] - value) / value < 1e-6, name
        assert result.chi2 < 1e-12

    def test_prior_zero_noise(self):
        truth = RateLaw(ModelSpec("prior"), {"delta": 75.0, "a1": 700.0, "b1": 1800.0,
                                             "a2": 3e-12, "b2": 2e-12})
        temps = np.geomspace(50.0, 600.0, 14)
        dataset = _synthetic_dataset(truth, temps)
        result = fit(FitProblem(dataset=dataset, model=ModelSpec("prior"),
                                constants="none"))
        assert result.converged
        for name, value in (("delta", 75.0), ("a1", 700.0), ("b1", 1800.0),
                            ("a2", 3e-12), ("b2", 2e-12)):
            assert abs(result.params[name] - value) / value < 1e-6, name


class TestJacobian:
    @settings(max_examples=25, deadline=None)
    @given(
        d1=st.floats(30.0, 120.0),
        gap=st.floats(20.0, 150.0),
        loga=st.floats(0.0, 5.0),
        logb=st.floats(0.0, 5.0),
        logc=st.floats(-3.0, 0.0),
    )
    def test_matches_finite_difference(self, builtin_dataset, d1, gap, loga, logb, logc):
        problem = FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2))
        asm = _assemble(problem)
        values = {
            "delta_1": d1, "delta_2": d1 + gap,
            "a_1": 10**loga, "a_2": 10 ** (loga + 1),
            "b_1": 10**logb, "b_2": 10 ** (logb + 1),
            "a3_A": 10**logc, "b3_A": 10**logc,
            "a3_B": 10**logc, "b3_B": 10**logc,
        }
        u = np.log(np.array([values[n] for n in asm.names]))
        analytic = _model(asm, np.exp(u))[1]
        # the difference loses eps * |r| / h to roundoff, and |r| reaches
        # 3e5 at a ~ 1e5; 1e-5 keeps both that and the h^2 truncation
        # below 2e-6 of the scale on every corner of the sampled box
        h = 1e-5
        for j in range(len(u)):
            e = np.zeros_like(u)
            e[j] = h
            fd = (_model(asm, np.exp(u + e))[0] - _model(asm, np.exp(u - e))[0]) / (2 * h)
            scale = 1.0 + np.max(np.abs(analytic[:, j]))
            assert np.max(np.abs(analytic[:, j] - fd)) / scale < 1e-5

    def test_prior_jacobian_matches_fd(self, builtin_dataset):
        problem = FitProblem(dataset=builtin_dataset, model=ModelSpec("prior"))
        asm = _assemble(problem)
        values = {"delta": 70.0, "a1": 600.0, "b1": 1500.0, "a2": 3e-12,
                  "b2": 2e-12, "a3_A": 0.02, "b3_A": 0.05, "a3_B": 0.01,
                  "b3_B": 0.3}
        u = np.log(np.array([values[n] for n in asm.names]))
        analytic = _model(asm, np.exp(u))[1]
        h = 1e-6
        for j in range(len(u)):
            e = np.zeros_like(u)
            e[j] = h
            fd = (_model(asm, np.exp(u + e))[0] - _model(asm, np.exp(u - e))[0]) / (2 * h)
            scale = 1.0 + np.max(np.abs(analytic[:, j]))
            assert np.max(np.abs(analytic[:, j] - fd)) / scale < 1e-5


def _start_points(dataset, token, constants="per_sample", count=2):
    """An assembled problem and ``count`` distinct log-space points inside its
    bounds: each parameter at its own fraction of its log-bounds interval,
    between 0.2 and 0.8, shifted from point to point."""
    asm = _assemble(FitProblem(dataset=dataset, model=ModelSpec.parse(token),
                               constants=constants))
    lo, hi = np.log(asm.lo), np.log(asm.hi)
    points = []
    for k in range(count):
        fraction = 0.2 + 0.6 * ((0.37 * np.arange(len(lo)) + 0.29 * k) % 1.0)
        points.append(lo + fraction * (hi - lo))
    return asm, points


def _reference_jacobian(asm, model, dataset, u):
    """The log-space Jacobian with its columns written out here rather than
    taken from the kernel ``_model`` shares with ``models``: physical-space
    columns from n = 1/expm1(delta / k_B T), 0 past x = 700, then ``* p``,
    then ``/ err``."""
    p = np.exp(u)
    jac = np.zeros((asm.data.size, len(p)))
    kT = BOLTZMANN_MEV_PER_K * asm.temps
    col = {name: j for j, name in enumerate(asm.names)}
    for t in model.terms:
        a, b = col[t.a], col[t.b]
        if t.delta is None:
            column = asm.temps**5
        else:
            d = col[t.delta]
            x = p[d] / kT
            n = np.zeros_like(x)
            n[x <= 700.0] = 1.0 / np.expm1(x[x <= 700.0])
            column = n * (n + 1.0)
            df = -(2.0 * n + 1.0) * n * (n + 1.0) / kT
            jac[0::2, d] = p[a] * df
            jac[1::2, d] = p[b] * df
        jac[0::2, a] = column
        jac[1::2, b] = column
    for i, row in enumerate(dataset):
        if f"a3_{row.sample}" in col:
            jac[2 * i, col[f"a3_{row.sample}"]] = 1.0
            jac[2 * i + 1, col[f"b3_{row.sample}"]] = 1.0
    return (jac * p[None, :]) / asm.err.T.reshape(-1, 1)


def _interleaved(dataset):
    """``dataset`` with its rows relabelled so that three samples interleave,
    A, C, B, A, ...: the floor indicators are not in sorted sample order."""
    rows = tuple(dataclasses.replace(r, sample="ACB"[i % 3]) for i, r in enumerate(dataset))
    return Dataset(rows=rows, provenance=dataset.provenance + "-interleaved")


class TestJacobianBitIdentity:
    @pytest.mark.parametrize("constants", ["per_sample", "none"])
    @pytest.mark.parametrize("token", ["n-mode:1", "n-mode:2", "n-mode:3", "prior"])
    def test_matches_reference_formula_bit_for_bit(self, builtin_dataset, token, constants):
        self._check(builtin_dataset, token, constants)

    @pytest.mark.parametrize("token", ["n-mode:1", "n-mode:2", "n-mode:3", "prior"])
    def test_matches_reference_formula_with_interleaved_samples(self, builtin_dataset, token):
        self._check(_interleaved(builtin_dataset), token, "per_sample")

    @staticmethod
    def _check(dataset, token, constants):
        asm, points = _start_points(dataset, token, constants, count=4)
        # every mode at 600 meV: the occupancy underflows to 0 on the cold rows
        frozen = points[0].copy()
        frozen[asm.modes[:, 0]] = np.log(600.0)
        for u in [*points, frozen]:
            got = _model(asm, np.exp(u))[1]
            expected = _reference_jacobian(asm, ModelSpec.parse(token), dataset, u)
            assert got.tobytes() == expected.tobytes()


class TestFitEvalAgreement:
    @pytest.mark.parametrize("token", ["n-mode:1", "n-mode:2", "n-mode:3", "prior"])
    def test_rates_reproduce_fit_residuals_exactly(self, builtin_dataset, token):
        self._check(builtin_dataset, token)

    @pytest.mark.parametrize("token", ["n-mode:1", "n-mode:2", "n-mode:3", "prior"])
    def test_rates_reproduce_fit_residuals_with_interleaved_samples(self, builtin_dataset,
                                                                     token):
        self._check(_interleaved(builtin_dataset), token)

    @staticmethod
    def _check(dataset, token):
        # fit and evaluation share one summation path, so evaluating the fitted
        # parameters row by row rebuilds the fit's residuals bit for bit
        result = fit(FitProblem(dataset=dataset, model=ModelSpec.parse(token),
                                constants="per_sample"))
        params = result.to_model_params()
        rebuilt = []
        for row in dataset:
            omega, gamma = params.rates(row.sample, row.temperature)
            rebuilt += [(omega - row.omega) / row.omega_err,
                        (gamma - row.gamma) / row.gamma_err]
        assert np.array_equal(np.array(rebuilt), result.residuals_normalized)


class TestInvariances:
    def test_objective_decreases_from_start(self, builtin_dataset):
        problem = FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2))
        asm, (u0, _) = _start_points(builtin_dataset, "n-mode:2")
        r0 = _model(asm, np.exp(u0))[0]
        chi2_start = float(r0 @ r0)
        result = fit(problem)
        assert result.chi2 < chi2_start
        assert math.isclose(result.chi2, min(result.start_chi2), rel_tol=1e-12)

    def test_reparameterization_invariance(self, builtin_dataset):
        base = fit(FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2)))
        scaled = fit(FitProblem(dataset=_rescaled(builtin_dataset, 1000.0),
                                model=ModelSpec("n_mode", 2)))
        assert abs(scaled.chi2 - base.chi2) / base.chi2 < 1e-10
        for name in base.param_names:
            factor = 1.0 if name.startswith("delta") else 1000.0
            ratio = scaled.params[name] / (base.params[name] * factor)
            assert abs(ratio - 1.0) < 1e-6, name

    def test_row_permutation_invariance(self, builtin_dataset):
        base = fit(FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2)))
        shuffled_rows = list(builtin_dataset.rows)
        rng = np.random.default_rng(11)
        rng.shuffle(shuffled_rows)
        shuffled = Dataset(rows=tuple(shuffled_rows),
                           provenance=builtin_dataset.provenance)
        other = fit(FitProblem(dataset=shuffled, model=ModelSpec("n_mode", 2)))
        assert abs(other.chi2 - base.chi2) / base.chi2 < 1e-10
        assert other.param_names == base.param_names
        for name in base.param_names:
            assert abs(other.params[name] / base.params[name] - 1.0) < 1e-6, name

    def test_mode_label_symmetry(self, builtin_dataset):
        # polishing from mode energies with the labels swapped must land on
        # the same canonically ordered answer
        problem = FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2))
        base = fit(problem)
        asm = _assemble(problem)
        start = _profile(asm)[0][1].copy()
        start[[asm.names.index("delta_1"), asm.names.index("delta_2")]] = 160.0, 60.0
        solved = least_squares(asm, start)
        swapped = dict(zip(asm.names, _canonical_order(asm, solved.p)))
        assert swapped["delta_1"] < swapped["delta_2"]
        for name in base.param_names:
            assert abs(swapped[name] / base.params[name] - 1.0) < 1e-6, name

    @pytest.mark.parametrize("token", ["n-mode:1", "n-mode:2", "prior"])
    def test_coefficient_over_its_bound_is_held_and_the_rest_resolved(self, token):
        # on 1.0-1.4 K rows alone the Orbach (and T^5) coefficients want more
        # than their upper bounds; held there, the floors are re-solved, so
        # chi2 is stationary in every parameter inside its box and falls
        # only outward at one on its upper bound
        dataset = _COLD_TABLE
        asm = _assemble(FitProblem(dataset=dataset, model=ModelSpec.parse(token)))
        solved = least_squares(asm, _profile(asm)[0][1])
        r, jac = _model(asm, solved.p)
        gradient = jac.T @ r            # half the chi2 gradient in log p
        inside = (asm.lo < solved.p) & (solved.p < asm.hi)
        assert solved.converged and (solved.p == asm.hi).any()
        assert math.isclose(solved.chi2, float(r @ r), rel_tol=1e-12)
        assert np.all(np.abs(gradient[inside])
                      <= 1e-9 * np.linalg.norm(jac[:, inside], axis=0) * np.linalg.norm(r))
        assert np.all(gradient[solved.p == asm.hi] <= 0.0)

    @pytest.mark.parametrize("name", ["a_1", "b_2"])
    def test_coefficient_held_in_one_channel_only(self, builtin_dataset, name):
        # both channels share one _nnls batch: the held channel re-solves its
        # other coefficients and floors, and the other channel is untouched
        asm = _assemble(FitProblem(dataset=builtin_dataset, model=ModelSpec.parse("n-mode:2")))
        deltas = {"1": 70.0, "2": 170.0}
        free = _project(asm, np.log(list(deltas.values())))[1]
        held = np.full(len(asm.names), np.nan)
        held[asm.names.index(name)] = 2.0 * free[asm.names.index(name)]
        chi2, p = _project(asm, np.log(list(deltas.values())), held)
        r = _model(asm, p)[0]
        assert p[asm.names.index(name)] == held[asm.names.index(name)]
        assert math.isclose(chi2, float(r @ r), rel_tol=1e-12)

        channel, other = name[0], "b" if name[0] == "a" else "a"
        for j, n in enumerate(asm.names):
            if n.startswith(other):
                assert math.isclose(p[j], free[j], rel_tol=1e-12), n
        # scipy's NNLS on this channel's columns, the held term moved to the data
        rows = builtin_dataset.rows
        k = "ab".index(channel)
        temps = np.array([r.temperature for r in rows])
        err = np.array([(r.omega_err, r.gamma_err)[k] for r in rows])
        data = np.array([(r.omega, r.gamma)[k] for r in rows])
        columns = {f"{channel}_{m}": orbach_factor(delta, temps) for m, delta in deltas.items()}
        columns.update({f"{channel}3_{s}": np.array([r.sample == s for r in rows], dtype=float)
                        for s in sorted({r.sample for r in rows})})
        target = (data - held[asm.names.index(name)] * columns.pop(name)) / err
        x_ref, _ = scipy_nnls(np.array(list(columns.values())).T / err[:, None], target)
        x = p[[asm.names.index(n) for n in columns]]
        np.testing.assert_allclose(x, x_ref, rtol=1e-8, atol=1e-12 * np.abs(x_ref).max())

    def test_rank_deficiency_detected(self, published_params):
        # all rows at a single temperature cannot separate the mode terms
        # from the constant floor
        temps = [300.0] * 4
        dataset = _synthetic_dataset(published_params, temps)
        problem = FitProblem(dataset=dataset, model=ModelSpec("n_mode", 1))
        with pytest.raises(RankDeficiencyError, match="degenerate"):
            fit(problem)


class TestProfile:
    """The mode-energy profile whose minima are the polished starts."""

    @staticmethod
    def _profile_of(dataset, token):
        asm = _assemble(FitProblem(dataset=dataset, model=ModelSpec.parse(token)))
        return asm, _profile(asm)

    @pytest.mark.parametrize("token", ["n-mode:1", "n-mode:2", "n-mode:3", "prior"])
    def test_best_cell_chi2_matches_log_model(self, builtin_dataset, token):
        # the two NNLS solves use _model's columns; at the unclipped best
        # cell (a coefficient may be 0) both give one chi2
        asm, profile = self._profile_of(builtin_dataset, token)
        chi2, p = profile[0]
        r = _model(asm, p)[0]
        assert math.isclose(chi2, float(r @ r), rel_tol=1e-12)
        assert [c for c, _ in profile] == sorted(c for c, _ in profile)

    def test_flat_region_counts_once(self, builtin_dataset):
        # above ~160 meV prior's best Orbach coefficients are 0, so the profile
        # is flat at chi2 = 3698.9 over several cells: one minimum, not several
        _, profile = self._profile_of(builtin_dataset, "prior")
        flat = [c for c, _ in profile if c > 3000.0]
        assert len(flat) == 1

    def test_three_modes_reach_the_global_basin_from_one_start(self, builtin_dataset):
        # 6 of 16 random log-uniform starts stopped in a basin at 126.8594
        asm, profile = self._profile_of(builtin_dataset, "n-mode:3")
        solved = least_squares(asm, profile[0][1])
        assert math.isclose(solved.chi2, 126.60641327273599, rel_tol=1e-12)

    @pytest.mark.parametrize("table, token", [
        *(("builtin", t) for t in ("n-mode:1", "n-mode:2", "n-mode:3", "prior")),
        # n-mode:3 has 11 parameters for the cold table's 10 residuals
        *(("cold", t) for t in ("n-mode:1", "n-mode:2", "prior")),
    ])
    def test_every_profile_minimum_is_polished(self, builtin_dataset, monkeypatch,
                                               table, token):
        # no cap on the starts: each distinct minimum is polished once, best
        # first, also where the covariance then finds the cold fits degenerate
        dataset = builtin_dataset if table == "builtin" else _COLD_TABLE
        problem = FitProblem(dataset=dataset, model=ModelSpec.parse(token))
        starts = []
        monkeypatch.setattr(fitting, "least_squares",
                            lambda asm, p0: starts.append(p0) or least_squares(asm, p0))
        profile = _profile(_assemble(problem))
        if table == "builtin":
            assert len(fit(problem).start_chi2) == len(profile)
        else:
            with pytest.raises(RankDeficiencyError):
                fit(problem)
        assert [p.tobytes() for p in starts] == [p.tobytes() for _, p in profile]

    @pytest.mark.parametrize("token, chi2", [
        ("n-mode:1", 426.53275359361584), ("n-mode:2", 138.8112844830732),
        ("n-mode:3", 126.60641327270112), ("prior", 144.6497706436444),
    ])
    def test_every_law_keeps_its_minimum(self, builtin_dataset, token, chi2):
        # chi2 as a Gauss-Newton-only polish found it from all the starts; the
        # secant term may move it only at rounding level
        result = fit(FitProblem(dataset=builtin_dataset, model=ModelSpec.parse(token)))
        assert result.converged
        assert math.isclose(result.chi2, chi2, rel_tol=1e-12)


class TestPolish:
    """least_squares' step: Gauss-Newton, plus the structured secant term
    wherever that model predicted the last step's fall better."""

    @staticmethod
    def _polished(dataset, token):
        asm = _assemble(FitProblem(dataset=dataset, model=ModelSpec.parse(token)))
        return [least_squares(asm, p0) for _, p0 in _profile(asm)]

    @pytest.mark.parametrize("token, most", [("n-mode:2", 20), ("n-mode:3", 45)])
    def test_large_residual_fits_take_few_evaluations(self, builtin_dataset, token, most):
        # chi2 of 139 and 127 over 106 residuals: Gauss-Newton alone took
        # 12 + 13 and 35 + 32 evaluations over the starts
        polished = self._polished(builtin_dataset, token)
        assert all(p.converged for p in polished)
        assert sum(p.nfev for p in polished) <= most

    @pytest.mark.parametrize("token, table, failed", [
        # raised to their 1e-6 lower bound, the profile's zero coefficients
        # overflow chi2 at every start but n-mode:2's last, whose model
        # underflows to 0 instead
        ("n-mode:2", (1e-300, 1e-260, 1.0, 2.0, 12), [True, True, True, False]),
        ("prior", (1e-300, 1e-260, 1.0, 2.0, 12), [True, True, True]),
        # chi2 is finite where K^T K overflows: a NaN step (which ended in a
        # non-finite Jacobian, an input error) or a zero step, retried forever
        ("n-mode:1", (1e-170, 1e-160, 2.0, 3.0, 8), [False, True, False]),
        ("prior", (1e-170, 1e-160, 8.0, 13.0, 12), [True, True]),
    ], ids=["n-mode:2-chi2", "prior-chi2", "n-mode:1-nan-step", "prior-zero-step"])
    def test_an_overflowed_start_fails_without_warning(self, token, table, failed):
        # rates from ``low`` to ``high`` 1/s with 1% errors at ``n`` temperatures
        low, high, t_min, t_max, n = table
        tiny = Dataset(rows=tuple(
            RateMeasurement(nv_id=f"T{i}", sample="A", temperature=t, omega=r,
                            omega_err=r / 100, gamma=2 * r, gamma_err=r / 50)
            for i, (t, r) in enumerate(zip(np.linspace(t_min, t_max, n).tolist(),
                                           np.geomspace(low, high, n).tolist()))),
            provenance="tiny")
        problem = FitProblem(dataset=tiny, model=ModelSpec.parse(token), constants="none")
        asm = _assemble(problem)
        polished = [least_squares(asm, p0) for _, p0 in _profile(asm)]
        assert [p.chi2 == np.inf for p in polished] == failed
        assert not any(p.converged for p in polished if p.chi2 == np.inf)
        with pytest.raises(RuntimeError):
            fit(problem)

    @pytest.mark.parametrize("law, temps, most", [
        ("shifted", (15.0, 500.0, 16), (6, 13)),
        ("published", (10.0, 480.0, 24), (6,)),
        ("published", (10.0, 300.0, 16), (9, 15)),
    ])
    def test_zero_residual_fit_keeps_the_gauss_newton_pace(self, published_params, law,
                                                          temps, most):
        # with no residual the secant term predicts no better, so no start
        # takes more evaluations than Gauss-Newton alone did (``most``); with
        # the secant term always in, the published law's first starts take 7
        # and 12
        truth = published_params if law == "published" else RateLaw(ModelSpec("n_mode", 2), {
            "delta_1": 65.0, "a_1": 500.0, "b_1": 1300.0,
            "delta_2": 160.0, "a_2": 8000.0, "b_2": 5000.0,
            "a3_A": 0.01, "b3_A": 0.07,
        })
        polished = self._polished(_synthetic_dataset(truth, np.geomspace(*temps)), "n-mode:2")
        assert len(polished) == len(most)
        assert all(p.converged and p.chi2 < 1e-20 for p in polished)
        assert all(p.nfev <= n for p, n in zip(polished, most))


def _nnls_reference(a, b):
    """The support enumeration that _nnls stops early: every support's
    normal equations, the full one first and then by ascending size, and
    the feasible one with the least |a x - b|^2 (x = 0 to beat) wins."""
    at = np.swapaxes(a, -1, -2)
    gram, rhs = at @ a, at @ b[..., None]
    k = a.shape[-1]
    x, best = np.zeros(rhs.shape), np.full(gram.shape[:-2], np.sum(b * b, axis=-1))
    for cols in [list(range(k))] + [list(c) for size in range(1, k)
                                    for c in itertools.combinations(range(k), size)]:
        g = gram[..., cols, :][..., :, cols]
        try:
            x_s = np.linalg.solve(g, rhs[..., cols, :])
        except np.linalg.LinAlgError:
            x_s = np.linalg.pinv(g) @ rhs[..., cols, :]
        trial = np.zeros(rhs.shape)
        trial[..., cols, :] = x_s
        r2 = np.sum(((a @ trial)[..., 0] - b) ** 2, axis=-1)
        better = np.all(x_s >= 0.0, axis=(-2, -1)) & (r2 < best)
        x[better], best[better] = trial[better], r2[better]
        if len(cols) == k and better.all():
            break       # the full support is feasible everywhere
    return x[..., 0], best


class TestNNLS:
    """The exact batched solve that the profile and the polish share, with
    scipy's active-set NNLS as the oracle."""

    @pytest.mark.parametrize("batch", [(), (30,), (15, 2)], ids=["single", "n", "n-2"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_bit_identical_to_the_support_enumeration(self, k, batch):
        # full-rank columns of mixed scales; stopping at the support that
        # meets the optimality conditions picks the enumeration's optimum
        rng = np.random.default_rng([k, len(batch)])
        for _ in range(40 if batch == () else 4):
            rows = int(rng.integers(k + 1, 30))
            a = rng.standard_normal((*batch, rows, k)) * rng.lognormal(0.0, 2.0, k)
            b = rng.standard_normal((*batch, rows))
            x, r2 = _nnls(a, b)
            x_ref, r2_ref = _nnls_reference(a, b)
            assert np.array_equal(x, x_ref) and np.array_equal(r2, r2_ref)

    @pytest.mark.parametrize("degenerate", ["zero-column", "identical-pair"])
    def test_fallback_is_the_support_enumeration(self, degenerate):
        # a problem that no support certifies keeps the enumeration's rule,
        # ties (as zero or repeated columns make) going to its support order
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((20, 12, 4)), rng.standard_normal((20, 12))
        if degenerate == "zero-column":
            a[:, :, 1] = 0.0
        else:
            a[:, :, 2] = a[:, :, 0]
        at = np.swapaxes(a, -1, -2)
        x = _best_feasible(a, b, at @ a, at @ b[..., None])[..., 0]
        assert np.array_equal(x, _nnls_reference(a, b)[0])

    def test_singular_problem_leaves_its_batch_mates_bits(self):
        # only the singular problems go to the pseudo-inverse, all in one
        # call: every problem keeps the bits of its own solve alone
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 12, 3))
        a[1, :, 0] = 0.0
        a[4, :, 2] = 0.0
        a[5, :, 1] = 0.0
        gram, rhs = np.swapaxes(a, -1, -2) @ a, rng.standard_normal((7, 3, 1))
        gram[2] = 0.0
        x = _solve(gram, rhs)
        assert np.array_equal(x[2], np.zeros((3, 1)))
        for i in (1, 2, 4, 5):
            assert np.array_equal(x[i], np.linalg.pinv(gram[i]) @ rhs[i]), i
        for i in (0, 3, 6):
            assert np.array_equal(x[i], np.linalg.solve(gram[i], rhs[i])), i

    def test_singular_problems_share_one_pseudo_inverse(self, monkeypatch):
        # and the others one solve, after the batch's own attempt
        rng = np.random.default_rng(6)
        a = rng.standard_normal((9, 12, 2))
        a[::2, :, 1] = 0.0
        calls, solves = [], []
        pinv, solve = np.linalg.pinv, np.linalg.solve
        monkeypatch.setattr(np.linalg, "pinv", lambda m: calls.append(len(m)) or pinv(m))
        monkeypatch.setattr(np.linalg, "solve", lambda m, b: solves.append(len(m)) or solve(m, b))
        _solve(np.swapaxes(a, -1, -2) @ a, rng.standard_normal((9, 2, 1)))
        assert calls == [5]
        assert solves == [9, 4]

    @pytest.mark.parametrize("token", ["n-mode:1", "n-mode:2", "prior"])
    def test_singular_verdict_is_each_problems_own_solve(self, token, monkeypatch):
        # on 1.0-1.4 K rows the occupancies underflow over most of the
        # profile, so many batches hold singular problems: the batched
        # verdict names just those that LAPACK will not solve alone, and
        # every problem keeps the bits of its own solve or pseudo-inverse
        dataset = _COLD_TABLE
        batches = []
        monkeypatch.setattr(fitting, "_solve",
                            lambda gram, rhs: batches.append((gram, rhs)) or _solve(gram, rhs))
        with pytest.raises(RankDeficiencyError):
            fit(FitProblem(dataset=dataset, model=ModelSpec.parse(token)))
        singular = 0
        for gram, rhs in batches:
            x = _solve(gram, rhs)
            for i in range(len(gram)):
                try:
                    want = np.linalg.solve(gram[i], rhs[i])
                except np.linalg.LinAlgError:
                    want, singular = np.linalg.pinv(gram[i]) @ rhs[i], singular + 1
                assert np.array_equal(x[i], want)
        assert singular > 0

    @staticmethod
    def _check_against_scipy(a, b, x, r2, unique):
        for i in range(len(a)):
            x_ref, rnorm = scipy_nnls(a[i], b[i])
            assert math.isclose(math.sqrt(r2[i]), rnorm, rel_tol=1e-12, abs_tol=1e-300)
            assert np.all(x[i] >= 0.0)
            np.testing.assert_allclose(x[i][unique], x_ref[unique], rtol=1e-10, atol=1e-12)
            # where x is not unique, the model it builds still is
            np.testing.assert_allclose(a[i] @ x[i], a[i] @ x_ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_random_problems_match_scipy(self, k):
        # full-rank columns: the solution is unique, and about half the
        # coefficients of these problems sit on the bound
        rng = np.random.default_rng(k)
        a, b = rng.standard_normal((40, 12, k)), rng.standard_normal((40, 12))
        x, r2 = _nnls(a, b)
        self._check_against_scipy(a, b, x, r2, np.ones(k, dtype=bool))
        for i in range(len(a)):
            x_i, r2_i = _nnls(a[i], b[i])
            np.testing.assert_allclose(x_i, x[i], rtol=4 * np.finfo(float).eps, atol=0.0)
            assert math.isclose(r2_i, r2[i], rel_tol=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("degenerate", ["zero-column", "identical-pair"])
    def test_singular_supports_match_scipy(self, degenerate):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((20, 12, 4)), rng.standard_normal((20, 12))
        if degenerate == "zero-column":
            a[:, :, 1] = 0.0
            unique = np.array([True, False, True, True])
        else:
            a[:, :, 2] = a[:, :, 0]
            unique = np.array([False, True, False, True])
        x, r2 = _nnls(a, b)
        self._check_against_scipy(a, b, x, r2, unique)
        for i in range(len(a)):     # alone or batched, x may differ where it is not unique
            x_i, r2_i = _nnls(a[i], b[i])
            np.testing.assert_allclose(x_i[unique], x[i][unique], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(a[i] @ x_i, a[i] @ x[i], rtol=1e-12, atol=1e-15)
            assert math.isclose(r2_i, r2[i], rel_tol=1e-12)


class TestBuiltinTwoModeFit:
    def test_converged_and_quality(self, two_mode_fit):
        assert two_mode_fit.converged
        assert 1.1 <= two_mode_fit.chi2_reduced <= 1.5
        assert two_mode_fit.dof == 96
        assert len(two_mode_fit.param_names) == 10

    def test_mode_energies_match_published(self, two_mode_fit):
        # windows are twice the published standard errors
        assert abs(two_mode_fit.params["delta_1"] - 68.2) <= 3.4
        assert abs(two_mode_fit.params["delta_2"] - 167.0) <= 24.0

    def test_result_invariants(self, two_mode_fit):
        cov = two_mode_fit.covariance
        assert np.allclose(cov, cov.T)
        eigs = np.linalg.eigvalsh(cov)
        assert np.all(eigs > -1e-8 * eigs.max())
        for i, name in enumerate(two_mode_fit.param_names):
            assert math.isclose(two_mode_fit.sigma[name], math.sqrt(cov[i, i]),
                                rel_tol=1e-12)
        r = two_mode_fit.residuals_normalized
        assert math.isclose(two_mode_fit.chi2, float(r @ r), rel_tol=1e-12)
        assert two_mode_fit.chi2_reduced == two_mode_fit.chi2 / two_mode_fit.dof
        assert len(r) == 2 * 53
        assert len(two_mode_fit.residual_labels) == len(r)

    def test_to_model_params(self, two_mode_fit, builtin_dataset):
        params = two_mode_fit.to_model_params()
        assert isinstance(params, RateLaw)
        assert params.spec == two_mode_fit.model
        assert params.values["delta_1"] < params.values["delta_2"]
        assert params.samples == ("A", "B")
        omega, gamma = params.rates("A", 295.0)
        assert abs(omega - 60.0) < 6.0
        assert abs(gamma - 128.0) < 14.0

    def test_report_dict_structure(self, two_mode_fit):
        report = two_mode_fit.to_report_dict()
        assert report["model"] == "n-mode:2"
        assert report["fit"]["dof"] == 96
        assert len(report["parameters"]) == 10
        assert report["covariance"]["order"][0] == "delta_1"
        assert len(report["residuals"]) == 106
        first = report["residuals"][0]
        assert set(first) == {"nv_id", "sample", "temperature_k", "channel", "value"}

    def test_phonon_limited_variant(self, builtin_dataset):
        result = fit(FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2),
                                constants="none", t_min=125.0))
        assert result.converged
        assert result.dof == 2 * 46 - 6
        assert "a3_A" not in result.params
        assert abs(result.params["delta_1"] - 68.2) <= 5.0


class TestOneModeFit:
    def test_single_mode_quality(self, one_mode_fit):
        assert one_mode_fit.converged
        assert abs(one_mode_fit.chi2_reduced - 3.9) <= 0.5
        assert abs(one_mode_fit.params["delta_1"] - 80.5) <= 2.0


class TestCompareModels:
    @staticmethod
    def _stub(label_spec, chi2_reduced, checksum="abc", dof=96, t_min=None):
        chi2 = chi2_reduced * dof
        return FitResult(
            model=label_spec, param_names=("delta_1",), params={"delta_1": 70.0},
            sigma={"delta_1": 1.0}, covariance=np.eye(1), chi2=chi2, dof=dof,
            chi2_reduced=chi2_reduced, residuals_normalized=np.zeros(2),
            residual_labels=(("N", "A", 300.0, "omega"), ("N", "A", 300.0, "gamma")),
            converged=True, n_iterations=10, gradient_norm=0.0, start_chi2=(chi2,),
            constants="per_sample", t_min=t_min,
            dataset_checksum=checksum, dataset_provenance="stub",
        )

    def test_orders_by_reduced_chi2(self):
        fits = [
            self._stub(ModelSpec("n_mode", 1), 3.9, t_min=125.0),
            self._stub(ModelSpec("n_mode", 2), 1.3),
            self._stub(ModelSpec("prior"), 1.5),
        ]
        ranked = compare_models(fits)
        assert [r.label for r in ranked] == ["n-mode:2", "prior", "n-mode:1 (T>=125K)"]
        assert isinstance(ranked, tuple)
        assert all(r is f for r, f in zip(ranked, (fits[1], fits[2], fits[0])))

    def test_equal_reduced_chi2_keeps_input_order(self):
        first = self._stub(ModelSpec("n_mode", 2), 1.3)
        second = self._stub(ModelSpec("prior"), 1.3)
        for fits in ([first, second], [second, first]):
            ranked = compare_models(fits)
            assert ranked[0] is fits[0] and ranked[1] is fits[1]

    def test_single_model_is_trivial_ranking(self):
        fit_result = self._stub(ModelSpec("prior"), 1.4)
        ranked = compare_models([fit_result])
        assert len(ranked) == 1 and ranked[0] is fit_result

    def test_checksum_mismatch_rejected(self):
        with pytest.raises(ValueError, match="checksums differ"):
            compare_models([
                self._stub(ModelSpec("n_mode", 2), 1.3, checksum="abc"),
                self._stub(ModelSpec("prior"), 1.5, checksum="xyz"),
            ])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nothing to compare"):
            compare_models([])

    def test_real_fits_rank_two_mode_first(self, one_mode_fit, two_mode_fit):
        ranked = compare_models([one_mode_fit, two_mode_fit])
        assert ranked[0] is two_mode_fit and ranked[1] is one_mode_fit
        assert [r.label for r in ranked] == ["n-mode:2", "n-mode:1"]


class TestResidualDiagnostics:
    @staticmethod
    def _result_with_residuals(values, converged=True):
        values = np.asarray(values, dtype=float)
        labels = tuple(
            (f"NV{i}", "A", 100.0 + i, "omega" if i % 2 == 0 else "gamma")
            for i in range(len(values))
        )
        chi2 = float(values @ values)
        return FitResult(
            model=ModelSpec("n_mode", 2), param_names=("delta_1",),
            params={"delta_1": 70.0}, sigma={"delta_1": 1.0},
            covariance=np.eye(1), chi2=chi2, dof=len(values) - 1,
            chi2_reduced=chi2 / (len(values) - 1),
            residuals_normalized=values, residual_labels=labels,
            converged=converged, n_iterations=5, gradient_norm=0.0,
            start_chi2=(chi2,), constants="none", t_min=None,
            dataset_checksum="abc", dataset_provenance="stub",
        )

    def test_unit_residuals_have_unit_population_variance(self):
        diag = residual_diagnostics(self._result_with_residuals([-1, 1, -1, 1]))
        assert diag.mean == 0.0
        assert diag.variance == 1.0
        assert len(diag.outliers) == 0

    def test_outliers_carry_provenance(self):
        diag = residual_diagnostics(self._result_with_residuals([0.1, -0.2, 3.1, 0.0]))
        assert len(diag.outliers) == 1
        out = diag.outliers[0]
        assert out.nv_id == "NV2"
        assert out.value == pytest.approx(3.1)
        assert out.channel == "omega"

    def test_requires_converged_fit(self):
        result = self._result_with_residuals([0.1, 0.2], converged=False)
        with pytest.raises(ValueError, match="converged"):
            residual_diagnostics(result)

    def test_two_mode_residuals_near_normal(self, two_mode_fit):
        diag = residual_diagnostics(two_mode_fit)
        assert abs(diag.mean) < 0.2
        assert 0.8 <= diag.variance <= 1.6
