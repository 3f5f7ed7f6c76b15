"""Tests for the weighted nonlinear least-squares machinery."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvrelax.core import Dataset, RateMeasurement
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
    _LogModel,
    _assemble,
    _default_bounds,
    _heuristic_guess,
    _sample_starts,
)
from nvrelax.models import (
    Mode,
    NModeParams,
    PriorModelParams,
    SampleConstants,
    eval_n_mode,
    orbach_factor,
    orbach_factor_ddelta,
)


def _synthetic_dataset(params, temps, sample="A", rel_err=0.02, provenance="synthetic"):
    """Zero-noise rows drawn exactly from a model curve."""
    rows = []
    eval_sample = sample if params.sample_constants else None
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

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown model"):
            ModelSpec.parse("quartic")

    def test_mode_count_bounds(self):
        with pytest.raises(ValueError):
            ModelSpec("n_mode", 0)
        with pytest.raises(ValueError):
            ModelSpec("n_mode", 4)

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

    def test_multistart_positive(self, builtin_dataset):
        with pytest.raises(ValueError, match="multistart"):
            FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2),
                       multistart=0)

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

    def test_unknown_bound_name(self, builtin_dataset):
        problem = FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2),
                             bounds={"delta_9": (1.0, 2.0)})
        with pytest.raises(ValueError, match="unknown parameter"):
            fit(problem)

    def test_malformed_bounds(self, builtin_dataset):
        problem = FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2),
                             bounds={"delta_1": (50.0, 10.0)})
        with pytest.raises(ValueError, match="0 < lo < hi"):
            fit(problem)

    def test_unknown_guess_name(self, builtin_dataset):
        problem = FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2),
                             initial_guess={"nonsense": 1.0})
        with pytest.raises(ValueError, match="unknown parameter"):
            fit(problem)

    def test_guess_outside_bounds(self, builtin_dataset):
        problem = FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2),
                             initial_guess={"delta_1": 1000.0})
        with pytest.raises(ValueError, match="outside bounds"):
            fit(problem)

    def test_phonon_limited_framing(self, builtin_dataset):
        problem = FitProblem.phonon_limited(builtin_dataset, ModelSpec("n_mode", 2))
        assert problem.constants == "none"
        assert problem.t_min == 125.0


class TestSyntheticRecovery:
    def test_two_mode_zero_noise(self):
        truth = NModeParams(
            modes=(Mode(65.0, 500.0, 1300.0), Mode(160.0, 8000.0, 5000.0)),
            sample_constants={"A": SampleConstants(a3=0.01, b3=0.07)},
        )
        temps = np.geomspace(15.0, 500.0, 16)
        dataset = _synthetic_dataset(truth, temps)
        result = fit(FitProblem(dataset=dataset, model=ModelSpec("n_mode", 2),
                                multistart=4))
        assert result.converged
        expected = {
            "delta_1": 65.0, "delta_2": 160.0, "a_1": 500.0, "a_2": 8000.0,
            "b_1": 1300.0, "b_2": 5000.0, "a3_A": 0.01, "b3_A": 0.07,
        }
        for name, value in expected.items():
            assert abs(result.params[name] - value) / value < 1e-6, name
        assert result.chi2 < 1e-12

    def test_prior_zero_noise(self):
        truth = PriorModelParams(delta=75.0, a1=700.0, b1=1800.0,
                                 a2=3e-12, b2=2e-12, sample_constants={})
        temps = np.geomspace(50.0, 600.0, 14)
        dataset = _synthetic_dataset(truth, temps)
        result = fit(FitProblem(dataset=dataset, model=ModelSpec("prior"),
                                constants="none", multistart=4))
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
        model = _LogModel(asm)
        analytic = model.jacobian(u)
        # the difference loses eps * |r| / h to roundoff, and |r| reaches
        # 3e5 at a ~ 1e5; 1e-5 keeps both that and the h^2 truncation
        # below 2e-6 of the scale on every corner of the sampled box
        h = 1e-5
        for j in range(len(u)):
            e = np.zeros_like(u)
            e[j] = h
            fd = (model.residuals(u + e) - model.residuals(u - e)) / (2 * h)
            scale = 1.0 + np.max(np.abs(analytic[:, j]))
            assert np.max(np.abs(analytic[:, j] - fd)) / scale < 1e-5

    def test_prior_jacobian_matches_fd(self, builtin_dataset):
        problem = FitProblem(dataset=builtin_dataset, model=ModelSpec("prior"))
        asm = _assemble(problem)
        values = {"delta": 70.0, "a1": 600.0, "b1": 1500.0, "a2": 3e-12,
                  "b2": 2e-12, "a3_A": 0.02, "b3_A": 0.05, "a3_B": 0.01,
                  "b3_B": 0.3}
        u = np.log(np.array([values[n] for n in asm.names]))
        model = _LogModel(asm)
        analytic = model.jacobian(u)
        h = 1e-6
        for j in range(len(u)):
            e = np.zeros_like(u)
            e[j] = h
            fd = (model.residuals(u + e) - model.residuals(u - e)) / (2 * h)
            scale = 1.0 + np.max(np.abs(analytic[:, j]))
            assert np.max(np.abs(analytic[:, j] - fd)) / scale < 1e-5


def _start_points(dataset, token, constants="per_sample", count=2):
    """An assembled problem and the log-space points of its first starts."""
    problem = FitProblem(dataset=dataset, model=ModelSpec.parse(token),
                         constants=constants, multistart=count)
    asm = _assemble(problem)
    guess = _heuristic_guess(asm)
    starts = _sample_starts(asm, problem, guess, _default_bounds(asm))
    return asm, [np.log(p) for p in starts]


def _fresh(asm, u):
    """Residuals and Jacobian at u from objects that saw no other point."""
    return _LogModel(asm).residuals(u), _LogModel(asm).jacobian(u)


class TestLogModelCache:
    """One _LogModel keeps its last point; every answer must equal a fresh
    object's at the same point, whatever was asked before."""

    def test_jacobian_at_point_never_passed_to_residuals(self, builtin_dataset):
        asm, (u1, u2) = _start_points(builtin_dataset, "n-mode:2")
        model = _LogModel(asm)
        model.residuals(u1)
        r2, j2 = _fresh(asm, u2)
        assert np.array_equal(model.jacobian(u2), j2)
        assert np.array_equal(model.residuals(u2), r2)

    def test_residuals_twice_at_one_point(self, builtin_dataset):
        asm, (u1, _) = _start_points(builtin_dataset, "n-mode:2")
        model = _LogModel(asm)
        r1, j1 = _fresh(asm, u1)
        assert np.array_equal(model.residuals(u1), r1)
        assert np.array_equal(model.residuals(u1), r1)
        assert np.array_equal(model.jacobian(u1), j1)

    def test_alternating_points(self, builtin_dataset):
        asm, (u1, u2) = _start_points(builtin_dataset, "n-mode:3")
        model = _LogModel(asm)
        handed_out = []
        for u in (u1, u2, u1, u2, u2, u1):
            r, j = _fresh(asm, u)
            got_r, got_j = model.residuals(u), model.jacobian(u)
            assert np.array_equal(got_r, r)
            assert np.array_equal(got_j, j)
            handed_out.append((got_r, r, got_j, j))
        # arrays already handed out are never written to by later calls
        for got_r, r, got_j, j in handed_out:
            assert np.array_equal(got_r, r)
            assert np.array_equal(got_j, j)

    def test_caller_mutates_u_in_place(self, builtin_dataset):
        asm, (u1, u2) = _start_points(builtin_dataset, "prior")
        model = _LogModel(asm)
        u = u1.copy()
        model.residuals(u)
        u[:] = u2
        r2, j2 = _fresh(asm, u2)
        assert np.array_equal(model.jacobian(u), j2)
        assert np.array_equal(model.residuals(u), r2)


def _reference_jacobian(asm, dataset, u):
    """The log-space Jacobian by the formula the fitter used before it kept
    occupancies: physical-space columns from the public rate-law functions,
    then ``* p``, then ``/ err``."""
    p = np.exp(u)
    jac = np.zeros((len(asm.data), len(p)))
    for t in asm.terms:
        if t.delta is None:
            column = asm.temps**5
        else:
            column = orbach_factor(p[t.delta], asm.temps)
            df = orbach_factor_ddelta(p[t.delta], asm.temps)
            jac[0::2, t.delta] = p[t.a] * df
            jac[1::2, t.delta] = p[t.b] * df
        jac[0::2, t.a] = column
        jac[1::2, t.b] = column
    col = {name: j for j, name in enumerate(asm.names)}
    for i, row in enumerate(dataset):
        if f"a3_{row.sample}" in col:
            jac[2 * i, col[f"a3_{row.sample}"]] = 1.0
            jac[2 * i + 1, col[f"b3_{row.sample}"]] = 1.0
    return (jac * p[None, :]) / asm.err[:, None]


class TestJacobianBitIdentity:
    @pytest.mark.parametrize("constants", ["per_sample", "none"])
    @pytest.mark.parametrize("token", ["n-mode:1", "n-mode:2", "n-mode:3", "prior"])
    def test_matches_reference_formula_bit_for_bit(self, builtin_dataset, token, constants):
        asm, points = _start_points(builtin_dataset, token, constants, count=4)
        # every mode at 600 meV: the occupancy underflows to 0 on the cold rows
        frozen = points[0].copy()
        frozen[[t.delta for t in asm.terms if t.delta is not None]] = np.log(600.0)
        for u in [*points, frozen]:
            got = _LogModel(asm).jacobian(u)
            assert got.tobytes() == _reference_jacobian(asm, builtin_dataset, u).tobytes()


class TestFitEvalAgreement:
    @pytest.mark.parametrize("token", ["n-mode:1", "n-mode:2", "n-mode:3", "prior"])
    def test_rates_reproduce_fit_residuals_exactly(self, builtin_dataset, token):
        # fit and evaluation share one summation path, so evaluating the fitted
        # parameters row by row rebuilds the fit's residuals bit for bit
        result = fit(FitProblem(dataset=builtin_dataset, model=ModelSpec.parse(token),
                                constants="per_sample", multistart=4))
        params = result.to_model_params()
        rebuilt = []
        for row in builtin_dataset:
            omega, gamma = params.rates(row.sample, row.temperature)
            rebuilt += [(omega - row.omega) / row.omega_err,
                        (gamma - row.gamma) / row.gamma_err]
        assert np.array_equal(np.array(rebuilt), result.residuals_normalized)


class TestInvariances:
    def test_objective_decreases_from_start(self, builtin_dataset):
        problem = FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2),
                             multistart=2)
        asm = _assemble(problem)
        guess = _heuristic_guess(asm)
        u0 = np.log(np.array([guess[n] for n in asm.names]))
        r0 = _LogModel(asm).residuals(u0)
        chi2_start = float(r0 @ r0)
        result = fit(problem)
        assert result.chi2 < chi2_start
        assert math.isclose(result.chi2, min(result.start_chi2), rel_tol=1e-12)

    def test_reparameterization_invariance(self, builtin_dataset):
        base = fit(FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2),
                              multistart=1))
        scaled = fit(FitProblem(dataset=_rescaled(builtin_dataset, 1000.0),
                                model=ModelSpec("n_mode", 2), multistart=1))
        assert abs(scaled.chi2 - base.chi2) / base.chi2 < 1e-10
        for name in base.param_names:
            factor = 1.0 if name.startswith("delta") else 1000.0
            ratio = scaled.params[name] / (base.params[name] * factor)
            assert abs(ratio - 1.0) < 1e-6, name

    def test_row_permutation_invariance(self, builtin_dataset):
        base = fit(FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2),
                              multistart=1))
        shuffled_rows = list(builtin_dataset.rows)
        rng = np.random.default_rng(11)
        rng.shuffle(shuffled_rows)
        shuffled = Dataset(rows=tuple(shuffled_rows),
                           provenance=builtin_dataset.provenance)
        other = fit(FitProblem(dataset=shuffled, model=ModelSpec("n_mode", 2),
                               multistart=1))
        assert abs(other.chi2 - base.chi2) / base.chi2 < 1e-10
        assert other.param_names == base.param_names
        for name in base.param_names:
            assert abs(other.params[name] / base.params[name] - 1.0) < 1e-6, name

    def test_mode_label_symmetry(self, builtin_dataset):
        # starting with the mode labels swapped must land on the same
        # canonically ordered answer
        base = fit(FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2),
                              multistart=1))
        swapped = fit(FitProblem(
            dataset=builtin_dataset, model=ModelSpec("n_mode", 2), multistart=1,
            initial_guess={"delta_1": 160.0, "delta_2": 60.0,
                           "a_1": 9000.0, "a_2": 500.0,
                           "b_1": 5000.0, "b_2": 1500.0},
        ))
        assert swapped.params["delta_1"] < swapped.params["delta_2"]
        for name in base.param_names:
            assert abs(swapped.params[name] / base.params[name] - 1.0) < 1e-6, name

    def test_rank_deficiency_detected(self, published_params):
        # all rows at a single temperature cannot separate the mode terms
        # from the constant floor
        temps = [300.0] * 4
        dataset = _synthetic_dataset(published_params, temps)
        problem = FitProblem(dataset=dataset, model=ModelSpec("n_mode", 1),
                             multistart=1)
        with pytest.raises(RankDeficiencyError, match="degenerate"):
            fit(problem)


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
        assert isinstance(params, NModeParams)
        assert params.modes[0].delta < params.modes[1].delta
        assert set(params.sample_constants) == {"A", "B"}
        omega, gamma = eval_n_mode(params, "A", 295.0)
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
        result = fit(FitProblem.phonon_limited(builtin_dataset,
                                               ModelSpec("n_mode", 2),
                                               multistart=4))
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
            converged=True, n_iterations=10, gradient_norm=0.0, n_starts=1,
            start_chi2=(chi2,), constants="per_sample", t_min=t_min,
            dataset_checksum=checksum, dataset_provenance="stub",
        )

    def test_orders_by_reduced_chi2(self):
        ranking = compare_models([
            self._stub(ModelSpec("n_mode", 1), 3.9, t_min=125.0),
            self._stub(ModelSpec("n_mode", 2), 1.3),
            self._stub(ModelSpec("prior"), 1.5),
        ])
        labels = [row.label for row in ranking]
        assert labels == ["n-mode:2", "prior", "n-mode:1 (T>=125K)"]
        assert self._stub(ModelSpec("n_mode", 1), 3.9, t_min=125.0).label == labels[2]
        assert ranking.rows[0].delta_chi2_reduced == 0.0
        assert ranking.rows[2].delta_chi2_reduced == pytest.approx(2.6)

    def test_single_model_is_trivial_ranking(self):
        ranking = compare_models([self._stub(ModelSpec("prior"), 1.4)])
        assert len(ranking.rows) == 1

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
        ranking = compare_models([one_mode_fit, two_mode_fit])
        assert ranking.rows[0].label == "n-mode:2"
        assert ranking.rows[1].label == "n-mode:1"


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
            n_starts=1, start_chi2=(chi2,), constants="none", t_min=None,
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

    def test_histogram_covers_all_residuals(self):
        values = [-1.4, -0.3, 0.2, 0.9, 2.2]
        diag = residual_diagnostics(self._result_with_residuals(values))
        assert int(np.sum(diag.bin_counts)) == len(values)
        assert diag.bin_edges[0] <= min(values)
        assert diag.bin_edges[-1] >= max(values)

    def test_requires_converged_fit(self):
        result = self._result_with_residuals([0.1, 0.2], converged=False)
        with pytest.raises(ValueError, match="converged"):
            residual_diagnostics(result)

    def test_two_mode_residuals_near_normal(self, two_mode_fit):
        diag = residual_diagnostics(two_mode_fit)
        assert abs(diag.mean) < 0.2
        assert 0.8 <= diag.variance <= 1.6
