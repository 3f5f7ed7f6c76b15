"""Shared fixtures: the bundled dataset, published parameters, and the
session-wide reference fits reused by the unit and acceptance suites."""
import numpy as np
import pytest

from nvrelax.core import BUILTIN_TAG, load_dataset
from nvrelax.fitting import FitProblem, ModelSpec, fit
from nvrelax.models import RateLaw
from nvrelax.spectral import rate_curve, refit_theory_curve, two_peak_reference_functions


@pytest.fixture(scope="session")
def builtin_dataset():
    return load_dataset(BUILTIN_TAG)


@pytest.fixture(scope="session")
def two_mode_fit(builtin_dataset):
    """Full-data two-mode joint fit, constants per sample (the headline fit)."""
    return fit(FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 2)))


@pytest.fixture(scope="session")
def one_mode_fit(builtin_dataset):
    return fit(FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 1),
                          multistart=8))


@pytest.fixture(scope="session")
def three_mode_fit(builtin_dataset):
    # the third mode lives in a shallow basin; the profile's best cell already
    # lies in the basin of the solution that actually improves on two modes
    return fit(FitProblem(dataset=builtin_dataset, model=ModelSpec("n_mode", 3)))


@pytest.fixture(scope="session")
def prior_fit(builtin_dataset):
    return fit(FitProblem(dataset=builtin_dataset, model=ModelSpec("prior"),
                          multistart=8))


@pytest.fixture(scope="session")
def bias_study():
    """Sweep-and-refit activation energies of the two-peak test functions,
    keyed by broadening width."""
    temps = np.geomspace(100.0, 5000.0, 40)
    out = {}
    for sigma in (7.5, 15.0):
        f_sq, f_dq = two_peak_reference_functions(sigma)
        result = refit_theory_curve(rate_curve(f_sq, f_dq, temps), t_max=5000.0)
        out[sigma] = (result.params["delta_1"], result.params["delta_2"])
    return out


@pytest.fixture(scope="session")
def published_params():
    """Central values of the published two-mode joint fit (both samples)."""
    return RateLaw(ModelSpec("n_mode", 2), {
        "delta_1": 68.2, "a_1": 580.0, "b_1": 1510.0,
        "delta_2": 167.0, "a_2": 9000.0, "b_2": 4800.0,
        "a3_A": 0.013, "b3_A": 0.06,
        "a3_B": 0.010, "b3_B": 0.30,
    })
