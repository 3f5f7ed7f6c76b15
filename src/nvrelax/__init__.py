"""Temperature-dependent spin-lattice relaxation of the NV-center spin triplet.

Library layout:

* :mod:`nvrelax.core` -- physical constants, unit conversion, the measured-rate
  dataset schema, and the bundled published dataset.
* :mod:`nvrelax.models` -- closed-form rate laws, occupation numbers, and
  relaxation-limited coherence bounds.
* :mod:`nvrelax.fitting` -- weighted nonlinear least-squares engine with
  multistart, covariance estimates, diagnostics, and model comparison.
* :mod:`nvrelax.spectral` -- Gaussian-broadened spin-phonon spectral functions
  and Raman rate integrals.
* :mod:`nvrelax.dynamics` -- three-level rate-equation simulator for the
  relaxometry protocol with shot-noise Monte Carlo and rate extraction.
* :mod:`nvrelax.cli` -- command-line front end (``nvrelax``).
"""

__version__ = "0.1.0"

from .core import (
    BUILTIN_TAG,
    Dataset,
    RateMeasurement,
    TransitionChannel,
    convert_energy,
    load_dataset,
    write_dataset,
)
from .models import (
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
    ratio_curve,
)

__all__ = [
    "BUILTIN_TAG",
    "CoherenceLimit",
    "Dataset",
    "Mode",
    "NModeParams",
    "PriorModelParams",
    "RateMeasurement",
    "SampleConstants",
    "TransitionChannel",
    "coherence_limits",
    "convert_energy",
    "eval_n_mode",
    "eval_prior_model",
    "load_dataset",
    "occupation",
    "orbach_factor",
    "ratio_curve",
    "write_dataset",
    "__version__",
]
