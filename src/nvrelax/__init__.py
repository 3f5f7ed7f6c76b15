"""Temperature-dependent spin-lattice relaxation of the NV-center spin triplet.

Library layout:

* :mod:`nvrelax.core` -- physical constants, the measured-rate dataset
  schema, and the bundled published dataset.
* :mod:`nvrelax.models` -- closed-form rate laws (a :class:`ModelSpec` and its
  values as one :class:`RateLaw`, under the names fit reports use),
  occupation numbers, and relaxation-limited coherence bounds.
* :mod:`nvrelax.fitting` -- weighted nonlinear least squares from profiled
  starts, covariance estimates, and model comparison.
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
    load_dataset,
)
from .models import (
    CoherenceLimit,
    ModelSpec,
    RateLaw,
    coherence_limits,
    occupation,
    orbach_factor,
)

__all__ = [
    "BUILTIN_TAG",
    "CoherenceLimit",
    "Dataset",
    "ModelSpec",
    "RateLaw",
    "RateMeasurement",
    "TransitionChannel",
    "coherence_limits",
    "load_dataset",
    "occupation",
    "orbach_factor",
    "__version__",
]
