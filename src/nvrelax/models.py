"""Closed-form rate laws for triplet spin-lattice relaxation.

Two model families are implemented: a sum of Orbach-like terms driven by
the occupation of a small number of effective phonon modes (one, two, or
three modes; two is the proposed form), and the prior literature form with
a single Orbach-like term plus a T^5 Raman tail.  Both are ordered sums of
Orbach and T^5 terms (:attr:`ModelSpec.terms`) plus an optional
temperature-independent per-sample floor, added last by the one rate body
the fitter's model shares, each term's column and delta-slope from one
kernel, ``_term_column``, which the fitter and the spectral quadrature call
too.  :class:`RateLaw` holds a law's values under the names fit reports use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .core import BOLTZMANN_MEV_PER_K, _require, _require_integer

__all__ = [
    "ModelSpec",
    "RateLaw",
    "RatePair",
    "CoherenceLimit",
    "occupation",
    "orbach_factor",
    "coherence_limits",
]

# exp argument beyond which the occupation underflows to exactly zero
_EXP_ARG_MAX = 700.0


def _bose_einstein(x: np.ndarray) -> np.ndarray:
    """n = 1/expm1(x) for x = energy/k_B T, exactly 0 past _EXP_ARG_MAX (and
    at a NaN).  ``x`` is a temporary of the caller's, overwritten with n when
    no entry is frozen out; only an array that holds one takes the masked
    path, so expm1 never sees an argument past _EXP_ARG_MAX."""
    if x.max(initial=-np.inf) <= _EXP_ARG_MAX:      # a NaN maximum fails this
        np.expm1(x, out=x)
        return np.divide(1.0, x, out=x)
    out = np.zeros_like(x)
    live = x <= _EXP_ARG_MAX
    out[live] = 1.0 / np.expm1(x[live])
    return out


def _term_column(delta, temperature, slope: bool = False):
    """Basis column of a rate-law term over ``temperature`` (K): n(n+1) at mode
    energy ``delta`` (meV), or T^5 if ``delta`` is None; with ``slope`` also
    d/d delta, -(2n+1) n(n+1) / k_B T (None for T^5; -0.0, not 0/0, where k_B T
    rounds to 0, as 5e-324 stands in for it).  Callers check their own
    arguments and catch overflow.  The products are formed in place, in the
    order of that formula, so each keeps its bits."""
    if delta is None:
        return (temperature**5, None) if slope else temperature**5
    kT = BOLTZMANN_MEV_PER_K * temperature
    n = _bose_einstein(delta / kT)
    n_plus_1 = n + 1.0
    if not slope:
        n_plus_1 *= n       # (n + 1) n, the bits of n (n + 1)
        return n_plus_1
    column = n * n_plus_1
    ddelta = 2.0 * n
    ddelta += 1.0
    np.negative(ddelta, out=ddelta)
    ddelta *= n
    ddelta *= n_plus_1
    ddelta /= np.maximum(kT, 5e-324)
    return column, ddelta


def _evaluate(delta: float, temperature, evaluate):
    """``evaluate(delta, T)`` once both are checked positive, in T's shape."""
    _require({"delta": delta, "temperature": temperature}, "positive")
    t = np.asarray(temperature, dtype=float)
    # delta / k_B T is inf at a subnormal T (k_B T may round to 0): n = 0
    with np.errstate(over="ignore", divide="ignore"):
        out = evaluate(delta, np.atleast_1d(t))
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def occupation(delta: float, temperature):
    """Bose-Einstein occupation n = 1/(exp(delta/k_B T) - 1).

    Parameters
    ----------
    delta : float
        Phonon energy in meV, > 0.
    temperature : float or array_like
        Temperature in K, > 0.

    Returns
    -------
    float or ndarray
        Mean occupation number.  For delta/(k_B T) > 700 the value
        underflows and exactly 0.0 is returned.

    Notes
    -----
    Evaluated through expm1 so both the frozen-out limit (n ~ exp(-x))
    and the classical limit (n ~ 1/x) keep full relative accuracy.
    """
    return _evaluate(delta, temperature,
                     lambda d, t: _bose_einstein(d / (BOLTZMANN_MEV_PER_K * t)))


def orbach_factor(delta: float, temperature):
    """Occupation product n(n+1) entering every Orbach-like rate term.

    For delta/(k_B T) >~ 5 this approaches exp(-delta/k_B T), which is why
    low-temperature rate data look linear in an Arrhenius plot with slope
    set by the activation energy.
    """
    return _evaluate(delta, temperature, _term_column)


def orbach_factor_ddelta(delta: float, temperature):
    """d[n(n+1)]/d(delta) = -(2n+1) n(n+1) / (k_B T), the slope the fitter's
    Jacobian takes from the same kernel."""
    return _evaluate(delta, temperature, lambda d, t: _term_column(d, t, slope=True)[1])


def _sum_terms(triples):
    """(omega, gamma) summed over (column, a, b) triples in term order, from
    zero; floors after the sum, or as last triples of 0/1 columns, add alike."""
    omega = gamma = 0.0
    for column, a, b in triples:
        omega = omega + a * column
        gamma = gamma + b * column
    return omega, gamma


class _Term(NamedTuple):
    """Coefficients ``a`` (Omega) and ``b`` (gamma) times the column
    :func:`_term_column` evaluates for ``delta``: parameter names in a
    ModelSpec, parameter columns once the fitter has assembled them."""

    delta: str | int | None
    a: str | int
    b: str | int


@dataclass(frozen=True)
class ModelSpec:
    """Which rate law: 'n_mode' with 1-3 modes, or 'prior'."""

    kind: str
    n_modes: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("n_mode", "prior"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        _require_integer({"n_modes": self.n_modes})
        if self.kind == "n_mode" and not 1 <= self.n_modes <= 3:
            raise ValueError(f"1 to 3 modes supported, got {self.n_modes}")
        if self.kind == "prior" and self.n_modes != 2:
            raise ValueError(f"the prior law takes the default n_modes, 2, got {self.n_modes}")

    @classmethod
    def parse(cls, token: str) -> "ModelSpec":
        token = token.strip().lower()
        if token == "prior":
            return cls(kind="prior")
        kind, _, count = token.partition(":")
        if kind == "n-mode" and count.strip().isdecimal():
            return cls(kind="n_mode", n_modes=int(count))
        raise ValueError(f"unknown model {token!r}; expected 'n-mode:<1|2|3>' or 'prior'")

    @property
    def label(self) -> str:
        return "prior" if self.kind == "prior" else f"n-mode:{self.n_modes}"

    @property
    def terms(self) -> tuple[_Term, ...]:
        """The rate law as basis terms in summation order."""
        if self.kind == "prior":
            return (_Term("delta", "a1", "b1"), _Term(None, "a2", "b2"))
        return tuple(_Term(f"delta_{k}", f"a_{k}", f"b_{k}")
                     for k in range(1, self.n_modes + 1))

    @property
    def param_names(self) -> tuple[str, ...]:
        """Rate-law parameter names in report order."""
        if self.kind == "prior":
            return ("delta", "a1", "b1", "a2", "b2")
        return tuple(getattr(t, f) for f in ("delta", "a", "b") for t in self.terms)


# minimum spacing between mode energies; closer pairs are effectively one
# mode and make the fit rank-deficient
_MIN_MODE_SEPARATION_MEV = 1.0


@dataclass(frozen=True)
class RateLaw:
    """A rate law and its parameter values, under the names fit reports use.

    omega(T) = sum over spec.terms of a * column(T) + a3_<sample>
    gamma(T) = sum over spec.terms of b * column(T) + b3_<sample>

    with column the Orbach factor n(n+1) at the term's mode energy (meV),
    or T^5 for the prior law's Raman tail.  Coefficients are in s^-1 (the
    T^5 ones in s^-1 K^-5).  Every a3_<sample>/b3_<sample> pair in
    ``values`` is one sample's temperature-independent floor (s^-1), each
    half required; other extra keys are ignored.  Mode energies ascend.
    """

    spec: ModelSpec
    values: Mapping[str, float]

    def __post_init__(self) -> None:
        values = self.values
        floors = [f"{c}3_{s}" for s in self._floors for c in "ab"]
        _require(values)
        for name in (*self.spec.param_names, *floors):
            if name not in values:
                raise KeyError(f"missing parameter {name!r}")
        terms = self.spec.terms
        energies = [values[t.delta] for t in terms if t.delta is not None]
        _require({t.delta: values[t.delta] for t in terms if t.delta is not None}, "positive")
        # coefficients and pure rate floors cannot be negative
        _require({name: values[name] for name in
                  (*(n for t in terms for n in (t.a, t.b)),
                   *floors)}, "nonnegative")
        if energies != sorted(energies):
            raise ValueError("modes must be sorted ascending by energy")
        for lo, hi in zip(energies, energies[1:]):
            if hi - lo <= _MIN_MODE_SEPARATION_MEV:
                raise ValueError(
                    f"mode energies {lo} and {hi} meV closer than "
                    f"{_MIN_MODE_SEPARATION_MEV} meV; degenerate model"
                )

    @property
    def _floors(self) -> list[str]:
        return sorted({name[3:] for name in self.values if name.startswith(("a3_", "b3_"))})

    @property
    def samples(self) -> tuple[str | None, ...]:
        """Sorted sample labels, or ``(None,)`` (lattice only) if there are none."""
        return tuple(self._floors) or (None,)

    def rates(self, sample: str | None, temperature) -> RatePair:
        """Rates at the given temperature(s); ``sample=None`` omits the floors."""
        v = self.values
        # sample=None is the documented no-floor sentinel, used for
        # phonon-limited curves and synthetic theory fits
        a3 = b3 = 0.0
        if sample is not None:
            if f"a3_{sample}" not in v:
                known = ", ".join(self._floors) or "(none)"
                raise KeyError(f"unknown sample {sample!r}; known samples: {known}")
            a3, b3 = v[f"a3_{sample}"], v[f"b3_{sample}"]
        _require({"temperature": temperature}, "positive")
        t = np.asarray(temperature, dtype=float)
        temps = np.atleast_1d(t)
        # an overflow (inf, or 0 * inf) is caught below and named by its temperature
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            omega, gamma = _sum_terms(
                (_term_column(None if term.delta is None else v[term.delta], temps),
                 v[term.a], v[term.b])
                for term in self.spec.terms)
            omega, gamma = omega + a3, gamma + b3
        bad = ~(np.isfinite(omega) & np.isfinite(gamma))
        if bad.any():
            raise ValueError(f"rates are not finite at temperature {float(temps[bad][0])!r} K")
        if t.ndim == 0:
            return RatePair(float(omega[0]), float(gamma[0]))
        return RatePair(omega.reshape(t.shape), gamma.reshape(t.shape))


class RatePair(NamedTuple):
    """Model rates at one temperature (or arrays over a grid)."""

    omega: float
    gamma: float


@dataclass(frozen=True)
class CoherenceLimit:
    """Relaxation-imposed upper bounds on coherence times, in seconds.

    t2_sq = 2/(3 Omega + gamma) for a superposition within the
    single-quantum {|0>, |+-1>} subspace, t2_dq = 1/(Omega + gamma) for the
    {|-1>, |+1>} double-quantum subspace, and t1 = 1/(3 Omega).
    """

    t2_sq: float
    t2_dq: float
    t1: float


def coherence_limits(omega: float, gamma: float) -> CoherenceLimit:
    """Coherence bounds for given rates; infinite fields when both rates are 0.

    The infinite-limit sentinel is ``math.inf`` per field, returned whenever
    the corresponding rate combination vanishes.
    """
    _require({"omega": omega, "gamma": gamma}, "nonnegative")
    sq = 3.0 * omega + gamma
    dq = omega + gamma
    return CoherenceLimit(
        t2_sq=2.0 / sq if sq > 0 else math.inf,
        t2_dq=1.0 / dq if dq > 0 else math.inf,
        t1=1.0 / (3.0 * omega) if omega > 0 else math.inf,
    )

