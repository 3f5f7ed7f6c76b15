"""Closed-form rate laws for triplet spin-lattice relaxation.

Two model families are implemented: a sum of Orbach-like terms driven by
the occupation of a small number of effective phonon modes (one, two, or
three modes; two is the proposed form), and the prior literature form with
a single Orbach-like term plus a T^5 Raman tail.  Both are ordered sums of
Orbach and T^5 terms plus an optional temperature-independent per-sample
floor, added last by the one rate body the fitter's model shares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import BOLTZMANN_MEV_PER_K, _require

__all__ = [
    "Mode",
    "SampleConstants",
    "NModeParams",
    "PriorModelParams",
    "RatePair",
    "CoherenceLimit",
    "occupation",
    "orbach_factor",
    "coherence_limits",
    "ratio_curve",
]

# exp argument beyond which the occupation underflows to exactly zero
_EXP_ARG_MAX = 700.0


def _bose_einstein(x: np.ndarray) -> np.ndarray:
    """n = 1/expm1(x) for x = energy/k_B T, exactly 0 past _EXP_ARG_MAX.

    The occupancy kernel of both the rate laws and the spectral
    quadrature; callers check their own arguments.
    """
    out = np.zeros_like(x)
    live = x <= _EXP_ARG_MAX
    out[live] = 1.0 / np.expm1(x[live])
    return out


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
    t = np.asarray(temperature, dtype=float)
    _require({"delta": delta, "temperature": t}, "positive")
    out = _bose_einstein(delta / (BOLTZMANN_MEV_PER_K * np.atleast_1d(t)))
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def orbach_factor(delta: float, temperature):
    """Occupation product n(n+1) entering every Orbach-like rate term.

    For delta/(k_B T) >~ 5 this approaches exp(-delta/k_B T), which is why
    low-temperature rate data look linear in an Arrhenius plot with slope
    set by the activation energy.
    """
    n = occupation(delta, temperature)
    return n * (n + 1.0)


def orbach_factor_ddelta(delta: float, temperature):
    """d[n(n+1)]/d(delta) = -(2n+1) n(n+1) / (k_B T).

    The fitter's Jacobian evaluates the same expression, in the same order,
    from the occupancies it kept from the residual evaluation.
    """
    t = np.asarray(temperature, dtype=float)
    n = occupation(delta, temperature)
    out = -(2.0 * n + 1.0) * n * (n + 1.0) / (BOLTZMANN_MEV_PER_K * t)
    return float(out) if t.ndim == 0 else out


def _term_column(delta: float | None, temperature):
    """Basis column of one rate-law term: n(n+1) at mode energy ``delta``,
    or T^5 when ``delta`` is None."""
    return temperature**5 if delta is None else orbach_factor(delta, temperature)


def _sum_terms(triples):
    """(omega, gamma) summed over (column, a, b) triples in term order, from zero."""
    omega = gamma = 0.0
    for column, a, b in triples:
        omega = omega + a * column
        gamma = gamma + b * column
    return omega, gamma


@dataclass(frozen=True)
class Mode:
    """One effective phonon mode: energy plus its two channel coefficients."""

    delta: float      # meV
    a_coeff: float    # s^-1, single-quantum (Omega) channel
    b_coeff: float    # s^-1, double-quantum (gamma) channel

    def __post_init__(self) -> None:
        _require({"delta": self.delta}, "positive")
        _require({"a_coeff": self.a_coeff, "b_coeff": self.b_coeff}, "nonnegative")


@dataclass(frozen=True)
class SampleConstants:
    """Temperature-independent rate floor of one sample (defect-defect term)."""

    a3: float = 0.0   # s^-1, Omega channel
    b3: float = 0.0   # s^-1, gamma channel

    def __post_init__(self) -> None:
        # a pure rate floor cannot be negative
        _require({"a3": self.a3, "b3": self.b3}, "nonnegative")


# minimum spacing between mode energies; closer pairs are effectively one
# mode and make the fit rank-deficient
_MIN_MODE_SEPARATION_MEV = 1.0


class _SampleFloors:
    """Per-sample floors and the rate body of both laws: ``terms`` lists
    (delta, a, b) per basis term, delta None for T^5; the floor comes last."""

    def rates(self, sample: str | None, temperature) -> RatePair:
        """Rates at the given temperature(s); ``sample=None`` omits the floors."""
        const = self._constants(sample)
        t = np.asarray(temperature, dtype=float)
        omega, gamma = _sum_terms((_term_column(delta, t), a, b) for delta, a, b in self.terms)
        omega, gamma = omega + const.a3, gamma + const.b3
        if t.ndim == 0:
            return RatePair(float(omega), float(gamma))
        return RatePair(omega, gamma)

    @property
    def samples(self) -> tuple[str | None, ...]:
        """Sorted sample labels, or ``(None,)`` (lattice only) if there are none."""
        return tuple(sorted(self.sample_constants)) or (None,)

    def _constants(self, sample: str | None) -> SampleConstants:
        # sample=None is the documented no-constant sentinel (A3 = B3 = 0),
        # used for phonon-limited curves and synthetic theory fits
        if sample is None:
            return SampleConstants(0.0, 0.0)
        try:
            return self.sample_constants[sample]
        except KeyError:
            known = ", ".join(sorted(self.sample_constants)) or "(none)"
            raise KeyError(f"unknown sample {sample!r}; known samples: {known}") from None


@dataclass(frozen=True)
class NModeParams(_SampleFloors):
    """Parameters of the n-effective-mode rate model (1 <= n <= 3 modes).

    omega(T) = sum_i a_i * n_i(n_i+1) + a3(sample)
    gamma(T) = sum_i b_i * n_i(n_i+1) + b3(sample)

    with n_i the occupation at mode energy delta_i.  Modes are kept sorted
    ascending in energy.
    """

    modes: tuple[Mode, ...]
    sample_constants: Mapping[str, SampleConstants] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 1 <= len(self.modes) <= 3:
            raise ValueError(f"1 to 3 modes supported, got {len(self.modes)}")
        deltas = [m.delta for m in self.modes]
        if deltas != sorted(deltas):
            raise ValueError("modes must be sorted ascending by energy")
        for lo, hi in zip(deltas, deltas[1:]):
            if hi - lo <= _MIN_MODE_SEPARATION_MEV:
                raise ValueError(
                    f"mode energies {lo} and {hi} meV closer than "
                    f"{_MIN_MODE_SEPARATION_MEV} meV; degenerate model"
                )

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def terms(self) -> tuple[tuple[float, float, float], ...]:
        return tuple((m.delta, m.a_coeff, m.b_coeff) for m in self.modes)


@dataclass(frozen=True)
class PriorModelParams(_SampleFloors):
    """Prior literature form: one Orbach-like term plus a T^5 Raman tail.

    omega(T) = a1 * n(n+1) + a2 * T^5 + a3(sample), and likewise for gamma
    with b1, b2, b3.
    """

    delta: float            # meV
    a1: float               # s^-1
    b1: float               # s^-1
    a2: float               # s^-1 K^-5
    b2: float               # s^-1 K^-5
    sample_constants: Mapping[str, SampleConstants] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require({"delta": self.delta}, "positive")
        _require({name: getattr(self, name) for name in ("a1", "b1", "a2", "b2")},
                 "nonnegative")

    @property
    def terms(self) -> tuple[tuple[float | None, float, float], ...]:
        return ((self.delta, self.a1, self.b1), (None, self.a2, self.b2))


@dataclass(frozen=True)
class RatePair:
    """Model rates at one temperature (or arrays over a grid)."""

    omega: float
    gamma: float

    def __iter__(self):
        return iter((self.omega, self.gamma))


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


def ratio_curve(
    params: NModeParams, sample: str | None, t_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """gamma/omega evaluated pointwise over a caller-supplied grid.

    Most meaningful in the phonon-limited regime (roughly 125 K and above);
    raises if omega vanishes at any requested point.
    """
    out = []
    for t in t_grid:
        rates = params.rates(sample, float(t))
        if rates.omega == 0:
            raise ZeroDivisionError(f"omega vanishes at T = {t} K; ratio undefined")
        out.append((float(t), rates.gamma / rates.omega))
    return out
