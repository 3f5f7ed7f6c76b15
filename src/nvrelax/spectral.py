"""Broadened spin-phonon spectral functions and Raman rate quadrature.

Discrete per-mode coupling coefficients are smoothed into continuum
spectral functions with normalized Gaussians, then relaxation rates follow
by quadrature:

    second order:  Gamma = (4 pi / hbar) * integral de n(n+1) F(e, e)
    first order:   Gamma = (4 pi / hbar) * sum_i integral de n(n+1)
                            F1_in(e) F1_out(e) / e^2

Two broadening conventions coexist, mirroring how the two orders use the
couplings: ``amplitude`` smooths |V| (the square-root convention; the
second-order spectral function is its square), while ``power`` smooths
|V|^2 (the convention the first-order rate integral is defined with).
Amplitudes are in MHz and are converted to energy via h before squaring,
so the diagonal F(e, e) is dimensionless and the 4 pi / hbar prefactor
yields rates in 1/s.

Only diagonal mode pairs enter the second-order rate (the equal-energy
constraint of the continuum limit); off-diagonal combinations are an
explicit non-goal.  Zero-point splittings of the spin levels are neglected
inside the integrals, so the integrand depends on one energy only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import (
    BOLTZMANN_MEV_PER_K,
    DEFAULT_SEED,
    HBAR_MEV_S,
    PLANCK_MEV_PER_MHZ,
    Dataset,
    RateMeasurement,
    TransitionChannel,
    _csv_rows,
    _csv_text,
    _require,
    convert_energy,
)
from .fitting import FitProblem, FitResult, ModelSpec, fit
from .models import _bose_einstein

__all__ = [
    "COUPLING_CSV_HEADER",
    "MAX_MODE_ENERGY_MEV",
    "QUADRATURE_REL_TOL",
    "CouplingEntry",
    "CouplingTable",
    "SpectralFunction",
    "RamanRateCurve",
    "QuadratureError",
    "QuadratureRate",
    "anchor_coupling_table",
    "build_spectral_function",
    "default_grid",
    "first_order_raman_rate",
    "order_dominance_ratio",
    "parse_coupling_text",
    "rate_curve",
    "refit_theory_curve",
    "second_order_rate",
    "synthetic_peak_function",
    "two_peak_reference_functions",
    "spectral_to_csv_text",
]

# diamond phonon band edge plus margin; coupling energies must lie inside
MAX_MODE_ENERGY_MEV = 250.0

QUADRATURE_REL_TOL = 1e-6

COUPLING_CSV_HEADER = "energy_mev,amplitude_mhz,channel,order"

RATE_CURVE_CSV_HEADER = "temperature_k,omega_s,gamma_s"

# energy-domain weights whose zero-width limit reproduces a two-mode rate
# law with the theory-refit coefficients (Omega: 70 and 169 1/s, gamma:
# 910 and 2940 1/s); peak centers sit at the spectral-function maxima
_REFERENCE_PEAKS_MEV = (65.0, 155.0)
_REFERENCE_SQ_RATES = (70.0, 169.0)
_REFERENCE_DQ_RATES = (910.0, 2940.0)

# width w of synthetic_peak_function's low-energy factor 1 - exp(-e^2 / (2 w^2))
_LOW_ENERGY_WINDOW_MEV = 10.0

# relative error of every RamanRateCurve.to_dataset row
_THEORY_REL_ERR = 0.01


class QuadratureError(RuntimeError):
    """Energy grid too coarse for the requested quadrature tolerance; the
    ``suggested_spacing`` is None when no finer grid can help."""

    def __init__(self, message: str, suggested_spacing: float | None):
        super().__init__(message)
        self.suggested_spacing = suggested_spacing


@dataclass(frozen=True)
class CouplingEntry:
    """One discrete spin-phonon coupling coefficient."""

    mode_energy: float          # meV
    amplitude: float            # MHz
    channel: TransitionChannel
    order: int                  # 1 or 2

    def __post_init__(self) -> None:
        _require({"mode_energy": self.mode_energy})
        if not 0.0 < self.mode_energy <= MAX_MODE_ENERGY_MEV:
            raise ValueError(
                f"mode energy must lie in (0, {MAX_MODE_ENERGY_MEV:g}] meV, "
                f"got {self.mode_energy}"
            )
        _require({"amplitude": self.amplitude}, "nonnegative")
        if self.order not in (1, 2):
            raise ValueError(f"interaction order must be 1 or 2, got {self.order}")


@dataclass(frozen=True)
class CouplingTable:
    """A flat list of coupling entries, as produced by supercell calculations."""

    entries: tuple[CouplingEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def for_channel(self, channel: TransitionChannel, order: int) -> tuple[CouplingEntry, ...]:
        """Entries of one channel and interaction order, sorted by energy."""
        selected = [e for e in self.entries if e.channel == channel and e.order == order]
        return tuple(sorted(selected, key=lambda e: e.mode_energy))

    def to_csv_text(self) -> str:
        return _csv_text(COUPLING_CSV_HEADER, [
            f"{e.mode_energy!r},{e.amplitude!r},{e.channel.value},{e.order}"
            for e in self.entries])


def parse_coupling_text(text: str) -> CouplingTable:
    """Parse coupling CSV (header ``energy_mev,amplitude_mhz,channel,order``)."""
    entries = []
    rows = _csv_rows(text, COUPLING_CSV_HEADER, "coupling table", ValueError)
    for lineno, (energy, amplitude, channel, order) in rows:
        try:
            entries.append(CouplingEntry(float(energy), float(amplitude),
                                         TransitionChannel.parse(channel), int(order)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return CouplingTable(entries=tuple(entries))


def anchor_coupling_table() -> CouplingTable:
    """The two strongest quasilocalized E-mode couplings (order 2) of a
    512-atom supercell.

    The 62.4 meV mode carries 2 MHz (double-quantum) and 0.6 MHz
    (single-quantum); the 160.7 meV mode carries 0.34 and 0.07 MHz.
    """
    sq = TransitionChannel.SINGLE_QUANTUM
    dq = TransitionChannel.DOUBLE_QUANTUM
    return CouplingTable(
        entries=(
            CouplingEntry(62.4, 0.6, sq, 2),
            CouplingEntry(62.4, 2.0, dq, 2),
            CouplingEntry(160.7, 0.07, sq, 2),
            CouplingEntry(160.7, 0.34, dq, 2),
        ),
    )


def default_grid(sigma: float) -> np.ndarray:
    """Energy grid 0-250 meV (band edge plus margin) that resolves peaks of
    width ``sigma``: 0.05 meV spacing, or sigma/10 for sigma below 0.5 meV,
    so that the quadrature error check is met."""
    _require({"broadening width sigma": sigma}, "positive")
    spacing = min(0.05, sigma / 10.0)
    return np.linspace(0.0, MAX_MODE_ENERGY_MEV, int(round(MAX_MODE_ENERGY_MEV / spacing)) + 1)


def _gaussian(x: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """Broadened spectral content of one channel on a uniform energy grid.

    ``amplitude`` is the square-root convention (sum of |V| Gaussians,
    MHz/meV); ``power`` is the squared-coefficient convention (sum of |V|^2
    Gaussians, MHz^2/meV) and is present when the function was built from a
    coupling table.  Synthetic functions constructed directly in the
    squared domain carry ``power=None``.
    """

    grid: np.ndarray            # meV, ascending, uniform
    amplitude: np.ndarray       # MHz / meV
    channel: TransitionChannel
    order: int
    sigma: float                # meV
    power: np.ndarray | None = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        amplitude = np.asarray(self.amplitude, dtype=float)
        if grid.ndim != 1 or len(grid) < 5:
            raise ValueError("grid must be a 1-D array with at least 5 samples")
        spacing = np.diff(grid)
        if np.any(spacing <= 0):
            raise ValueError("grid must be strictly ascending")
        if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=1e-12):
            raise ValueError("grid must be uniformly spaced")
        if amplitude.shape != grid.shape:
            raise ValueError("amplitude must match the grid shape")
        _require({"amplitude": amplitude}, "nonnegative")
        _require({"broadening width sigma": self.sigma}, "positive")
        if self.order not in (1, 2):
            raise ValueError(f"interaction order must be 1 or 2, got {self.order}")
        grid.flags.writeable = False
        amplitude.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "amplitude", amplitude)
        if self.power is not None:
            power = np.asarray(self.power, dtype=float)
            if power.shape != grid.shape:
                raise ValueError("power must match the grid shape")
            _require({"power": power}, "nonnegative")
            power.flags.writeable = False
            object.__setattr__(self, "power", power)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def diagonal_values(self) -> np.ndarray:
        """Dimensionless F(e, e): the squared amplitude in energy units."""
        return (PLANCK_MEV_PER_MHZ * self.amplitude) ** 2

    @cached_property
    def _diagonal_support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Energies, F(e, e) and the full- and halved-grid Simpson weights on
        the samples where F != 0, built once; the other samples would add
        exactly 0 to every quadrature sum."""
        values = self.diagonal_values()
        keep = np.flatnonzero(values)
        full, half = _quadrature_weights(self.grid)
        return self.grid[keep], values[keep], full[keep], half[keep]


def build_spectral_function(
    table: CouplingTable,
    channel: TransitionChannel,
    order: int,
    sigma: float,
    grid: np.ndarray | None = None,
) -> SpectralFunction:
    """Smooth the couplings of one channel/order into a spectral function.

    ``amplitude(e) = sum_l |V_l| Gaussian(e - e_l; sigma)`` with a
    normalized Gaussian; the squared-coefficient ``power`` array is built
    alongside.  The grid must cover the couplings with 5 sigma of margin.
    """
    _require({"broadening width sigma": sigma}, "positive")
    entries = table.for_channel(channel, order)
    if not entries:
        raise ValueError(f"no coupling entries for channel {channel.value!r}, order {order}")
    grid = default_grid(sigma) if grid is None else np.asarray(grid, dtype=float)
    max_energy = max(e.mode_energy for e in entries)
    if grid[0] > 0.0 or grid[-1] < max_energy + 5.0 * sigma:
        raise ValueError(
            f"grid must cover [0, {max_energy + 5.0 * sigma:g}] meV, "
            f"got [{grid[0]:g}, {grid[-1]:g}]"
        )
    amplitude = np.zeros_like(grid)
    power = np.zeros_like(grid)
    for e in entries:
        kernel = _gaussian(grid - e.mode_energy, sigma)
        amplitude += e.amplitude * kernel
        power += e.amplitude**2 * kernel
    return SpectralFunction(grid=grid, amplitude=amplitude, channel=channel,
                            order=order, sigma=sigma, power=power)


def synthetic_peak_function(
    peaks: Sequence[tuple[float, float]],
    sigma: float,
    channel: TransitionChannel,
    grid: np.ndarray | None = None,
) -> SpectralFunction:
    """Spectral function whose diagonal F(e, e) is a sum of Gaussian peaks.

    Each peak is (center meV, area meV): the dimensionless F integrates to
    the given area, so the zero-width limit of the second-order rate is the
    Orbach-like term (4 pi / hbar) * area * n(n+1) at the center energy.
    Used for delta-function oracles and pipeline-bias studies.

    Broad peaks leave a Gaussian tail at zero energy where the occupation
    weight grows as 1/e^2 and would make the rate integral ill-posed, so F
    is always multiplied by the smooth factor 1 - exp(-e^2 / (2 w^2)) with
    w = 10 meV: couplings to long-wavelength acoustic phonons vanish
    quadratically.
    """
    _require({"broadening width sigma": sigma}, "positive")
    if not peaks:
        raise ValueError("at least one peak is required")
    grid = default_grid(sigma) if grid is None else np.asarray(grid, dtype=float)
    f_diag = np.zeros_like(grid)
    for center, area in peaks:
        _require({"peak center": center}, "positive")
        _require({"peak area": area}, "nonnegative")
        f_diag += area * _gaussian(grid - center, sigma)
    f_diag *= -np.expm1(-0.5 * (grid / _LOW_ENERGY_WINDOW_MEV) ** 2)
    amplitude = np.sqrt(f_diag) / PLANCK_MEV_PER_MHZ
    return SpectralFunction(grid=grid, amplitude=amplitude, channel=channel,
                            order=2, sigma=sigma, power=None)


def two_peak_reference_functions(sigma: float) -> tuple[SpectralFunction, SpectralFunction]:
    """Two-peak (65 and 155 meV) test functions for both rate channels, on
    ``synthetic_peak_function``'s default grid.

    Peak areas are chosen so the zero-width limit reproduces a two-mode
    rate law with coefficients 70/169 (single-quantum) and 910/2940
    (double-quantum) 1/s; the broadened versions feed the sweep-and-refit
    bias pipeline.
    """
    scale = HBAR_MEV_S / (4.0 * math.pi)
    sq_peaks = [(c, scale * a) for c, a in zip(_REFERENCE_PEAKS_MEV, _REFERENCE_SQ_RATES)]
    dq_peaks = [(c, scale * b) for c, b in zip(_REFERENCE_PEAKS_MEV, _REFERENCE_DQ_RATES)]
    f_sq = synthetic_peak_function(sq_peaks, sigma, TransitionChannel.SINGLE_QUANTUM)
    f_dq = synthetic_peak_function(dq_peaks, sigma, TransitionChannel.DOUBLE_QUANTUM)
    return f_sq, f_dq


def _occupancy_weight(grid: np.ndarray, temperature: float) -> np.ndarray:
    """n(n+1) over the energy grid; the zero-energy sample contributes 0."""
    weight = np.zeros_like(grid)
    positive = grid > 0
    # e / k_B T is inf at a subnormal T (k_B T may round to 0): n = 0
    with np.errstate(over="ignore", divide="ignore"):
        n = _bose_einstein(grid[positive] / (BOLTZMANN_MEV_PER_K * temperature))
        weight[positive] = n * (n + 1.0)
    if not np.isfinite(weight).all():
        raise ValueError(f"n(n+1) is not finite at temperature {float(temperature)!r} K")
    return weight


def simpson(y: np.ndarray, *, dx: float) -> np.ndarray:
    """Simpson's rule along the last axis of samples ``dx`` apart, in scipy's
    (>= 1.11) arithmetic, Cartwright's last interval included for an even
    count.  Named for the benchmark's ``spectral.simpson`` span, which wraps it."""
    n = y.shape[-1]
    paired = n if n % 2 else n - 1      # samples covered by whole pairs
    result = np.sum(y[..., 0:paired - 2:2] + 4.0 * y[..., 1:paired - 1:2]
                    + y[..., 2:paired:2], axis=-1) * (dx / 3.0)
    if n % 2 == 0:
        alpha = (2 * dx**2 + 3 * dx * dx) / (6 * (dx + dx))
        beta = (dx**2 + 3.0 * dx * dx) / (6 * dx)
        eta = dx**3 / (6 * dx * (dx + dx))
        result += alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]
    return result


def _simpson_weights(grid: np.ndarray) -> np.ndarray:
    """Vector w with ``w @ y == simpson(y, x=grid)`` on a uniform grid.

    The templates come from :func:`simpson`: ``simpson(np.eye(3), dx=h)``
    weighs one pair of intervals, and ``simpson(np.eye(4), dx=h)`` less that
    pair is the Cartwright correction for the last interval of an even
    sample count.
    """
    n = len(grid)
    h = float(grid[1] - grid[0])
    pair = simpson(np.eye(3), dx=h)
    paired = n if n % 2 else n - 1      # samples covered by whole pairs
    weights = np.zeros(n)
    for k in range(3):
        weights[k:paired - 2 + k:2] += pair[k]
    if n % 2 == 0:
        tail = simpson(np.eye(4), dx=h)
        weights[-3:] += tail[1:] - np.append(pair[1:], 0.0)
    return weights


def _quadrature_weights(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simpson weights of the grid and of the halved grid ``grid[::2]``,
    the latter scattered back to full-grid indices."""
    half = np.zeros_like(grid)
    half[::2] = _simpson_weights(grid[::2])
    return _simpson_weights(grid), half


def _integrate_checked(integrand: np.ndarray, energies: np.ndarray,
                       full_weights: np.ndarray, half_weights: np.ndarray,
                       spacing: float) -> tuple[float, float]:
    """Simpson quadrature with a halved-grid Richardson error check.

    ``energies`` are the samples' grid energies.  Returns the integral and
    the relative error estimate reached.
    """
    full = float(full_weights @ integrand)
    half = float(half_weights @ integrand)
    if full == 0.0 and half == 0.0:
        return 0.0, 0.0
    # Simpson converges as h^4, so comparing against the double-spacing
    # result overestimates the fine-grid error by 15x
    error = abs(full - half) / 15.0
    if error > QUADRATURE_REL_TOL * abs(full):
        # n(n+1) grows as 1/e^2: where F does not vanish at e = 0, the sample
        # nearest zero alone outweighs the tolerance and grows as h shrinks
        nearest_zero = integrand[(energies > 0.0) & (energies <= spacing)]
        refinable = not np.any(nearest_zero * spacing > QUADRATURE_REL_TOL * abs(full))
        advice = (f"refine the energy grid to spacing <= {spacing / 2.0:g} meV" if refinable
                  else "the integrand grows towards e = 0, where the spectral function "
                       "does not vanish, so refining the energy grid will not help")
        raise QuadratureError(
            f"quadrature error estimate {error / abs(full):.2e} above relative "
            f"tolerance {QUADRATURE_REL_TOL:g}; {advice}",
            suggested_spacing=spacing / 2.0 if refinable else None,
        )
    return full, error / abs(full)


class QuadratureRate(float):
    """A quadrature rate in 1/s that also carries ``rel_error``, the
    Richardson relative error estimate reached for it."""

    __slots__ = ("rel_error",)

    def __new__(cls, rate: float, rel_error: float):
        self = super().__new__(cls, rate)
        self.rel_error = rel_error
        return self


def second_order_rate(f: SpectralFunction, temperature: float) -> QuadratureRate:
    """Second-order Raman rate (4 pi / hbar) * integral de n(n+1) F(e, e).

    Only the samples where F != 0 are integrated, so the occupancy is
    evaluated there alone.  The result is a float that also carries the
    Richardson relative error estimate reached, as ``rel_error``.
    """
    if f.order != 2:
        raise ValueError(f"second-order rate needs an order-2 function, got order {f.order}")
    _require({"temperature": temperature}, "positive")
    energies, values, full_weights, half_weights = f._diagonal_support
    integrand = _occupancy_weight(energies, temperature) * values
    integral, rel_error = _integrate_checked(integrand, energies, full_weights,
                                             half_weights, f.spacing)
    return QuadratureRate(4.0 * math.pi / HBAR_MEV_S * integral, rel_error)


def first_order_raman_rate(
    f_by_intermediate: Mapping[object, SpectralFunction | tuple[SpectralFunction, SpectralFunction]],
    temperature: float,
) -> float:
    """First-order Raman rate summed over intermediate spin states.

    Each map value is the order-1 spectral function shared by both matrix
    elements of that intermediate state, or an (incoming, outgoing) pair.
    All functions must share one grid.
    """
    _require({"temperature": temperature}, "positive")
    if not f_by_intermediate:
        raise ValueError("at least one intermediate state is required")
    pairs = []
    for key, value in f_by_intermediate.items():
        f_in, f_out = value if isinstance(value, tuple) else (value, value)
        for f in (f_in, f_out):
            if f.order != 1:
                raise ValueError(
                    f"first-order rate needs order-1 functions; intermediate "
                    f"{key!r} has order {f.order}"
                )
            if f.power is None:
                raise ValueError(
                    "first-order rate needs the squared-coefficient convention; "
                    "build the function from a coupling table"
                )
        pairs.append((f_in, f_out))
    grid = pairs[0][0].grid
    for f_in, f_out in pairs:
        if not (np.array_equal(f_in.grid, grid) and np.array_equal(f_out.grid, grid)):
            raise ValueError("all spectral functions must share one energy grid")

    weight = _occupancy_weight(grid, temperature)
    positive = grid > 0
    full_weights, half_weights = _quadrature_weights(grid)
    total = 0.0
    for f_in, f_out in pairs:
        # F1 in energy units (meV): (h MHz)^2-scaled power density
        f1_in = PLANCK_MEV_PER_MHZ**2 * f_in.power
        f1_out = PLANCK_MEV_PER_MHZ**2 * f_out.power
        integrand = np.zeros_like(grid)
        integrand[positive] = (
            weight[positive] * f1_in[positive] * f1_out[positive] / grid[positive] ** 2
        )
        total += _integrate_checked(integrand, grid, full_weights, half_weights,
                                    pairs[0][0].spacing)[0]
    return 4.0 * math.pi / HBAR_MEV_S * total


def order_dominance_ratio(d_ghz: float, phonon_energy_mev: float) -> float:
    """(2 pi D / omega)^2: zero-field splitting over phonon frequency, squared.

    Quantifies why first-order contributions are negligible: the spin
    splitting (GHz) is tiny against phonon energies (tens of meV).
    """
    _require({"zero-field splitting d_ghz": d_ghz}, "nonnegative")
    _require({"phonon energy phonon_energy_mev": phonon_energy_mev}, "positive")
    return (convert_energy(d_ghz, "GHz", "meV") / phonon_energy_mev) ** 2


@dataclass(frozen=True)
class RamanRateCurve:
    """Quadrature rates per temperature for both channels.

    ``omega_rel_error`` and ``gamma_rel_error`` hold the Richardson relative
    error estimate reached at each temperature; they are empty for curves
    that did not come from quadrature.
    """

    temperatures: tuple[float, ...]
    omega: tuple[float, ...]
    gamma: tuple[float, ...]
    provenance: str
    omega_rel_error: tuple[float, ...] = ()
    gamma_rel_error: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (len(self.temperatures) == len(self.omega) == len(self.gamma)):
            raise ValueError("temperature and rate lists must have equal length")
        for errors in (self.omega_rel_error, self.gamma_rel_error):
            if errors and len(errors) != len(self.temperatures):
                raise ValueError("error estimates must match the temperatures in length")
        _require({"temperatures": self.temperatures}, "positive")
        _require({"omega": self.omega, "gamma": self.gamma}, "nonnegative")

    def __len__(self) -> int:
        return len(self.temperatures)

    def to_csv_text(self) -> str:
        return _csv_text(RATE_CURVE_CSV_HEADER, [
            f"{t!r},{o!r},{g!r}" for t, o, g in zip(self.temperatures, self.omega, self.gamma)],
            {"provenance": self.provenance})

    def to_dataset(self) -> Dataset:
        """Rows with uniform 1% relative errors, ready for model refits."""
        rows = tuple(
            RateMeasurement(
                nv_id="THEORY", sample="THEORY", temperature=t,
                omega=o, omega_err=_THEORY_REL_ERR * o,
                gamma=g, gamma_err=_THEORY_REL_ERR * g,
            )
            for t, o, g in zip(self.temperatures, self.omega, self.gamma)
        )
        return Dataset(rows=rows, provenance=self.provenance)


def rate_curve(
    f_sq: SpectralFunction, f_dq: SpectralFunction, t_grid: Sequence[float]
) -> RamanRateCurve:
    """Pointwise second-order rates for both channels over a temperature grid."""
    for name, f in (("single-quantum", f_sq), ("double-quantum", f_dq)):
        if f.order != 2:
            raise ValueError(f"{name} function must be order 2, got order {f.order}")
    temps = tuple(float(t) for t in t_grid)
    omega = [second_order_rate(f_sq, t) for t in temps]
    gamma = [second_order_rate(f_dq, t) for t in temps]
    provenance = (
        f"second-order quadrature, sigma_sq={f_sq.sigma:g} meV, "
        f"sigma_dq={f_dq.sigma:g} meV"
    )
    return RamanRateCurve(
        temperatures=temps, omega=tuple(map(float, omega)), gamma=tuple(map(float, gamma)),
        provenance=provenance,
        omega_rel_error=tuple(r.rel_error for r in omega),
        gamma_rel_error=tuple(r.rel_error for r in gamma))


def refit_theory_curve(curve: RamanRateCurve, t_max: float, multistart: int = 8,
                       seed: int = DEFAULT_SEED) -> FitResult:
    """Fit the two-mode law (no constant floors) to a quadrature rate curve.

    The curve must extend to ``t_max``; uniform 1% relative errors weight
    all temperatures alike on a log scale, so only the lineshape matters.
    ``seed`` is only recorded by callers: the fit draws nothing at random.
    """
    _require({"t_max": t_max}, "positive")
    if max(curve.temperatures) < t_max:
        raise ValueError(
            f"curve reaches only {max(curve.temperatures):g} K but t_max={t_max:g} K"
        )
    for t, o, g in zip(curve.temperatures, curve.omega, curve.gamma):
        if t <= t_max and _THEORY_REL_ERR * min(o, g) == 0.0:
            raise ValueError(f"a rate at temperature {t!r} K is too small to weight: "
                             f"its {_THEORY_REL_ERR:.0%} error is 0")
    dataset = curve.to_dataset()
    rows = tuple(r for r in dataset if r.temperature <= t_max)
    dataset = Dataset(rows=rows, provenance=dataset.provenance)
    return fit(FitProblem(dataset=dataset, model=ModelSpec("n_mode", 2),
                          constants="none", multistart=multistart))


def spectral_to_csv_text(f: SpectralFunction) -> str:
    """Energy/amplitude CSV of a spectral function for external plotting."""
    return _csv_text(
        "energy_mev,amplitude_mhz_per_mev",
        [f"{float(e)!r},{float(a)!r}" for e, a in zip(f.grid, f.amplitude)],
        {"channel": f.channel.value, "order": f.order, "sigma_mev": repr(f.sigma)})
