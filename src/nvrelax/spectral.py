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

import io
import math
import weakref
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
    # np.linspace(0, MAX_MODE_ENERGY_MEV, n)'s arithmetic, into an array that
    # owns its data: SpectralFunction keeps that one as it is, so both
    # channels share it and its CSV text, while it copies linspace's view
    # (copying here raised the 250001-point run's peak memory by 3 MB)
    try:
        # the count is inf below sigma ~ 1.4e-305, a division by 0 below ~ 5e-323
        n = int(round(MAX_MODE_ENERGY_MEV / min(0.05, sigma / 10.0))) + 1
        grid = np.arange(n, dtype=float)
    except (ArithmeticError, ValueError, MemoryError):
        raise ValueError(f"broadening width sigma = {sigma!r} meV needs a grid of spacing "
                         "sigma/10, which has more samples than can be allocated") from None
    grid *= MAX_MODE_ENERGY_MEV / (n - 1)
    grid[-1] = MAX_MODE_ENERGY_MEV
    return grid


def _owned(values) -> np.ndarray:
    """``values`` as a float array that owns its data: a view of another
    array is copied, since that array could still change it."""
    out = np.asarray(values, dtype=float)
    return out if out.flags.owndata else out.copy()


def _gaussian(x: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


# half-width, in sigmas, of the grid window a Gaussian is evaluated on:
# exp(-x^2 / 2) underflows to exactly 0 beyond x = 38.61
_GAUSSIAN_REACH = 40.0


def _gaussian_window(grid: np.ndarray, center: float, sigma: float) -> tuple[slice, np.ndarray]:
    """The slice of the ascending ``grid`` within ``_GAUSSIAN_REACH`` sigmas
    of ``center``, and the normalized Gaussian on it.  The Gaussian is
    exactly 0 on the rest of the grid, so adding its multiples there would
    change no bit of a sum."""
    reach = _GAUSSIAN_REACH * sigma
    lo, hi = np.searchsorted(grid, (center - reach, center + reach)).tolist()
    return slice(lo, hi), _gaussian(grid[lo:hi] - center, sigma)


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """Broadened spectral content of one channel on a uniform energy grid.

    ``amplitude`` is the square-root convention (sum of |V| Gaussians,
    MHz/meV); ``power`` is the squared-coefficient convention (sum of |V|^2
    Gaussians, MHz^2/meV) and is present when the function was built from a
    coupling table.  Synthetic functions constructed directly in the
    squared domain carry ``power=None``.

    ``grid``, ``amplitude`` and ``power`` are frozen read-only arrays once
    constructed: a view is copied first, and an array that owns its data is
    frozen in place, not copied.  Two caches rely on that:
    ``_diagonal_support``, built once per function, and the CSV writer's
    grid text, keyed by the identity of the ``grid`` array and shared by
    every function on that array.  Freezing an array does not freeze the
    views of it taken before construction: a write through one still
    changes the function's array, and neither cache follows that change.
    So never write to an array after passing it in.
    """

    grid: np.ndarray            # meV, ascending, uniform
    amplitude: np.ndarray       # MHz / meV
    channel: TransitionChannel
    order: int
    sigma: float                # meV
    power: np.ndarray | None = None

    def __post_init__(self) -> None:
        grid, amplitude = _owned(self.grid), _owned(self.amplitude)
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
            power = _owned(self.power)
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
        exactly 0 to every quadrature sum, so no weight is computed for them."""
        values = self.diagonal_values()
        keep = np.flatnonzero(values)
        return (self.grid[keep], values[keep], *_quadrature_weights(self.grid, keep))


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
    Each Gaussian is evaluated only on the grid within 40 sigma of its
    center (``_gaussian_window``); it is exactly 0 beyond.
    """
    _require({"broadening width sigma": sigma}, "positive")
    entries = table.for_channel(channel, order)
    if not entries:
        raise ValueError(f"no coupling entries for channel {channel.value!r}, order {order}")
    grid = default_grid(sigma) if grid is None else np.asarray(grid, dtype=float)
    _require_coverage(grid, max(e.mode_energy for e in entries), sigma)
    amplitude = np.zeros_like(grid)
    power = np.zeros_like(grid)
    for e in entries:
        window, kernel = _gaussian_window(grid, e.mode_energy, sigma)
        amplitude[window] += e.amplitude * kernel
        power[window] += e.amplitude**2 * kernel
    return SpectralFunction(grid=grid, amplitude=amplitude, channel=channel,
                            order=order, sigma=sigma, power=power)


def _require_coverage(grid: np.ndarray, top: float, sigma: float) -> None:
    """Refuse a grid that does not reach from 0 to 5 sigma above ``top``, the
    highest center: a Gaussian it cuts off would lose its area silently."""
    if grid[0] > 0.0 or grid[-1] < top + 5.0 * sigma:
        raise ValueError(
            f"grid must cover [0, {top + 5.0 * sigma:g}] meV, got [{grid[0]:g}, {grid[-1]:g}]: "
            f"the highest center {top:g} meV plus a 5 sigma margin of "
            f"{5.0 * sigma:g} meV at sigma = {sigma:g} meV")


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
    Used for delta-function oracles and pipeline-bias studies.  The grid
    must cover the peaks with 5 sigma of margin, as for
    :func:`build_spectral_function`.

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
        window, kernel = _gaussian_window(grid, center, sigma)
        f_diag[window] += area * kernel
    _require_coverage(grid, max(center for center, _ in peaks), sigma)
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


def _simpson_weights(n: int, h: float, indices: np.ndarray) -> np.ndarray:
    """``w[indices]`` of the vector w with ``w @ y == simpson(y, dx=h)`` for
    n samples, computed at those indices alone.

    The templates come from :func:`simpson`: ``simpson(np.eye(3), dx=h)``
    weighs one pair of intervals, and ``simpson(np.eye(4), dx=h)`` less that
    pair is the Cartwright correction for the last interval of an even
    sample count.  A weight is summed by its sample's role, as a whole-grid
    accumulation of the pairs would sum it, so it keeps every bit.
    """
    pair = simpson(np.eye(3), dx=h)
    paired = n if n % 2 else n - 1      # samples covered by whole pairs
    # by role: odd, even (shared by two pairs), first, last of the pairs;
    # the first and the last of the pairs are even samples moved up 1 and 2
    by_role = [pair[1], pair[0] + pair[2], pair[0], pair[2]]
    role = 1 - indices % 2 + (indices == 0) + 2 * (indices == paired - 1)
    if n % 2 == 0:      # roles 4-6: the last three samples, which the tail corrects
        tail = simpson(np.eye(4), dx=h)
        by_role += [pair[1] + (tail[1] - pair[1]), pair[2] + (tail[2] - pair[2]), tail[3]]
        role = np.where(indices >= n - 3, indices - (n - 7), role)
    return np.array(by_role)[role]


def _quadrature_weights(grid: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simpson weights of the grid and of the halved grid ``grid[::2]`` at
    the grid's ``indices``, 0 in the latter at an odd index, which it lacks."""
    n = len(grid)
    half = _simpson_weights((n + 1) // 2, float(grid[2] - grid[0]), indices // 2)
    return _simpson_weights(n, float(grid[1] - grid[0]), indices), half * (indices % 2 == 0)


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
    if not all(np.array_equal(f.grid, grid) for pair in pairs for f in pair):
        raise ValueError("all spectral functions must share one energy grid")

    total = 0.0
    for f_in, f_out in pairs:
        # as in second_order_rate, only where the integrand can be nonzero
        keep = np.flatnonzero((grid > 0) & (f_in.power != 0) & (f_out.power != 0))
        energies = grid[keep]
        # F1 in energy units (meV): (h MHz)^2-scaled power density
        f1_in, f1_out = (PLANCK_MEV_PER_MHZ**2 * f.power[keep] for f in (f_in, f_out))
        integrand = _occupancy_weight(energies, temperature) * f1_in * f1_out / energies**2
        total += _integrate_checked(integrand, energies, *_quadrature_weights(grid, keep),
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


def refit_theory_curve(curve: RamanRateCurve, t_max: float,
                       seed: int = DEFAULT_SEED) -> FitResult:
    """Fit the two-mode law (no constant floors) to a quadrature rate curve.

    The curve must extend to ``t_max``; uniform 1% relative errors weight
    all temperatures alike on a log scale, so only the lineshape matters.
    Every distinct minimum of the mode-energy profile is polished (see
    :func:`~nvrelax.fitting.fit`).  ``seed`` is only recorded by callers:
    the fit draws nothing at random.
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
    return fit(FitProblem(dataset=dataset, model=ModelSpec("n_mode", 2), constants="none"))


# Rows of grid values formatted at a time: a bound on the Python floats,
# strings and digit matrices alive at once while a grid is formatted.
_GRID_TEXT_CHUNK = 8192

# What follows each energy in the grid text: the row of a zero amplitude.
_ZERO_ROW = ",0.0\n"

# The text of the last grid formatted: (weakref to the grid, its text, its
# line offsets).  A grid's values never change (``SpectralFunction`` freezes
# it), so its identity keys the text; the weakref's callback empties the
# slot when the grid is freed.
_grid_text_slot: tuple[weakref.ref, str, np.ndarray] | None = None


def _drop_grid_text(ref: weakref.ref) -> None:
    global _grid_text_slot
    if _grid_text_slot is not None and _grid_text_slot[0] is ref:
        _grid_text_slot = None


def _decimal_places(grid: np.ndarray) -> int | None:
    """The fewest decimal places d at which the grid's step is a whole
    multiple of 10^-d, to within 1e-9 of itself, searched until the step
    reaches 10^6 such units; None when there is none (the 250/8333 meV step
    of the sigma = 0.3 default grid has none)."""
    step = (float(grid[-1]) - float(grid[0])) / (len(grid) - 1)
    for places in range(16):
        scaled = step * 10.0**places
        if abs(scaled - round(scaled)) <= 1e-9 * scaled:
            return places
        if scaled >= 1e6:
            break
    return None


def _repr_lines(values: np.ndarray) -> bytes:
    """``repr`` of each value, each followed by the zero row, in ASCII."""
    # a list's repr formats its floats in C, each one as repr(float)
    return (repr(values.tolist())[1:-1].replace(", ", _ZERO_ROW) + _ZERO_ROW).encode("ascii")


def _chunk_lines(values: np.ndarray, places: int | None) -> bytes:
    """``_repr_lines(values)``, with the values that are exact decimals of
    ``places`` decimal places written by numpy rather than by ``repr``.

    Such a value g has k = rint(g 10^d) < 10^15 and k / 10^d == g, the
    division correctly rounded.  Two different decimals of at most 15
    significant digits never round to the same double, so no shorter
    decimal than k 10^-d rounds to g, and ``repr(g)`` is k's digits with a
    point d places from the right, less the trailing zeros after the first
    fractional digit.  ``repr`` writes values below 1e-4 in exponent form,
    so they, 0, negative values and every other value keep ``repr``.

    The exact values' lines are laid out as rows of a digit matrix, of
    which one mask keeps the digits ``repr`` would write.  Each other row
    keeps a NUL in place of its value, and the values are spliced in there
    from one ``repr`` of a list.
    """
    if places is None:
        return _repr_lines(values)
    places = max(places, 1)             # repr writes one fractional digit
    scale = 10.0**places
    with np.errstate(all="ignore"):
        k = np.rint(values * scale)
        exact = (values >= 1e-4) & (k < 1e15) & (k / scale == values)
    if not exact.any():
        return _repr_lines(values)
    k = np.where(exact, k, 0.0).astype(np.int64)
    digits = max(len(str(int(k.max()))), places + 1)
    whole = digits - places                     # digits before the point
    cells = np.empty((len(values), digits + 1 + len(_ZERO_ROW)), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    cells[:, whole] = ord(".")
    cells[:, digits + 1:] = np.frombuffer(_ZERO_ROW.encode("ascii"), dtype=np.uint8)
    previous = np.zeros_like(k)
    for j in range(digits):
        power = 10 ** (digits - 1 - j)
        leading = k // power                    # k less the digits right of digit j
        column = j if j < whole else j + 1
        cells[:, column] = leading - 10 * previous + ord("0")
        # drop the leading zeros before the point's last digit, and the
        # trailing zeros after the first fractional digit
        if j < whole - 1:
            keep[:, column] = leading != 0
        elif j > whole:
            keep[:, column] = previous * (10 * power) != k
        previous = leading
    slow = np.flatnonzero(~exact)
    keep[slow, :digits + 1] = False
    keep[slow, 0] = True
    cells[slow, 0] = 0
    text = np.compress(keep.ravel(), cells.ravel()).tobytes()
    if not len(slow):
        return text
    lines = text.split(b"\0")
    spliced = [b""] * (2 * len(lines) - 1)
    spliced[::2] = lines
    spliced[1::2] = repr(values[slow].tolist())[1:-1].encode("ascii").split(b", ")
    return b"".join(spliced)


def _grid_text(grid: np.ndarray) -> tuple[str, np.ndarray]:
    """Each grid value's ``repr`` followed by the zero row ``,0.0``, as one
    newline-terminated line, all in one string, and the offsets of those
    lines in it: line i is ``text[offsets[i]:offsets[i + 1]]``.

    Values that are exact decimals at the decimal places of the grid's step
    (86% of the sigma = 0.01 default grid, 64% of the 0.05 meV one) are
    formatted by numpy, the others by ``repr`` (see ``_chunk_lines``); a
    grid whose step is not decimal is formatted by ``repr`` alone.  Formatted
    once per grid array, ``_GRID_TEXT_CHUNK`` values at a time, so the two
    channels that share the CLI's grid pay for its energy column once.
    """
    global _grid_text_slot
    slot = _grid_text_slot
    if slot is not None and slot[0]() is grid:
        return slot[1], slot[2]
    places = _decimal_places(grid)
    chunks, offsets, size = [], [np.zeros(1, dtype=np.intp)], 0
    for start in range(0, len(grid), _GRID_TEXT_CHUNK):
        chunk = _chunk_lines(grid[start:start + _GRID_TEXT_CHUNK], places)
        newlines = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == 10)
        offsets.append(newlines + (size + 1))
        size += len(chunk)
        # decoded chunk by chunk: decoding the joined bytes would hold
        # one more copy of the text
        chunks.append(chunk.decode("ascii"))
    offsets = np.concatenate(offsets, dtype=np.int32 if size < 2**31 else np.intp)
    offsets.flags.writeable = False
    text = "".join(chunks)
    _grid_text_slot = (weakref.ref(grid, _drop_grid_text), text, offsets)
    return text, offsets


def spectral_to_csv_text(f: SpectralFunction) -> str:
    """Energy/amplitude CSV of a spectral function for external plotting.

    The grid's text (``_grid_text``) already holds every row of an exact
    +0.0 amplitude, so each run of them up to the next other row (nonzero
    or -0.0) is written as one slice of it, and that row's line is cut
    before its ``,0.0`` and given its own amplitude.
    """
    text, offsets = _grid_text(f.grid)
    amplitude = f.amplitude
    rows = np.flatnonzero((amplitude != 0) | np.signbit(amplitude))
    # one growing copy, in place of the pieces and their join
    out = io.StringIO()
    out.write(_csv_text("energy_mev,amplitude_mhz_per_mev", [], {
        "channel": f.channel.value, "order": f.order, "sigma_mev": repr(f.sigma)}))
    done, cut = 0, len(_ZERO_ROW)
    for end, a in zip(offsets[rows + 1].tolist(), amplitude[rows].tolist()):
        out.write(text[done:end - cut])
        out.write(f",{a!r}\n")
        done = end
    out.write(text[done:])
    return out.getvalue()
