"""Broadened spin-phonon spectral functions and Raman rate quadrature.

Discrete per-mode coupling coefficients are smoothed into continuum
spectral functions with normalized Gaussians, then relaxation rates follow
by quadrature of the second-order Raman rate alone:

    Gamma = (4 pi / hbar) * integral de n(n+1) F(e, e)

over the samples where F(e, e) is nonzero (``SpectralFunction._support``).
First order is not integrated: it is smaller by (2 pi D / omega)^2, 3.0e-8
at 68.2 meV (``order_dominance_ratio``, criterion 9): coupling entries and
spectral functions carry no order, and a coupling CSV's order column must read 2.

``amplitude`` smooths |V| (the square-root convention; the second-order
spectral function is its square).  Amplitudes are in MHz and are converted
to energy via h before squaring, so the diagonal F(e, e) is dimensionless
and the 4 pi / hbar prefactor yields rates in 1/s.

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
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_SEED,
    HBAR_MEV_S,
    PLANCK_MEV_PER_MHZ,
    PLANCK_MEV_S,
    Dataset,
    RateMeasurement,
    TransitionChannel,
    _csv_field,
    _csv_rows,
    _csv_text,
    _require,
)
from .fitting import FitProblem, FitResult, ModelSpec, fit
from .models import _term_column

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
    message says to what spacing to refine it, or that no finer grid helps."""


def _require_channel(channel: object) -> None:
    """Raise a ``ValueError`` unless ``channel`` is a :class:`TransitionChannel`."""
    if not isinstance(channel, TransitionChannel):
        raise ValueError(f"channel must be a TransitionChannel, got {channel!r}")


@dataclass(frozen=True)
class CouplingEntry:
    """One discrete spin-phonon coupling coefficient."""

    mode_energy: float          # meV
    amplitude: float            # MHz
    channel: TransitionChannel

    def __post_init__(self) -> None:
        _require({"mode_energy": self.mode_energy})
        if not 0.0 < self.mode_energy <= MAX_MODE_ENERGY_MEV:
            raise ValueError(
                f"mode energy must lie in (0, {MAX_MODE_ENERGY_MEV:g}] meV, "
                f"got {self.mode_energy}"
            )
        _require({"amplitude": self.amplitude}, "nonnegative")
        _require_channel(self.channel)


@dataclass(frozen=True)
class CouplingTable:
    """A flat list of coupling entries, as produced by supercell calculations."""

    entries: tuple[CouplingEntry, ...]

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "entries", tuple(self.entries))
        except TypeError:
            raise ValueError(f"entries must be a sequence of CouplingEntry, "
                             f"got {self.entries!r}") from None
        for i, entry in enumerate(self.entries):
            if not isinstance(entry, CouplingEntry):
                raise ValueError(f"entries[{i}] must be a CouplingEntry, got {entry!r}")

    def for_channel(self, channel: TransitionChannel) -> tuple[CouplingEntry, ...]:
        """Entries of one channel, sorted by energy."""
        selected = [e for e in self.entries if e.channel == channel]
        return tuple(sorted(selected, key=lambda e: e.mode_energy))

    def to_csv_text(self) -> str:
        return _csv_text(COUPLING_CSV_HEADER, [
            f"{e.mode_energy!r},{e.amplitude!r},{e.channel.value},2"
            for e in self.entries])


def parse_coupling_text(text: str) -> CouplingTable:
    """Parse coupling CSV (header ``energy_mev,amplitude_mhz,channel,order``);
    a row whose order is not 2 is refused, naming its line and its text."""
    entries = []
    for lineno, fields in _csv_rows(text, COUPLING_CSV_HEADER, "coupling table", ValueError):
        energy, amplitude, channel, order = fields
        energy = _csv_field(energy, float, lineno, "energy_mev", ValueError)
        amplitude = _csv_field(amplitude, float, lineno, "amplitude_mhz", ValueError)
        order = _csv_field(order, int, lineno, "order", ValueError)
        try:
            if order != 2:
                raise ValueError(f"{','.join(fields)!r} is an order-{order} coupling; "
                                 "spectral integrates the second-order rate alone")
            entries.append(CouplingEntry(energy, amplitude, TransitionChannel.parse(channel)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return CouplingTable(entries=entries)


def anchor_coupling_table() -> CouplingTable:
    """The two strongest quasilocalized E-mode couplings of a 512-atom
    supercell.

    The 62.4 meV mode carries 2 MHz (double-quantum) and 0.6 MHz
    (single-quantum); the 160.7 meV mode carries 0.34 and 0.07 MHz.
    """
    sq = TransitionChannel.SINGLE_QUANTUM
    dq = TransitionChannel.DOUBLE_QUANTUM
    return CouplingTable(
        entries=(
            CouplingEntry(62.4, 0.6, sq),
            CouplingEntry(62.4, 2.0, dq),
            CouplingEntry(160.7, 0.07, sq),
            CouplingEntry(160.7, 0.34, dq),
        ),
    )


def default_grid(sigma: float) -> np.ndarray:
    """Energy grid 0-250 meV (band edge plus margin) that resolves peaks of
    width ``sigma``: 0.05 meV spacing, or sigma/10 for sigma below 0.5 meV,
    so that the quadrature error check is met."""
    _require({"broadening width sigma": sigma}, "positive")
    try:
        # the count is inf below sigma ~ 1.4e-305, a division by 0 below ~ 5e-323
        n = int(round(MAX_MODE_ENERGY_MEV / min(0.05, sigma / 10.0))) + 1
        return np.linspace(0.0, MAX_MODE_ENERGY_MEV, n)
    except (ArithmeticError, ValueError, MemoryError):
        raise ValueError(f"broadening width sigma = {sigma!r} meV needs a grid of spacing "
                         "sigma/10, which has more samples than can be allocated") from None


def _frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``: no caller holds it or a view of it."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def _require_samples(grid: np.ndarray) -> None:
    """Refuse a grid that is not a 1-D array of at least 5 samples."""
    if grid.ndim != 1 or len(grid) < 5:
        raise ValueError("grid must be a 1-D array with at least 5 samples")


def _gaussian(x: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


# half-width, in sigmas, of the grid window a Gaussian is evaluated on:
# exp(-x^2 / 2) underflows to exactly 0 beyond x = 38.61
_GAUSSIAN_REACH = 40.0


def _broadened(grid: np.ndarray | None, sigma: float,
               peaks: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """(grid, sum of weight times the normalized Gaussian of width ``sigma``
    at center over the (center, weight) ``peaks``, in order), the grid
    ``default_grid(sigma)`` when None.

    The grid must be 1-D, of at least 5 samples, and reach from 0 to 5 sigma
    above the highest center: a Gaussian it cuts off would lose its area
    silently.  Each Gaussian is evaluated only within ``_GAUSSIAN_REACH``
    sigmas of its center: it is exactly 0 beyond, where it would add no bit."""
    _require({"broadening width sigma": sigma}, "positive")
    grid = default_grid(sigma) if grid is None else np.asarray(grid, dtype=float)
    _require_samples(grid)
    top = max(center for center, _ in peaks)
    if grid[0] > 0.0 or grid[-1] < top + 5.0 * sigma:
        raise ValueError(
            f"grid must cover [0, {top + 5.0 * sigma:g}] meV, got [{grid[0]:g}, {grid[-1]:g}]: "
            f"the highest center {top:g} meV plus a 5 sigma margin of "
            f"{5.0 * sigma:g} meV at sigma = {sigma:g} meV")
    out = np.zeros_like(grid)
    reach = _GAUSSIAN_REACH * sigma
    for center, weight in peaks:
        lo, hi = np.searchsorted(grid, (center - reach, center + reach)).tolist()
        out[lo:hi] += weight * _gaussian(grid[lo:hi] - center, sigma)
    return grid, out


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """Broadened spectral content of one channel on a uniform energy grid.

    ``amplitude`` is the square-root convention (sum of |V| Gaussians,
    MHz/meV).

    ``grid`` and ``amplitude`` are read-only copies of the arrays passed
    in: a caller's array is neither kept nor frozen, and no write to it
    reaches the function.  Two caches rely on that: ``_support``, the rate
    integrand's samples and weights, built once per function, and the CSV
    writer's grid text, shared by every function whose grid has the same
    bits.
    """

    grid: np.ndarray            # meV, ascending, uniform
    amplitude: np.ndarray       # MHz / meV
    channel: TransitionChannel
    sigma: float                # meV

    def __post_init__(self) -> None:
        grid, amplitude = _frozen(self.grid), _frozen(self.amplitude)
        _require_samples(grid)
        _require({"grid": grid})
        spacing = np.diff(grid)
        lowest, highest, first = spacing.min(), spacing.max(), spacing[0]
        if lowest <= 0:
            raise ValueError("grid must be strictly ascending")
        # np.allclose(spacing, first, rtol=1e-9, atol=1e-12), without its temporaries
        tolerance = 1e-12 + 1e-9 * abs(first)
        if not (highest - first <= tolerance and first - lowest <= tolerance):
            raise ValueError("grid must be uniformly spaced")
        if amplitude.shape != grid.shape:
            raise ValueError("amplitude must match the grid shape")
        _require({"amplitude": amplitude}, "nonnegative")
        _require({"broadening width sigma": self.sigma}, "positive")
        _require_channel(self.channel)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "amplitude", amplitude)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def diagonal_values(self) -> np.ndarray:
        """Dimensionless F(e, e): the squared amplitude in energy units."""
        return (PLANCK_MEV_PER_MHZ * self.amplitude) ** 2

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Energies, the rate integrand's w(e) = F(e, e) and the full- and
        halved-grid Simpson weights on the samples where w != 0, built once.
        The other samples would add exactly 0 to every quadrature sum, so no
        weight is computed for them."""
        values = self.diagonal_values()
        keep = np.flatnonzero(values)
        return (self.grid[keep], values[keep], *_quadrature_weights(self.grid, keep))


def build_spectral_function(
    table: CouplingTable,
    channel: TransitionChannel,
    sigma: float,
    grid: np.ndarray | None = None,
) -> SpectralFunction:
    """Smooth the couplings of one channel into a spectral function.

    ``amplitude(e) = sum_l |V_l| Gaussian(e - e_l; sigma)`` with a
    normalized Gaussian.  The grid must be 1-D, of at least 5 samples, and
    cover the couplings with 5 sigma of margin.
    Each Gaussian is evaluated only on the grid within 40 sigma of its
    center (``_broadened``); it is exactly 0 beyond.
    """
    _require_channel(channel)
    entries = table.for_channel(channel)
    if not entries:
        raise ValueError(f"no coupling entries for channel {channel.value!r}, order 2")
    grid, amplitude = _broadened(grid, sigma, [(e.mode_energy, e.amplitude) for e in entries])
    return SpectralFunction(grid=grid, amplitude=amplitude, channel=channel, sigma=sigma)


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
    must be 1-D, of at least 5 samples, and cover the peaks with 5 sigma of
    margin, as for :func:`build_spectral_function`.

    Broad peaks leave a Gaussian tail at zero energy where the occupation
    weight grows as 1/e^2 and would make the rate integral ill-posed, so F
    is always multiplied by the smooth factor 1 - exp(-e^2 / (2 w^2)) with
    w = 10 meV: couplings to long-wavelength acoustic phonons vanish
    quadratically.
    """
    if not peaks:
        raise ValueError("at least one peak is required")
    for center, area in peaks:
        _require({"peak center": center}, "positive")
        _require({"peak area": area}, "nonnegative")
    grid, f_diag = _broadened(grid, sigma, peaks)
    f_diag *= -np.expm1(-0.5 * (grid / _LOW_ENERGY_WINDOW_MEV) ** 2)
    amplitude = np.sqrt(f_diag) / PLANCK_MEV_PER_MHZ
    return SpectralFunction(grid=grid, amplitude=amplitude, channel=channel, sigma=sigma)


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


# The occupancy weight n(n+1) of the last support integrated: (weakref to
# the support's energies, the temperature, the weight).  A support's energies
# never change (``SpectralFunction._support`` is built once from a frozen
# grid), so a support of the same bits at the same temperature, as the other
# channel's often is, reuses the weight; the weakref's callback empties the
# slot when the energies are freed.
_weight_slot: tuple[weakref.ref, float, np.ndarray] | None = None


def _drop_weight(ref: weakref.ref) -> None:
    global _weight_slot
    if _weight_slot is not None and _weight_slot[0] is ref:
        _weight_slot = None


def _occupancy_weight(energies: np.ndarray, temperature: float) -> np.ndarray:
    """Read-only n(n+1) at ``energies`` (ascending), 0 at e <= 0, refused
    unless finite; the last support's weight when it has these bits and this
    temperature."""
    global _weight_slot
    slot = _weight_slot
    kept = slot and slot[0]()
    if (kept is not None and slot[1] == temperature
            and np.array_equal(kept.view(np.int64), energies.view(np.int64))):
        return slot[2]
    start = int(np.searchsorted(energies, 0.0, side="right"))
    # e / k_B T is inf at a subnormal T (k_B T may round to 0): n = 0
    with np.errstate(over="ignore", divide="ignore"):
        weight = _term_column(energies[start:], temperature)
    if start:
        weight = np.concatenate((np.zeros(start), weight))
    if not np.isfinite(weight).all():
        raise ValueError(f"n(n+1) is not finite at temperature {temperature!r} K")
    weight.flags.writeable = False
    _weight_slot = (weakref.ref(energies, _drop_weight), temperature, weight)
    return weight


def _integrate_checked(f: SpectralFunction, temperature: float) -> tuple[float, float]:
    """Simpson quadrature of n(n+1) w(e) over ``f._support``, with a
    halved-grid Richardson error check; n(n+1) is 0 at e <= 0.  The weight
    comes from ``_occupancy_weight``, so a channel pair whose supports hold
    the same energies pays for one n(n+1) per temperature when integrated in
    turn at each temperature, as :func:`rate_curve` does.

    Returns the integral and the relative error estimate reached.
    """
    energies, values, full_weights, half_weights = f._support
    weight = _occupancy_weight(energies, temperature)
    integrand = weight * values
    full = float(full_weights @ integrand)
    half = float(half_weights @ integrand)
    if full == 0.0 and half == 0.0:
        return 0.0, 0.0
    # Simpson converges as h^4, so comparing against the double-spacing
    # result overestimates the fine-grid error by 15x
    error = abs(full - half) / 15.0
    if error > QUADRATURE_REL_TOL * abs(full):
        # n(n+1) grows as 1/e^2: where w does not vanish at e = 0, the sample
        # nearest zero alone outweighs the tolerance and grows as h shrinks
        spacing = f.spacing
        nearest_zero = integrand[(energies > 0.0) & (energies <= spacing)]
        refinable = not np.any(nearest_zero * spacing > QUADRATURE_REL_TOL * abs(full))
        advice = (f"refine the energy grid to spacing <= {spacing / 2.0:g} meV" if refinable
                  else "the integrand grows towards e = 0, where the spectral function "
                       "does not vanish, so refining the energy grid will not help")
        raise QuadratureError(
            f"quadrature error estimate {error / abs(full):.2e} above relative "
            f"tolerance {QUADRATURE_REL_TOL:g}; {advice}")
    return full, error / abs(full)


class QuadratureRate(float):
    """A quadrature rate in 1/s that also carries ``rel_error``, the
    Richardson relative error estimate reached for it."""

    __slots__ = ("rel_error",)

    def __new__(cls, rate: float, rel_error: float):
        self = super().__new__(cls, rate)
        self.rel_error = rel_error
        return self


def _temperature(value: object) -> float:
    """``value`` as a float once it is checked to be one positive number (a
    numpy scalar or 0-d array passes, a sequence does not)."""
    _require({"temperature": value}, "positive")
    if np.ndim(value):
        raise ValueError(f"temperature must be one number, got {value!r}")
    return float(value)


def second_order_rate(f: SpectralFunction, temperature: float) -> QuadratureRate:
    """Second-order Raman rate (4 pi / hbar) * integral de n(n+1) F(e, e).

    Only the samples where F != 0 are integrated (``_integrate_checked``).
    The result is a float that also carries the Richardson relative error
    estimate reached, as ``rel_error``.
    """
    integral, rel_error = _integrate_checked(f, _temperature(temperature))
    return QuadratureRate(4.0 * math.pi / HBAR_MEV_S * integral, rel_error)


def order_dominance_ratio(d_ghz: float, phonon_energy_mev: float) -> float:
    """(2 pi D / omega)^2: zero-field splitting over phonon frequency, squared.

    Quantifies why first-order contributions are negligible: the spin
    splitting (GHz) is tiny against phonon energies (tens of meV).
    """
    _require({"zero-field splitting d_ghz": d_ghz}, "nonnegative")
    _require({"phonon energy phonon_energy_mev": phonon_energy_mev}, "positive")
    return (PLANCK_MEV_S * d_ghz * 1e9 / phonon_energy_mev) ** 2


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
        _require({"omega": self.omega, "gamma": self.gamma,
                  "omega_rel_error": self.omega_rel_error,
                  "gamma_rel_error": self.gamma_rel_error}, "nonnegative")

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
    """Pointwise second-order rates for both channels over a temperature grid,
    a sequence (or 1-D array) of positive numbers, each checked by name.

    At each temperature the single-quantum rate is integrated, then the
    double-quantum one, so that two channels whose supports hold the same
    energies share one occupancy weight per temperature (``_integrate_checked``).
    """
    if (isinstance(t_grid, (str, bytes)) or not isinstance(t_grid, (Sequence, np.ndarray))
            or getattr(t_grid, "ndim", 1) != 1):
        raise ValueError(f"t_grid must be a sequence of temperatures, got {t_grid!r}")
    temps = tuple(map(_temperature, t_grid))
    omega, gamma = [], []
    for t in temps:
        omega.append(second_order_rate(f_sq, t))
        gamma.append(second_order_rate(f_dq, t))
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

    The curve must extend to ``t_max``, and its rows above ``t_max`` are
    neither checked nor fitted; uniform 1% relative errors weight
    all temperatures alike on a log scale, so only the lineshape matters.
    Every distinct minimum of the mode-energy profile is polished (see
    :func:`~nvrelax.fitting.fit`).  ``seed`` is only recorded by callers:
    the fit draws nothing at random.
    """
    _require({"t_max": t_max}, "positive")
    if not curve.temperatures:
        raise ValueError(f"curve has no temperatures but t_max={t_max:g} K")
    if max(curve.temperatures) < t_max:
        raise ValueError(
            f"curve reaches only {max(curve.temperatures):g} K but t_max={t_max:g} K"
        )
    curve = RamanRateCurve(*(tuple(x for t, x in zip(curve.temperatures, xs) if t <= t_max)
                             for xs in (curve.temperatures, curve.omega, curve.gamma)),
                           provenance=curve.provenance)
    for t, o, g in zip(curve.temperatures, curve.omega, curve.gamma):
        if _THEORY_REL_ERR * min(o, g) == 0.0:
            raise ValueError(f"a rate at temperature {t!r} K is too small to weight: "
                             f"its {_THEORY_REL_ERR:.0%} error is 0")
    return fit(FitProblem(dataset=curve.to_dataset(), model=ModelSpec("n_mode", 2),
                          constants="none"))


# Rows of grid values formatted at a time: a bound on the Python floats,
# strings and digit matrices alive at once while a grid is formatted (its
# values are classified in one pass, by ``_decimal_rows``).
_GRID_TEXT_CHUNK = 8192

# What follows each energy in the grid text: the row of a zero amplitude.
_ZERO_ROW = ",0.0\n"

# The text of the last grid formatted: (weakref to the grid, its text, its
# line offsets).  A grid's values never change (``SpectralFunction`` holds a
# frozen copy), so every grid of the same bits shares the text; the
# weakref's callback empties the slot when the grid is freed.
_grid_text_slot: tuple[weakref.ref, str, np.ndarray] | None = None


def _drop_grid_text(ref: weakref.ref) -> None:
    global _grid_text_slot
    if _grid_text_slot is not None and _grid_text_slot[0] is ref:
        _grid_text_slot = None


def _decimal_places(grid: np.ndarray) -> int | None:
    """The fewest decimal places d >= 1 at which the grid's step is a whole
    multiple of 10^-d, to within 1e-12 of itself, searched while the step is
    under 10^6 such units (sigma = 0.07's 250/35714 meV is 7000056.0004 units
    of 10^-9); None when there is none, as for sigma = 0.3's 250/8333 meV and
    sigma = 0.35's 250/7143 meV (349993.00014 units of 10^-7, 4e-10 of
    itself off a whole number)."""
    step = (float(grid[-1]) - float(grid[0])) / (len(grid) - 1)
    for places in range(16):
        scaled = step * 10.0**places
        if scaled >= 1e6:
            break
        if abs(scaled - round(scaled)) <= 1e-12 * scaled:
            return max(places, 1)       # repr writes one fractional digit
    return None


def _repr_lines(values: np.ndarray) -> bytes:
    """``repr`` of each value, each followed by the zero row, in ASCII."""
    # a list's repr formats its floats in C, each one as repr(float)
    return (repr(values.tolist())[1:-1].replace(", ", _ZERO_ROW) + _ZERO_ROW).encode("ascii")


# Veltkamp's constant 2^27 + 1, which splits a double into two halves whose
# products are exact (Dekker's two-product)
_SPLIT = 134217729.0

# 5^j, each exact; the last m tried is 21, the largest with 8 5^m < 2^53
_POW5 = np.array([5**j for j in range(22)], dtype=float)

# What follows the d places of a value of offset code 10 j + c (c = 1...9):
# j - 1 zeros and the digit c; b"" for the other codes
_TAILS = np.array([b"0" * (code // 10 - 1) + b"%d" % (code % 10)
                   if code % 10 and code >= 10 else b"" for code in range(10 * len(_POW5))],
                  dtype=object)


def _offset_codes(values: np.ndarray, places: int) -> np.ndarray:
    """For each value v, positive and normal, that is not the decimal
    k 10^-d nearest it (d = ``places``): 10 (m - d) + c when ``repr(v)`` is
    k's digits with all d places, m - d - 1 zeros and the digit c; 0 when
    that cannot be shown.

    With u = ulp(v), e = 2 (v 10^d - k) / (u 2^d) is an integer, computed
    exactly from Dekker's two-product while |e| < 8 5^d.  At m places the
    decimal nearest v is k 10^-d + c 10^-m with c = rint(e 5^(m-d) / P),
    P = 2^(1-m) / u, and it rounds to v iff |c P - e 5^(m-d)| <= 5^m (<
    when v's last bit is odd, as rounding breaks ties to even), every
    product exact for m <= 21.  c is 0, and k 10^-d does not round to v,
    until v - k 10^-d reaches half of 10^-m; from there on the first m that
    passes gives the shortest decimal that rounds to v, and the nearest of
    its length: ``repr(v)``.  Two m are tried, from the m at which c first
    reaches 1 as logarithms place it, checked by c = 0 one place before.
    A tie in either rint, a power of two (whose rounding interval is
    lopsided), a value below k 10^-d and c outside 1-9 keep code 0.
    """
    scale = 10.0**places
    hi = _SPLIT * values
    hi -= hi - values
    lo = values - hi
    scale_hi = _SPLIT * scale - (_SPLIT * scale - scale)
    scale_lo = scale - scale_hi
    product = values * scale
    error = ((hi * scale_hi - product) + hi * scale_lo + lo * scale_hi) + lo * scale_lo
    k = np.rint(product)
    ulp = np.spacing(values)
    e = ((product - k) + error) / (ulp * 2.0**(places - 1))
    bits = values.view(np.int64)
    # a power of two has no mantissa bits below its sign and exponent
    shown = (np.abs(product - k) < 0.5) & (e > 0) & (e < 8 * _POW5[places]) & (bits << 12 != 0)
    e, inverse, odd = e[shown], 1.0 / ulp[shown], bits[shown] & 1 == 1
    first = np.ceil(np.log10(_POW5[places] * inverse / e))
    first = np.clip(first, places + 1, len(_POW5) - 2).astype(np.int32)
    # (v - k 10^-d) 10^first <= 5: c is 0 one place before ``first``
    todo = e * _POW5[first - places] <= 5 * np.ldexp(inverse, 1 - first)
    found = np.zeros(len(e), dtype=np.uint8)
    for m in (first, first + 1):
        power = np.ldexp(inverse, 1 - m)
        target = e * _POW5[m - places]
        quotient = target / power               # (v - k 10^-d) 10^m
        c = np.rint(quotient)
        miss = np.abs(c * power - target)
        bound = _POW5[m]
        fits = (miss < bound) | ((miss == bound) & ~odd)
        proven = todo & fits & (c <= 9) & (np.abs(quotient - c) != 0.5)
        found[proven] = (10 * (m - places) + c)[proven]
        todo &= ~fits
    codes = np.zeros(len(values), dtype=np.uint8)
    codes[shown] = found
    return codes


def _decimal_rows(values: np.ndarray, places: int) -> tuple[np.ndarray, np.ndarray]:
    """Which values at and above 1e-4 are exact decimals of ``places``
    decimal places, and the ``_offset_codes`` of the others (0 below 1e-4),
    for the whole grid in one pass."""
    scale = 10.0**places
    with np.errstate(all="ignore"):
        k = np.rint(values * scale)
        written = (values >= 1e-4) & (k < 1e15)
        decimal = k / scale == values
    candidates = written & ~decimal
    codes = np.zeros(len(values), dtype=np.uint8)
    codes[candidates] = _offset_codes(values[candidates], places)
    return written & decimal, codes


def _chunk_lines(values: np.ndarray, places: int, exact: np.ndarray,
                 codes: np.ndarray) -> bytes:
    """``_repr_lines(values)``, with the values that ``exact`` marks as
    exact decimals of ``places`` decimal places, and those that ``codes``
    writes as such a decimal, zeros and one more digit, written by numpy.

    An exact decimal g has k = rint(g 10^d) < 10^15 and k / 10^d == g, the
    division correctly rounded.  Two different decimals of at most 15
    significant digits never round to the same double, so no shorter
    decimal than k 10^-d rounds to g, and ``repr(g)`` is k's digits with a
    point d places from the right, less the trailing zeros after the first
    fractional digit.  A coded value keeps all d places, followed by the
    tail of its code (``_offset_codes``).  ``repr`` writes values below
    1e-4 in exponent form, so they, 0, negative values and every other value
    keep ``repr``.

    The lines are laid out as rows of a digit matrix, of which one mask
    keeps the characters ``repr`` would write.  A coded row keeps a NUL
    where its tail goes, each other row a NUL in place of its line, and
    the tails and the ``_repr_lines`` of those rows are spliced in there.
    """
    coded = codes != 0
    fast = exact | coded
    with np.errstate(all="ignore"):
        k = np.where(fast, np.rint(values * 10.0**places), 0.0).astype(np.int64)
    digits = max(len(str(int(k.max()))), places + 1)
    whole = digits - places                     # digits before the point
    cells = np.empty((len(values), digits + 2 + len(_ZERO_ROW)), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    cells[:, whole] = ord(".")
    cells[:, digits + 1] = 0                    # where a coded value's tail goes
    keep[:, digits + 1] = coded
    cells[:, digits + 2:] = np.frombuffer(_ZERO_ROW.encode("ascii"), dtype=np.uint8)
    previous = np.zeros_like(k)
    for j in range(digits):
        power = 10 ** (digits - 1 - j)
        leading = k // power                    # k less the digits right of digit j
        column = j if j < whole else j + 1
        cells[:, column] = leading - 10 * previous + ord("0")
        # drop the leading zeros before the point's last digit, and an
        # exact value's trailing zeros after the first fractional digit
        if j < whole - 1:
            keep[:, column] = leading != 0
        elif j > whole:
            keep[:, column] = (previous * (10 * power) != k) | coded
        previous = leading
    slow = np.flatnonzero(~fast)
    keep[slow] = False
    keep[slow, 0] = True
    cells[slow, 0] = 0
    text = np.compress(keep.ravel(), cells.ravel()).tobytes()
    marked = codes[~exact]                      # the code of each NUL, in order
    inserts = _TAILS[marked]
    if len(slow):
        inserts[marked == 0] = _repr_lines(values[slow]).splitlines(keepends=True)
    lines = text.split(b"\0")
    spliced = [b""] * (2 * len(lines) - 1)
    spliced[::2] = lines
    spliced[1::2] = inserts.tolist()
    return b"".join(spliced)


def _grid_text(grid: np.ndarray) -> tuple[str, np.ndarray]:
    """Each grid value's ``repr`` followed by the zero row ``,0.0``, as one
    newline-terminated line, all in one string, and the offsets of those
    lines in it: line i is ``text[offsets[i]:offsets[i + 1]]``.

    Values that are exact decimals at the decimal places d of the grid's
    step (86% of the sigma = 0.01 default grid, 64% of the 0.05 meV one),
    and values a few ulps above one whose ``repr`` is that decimal followed
    by zeros and one nonzero digit (the other 14% and 36%, all but 0.0),
    are formatted by numpy, the others by ``repr`` (see ``_chunk_lines``);
    a grid whose step is not decimal is formatted by ``repr`` alone.  Any
    other grid is classified in one pass (``_decimal_rows``), then formatted
    ``_GRID_TEXT_CHUNK`` values at a time.  While the last grid formatted
    lives, a grid of its bits (-0.0 equals 0.0 but is written apart) reuses
    its text, so the CLI's two channels pay for their copies of one grid once.
    """
    global _grid_text_slot
    slot = _grid_text_slot
    kept = slot and slot[0]()
    if kept is not None and np.array_equal(kept.view(np.int64), grid.view(np.int64)):
        return slot[1], slot[2]
    places = _decimal_places(grid)
    if places is not None:
        exact, codes = _decimal_rows(grid, places)
    chunks, offsets, size = [], [np.zeros(1, dtype=np.intp)], 0
    for start in range(0, len(grid), _GRID_TEXT_CHUNK):
        rows = slice(start, start + _GRID_TEXT_CHUNK)
        chunk = (_repr_lines(grid[rows]) if places is None
                 else _chunk_lines(grid[rows], places, exact[rows], codes[rows]))
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
        "channel": f.channel.value, "order": 2, "sigma_mev": repr(f.sigma)}))
    done, cut = 0, len(_ZERO_ROW)
    for end, a in zip(offsets[rows + 1].tolist(), amplitude[rows].tolist()):
        out.write(text[done:end - cut])
        out.write(f",{a!r}\n")
        done = end
    out.write(text[done:])
    return out.getvalue()
