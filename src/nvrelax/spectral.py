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
from scipy.integrate import simpson

from .core import (
    BOLTZMANN_MEV_PER_K,
    DEFAULT_SEED,
    HBAR_MEV_S,
    PLANCK_MEV_PER_MHZ,
    Dataset,
    RateMeasurement,
    TransitionChannel,
    _content_lines,
    _require_finite,
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


class QuadratureError(RuntimeError):
    """Energy grid too coarse for the requested quadrature tolerance."""

    def __init__(self, message: str, suggested_spacing: float):
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
        _require_finite({"mode_energy": self.mode_energy, "amplitude": self.amplitude})
        if not 0.0 < self.mode_energy <= MAX_MODE_ENERGY_MEV:
            raise ValueError(
                f"mode energy must lie in (0, {MAX_MODE_ENERGY_MEV:g}] meV, "
                f"got {self.mode_energy}"
            )
        if self.amplitude < 0:
            raise ValueError(f"coupling amplitude must be >= 0, got {self.amplitude}")
        if self.order not in (1, 2):
            raise ValueError(f"interaction order must be 1 or 2, got {self.order}")


@dataclass(frozen=True)
class CouplingTable:
    """A flat list of coupling entries, as produced by supercell calculations."""

    entries: tuple[CouplingEntry, ...]
    supercell_note: str = ""

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def for_channel(self, channel: TransitionChannel, order: int) -> tuple[CouplingEntry, ...]:
        """Entries of one channel and interaction order, sorted by energy."""
        selected = [e for e in self.entries if e.channel == channel and e.order == order]
        return tuple(sorted(selected, key=lambda e: e.mode_energy))

    def to_csv_text(self) -> str:
        lines = [COUPLING_CSV_HEADER]
        for e in self.entries:
            lines.append(f"{e.mode_energy!r},{e.amplitude!r},{e.channel.value},{e.order}")
        return "\n".join(lines) + "\n"


def parse_coupling_text(text: str, supercell_note: str = "") -> CouplingTable:
    """Parse coupling CSV (header ``energy_mev,amplitude_mhz,channel,order``)."""
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty coupling table")
    header = lines[0][1].strip()
    if header != COUPLING_CSV_HEADER:
        raise ValueError(f"bad coupling header {header!r}; expected {COUPLING_CSV_HEADER!r}")
    entries = []
    for lineno, line in lines[1:]:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 4:
            raise ValueError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        try:
            entries.append(CouplingEntry(
                mode_energy=float(fields[0]),
                amplitude=float(fields[1]),
                channel=TransitionChannel.parse(fields[2]),
                order=int(fields[3]),
            ))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return CouplingTable(entries=tuple(entries), supercell_note=supercell_note)


def anchor_coupling_table() -> CouplingTable:
    """The two strongest quasilocalized-mode couplings (order 2).

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
        supercell_note="strongest quasilocalized E modes, 512-atom supercell",
    )


def default_grid() -> np.ndarray:
    """Energy grid 0-250 meV, 0.05 meV spacing (band edge plus margin)."""
    return np.linspace(0.0, MAX_MODE_ENERGY_MEV, 5001)


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
        if np.any(amplitude < 0):
            raise ValueError("amplitude must be nonnegative everywhere")
        if self.sigma <= 0:
            raise ValueError(f"broadening width must be positive, got {self.sigma}")
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
            if np.any(power < 0):
                raise ValueError("power must be nonnegative everywhere")
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
    if sigma <= 0:
        raise ValueError(f"broadening width must be positive, got {sigma}")
    entries = table.for_channel(channel, order)
    if not entries:
        raise ValueError(f"no coupling entries for channel {channel.value!r}, order {order}")
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
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
    low_energy_window_mev: float | None = 10.0,
) -> SpectralFunction:
    """Spectral function whose diagonal F(e, e) is a sum of Gaussian peaks.

    Each peak is (center meV, area meV): the dimensionless F integrates to
    the given area, so the zero-width limit of the second-order rate is the
    Orbach-like term (4 pi / hbar) * area * n(n+1) at the center energy.
    Used for delta-function oracles and pipeline-bias studies.

    Broad peaks leave a Gaussian tail at zero energy where the occupation
    weight grows as 1/e^2 and would make the rate integral ill-posed, so F
    is multiplied by the smooth factor 1 - exp(-e^2 / (2 w^2)): couplings
    to long-wavelength acoustic phonons vanish quadratically.  Pass
    ``low_energy_window_mev=None`` to disable.
    """
    if sigma <= 0:
        raise ValueError(f"broadening width must be positive, got {sigma}")
    if not peaks:
        raise ValueError("at least one peak is required")
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    f_diag = np.zeros_like(grid)
    for center, area in peaks:
        if center <= 0 or area < 0:
            raise ValueError("peak centers must be positive and areas nonnegative")
        f_diag += area * _gaussian(grid - center, sigma)
    if low_energy_window_mev is not None:
        if low_energy_window_mev <= 0:
            raise ValueError("suppression window must be positive")
        f_diag *= -np.expm1(-0.5 * (grid / low_energy_window_mev) ** 2)
    amplitude = np.sqrt(f_diag) / PLANCK_MEV_PER_MHZ
    return SpectralFunction(grid=grid, amplitude=amplitude, channel=channel,
                            order=2, sigma=sigma, power=None)


def two_peak_reference_functions(
    sigma: float, grid: np.ndarray | None = None
) -> tuple[SpectralFunction, SpectralFunction]:
    """Two-peak (65 and 155 meV) test functions for both rate channels.

    Peak areas are chosen so the zero-width limit reproduces a two-mode
    rate law with coefficients 70/169 (single-quantum) and 910/2940
    (double-quantum) 1/s; the broadened versions feed the sweep-and-refit
    bias pipeline.
    """
    scale = HBAR_MEV_S / (4.0 * math.pi)
    sq_peaks = [(c, scale * a) for c, a in zip(_REFERENCE_PEAKS_MEV, _REFERENCE_SQ_RATES)]
    dq_peaks = [(c, scale * b) for c, b in zip(_REFERENCE_PEAKS_MEV, _REFERENCE_DQ_RATES)]
    f_sq = synthetic_peak_function(sq_peaks, sigma, TransitionChannel.SINGLE_QUANTUM, grid)
    f_dq = synthetic_peak_function(dq_peaks, sigma, TransitionChannel.DOUBLE_QUANTUM, grid)
    return f_sq, f_dq


def _occupancy_weight(grid: np.ndarray, temperature: float) -> np.ndarray:
    """n(n+1) over the energy grid; the zero-energy sample contributes 0."""
    weight = np.zeros_like(grid)
    positive = grid > 0
    n = _bose_einstein(grid[positive] / (BOLTZMANN_MEV_PER_K * temperature))
    weight[positive] = n * (n + 1.0)
    return weight


def _simpson_weights(grid: np.ndarray) -> np.ndarray:
    """Vector w with ``w @ y == simpson(y, x=grid)`` on a uniform grid.

    The templates are read off scipy: ``simpson(np.eye(3), dx=h)`` weighs
    one pair of intervals, and ``simpson(np.eye(4), dx=h)`` less that pair
    is the Cartwright correction scipy adds for the last interval of an
    even sample count.
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


def _integrate_checked(integrand: np.ndarray, full_weights: np.ndarray,
                       half_weights: np.ndarray, spacing: float) -> tuple[float, float]:
    """Simpson quadrature with a halved-grid Richardson error check.

    Returns the integral and the relative error estimate reached.
    """
    full = float(full_weights @ integrand)
    half = float(half_weights @ integrand)
    if full == 0.0 and half == 0.0:
        return 0.0, 0.0
    # Simpson converges as h^4, so comparing against the double-spacing
    # result overestimates the fine-grid error by 15x
    error = abs(full - half) / 15.0
    if error > QUADRATURE_REL_TOL * abs(full):
        raise QuadratureError(
            f"quadrature error estimate {error / abs(full):.2e} above relative "
            f"tolerance {QUADRATURE_REL_TOL:g}; refine the energy grid to "
            f"spacing <= {spacing / 2.0:g} meV",
            suggested_spacing=spacing / 2.0,
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
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    energies, values, full_weights, half_weights = f._diagonal_support
    integrand = _occupancy_weight(energies, temperature) * values
    integral, rel_error = _integrate_checked(integrand, full_weights, half_weights,
                                             f.spacing)
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
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
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
        total += _integrate_checked(integrand, full_weights, half_weights,
                                    pairs[0][0].spacing)[0]
    return 4.0 * math.pi / HBAR_MEV_S * total


def order_dominance_ratio(d_ghz: float, phonon_energy_mev: float) -> float:
    """(2 pi D / omega)^2: zero-field splitting over phonon frequency, squared.

    Quantifies why first-order contributions are negligible: the spin
    splitting (GHz) is tiny against phonon energies (tens of meV).
    """
    if d_ghz < 0:
        raise ValueError(f"zero-field splitting must be >= 0, got {d_ghz}")
    if phonon_energy_mev <= 0:
        raise ValueError(f"phonon energy must be positive, got {phonon_energy_mev}")
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
        if any(r < 0 for r in self.omega) or any(r < 0 for r in self.gamma):
            raise ValueError("rates must be nonnegative")

    def __len__(self) -> int:
        return len(self.temperatures)

    def to_csv_text(self) -> str:
        lines = [f"# provenance: {self.provenance}", RATE_CURVE_CSV_HEADER]
        for t, o, g in zip(self.temperatures, self.omega, self.gamma):
            lines.append(f"{t!r},{o!r},{g!r}")
        return "\n".join(lines) + "\n"

    def to_dataset(self, rel_err: float = 0.01) -> Dataset:
        """Rows with uniform relative errors, ready for model refits."""
        if not 0 < rel_err < 1:
            raise ValueError("relative error must lie in (0, 1)")
        rows = tuple(
            RateMeasurement(
                nv_id="THEORY", sample="THEORY", temperature=t,
                omega=o, omega_err=rel_err * o,
                gamma=g, gamma_err=rel_err * g,
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
                       rel_err: float = 0.01, multistart: int = 8,
                       seed: int = DEFAULT_SEED) -> FitResult:
    """Fit the two-mode law (no constant floors) to a quadrature rate curve.

    The curve must extend to ``t_max``; uniform relative errors weight all
    temperatures alike on a log scale, so only the lineshape matters.
    """
    if max(curve.temperatures) < t_max:
        raise ValueError(
            f"curve reaches only {max(curve.temperatures):g} K but t_max={t_max:g} K"
        )
    dataset = curve.to_dataset(rel_err=rel_err)
    rows = tuple(r for r in dataset if r.temperature <= t_max)
    dataset = Dataset(rows=rows, provenance=dataset.provenance)
    problem = FitProblem(dataset=dataset, model=ModelSpec("n_mode", 2),
                         constants="none", multistart=multistart, seed=seed)
    return fit(problem)


def spectral_to_csv_text(f: SpectralFunction) -> str:
    """Energy/amplitude CSV of a spectral function for external plotting."""
    lines = [
        f"# channel: {f.channel.value}",
        f"# order: {f.order}",
        f"# sigma_mev: {f.sigma!r}",
        "energy_mev,amplitude_mhz_per_mev",
    ]
    for e, a in zip(f.grid, f.amplitude):
        lines.append(f"{float(e)!r},{float(a)!r}")
    return "\n".join(lines) + "\n"
