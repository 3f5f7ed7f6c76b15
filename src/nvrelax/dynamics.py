"""Three-level population dynamics and the rate-measurement protocol.

The spin-triplet populations (P0, P-1, P+1) relax under a symmetric
generator: each 0 <-> +-1 transition proceeds at the single-quantum rate
Omega, the -1 <-> +1 transition at the double-quantum rate gamma.  The
generator has the exact spectrum {0, -3 Omega, -(Omega + 2 gamma)}, so
evolution is evaluated in closed form; there is no time stepping anywhere.

Differences between pairs of population curves isolate single
exponentials:

    init |0>,  P0 - P(+-1):    exp(-3 Omega tau)
    init |+1>, P+1 - P-1:      exp(-(Omega + 2 gamma) tau)

The simulated measurement draws binomial counts per readout state and
time point, mirroring photon shot statistics (the optics behind the
readout are out of scope).  Fitted decay rates r1 = 3 Omega and
r2 = Omega + 2 gamma then invert to the rates with propagated
uncertainties.

Each decay is fitted as A exp(-r tau) by a separable solve: the amplitude
enters linearly and is projected out in closed form, leaving a
one-dimensional Gauss-Newton problem in log r (:func:`least_squares`).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_SEED, RateMeasurement, _require

__all__ = [
    "RateMatrix",
    "ProtocolSpec",
    "DecayCurve",
    "SimulationResult",
    "RateEstimate",
    "evolve",
    "simulate_experiment",
    "extract_rates",
    "to_rate_measurement",
]

_STATE_INDEX = {"0": 0, "-1": 1, "+1": 2}

# the largest shot count the binomial draw takes (a C long)
_MAX_SHOTS = 2**63 - 1

# population deviations from uniform decompose onto these two directions,
# one per nonzero eigenvalue of the generator
_V1 = np.array([2.0, -1.0, -1.0])   # decays at 3 Omega
_V2 = np.array([0.0, 1.0, -1.0])    # decays at Omega + 2 gamma

_EPS = float(np.finfo(float).eps)
# the exponential fit: the iteration cap, the largest step in log r, and the
# largest log r whose exp is finite
_MAX_ITERATIONS = 100
_MAX_STEP = 10.0
_LOG_RATE_MAX = 709.0


def _state_index(state) -> int:
    token = str(state)
    if token == "1":
        token = "+1"
    if token not in _STATE_INDEX:
        raise ValueError(f"unknown spin state {state!r}; expected one of 0, -1, +1")
    return _STATE_INDEX[token]


@dataclass(frozen=True)
class RateMatrix:
    """The two relaxation rates and their population-transfer generator."""

    omega: float    # s^-1, each 0 <-> +-1 transition
    gamma: float    # s^-1, the -1 <-> +1 transition

    def __post_init__(self) -> None:
        _require({"omega": self.omega, "gamma": self.gamma}, "nonnegative")

    @property
    def generator(self) -> np.ndarray:
        """Column-stochastic generator over the basis (P0, P-1, P+1)."""
        w, g = self.omega, self.gamma
        return np.array([
            [-2.0 * w, w, w],
            [w, -(w + g), g],
            [w, g, -(w + g)],
        ])

    @property
    def eigenvalues(self) -> tuple[float, float, float]:
        """Exact spectrum (0, -3 Omega, -(Omega + 2 gamma))."""
        return (0.0, -3.0 * self.omega, -(self.omega + 2.0 * self.gamma))


def evolve(rates: RateMatrix, init_state, tau):
    """Populations after relaxing for ``tau`` seconds from a pure state.

    Closed form: the deviation from the uniform stationary state is
    projected onto the two decay directions, each scaled by its
    exponential.  ``tau`` may be a scalar (returns shape (3,)) or an array
    (returns shape (n, 3)).
    """
    t = np.asarray(tau, dtype=float)
    _require({"evolution time tau": t}, "nonnegative")
    idx = _state_index(init_state)
    p0 = np.zeros(3)
    p0[idx] = 1.0
    # decomposition p0 - 1/3 = a*V1 + b*V2; writing the result as the
    # initial state plus decayed deviations keeps tau = 0 exact
    a = (p0[0] - 1.0 / 3.0) / 2.0
    b = p0[1] - 1.0 / 3.0 + a
    # a rate times tau may overflow to inf, where exp(-inf) = 0 is exact
    with np.errstate(over="ignore"):
        e1 = np.exp(-3.0 * rates.omega * t)
        e2 = np.exp(-(rates.omega + 2.0 * rates.gamma) * t)
    out = (p0
           + a * (e1[..., None] - 1.0) * _V1
           + b * (e2[..., None] - 1.0) * _V2)
    return out if t.ndim else out.reshape(3)


@dataclass(frozen=True)
class ProtocolSpec:
    """Measurement design: time grid and readout noise.

    ``shots=None`` turns noise off (exact populations, unit weights).
    Without an explicit ``tau_grid`` each decay branch gets a linear grid
    from 0 to ``tau_max_scale`` expected decay times.
    """

    shots: int | None
    tau_grid: tuple[float, ...] | None = None
    n_tau: int = 20
    tau_max_scale: float = 2.5

    def __post_init__(self) -> None:
        if not isinstance(self.shots, (numbers.Integral, type(None))):
            raise ValueError(f"shots must be an integer or None, got {self.shots!r}")
        if not isinstance(self.n_tau, numbers.Integral):
            raise ValueError(f"n_tau must be an integer, got {self.n_tau!r}")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shot count must be >= 1")
        if self.shots is not None and self.shots > _MAX_SHOTS:
            raise ValueError(f"shot count must be <= 2**63 - 1, got {self.shots}")
        _require({"tau_max_scale": self.tau_max_scale}, "positive")
        if self.tau_grid is not None:
            taus = tuple(float(t) for t in self.tau_grid)
            if not taus:
                raise ValueError("tau grid must be nonempty")
            _require({"tau_grid": taus}, "nonnegative")
            if any(b <= a for a, b in zip(taus, taus[1:])):
                raise ValueError("tau grid must be strictly ascending")
            if len(taus) < 3:
                raise ValueError("explicit tau grids need at least 3 points")
            object.__setattr__(self, "tau_grid", taus)
        elif self.n_tau < 3:
            raise ValueError("automatic tau grids need n_tau >= 3")


@dataclass(frozen=True)
class DecayCurve:
    """One measured (or exact) difference decay with per-point errors."""

    init_state: str
    readout_pair: tuple[str, str]
    tau_grid: tuple[float, ...]
    values: tuple[float, ...]
    errors: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.tau_grid) == len(self.values) == len(self.errors)):
            raise ValueError("tau grid, values, and errors must have equal length")
        if not self.tau_grid:
            raise ValueError("a decay curve needs at least one point")
        _require({"tau_grid": self.tau_grid, "values": self.values})
        _require({"errors": self.errors}, "positive")

    def __len__(self) -> int:
        return len(self.tau_grid)


@dataclass(frozen=True)
class SimulationResult:
    """Simulated protocol output: one curve per decay branch."""

    omega_branch: DecayCurve    # init |0>, decays at 3 Omega
    gamma_branch: DecayCurve    # init |+1>, decays at Omega + 2 gamma


def _branch_grid(spec: ProtocolSpec, expected_rate: float, name: str) -> np.ndarray:
    _require({f"expected decay rate {name}": expected_rate})
    if spec.tau_grid is not None:
        return np.asarray(spec.tau_grid)
    if expected_rate <= 0:
        raise ValueError(f"expected decay rate {name} is zero, so it sets no "
                         "tau grid (a library caller may pass an explicit tau_grid)")
    tau_end = spec.tau_max_scale / expected_rate
    _require({f"tau grid end tau_max_scale / ({name})": tau_end})
    return np.linspace(0.0, tau_end, spec.n_tau)


def _measure_branch(rates: RateMatrix, init: str, pair: tuple[str, str],
                    taus: np.ndarray, spec: ProtocolSpec,
                    rng: np.random.Generator) -> DecayCurve:
    populations = evolve(rates, init, taus)
    a, b = _state_index(pair[0]), _state_index(pair[1])
    shots = spec.shots
    if shots is None:
        values = populations[:, a] - populations[:, b]
        errors = np.ones_like(values)
    else:
        # one call draws (k_a, k_b) for every delay, in the order that
        # per-delay calls would; the clip only catches a population that
        # rounding put a few ulps outside [0, 1]
        counts = rng.binomial(shots, np.clip(populations[:, [a, b]], 0.0, 1.0))
        values = (counts[:, 0] - counts[:, 1]) / shots
        # smoothed rate estimates keep the variance away from zero at
        # p-hat in {0, 1}
        q = (counts + 0.5) / (shots + 1)
        errors = np.sqrt((q * (1.0 - q) / shots).sum(axis=1))
    return DecayCurve(
        init_state=init, readout_pair=pair,
        tau_grid=tuple(float(t) for t in taus),
        values=tuple(float(v) for v in values),
        errors=tuple(float(e) for e in errors),
    )


def simulate_experiment(rates: RateMatrix, spec: ProtocolSpec,
                        seed: int = DEFAULT_SEED) -> SimulationResult:
    """Run both decay branches of the protocol with binomial readout noise.

    Bit-reproducible for a fixed seed: one generator drives both branches
    in a fixed order, init |0> read as (0, -1), then init |+1> read as
    (+1, -1).  The generator treats +1 and -1 alike, so the mirror
    pairings measure the same two decays.
    """
    rng = np.random.default_rng(seed)
    omega_taus = _branch_grid(spec, 3.0 * rates.omega, "3 Omega")
    gamma_taus = _branch_grid(spec, rates.omega + 2.0 * rates.gamma, "Omega + 2 gamma")
    omega_branch = _measure_branch(rates, "0", ("0", "-1"), omega_taus, spec, rng)
    gamma_branch = _measure_branch(rates, "+1", ("+1", "-1"), gamma_taus, spec, rng)
    return SimulationResult(omega_branch=omega_branch, gamma_branch=gamma_branch)


@dataclass(frozen=True)
class RateEstimate:
    """Rates inverted from the two fitted decay constants.

    ``gamma`` may come out negative at low signal-to-noise (r2 fitted below
    r1/3); it is reported as-is with ``gamma_negative`` set rather than
    clamped.
    """

    omega: float
    omega_err: float
    gamma: float
    gamma_err: float
    r1: float
    r1_err: float
    r2: float
    r2_err: float
    gamma_negative: bool


@dataclass(frozen=True)
class _ExpFit:
    """Outcome of :func:`least_squares`: the optimum and its evaluation counts."""

    amplitude: float
    rate: float
    nfev: int           # projected-residual evaluations
    njev: int           # derivative evaluations
    converged: bool     # False when the iteration cap ended the solve


def _projected(u: float, taus: np.ndarray, weights: np.ndarray,
               weighted_values: np.ndarray, tau_max: float):
    """(A, weighted basis, residual, chi^2) at r = exp(u), A projected out.

    Returns ``None`` where the basis over- or underflows, so the caller
    treats the point as infeasible.
    """
    if u > _LOG_RATE_MAX:
        return None
    r = math.exp(u)
    if not math.isfinite(r * tau_max):
        return None
    basis = weights * np.exp(-r * taus)
    norm2 = float(basis @ basis)
    if not norm2 > 0.0:
        return None
    amplitude = float(basis @ weighted_values) / norm2
    residual = amplitude * basis - weighted_values
    return amplitude, basis, residual, float(residual @ residual)


def least_squares(taus: np.ndarray, values: np.ndarray, errors: np.ndarray,
                  rate0: float) -> _ExpFit:
    """Separable weighted least-squares fit of A exp(-r tau), from ``rate0``.

    For fixed r the best amplitude is the weighted projection
    A(r) = sum(w^2 y e) / sum(w^2 e^2) with e = exp(-r tau) and w = 1/error,
    so only u = log r is iterated (variable projection: Golub & Pereyra,
    SIAM J. Numer. Anal. 10 (1973) 413).  Each step is a Gauss-Newton step
    on the projected residual, with its exact derivative; from the second
    step on, the secant slope of the gradient replaces the Gauss-Newton
    curvature when positive, which keeps convergence fast on curves with
    large residuals (few shots), where plain Gauss-Newton is only linear.
    A step is halved until chi^2 falls.  The solve stops when a step no
    longer moves u, or when it cannot lower chi^2 by more than chi^2's
    rounding error; such a step is still taken unless it raises chi^2
    beyond rounding, because there the gradient knows more than chi^2.
    """
    weights = 1.0 / errors
    weighted_values = weights * values
    tau_max = float(np.max(taus))
    # each residual carries a rounding error of about eps |w y|
    scale = _EPS * float(np.sqrt(weighted_values @ weighted_values))
    u = math.log(rate0)
    point = _projected(u, taus, weights, weighted_values, tau_max)
    if point is None:
        raise RuntimeError("exponential fit is degenerate; widen the tau grid")
    nfev, njev, converged = 1, 0, True
    previous = None     # (u, gradient) at the last accepted point
    for _ in range(_MAX_ITERATIONS):
        amplitude, basis, residual, chi2 = point
        # d/du of the projected residual A(u) e(u) - y, A'(u) included
        d_basis = -math.exp(u) * taus * basis
        d_amplitude = -(amplitude * float(basis @ d_basis)
                        + float(d_basis @ residual)) / float(basis @ basis)
        jac = amplitude * d_basis + d_amplitude * basis
        njev += 1
        gradient = float(jac @ residual)
        curvature = float(jac @ jac)
        if not curvature > 0.0:
            break
        if previous is not None:
            secant = (gradient - previous[1]) / (u - previous[0])
            if secant > 0.0:
                curvature = secant
        previous = (u, gradient)
        step = -gradient / curvature
        if abs(step) <= _EPS * max(1.0, abs(u)):
            break
        step = max(-_MAX_STEP, min(_MAX_STEP, step))
        gain = -gradient * step    # half the first-order fall of chi^2 for the full step
        rounding = 4.0 * scale * (math.sqrt(chi2) + scale)
        t = 1.0
        while True:
            trial = _projected(u + t * step, taus, weights, weighted_values, tau_max)
            nfev += 1
            if trial is not None and (trial[3] < chi2 or (
                    gain <= rounding and trial[3] <= chi2 + rounding)):
                break
            if gain * t <= rounding:
                trial = None   # no shorter step lowers chi^2 beyond rounding
                break
            t *= 0.5
        if trial is None:
            break
        u, point = u + t * step, trial
    else:
        converged = False
    return _ExpFit(point[0], math.exp(u), nfev, njev, converged)


def _fit_single_exponential(curve: DecayCurve) -> tuple[float, float]:
    """Weighted fit of A exp(-r tau); returns (r, sigma_r).

    The amplitude enters linearly, so :func:`least_squares` projects it out
    and solves the one-dimensional problem in log r.  sigma_r comes from
    :func:`~nvrelax.fitting.estimate_covariance` of the (log A, log r)
    Jacobian at the optimum, which raises ``RankDeficiencyError`` (a
    ``RuntimeError``) for a degenerate curve.  A curve of fewer than two
    points, or whose best amplitude is not positive, raises
    ``RuntimeError`` too.
    """
    taus = np.asarray(curve.tau_grid)
    values = np.asarray(curve.values)
    errors = np.asarray(curve.errors)

    # data-driven start: the log ratio across the widest usable span
    a0 = max(values[0], 0.1)
    usable = np.flatnonzero(values > 0.05 * a0)
    if len(usable) >= 2 and taus[usable[-1]] > taus[usable[0]]:
        i, j = usable[0], usable[-1]
        r0 = math.log(values[i] / values[j]) / (taus[j] - taus[i])
    else:
        r0 = 1.0 / max(taus[-1], 1e-12)
    r0 = max(r0, 1e-9)

    fit = least_squares(taus, values, errors, r0)
    if not fit.amplitude > 0.0:
        raise RuntimeError("exponential fit is degenerate; widen the tau grid "
                           f"(best amplitude {fit.amplitude!r} is not positive)")
    if len(taus) < 2:
        raise RuntimeError("exponential fit is degenerate; widen the tau grid")
    r = fit.rate
    model = fit.amplitude * np.exp(-r * taus) / errors
    jac = np.empty((len(taus), 2))
    jac[:, 0] = model
    jac[:, 1] = -r * taus * model
    # imported on first use: building fitting's dataclasses lengthens a cold
    # `import nvrelax.dynamics`, which a simulation without a fit never needs
    from .fitting import estimate_covariance
    cov_log = estimate_covariance(jac, ("log A", "log r"))
    if not fit.converged:
        raise RuntimeError(
            f"exponential fit did not converge in {_MAX_ITERATIONS} iterations")
    sigma_r = r * math.sqrt(cov_log[1, 1])
    return r, sigma_r


def extract_rates(omega_branch: DecayCurve, gamma_branch: DecayCurve) -> RateEstimate:
    """Invert the two decay constants into (Omega, gamma) with errors.

    The first curve must start in |0> (rate 3 Omega), the second in a
    |+-1> state read out against its partner (rate Omega + 2 gamma); the
    inversion is Omega = r1/3, gamma = (r2 - r1/3)/2 with independent-fit
    error propagation.
    """
    if omega_branch.init_state != "0":
        raise ValueError("the first curve must be the init |0> branch")
    if gamma_branch.init_state not in ("+1", "-1"):
        raise ValueError("the second curve must start in |+1> or |-1>")
    r1, r1_err = _fit_single_exponential(omega_branch)
    r2, r2_err = _fit_single_exponential(gamma_branch)
    omega = r1 / 3.0
    omega_err = r1_err / 3.0
    gamma = (r2 - omega) / 2.0
    gamma_err = math.hypot(r2_err, omega_err) / 2.0
    return RateEstimate(
        omega=omega, omega_err=omega_err,
        gamma=gamma, gamma_err=gamma_err,
        r1=r1, r1_err=r1_err, r2=r2, r2_err=r2_err,
        gamma_negative=gamma < 0.0,
    )


def to_rate_measurement(estimate: RateEstimate, temperature: float) -> RateMeasurement:
    """Emit the estimate as a dataset row (NV and sample ``SIM``) in the core
    CSV schema.

    Refuses negative rate estimates: those are low-SNR artifacts that the
    dataset schema (rates >= 0) deliberately cannot represent.
    """
    if estimate.gamma_negative or estimate.omega < 0:
        raise ValueError(
            "negative rate estimate cannot become a dataset row; "
            "increase shots or extend the tau grid"
        )
    return RateMeasurement(
        nv_id="SIM", sample="SIM", temperature=temperature,
        omega=estimate.omega, omega_err=estimate.omega_err,
        gamma=estimate.gamma, gamma_err=estimate.gamma_err,
    )
