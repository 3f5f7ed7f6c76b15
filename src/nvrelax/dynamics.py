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
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_SEED, RateMeasurement, _require, _require_integer, estimate_covariance

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
    _require({"evolution time tau": tau}, "nonnegative")
    t = np.asarray(tau, dtype=float)
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
        if self.shots is not None:
            _require_integer({"shots": self.shots})
        _require_integer({"n_tau": self.n_tau})
        if self.shots is not None and self.shots < 1:
            raise ValueError("shot count must be >= 1")
        if self.shots is not None and self.shots > _MAX_SHOTS:
            raise ValueError(f"shot count must be <= 2**63 - 1, got {self.shots}")
        _require({"tau_max_scale": self.tau_max_scale}, "positive")
        if self.tau_grid is not None:
            _require({"tau_grid": self.tau_grid}, "nonnegative")
            taus = tuple(float(t) for t in self.tau_grid)
            if not taus:
                raise ValueError("tau grid must be nonempty")
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
    try:
        return np.linspace(0.0, tau_end, spec.n_tau)
    except (ValueError, MemoryError):
        raise ValueError(f"n_tau = {spec.n_tau} asks for a tau grid of more delays than can "
                         "be allocated") from None


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
        counts = rng.binomial(
            shots, np.minimum(np.maximum(populations[:, [a, b]], 0.0), 1.0))
        values = (counts[:, 0] - counts[:, 1]) / shots
        # smoothed rate estimates keep the variance away from zero at
        # p-hat in {0, 1}
        q = (counts + 0.5) / (shots + 1)
        errors = np.sqrt((q * (1.0 - q) / shots).sum(axis=1))
    return DecayCurve(
        init_state=init, readout_pair=pair,
        tau_grid=tuple(taus.tolist()),
        values=tuple(values.tolist()),
        errors=tuple(errors.tolist()),
    )


def simulate_experiment(rates: RateMatrix, spec: ProtocolSpec,
                        seed: int = DEFAULT_SEED) -> SimulationResult:
    """Run both decay branches of the protocol with binomial readout noise.

    Bit-reproducible for a fixed seed: one generator drives both branches
    in a fixed order, init |0> read as (0, -1), then init |+1> read as
    (+1, -1).  The generator treats +1 and -1 alike, so the mirror
    pairings measure the same two decays.  ``seed`` is a nonnegative
    integer.
    """
    _require_integer({"seed": seed})
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
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
    """(A, weighted basis, residual, chi^2, -r tau, |basis|^2) at r = exp(u),
    A projected out; the last two are the derivative's ingredients.

    Returns ``None`` where the basis over- or underflows, so the caller
    treats the point as infeasible.
    """
    if u > _LOG_RATE_MAX:
        return None
    r = math.exp(u)
    if not math.isfinite(r * tau_max):
        return None
    log_basis = -r * taus
    basis = weights * np.exp(log_basis)
    # ndarray.dot is the inner product that @ computes, at half its call cost
    norm2 = float(basis.dot(basis))
    if not norm2 > 0.0:
        return None
    amplitude = float(basis.dot(weighted_values)) / norm2
    residual = amplitude * basis - weighted_values
    return amplitude, basis, residual, float(residual.dot(residual)), log_basis, norm2


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

    Where the best rate runs off to 0 or infinity, the residual stops
    depending on u and these steps would creep outward until the iteration
    cap.  There the projected Jacobian shrinks faster than the step, while
    a fit closing in on a minimum keeps its Jacobian and shortens its step.
    After two such steps in a row, all in one direction, the solve tries
    the largest step that way, once per such run of steps; if chi^2 does
    not rise there beyond rounding, it stops at that point, where the basis
    is flat to rounding and a rank check finds the rate undetermined.
    Otherwise it goes on from where it was, and a fit that keeps closing in
    on a minimum through a long outward run probes no more.
    """
    weights = 1.0 / errors
    weighted_values = weights * values
    tau_max = float(taus.max())
    # each residual carries a rounding error of about eps |w y|
    scale = _EPS * math.sqrt(float(weighted_values.dot(weighted_values)))
    u = math.log(rate0)
    point = _projected(u, taus, weights, weighted_values, tau_max)
    if point is None:
        raise RuntimeError("exponential fit is degenerate; widen the tau grid")
    nfev, njev, converged = 1, 0, True
    previous = None     # (u, gradient, step, |jac|^2) at the last accepted point
    outward = 0         # steps in a row whose Jacobian shrank faster than they did
    for _ in range(_MAX_ITERATIONS):
        amplitude, basis, residual, chi2, log_basis, norm2 = point
        # d/du of the projected residual A(u) e(u) - y, A'(u) included
        d_basis = log_basis * basis
        d_amplitude = -(amplitude * float(basis.dot(d_basis))
                        + float(d_basis.dot(residual))) / norm2
        jac = amplitude * d_basis + d_amplitude * basis
        njev += 1
        gradient = float(jac.dot(residual))
        jac2 = curvature = float(jac.dot(jac))
        if not curvature > 0.0:
            break
        if previous is not None:
            secant = (gradient - previous[1]) / (u - previous[0])
            if secant > 0.0:
                curvature = secant
        step = -gradient / curvature
        if abs(step) <= _EPS * max(1.0, abs(u)):
            break
        step = max(-_MAX_STEP, min(_MAX_STEP, step))
        if (previous is not None and step * previous[2] > 0.0
                and jac2 * previous[2] ** 2 < previous[3] * step ** 2):
            outward += 1
        else:
            outward = 0
        previous = (u, gradient, step, jac2)
        rounding = 4.0 * scale * (math.sqrt(chi2) + scale)
        if outward == 2:
            far = u + math.copysign(_MAX_STEP, step)
            trial = _projected(far, taus, weights, weighted_values, tau_max)
            nfev += 1
            if trial is not None and trial[3] <= chi2 + rounding:
                u, point = far, trial
                break
        gain = -gradient * step    # half the first-order fall of chi^2 for the full step
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
    :func:`~nvrelax.core.estimate_covariance` of the (log A, log r)
    Jacobian at the optimum, which raises ``RankDeficiencyError`` (a
    ``RuntimeError``) for a degenerate curve, one of a single point too.  A
    curve whose best amplitude is not positive raises ``RuntimeError`` too.
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
    r = fit.rate
    model = fit.amplitude * np.exp(-r * taus) / errors
    jac = np.empty((len(taus), 2))
    jac[:, 0] = model
    jac[:, 1] = -r * taus * model
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
