"""Weighted nonlinear least squares for the rate models.

The chi-squared objective sums normalized residuals of both rates over all
dataset rows:

    chi2(theta) = sum_i [ (Omega_i - Omega(T_i; theta))^2 / sigma_Omega_i^2
                        + (gamma_i - gamma(T_i; theta))^2 / sigma_gamma_i^2 ]

Both rate laws are ordered sums of Orbach and T^5 terms, laid out once by
:attr:`ModelSpec.terms`; mode energies and coefficients are global across
samples, the constant floors are per sample and added last.  The model is
summed by the same helper as ``rates``, so fit and evaluation agree bit for
bit.  Every parameter is positive, so the optimizer works in log space
(bounds become simple box constraints and the Orbach arguments stay valid);
uncertainties are transformed back with the delta method.  Multistart with
deterministic seeding handles the multimodality of the three-mode fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy.optimize import least_squares

from .core import BOLTZMANN_MEV_PER_K, DEFAULT_SEED, Dataset, _require_finite
from .models import (
    Mode,
    NModeParams,
    PriorModelParams,
    SampleConstants,
    _bose_einstein,
    _sum_terms,
    _term_column,
)

__all__ = [
    "PHONON_LIMITED_T_MIN_K",
    "ModelSpec",
    "FitProblem",
    "FitResult",
    "ModelRanking",
    "RankingRow",
    "ResidualDiagnostics",
    "ResidualOutlier",
    "RankDeficiencyError",
    "fit",
    "compare_models",
    "residual_diagnostics",
    "estimate_covariance",
    "params_from_dict",
]

# temperatures at or above this are lattice-dominated; the restricted fit
# drops the per-sample constant floors entirely
PHONON_LIMITED_T_MIN_K = 125.0

# relative singular-value cutoff below which the normal equations are
# treated as rank deficient
_RANK_RCOND = 1e-10

_FTOL = 1e-12
_XTOL = 1e-12
_GTOL = 1e-12
_MAX_NFEV = 500


class RankDeficiencyError(RuntimeError):
    """Normal equations singular: some parameter combination is unconstrained."""

    def __init__(self, message: str, null_direction: np.ndarray | None = None):
        super().__init__(message)
        self.null_direction = null_direction


class _Term(NamedTuple):
    """Coefficients ``a`` (Omega) and ``b`` (gamma) times the Orbach factor at
    mode energy ``delta``, or times T^5 if ``delta`` is None: parameter names
    in a ModelSpec, parameter columns once assembled.  ``start`` is the
    heuristic guess's starting energy of an Orbach term."""

    delta: str | int | None
    a: str | int
    b: str | int
    start: float | None = None


@dataclass(frozen=True)
class ModelSpec:
    """Which rate law to fit: 'n_mode' with 1-3 modes, or 'prior'."""

    kind: str
    n_modes: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("n_mode", "prior"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "n_mode" and not 1 <= self.n_modes <= 3:
            raise ValueError(f"1 to 3 modes supported, got {self.n_modes}")

    @classmethod
    def parse(cls, token: str) -> "ModelSpec":
        token = token.strip().lower()
        if token == "prior":
            return cls(kind="prior")
        if token.startswith("n-mode:") or token.startswith("n_mode:"):
            return cls(kind="n_mode", n_modes=int(token.split(":", 1)[1]))
        raise ValueError(f"unknown model {token!r}; expected 'n-mode:<1|2|3>' or 'prior'")

    @property
    def label(self) -> str:
        return "prior" if self.kind == "prior" else f"n-mode:{self.n_modes}"

    @property
    def terms(self) -> tuple[_Term, ...]:
        """The rate law as basis terms in summation order."""
        if self.kind == "prior":
            return (_Term("delta", "a1", "b1", start=70.0), _Term(None, "a2", "b2"))
        starts = {1: (80.0,), 2: (60.0, 160.0), 3: (50.0, 100.0, 200.0)}[self.n_modes]
        return tuple(_Term(f"delta_{k}", f"a_{k}", f"b_{k}", start=d)
                     for k, d in enumerate(starts, start=1))

    @property
    def param_names(self) -> tuple[str, ...]:
        """Rate-law parameter names in report order."""
        if self.kind == "prior":
            return ("delta", "a1", "b1", "a2", "b2")
        return tuple(getattr(t, f) for f in ("delta", "a", "b") for t in self.terms)


@dataclass(frozen=True)
class FitProblem:
    """A dataset plus the model and fitting policy.

    ``constants`` chooses the shared-parameter structure: ``"per_sample"``
    fits one (a3, b3) floor per sample label, ``"none"`` fixes all floors to
    zero.  ``t_min`` restricts the rows used.  The phonon-limited framing
    (T >= 125 K, no constants) is available via :meth:`phonon_limited`.
    """

    dataset: Dataset
    model: ModelSpec
    constants: str = "per_sample"
    t_min: float | None = None
    bounds: Mapping[str, tuple[float, float]] | None = None
    initial_guess: Mapping[str, float] | None = None
    multistart: int = 16
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.constants not in ("per_sample", "none"):
            raise ValueError(f"constants must be 'per_sample' or 'none', got {self.constants!r}")
        if self.multistart < 1:
            raise ValueError("multistart count must be >= 1")

    @classmethod
    def phonon_limited(cls, dataset: Dataset, model: ModelSpec, **kwargs) -> "FitProblem":
        """Restricted framing: rows at T >= 125 K, constant floors fixed at 0."""
        return cls(dataset=dataset, model=model, constants="none",
                   t_min=PHONON_LIMITED_T_MIN_K, **kwargs)


# ---------------------------------------------------------------------------
# internal problem assembly


@dataclass(frozen=True)
class _Assembled:
    names: tuple[str, ...]
    temps: np.ndarray           # per row
    kT: np.ndarray              # k_B T per row, meV
    data: np.ndarray            # interleaved (omega_0, gamma_0, omega_1, ...)
    err: np.ndarray             # same interleaving
    terms: tuple[_Term, ...]    # fields are parameter columns
    floors: tuple[tuple[int, int], ...]   # (a3 column, b3 column) per sample
    floor_cols: np.ndarray | None         # floor parameter column per residual
    labels: tuple[tuple[str, str, float, str], ...]  # (nv_id, sample, T, channel)


def _assemble(problem: FitProblem) -> _Assembled:
    dataset = problem.dataset
    if problem.t_min is not None:
        dataset = dataset.restricted(problem.t_min)
    if len(dataset) == 0:
        raise ValueError("no dataset rows left to fit")

    rows = dataset.rows
    temps = np.array([r.temperature for r in rows])
    data = np.array([(r.omega, r.gamma) for r in rows], dtype=float).ravel()
    err = np.array([(r.omega_err, r.gamma_err) for r in rows], dtype=float).ravel()
    labels = tuple((r.nv_id, r.sample, r.temperature, channel)
                   for r in rows for channel in ("omega", "gamma"))

    # sorted sample order keeps parameter naming independent of row order
    samples = sorted({r.sample for r in rows}) if problem.constants == "per_sample" else ()
    names = [*problem.model.param_names, *(f"{c}3_{s}" for s in samples for c in "ab")]
    col = {name: j for j, name in enumerate(names)}
    terms = tuple(
        _Term(None if t.delta is None else col[t.delta], col[t.a], col[t.b], t.start)
        for t in problem.model.terms
    )
    floors = tuple((col[f"a3_{s}"], col[f"b3_{s}"]) for s in samples)
    floor_cols = None
    if samples:
        floor_cols = np.array([col[f"{c}3_{r.sample}"] for r in rows for c in "ab"])

    if len(names) >= len(data):
        raise ValueError(
            f"{len(names)} free parameters but only {len(data)} residuals; underdetermined"
        )
    return _Assembled(
        names=tuple(names),
        temps=temps,
        kT=BOLTZMANN_MEV_PER_K * temps,
        data=data,
        err=err,
        terms=terms,
        floors=floors,
        floor_cols=floor_cols,
        labels=labels,
    )


def _default_bounds(asm: _Assembled) -> dict[str, tuple[float, float]]:
    out: dict[str, tuple[float, float]] = {}
    for t in asm.terms:
        if t.delta is None:
            coeff = (1e-18, 1e-3)      # T^5 coefficients are tiny in s^-1 K^-5
        else:
            out[asm.names[t.delta]] = (5.0, 400.0)
            coeff = (1e-6, 1e9)
        out[asm.names[t.a]] = out[asm.names[t.b]] = coeff
    for a3, b3 in asm.floors:
        out[asm.names[a3]] = out[asm.names[b3]] = (1e-8, 1e3)
    return out


def _heuristic_guess(asm: _Assembled) -> dict[str, float]:
    """Data-derived starting point; scales with the data so that rescaled
    problems optimize along equivalent paths."""
    guess: dict[str, float] = {}
    omega, gamma = asm.data[0::2], asm.data[1::2]
    hot = asm.temps >= np.median(asm.temps)
    n_orbach = sum(t.delta is not None for t in asm.terms)
    for t in asm.terms:
        f = _term_column(t.start, asm.temps[hot])
        # an Orbach column underflows to 0 on cold rows, which then say
        # nothing about the coefficient; with none left the floor is used
        live = f > 0
        a = b = 0.0
        if np.any(live):
            a = float(np.median(omega[hot][live] / f[live]))
            b = float(np.median(gamma[hot][live] / f[live]))
        if t.delta is None:    # a T^5 tail starts at 30% of the hot rates
            a, b, least = a * 0.3, b * 0.3, 1e-17
        else:                  # the Orbach terms share the hot rates
            guess[asm.names[t.delta]] = t.start
            a, b, least = a / n_orbach, b / n_orbach, 1e-5
        guess[asm.names[t.a]] = max(a, least)
        guess[asm.names[t.b]] = max(b, least)
    for a3, b3 in asm.floors:
        guess[asm.names[a3]] = max(float(np.min(omega)), 1e-6)
        guess[asm.names[b3]] = max(float(np.min(gamma)), 1e-6)
    return guess


class _LogModel:
    """Normalized residuals and their log-space Jacobian for one solve.

    Parameters are u = log(p).  The last point is remembered with its
    occupancies and basis columns: TRF asks for the Jacobian only where it
    has just evaluated the residuals, so each trial point costs one
    evaluation of the rate law.  The terms are summed by the helper ``rates``
    uses, floors last, so the residuals match the rates of the same
    parameters bit for bit.  Arrays handed out are never written to again.
    """

    def __init__(self, asm: _Assembled):
        self.asm = asm
        self._u: np.ndarray | None = None

    def _evaluate(self, u: np.ndarray) -> None:
        if self._u is not None and np.array_equal(u, self._u):
            return
        asm = self.asm
        p = np.exp(u)
        occupancies, columns = [], []
        for t in asm.terms:
            if t.delta is None:
                n, column = None, _term_column(None, asm.temps)
            else:
                n = _bose_einstein(p[t.delta] / asm.kT)
                column = n * (n + 1.0)
            occupancies.append(n)
            columns.append(column)
        model = np.empty(len(asm.data))
        model[0::2], model[1::2] = _sum_terms(
            (column, p[t.a], p[t.b]) for column, t in zip(columns, asm.terms))
        if asm.floor_cols is not None:
            model += p[asm.floor_cols]
        self._residuals = (model - asm.data) / asm.err
        self._u, self._p = np.array(u, dtype=float), p
        self._occupancies, self._columns = occupancies, columns

    def residuals(self, u: np.ndarray) -> np.ndarray:
        self._evaluate(u)
        return self._residuals

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        """d r_i / d u_j = (d r_i / d p_j) * p_j / err_i, with d/d delta of
        n(n+1) equal to -(2n+1) n(n+1) / k_B T."""
        self._evaluate(u)
        asm, p = self.asm, self._p
        err_omega, err_gamma = asm.err[0::2], asm.err[1::2]
        jac = np.zeros((len(asm.data), len(p)))
        for n, column, t in zip(self._occupancies, self._columns, asm.terms):
            jac[0::2, t.a] = column * p[t.a] / err_omega
            jac[1::2, t.b] = column * p[t.b] / err_gamma
            if n is not None:
                slope = -(2.0 * n + 1.0) * n * (n + 1.0) / asm.kT
                jac[0::2, t.delta] = p[t.a] * slope * p[t.delta] / err_omega
                jac[1::2, t.delta] = p[t.b] * slope * p[t.delta] / err_gamma
        if asm.floor_cols is not None:
            jac[np.arange(len(asm.data)), asm.floor_cols] = p[asm.floor_cols] / asm.err
        return jac


def _sample_starts(asm: _Assembled, problem: FitProblem,
                   guess: dict[str, float],
                   bounds: dict[str, tuple[float, float]]) -> list[np.ndarray]:
    rng = np.random.default_rng(problem.seed)
    starts = [np.array([guess[n] for n in asm.names])]
    lo = np.array([bounds[n][0] for n in asm.names])
    hi = np.array([bounds[n][1] for n in asm.names])
    delta_names = [asm.names[t.delta] for t in asm.terms if t.delta is not None]
    floor_names = {asm.names[j] for pair in asm.floors for j in pair}
    while len(starts) < problem.multistart:
        trial = dict(guess)
        # mode energies sampled log-uniformly over the phonon band, kept
        # apart so no start is born degenerate
        for _ in range(200):
            deltas = np.sort(np.exp(rng.uniform(np.log(20.0), np.log(300.0), len(delta_names))))
            if np.all(np.diff(deltas) > 2.0):
                break
        for name, d in zip(delta_names, deltas):
            trial[name] = d
        for name in asm.names:
            if name in delta_names:
                continue
            window = 1.5 if name in floor_names else 2.0
            trial[name] = guess[name] * 10 ** rng.uniform(-window, window)
        vec = np.array([trial[n] for n in asm.names])
        starts.append(np.clip(vec, lo * 1.001, hi * 0.999))
    return starts


def _canonical_order(asm: _Assembled, p: np.ndarray) -> np.ndarray:
    """Permute parameters so the Orbach terms are ascending in energy."""
    orbach = [t for t in asm.terms if t.delta is not None]
    out = p.copy()
    for new, old in zip(orbach, sorted(orbach, key=lambda t: p[t.delta])):
        out[[new.delta, new.a, new.b]] = p[[old.delta, old.a, old.b]]
    return out


def params_from_dict(model, values):
    """Build model parameters from a {name: value} mapping.

    ``model`` is a ModelSpec or its label (e.g. "n-mode:2", "prior").
    Sample constants are picked up from every a3_<sample>/b3_<sample> pair
    present in ``values``; a missing parameter raises KeyError naming it,
    a NaN or infinite one ValueError.
    """
    spec = ModelSpec.parse(model) if isinstance(model, str) else model
    _require_finite(values)
    samples = sorted(name.split("_", 1)[1] for name in values
                     if name.startswith("a3_"))
    constants = {
        s: SampleConstants(a3=values["a3_" + s], b3=values["b3_" + s])
        for s in samples
    }
    if spec.kind == "n_mode":
        modes = tuple(Mode(values[t.delta], values[t.a], values[t.b]) for t in spec.terms)
        return NModeParams(modes=modes, sample_constants=constants)
    return PriorModelParams(*(values[n] for n in spec.param_names), sample_constants=constants)


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters with uncertainties and fit-quality diagnostics."""

    model: ModelSpec
    param_names: tuple[str, ...]
    params: dict[str, float]
    sigma: dict[str, float]
    covariance: np.ndarray          # physical-parameter space, param_names order
    chi2: float
    dof: int
    chi2_reduced: float
    residuals_normalized: np.ndarray  # interleaved (omega, gamma) per row
    residual_labels: tuple[tuple[str, str, float, str], ...]
    converged: bool
    n_iterations: int
    gradient_norm: float
    n_starts: int
    start_chi2: tuple[float, ...]
    constants: str
    t_min: float | None
    dataset_checksum: str
    dataset_provenance: str

    @property
    def label(self) -> str:
        """Model label, suffixed with the temperature cut when there is one."""
        return self.model.label + ("" if self.t_min is None else f" (T>={self.t_min:g}K)")

    def to_model_params(self):
        """Materialize the fitted parameters as a model-parameter object."""
        return params_from_dict(self.model, self.params)

    def to_report_dict(self) -> dict:
        """Stable-order structured report of the full fit."""
        return {
            "model": self.model.label,
            "dataset": {
                "provenance": self.dataset_provenance,
                "checksum": self.dataset_checksum,
                "constants": self.constants,
                "t_min_k": self.t_min,
            },
            "fit": {
                "converged": self.converged,
                "chi2": self.chi2,
                "dof": self.dof,
                "chi2_reduced": self.chi2_reduced,
                "n_iterations": self.n_iterations,
                "gradient_norm": self.gradient_norm,
                "n_starts": self.n_starts,
            },
            "parameters": [
                {"name": n, "value": self.params[n], "sigma": self.sigma[n]}
                for n in self.param_names
            ],
            "covariance": {
                "order": list(self.param_names),
                "matrix": self.covariance.tolist(),
            },
            "residuals": [
                {
                    "nv_id": nv,
                    "sample": sample,
                    "temperature_k": t,
                    "channel": channel,
                    "value": value,
                }
                for (nv, sample, t, channel), value in zip(
                    self.residual_labels, self.residuals_normalized.tolist()
                )
            ],
        }


def estimate_covariance(jacobian: np.ndarray, param_names: Sequence[str]) -> np.ndarray:
    """Gauss-Newton covariance (J^T J)^-1 for a residual Jacobian.

    The Jacobian must be of normalized residuals with respect to the
    parameters the covariance is wanted in.  Raises RankDeficiencyError
    naming the most degenerate parameter pair when the normal equations are
    numerically singular.
    """
    jacobian = np.asarray(jacobian, dtype=float)
    _, s, vt = np.linalg.svd(jacobian, full_matrices=False)
    # LAPACK may return a singular value of -0.0; an all-zero Jacobian has s[0] == 0
    ratio = abs(s[-1]) / s[0] if s[0] != 0 else 0.0
    if ratio < _RANK_RCOND:
        null = vt[-1]
        worst = np.argsort(np.abs(null))[::-1][:2]
        pair = " and ".join(str(param_names[i]) for i in sorted(worst))
        raise RankDeficiencyError(
            f"rank-deficient fit: parameters {pair} are degenerate "
            f"(singular-value ratio {ratio:.2e})",
            null_direction=null,
        )
    inv_s2 = 1.0 / s**2
    return (vt.T * inv_s2) @ vt


def _solve_one(asm: _Assembled, u0: np.ndarray, lo_u: np.ndarray, hi_u: np.ndarray):
    model = _LogModel(asm)
    return least_squares(
        model.residuals,
        np.clip(u0, lo_u, hi_u),
        jac=model.jacobian,
        bounds=(lo_u, hi_u),
        method="trf",
        ftol=_FTOL,
        xtol=_XTOL,
        gtol=_GTOL,
        max_nfev=_MAX_NFEV,
    )


def fit(problem: FitProblem) -> FitResult:
    """Minimize the weighted chi-squared; best of ``multistart`` starts.

    Ties across starts break by lowest chi2, then fewest iterations, then
    start index, so results are reproducible for a fixed seed.
    """
    asm = _assemble(problem)
    bounds = _default_bounds(asm)
    if problem.bounds:
        for name, pair in problem.bounds.items():
            if name not in bounds:
                raise ValueError(f"bounds given for unknown parameter {name!r}")
            if not 0 < pair[0] < pair[1]:
                raise ValueError(f"bounds for {name!r} must satisfy 0 < lo < hi")
            bounds[name] = (float(pair[0]), float(pair[1]))
    # heuristic values are clamped into the bounds; a user guess is checked below
    guess = {n: min(max(g, bounds[n][0]), bounds[n][1])
             for n, g in _heuristic_guess(asm).items()}
    if problem.initial_guess:
        for name, value in problem.initial_guess.items():
            if name not in guess:
                raise ValueError(f"initial guess for unknown parameter {name!r}")
            guess[name] = float(value)
    for name in asm.names:
        lo, hi = bounds[name]
        if not lo <= guess[name] <= hi:
            raise ValueError(
                f"initial guess {name}={guess[name]:g} outside bounds [{lo:g}, {hi:g}]"
            )

    lo_u = np.log(np.array([bounds[n][0] for n in asm.names]))
    hi_u = np.log(np.array([bounds[n][1] for n in asm.names]))
    starts = [np.log(s) for s in _sample_starts(asm, problem, guess, bounds)]

    results = [_solve_one(asm, u0, lo_u, hi_u) for u0 in starts]

    start_chi2 = tuple(float(2.0 * r.cost) for r in results)
    ranked = sorted(
        range(len(results)),
        key=lambda i: (start_chi2[i], results[i].nfev, i),
    )
    best = results[ranked[0]]
    converged = best.status > 0

    p_best = _canonical_order(asm, np.exp(best.x))
    u_best = np.log(p_best)
    model = _LogModel(asm)
    residuals = model.residuals(u_best)
    jac_log = model.jacobian(u_best)
    chi2 = float(residuals @ residuals)
    grad_norm = float(np.linalg.norm(jac_log.T @ residuals, ord=np.inf))

    cov_log = estimate_covariance(jac_log, asm.names)
    # delta method back to physical parameters: C_p = diag(p) C_log diag(p)
    cov = cov_log * np.outer(p_best, p_best)
    sigma = np.sqrt(np.diag(cov))

    dof = len(residuals) - len(asm.names)
    return FitResult(
        model=problem.model,
        param_names=asm.names,
        params={n: float(v) for n, v in zip(asm.names, p_best)},
        sigma={n: float(s) for n, s in zip(asm.names, sigma)},
        covariance=cov,
        chi2=chi2,
        dof=dof,
        chi2_reduced=chi2 / dof,
        residuals_normalized=residuals,
        residual_labels=asm.labels,
        converged=converged,
        n_iterations=int(best.nfev),
        gradient_norm=grad_norm,
        n_starts=len(starts),
        start_chi2=start_chi2,
        constants=problem.constants,
        t_min=problem.t_min,
        dataset_checksum=problem.dataset.checksum(),
        dataset_provenance=problem.dataset.provenance,
    )


@dataclass(frozen=True)
class RankingRow:
    label: str
    n_params: int
    dof: int
    chi2: float
    chi2_reduced: float
    delta_chi2_reduced: float   # relative to the best model in the ranking


@dataclass(frozen=True)
class ModelRanking:
    """Models ordered by reduced chi-squared, best first."""

    rows: tuple[RankingRow, ...]
    dataset_checksum: str

    def __iter__(self):
        return iter(self.rows)


def compare_models(results: Sequence[FitResult]) -> ModelRanking:
    """Rank fits of the same dataset by reduced chi-squared."""
    if not results:
        raise ValueError("nothing to compare")
    checksums = {r.dataset_checksum for r in results}
    if len(checksums) > 1:
        raise ValueError("fits compare different datasets; checksums differ")
    ordered = sorted(results, key=lambda r: r.chi2_reduced)
    best = ordered[0].chi2_reduced
    rows = tuple(
        RankingRow(
            label=r.label,
            n_params=len(r.param_names),
            dof=r.dof,
            chi2=r.chi2,
            chi2_reduced=r.chi2_reduced,
            delta_chi2_reduced=r.chi2_reduced - best,
        )
        for r in ordered
    )
    return ModelRanking(rows=rows, dataset_checksum=checksums.pop())


@dataclass(frozen=True)
class ResidualOutlier:
    nv_id: str
    sample: str
    temperature: float
    channel: str
    value: float


@dataclass(frozen=True)
class ResidualDiagnostics:
    """Normality summary of normalized residuals (population variance)."""

    mean: float
    variance: float
    bin_edges: np.ndarray
    bin_counts: np.ndarray
    outliers: tuple[ResidualOutlier, ...]
    outlier_threshold: float


def residual_diagnostics(
    result: FitResult, bin_width: float = 0.5, outlier_threshold: float = 2.5
) -> ResidualDiagnostics:
    """Summarize residual normality for a converged fit."""
    if not result.converged:
        raise ValueError("diagnostics need a converged fit")
    r = result.residuals_normalized
    mean = float(np.mean(r))
    variance = float(np.var(r))  # population convention (divide by N)
    lo = math.floor(float(np.min(r)) / bin_width) * bin_width
    hi = math.ceil(float(np.max(r)) / bin_width) * bin_width
    if hi <= lo:
        hi = lo + bin_width
    n_bins = int(round((hi - lo) / bin_width))
    counts, edges = np.histogram(r, bins=n_bins, range=(lo, hi))
    outliers = tuple(
        ResidualOutlier(nv, sample, t, channel, float(value))
        for (nv, sample, t, channel), value in zip(result.residual_labels, r)
        if abs(value) > outlier_threshold
    )
    return ResidualDiagnostics(
        mean=mean,
        variance=variance,
        bin_edges=edges,
        bin_counts=counts,
        outliers=outliers,
        outlier_threshold=outlier_threshold,
    )
