"""Weighted nonlinear least squares for the rate models.

The chi-squared objective sums normalized residuals of both rates over all
dataset rows:

    chi2(theta) = sum_i [ (Omega_i - Omega(T_i; theta))^2 / sigma_Omega_i^2
                        + (gamma_i - gamma(T_i; theta))^2 / sigma_gamma_i^2 ]

Mode energies and coefficients are global across samples; the constant
floors are per sample.  Every parameter is positive, so the optimizer works
in log space (bounds become simple box constraints and the Orbach arguments
stay valid); uncertainties are transformed back with the delta method.
Multistart with deterministic seeding handles the multimodality of the
three-mode fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import least_squares

from .core import DEFAULT_SEED, Dataset
from .models import (
    Mode,
    NModeParams,
    PriorModelParams,
    SampleConstants,
    orbach_factor,
    orbach_factor_ddelta,
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
    data: np.ndarray            # interleaved (omega_0, gamma_0, omega_1, ...)
    err: np.ndarray             # same interleaving
    sample_masks: dict[str, np.ndarray]
    labels: tuple[tuple[str, str, float, str], ...]  # (nv_id, sample, T, channel)
    n_modes: int
    kind: str
    samples: tuple[str, ...]
    checksum: str
    provenance: str


def _assemble(problem: FitProblem) -> _Assembled:
    dataset = problem.dataset
    if problem.t_min is not None:
        dataset = dataset.restricted(problem.t_min)
    if len(dataset) == 0:
        raise ValueError("no dataset rows left to fit")

    rows = dataset.rows
    temps = np.array([r.temperature for r in rows])
    data = np.empty(2 * len(rows))
    err = np.empty(2 * len(rows))
    labels = []
    for i, r in enumerate(rows):
        data[2 * i], data[2 * i + 1] = r.omega, r.gamma
        err[2 * i], err[2 * i + 1] = r.omega_err, r.gamma_err
        labels.append((r.nv_id, r.sample, r.temperature, "omega"))
        labels.append((r.nv_id, r.sample, r.temperature, "gamma"))

    # sorted sample order keeps parameter naming independent of row order
    samples = tuple(sorted({r.sample for r in rows})) if problem.constants == "per_sample" else ()
    sample_masks = {
        s: np.array([r.sample == s for r in rows]) for s in samples
    }

    spec = problem.model
    if spec.kind == "n_mode":
        n = spec.n_modes
        names = [f"delta_{k}" for k in range(1, n + 1)]
        names += [f"a_{k}" for k in range(1, n + 1)]
        names += [f"b_{k}" for k in range(1, n + 1)]
    else:
        n = 1
        names = ["delta", "a1", "b1", "a2", "b2"]
    for s in samples:
        names += [f"a3_{s}", f"b3_{s}"]

    if len(names) >= len(data):
        raise ValueError(
            f"{len(names)} free parameters but only {len(data)} residuals; underdetermined"
        )
    return _Assembled(
        names=tuple(names),
        temps=temps,
        data=data,
        err=err,
        sample_masks=sample_masks,
        labels=tuple(labels),
        n_modes=n,
        kind=spec.kind,
        samples=samples,
        checksum=problem.dataset.checksum(),
        provenance=problem.dataset.provenance,
    )


def _default_bounds(asm: _Assembled) -> dict[str, tuple[float, float]]:
    out: dict[str, tuple[float, float]] = {}
    for name in asm.names:
        if name.startswith("delta"):
            out[name] = (5.0, 400.0)
        elif name in ("a2", "b2") and asm.kind == "prior":
            out[name] = (1e-18, 1e-3)      # T^5 coefficients are tiny in s^-1 K^-5
        elif name.startswith(("a3", "b3")):
            out[name] = (1e-8, 1e3)
        else:
            out[name] = (1e-6, 1e9)
    return out


def _heuristic_guess(asm: _Assembled) -> dict[str, float]:
    """Data-derived starting point; scales with the data so that rescaled
    problems optimize along equivalent paths."""
    guess: dict[str, float] = {}
    spread = {1: (80.0,), 2: (60.0, 160.0), 3: (50.0, 100.0, 200.0)}
    deltas = spread[asm.n_modes] if asm.kind == "n_mode" else (70.0,)

    omega = asm.data[0::2]
    gamma = asm.data[1::2]
    hot = asm.temps >= np.median(asm.temps)
    for k, d in enumerate(deltas, start=1):
        f = orbach_factor(d, asm.temps[hot])
        a_scale = float(np.median(omega[hot] / f)) / len(deltas)
        b_scale = float(np.median(gamma[hot] / f)) / len(deltas)
        if asm.kind == "n_mode":
            guess[f"delta_{k}"] = d
            guess[f"a_{k}"] = max(a_scale, 1e-5)
            guess[f"b_{k}"] = max(b_scale, 1e-5)
        else:
            guess["delta"] = d
            guess["a1"] = max(a_scale, 1e-5)
            guess["b1"] = max(b_scale, 1e-5)
    if asm.kind == "prior":
        t5 = asm.temps[hot] ** 5
        guess["a2"] = max(float(np.median(omega[hot] / t5)) * 0.3, 1e-17)
        guess["b2"] = max(float(np.median(gamma[hot] / t5)) * 0.3, 1e-17)
    for s in asm.samples:
        guess[f"a3_{s}"] = max(float(np.min(omega)), 1e-6)
        guess[f"b3_{s}"] = max(float(np.min(gamma)), 1e-6)
    return guess


def _model_and_jacobian(asm: _Assembled, p: np.ndarray, with_jac: bool):
    """Interleaved model vector (and physical-space Jacobian) at params p."""
    idx = {name: j for j, name in enumerate(asm.names)}
    n_rows = len(asm.temps)
    model = np.zeros(2 * n_rows)
    jac = np.zeros((2 * n_rows, len(p))) if with_jac else None

    if asm.kind == "n_mode":
        mode_items = [
            (p[idx[f"delta_{k}"]], p[idx[f"a_{k}"]], p[idx[f"b_{k}"]], k)
            for k in range(1, asm.n_modes + 1)
        ]
        for delta, a, b, k in mode_items:
            f = orbach_factor(delta, asm.temps)
            model[0::2] += a * f
            model[1::2] += b * f
            if with_jac:
                df = orbach_factor_ddelta(delta, asm.temps)
                jac[0::2, idx[f"delta_{k}"]] = a * df
                jac[1::2, idx[f"delta_{k}"]] = b * df
                jac[0::2, idx[f"a_{k}"]] = f
                jac[1::2, idx[f"b_{k}"]] = f
    else:
        delta, a1, b1, a2, b2 = (p[idx[n]] for n in ("delta", "a1", "b1", "a2", "b2"))
        f = orbach_factor(delta, asm.temps)
        t5 = asm.temps**5
        model[0::2] = a1 * f + a2 * t5
        model[1::2] = b1 * f + b2 * t5
        if with_jac:
            df = orbach_factor_ddelta(delta, asm.temps)
            jac[0::2, idx["delta"]] = a1 * df
            jac[1::2, idx["delta"]] = b1 * df
            jac[0::2, idx["a1"]] = f
            jac[1::2, idx["b1"]] = f
            jac[0::2, idx["a2"]] = t5
            jac[1::2, idx["b2"]] = t5

    for s in asm.samples:
        mask = asm.sample_masks[s]
        model[0::2][mask] += p[idx[f"a3_{s}"]]
        model[1::2][mask] += p[idx[f"b3_{s}"]]
        if with_jac:
            rows_o = np.flatnonzero(mask) * 2
            jac[rows_o, idx[f"a3_{s}"]] = 1.0
            jac[rows_o + 1, idx[f"b3_{s}"]] = 1.0
    return model, jac


def _residuals_log(asm: _Assembled, u: np.ndarray) -> np.ndarray:
    model, _ = _model_and_jacobian(asm, np.exp(u), with_jac=False)
    return (model - asm.data) / asm.err


def _jacobian_log(asm: _Assembled, u: np.ndarray) -> np.ndarray:
    p = np.exp(u)
    _, jac = _model_and_jacobian(asm, p, with_jac=True)
    # chain rule for u = log(p): d r/d u_j = (d r/d p_j) * p_j
    return (jac * p[None, :]) / asm.err[:, None]


def _sample_starts(asm: _Assembled, problem: FitProblem,
                   guess: dict[str, float],
                   bounds: dict[str, tuple[float, float]]) -> list[np.ndarray]:
    rng = np.random.default_rng(problem.seed)
    starts = [np.array([guess[n] for n in asm.names])]
    n_deltas = asm.n_modes if asm.kind == "n_mode" else 1
    while len(starts) < problem.multistart:
        trial = dict(guess)
        # mode energies sampled log-uniformly over the phonon band, kept
        # apart so no start is born degenerate
        for _ in range(200):
            deltas = np.sort(np.exp(rng.uniform(np.log(20.0), np.log(300.0), n_deltas)))
            if np.all(np.diff(deltas) > 2.0):
                break
        delta_names = (
            [f"delta_{k}" for k in range(1, n_deltas + 1)]
            if asm.kind == "n_mode" else ["delta"]
        )
        for name, d in zip(delta_names, deltas):
            trial[name] = d
        for name in asm.names:
            if name in delta_names:
                continue
            window = 1.5 if name.startswith(("a3", "b3")) else 2.0
            trial[name] = guess[name] * 10 ** rng.uniform(-window, window)
        vec = np.array([trial[n] for n in asm.names])
        lo = np.array([bounds[n][0] for n in asm.names])
        hi = np.array([bounds[n][1] for n in asm.names])
        starts.append(np.clip(vec, lo * 1.001, hi * 0.999))
    return starts


def _canonical_order(asm: _Assembled, p: np.ndarray) -> np.ndarray:
    """Permute parameters so modes are ascending in energy."""
    if asm.kind != "n_mode" or asm.n_modes == 1:
        return p
    idx = {name: j for j, name in enumerate(asm.names)}
    order = np.argsort([p[idx[f"delta_{k}"]] for k in range(1, asm.n_modes + 1)])
    out = p.copy()
    for new_k, old in enumerate(order, start=1):
        for prefix in ("delta", "a", "b"):
            out[idx[f"{prefix}_{new_k}"]] = p[idx[f"{prefix}_{old + 1}"]]
    return out


def params_from_dict(model, values):
    """Build model parameters from a {name: value} mapping.

    ``model`` is a ModelSpec or its label (e.g. "n-mode:2", "prior").
    Sample constants are picked up from every a3_<sample>/b3_<sample> pair
    present in ``values``; a missing parameter raises KeyError naming it.
    """
    spec = ModelSpec.parse(model) if isinstance(model, str) else model
    samples = sorted(name.split("_", 1)[1] for name in values
                     if name.startswith("a3_"))
    constants = {
        s: SampleConstants(a3=values["a3_" + s], b3=values["b3_" + s])
        for s in samples
    }
    if spec.kind == "n_mode":
        modes = tuple(
            Mode(values[f"delta_{k}"], values[f"a_{k}"], values[f"b_{k}"])
            for k in range(1, spec.n_modes + 1)
        )
        return NModeParams(modes=modes, sample_constants=constants)
    return PriorModelParams(
        delta=values["delta"], a1=values["a1"], b1=values["b1"],
        a2=values["a2"], b2=values["b2"], sample_constants=constants,
    )


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
    if s[0] == 0 or s[-1] / s[0] < _RANK_RCOND:
        null = vt[-1]
        worst = np.argsort(np.abs(null))[::-1][:2]
        pair = " and ".join(str(param_names[i]) for i in sorted(worst))
        raise RankDeficiencyError(
            f"rank-deficient fit: parameters {pair} are degenerate "
            f"(singular-value ratio {s[-1] / s[0]:.2e})",
            null_direction=null,
        )
    inv_s2 = 1.0 / s**2
    return (vt.T * inv_s2) @ vt


def _solve_one(asm: _Assembled, u0: np.ndarray, lo_u: np.ndarray, hi_u: np.ndarray):
    return least_squares(
        lambda u: _residuals_log(asm, u),
        np.clip(u0, lo_u, hi_u),
        jac=lambda u: _jacobian_log(asm, u),
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
    guess = _heuristic_guess(asm)
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
    residuals = _residuals_log(asm, u_best)
    jac_log = _jacobian_log(asm, u_best)
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
        dataset_checksum=asm.checksum,
        dataset_provenance=asm.provenance,
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
