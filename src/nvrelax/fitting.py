"""Weighted nonlinear least squares for the rate models.

The chi-squared objective sums normalized residuals of both rates over all
dataset rows:

    chi2(theta) = sum_i [ (Omega_i - Omega(T_i; theta))^2 / sigma_Omega_i^2
                        + (gamma_i - gamma(T_i; theta))^2 / sigma_gamma_i^2 ]

Both rate laws are ordered sums of Orbach and T^5 terms, laid out once by
:attr:`ModelSpec.terms`; mode energies and coefficients are global across
samples, the constant floors are per sample and added last.  The model is
summed by the same helper as ``rates``, so fit and evaluation agree bit for
bit.  Given the mode energies, both laws are linear in coefficients and
floors, which :func:`_project` solves exactly; a fit searches the 1 to 3 log
energies alone (variable projection), from the best minima of a grid
profile, the only start path.  Each parameter's bounds are fixed by its
kind; uncertainties come from the log-space Jacobian by the delta method.
Nothing is random.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import BOLTZMANN_MEV_PER_K, Dataset, _require
from .models import ModelSpec, RateLaw, _Term, _bose_einstein, _sum_terms, _term_column

__all__ = [
    "PHONON_LIMITED_T_MIN_K",
    "ModelSpec",
    "FitProblem",
    "FitResult",
    "ResidualDiagnostics",
    "ResidualOutlier",
    "RankDeficiencyError",
    "fit",
    "compare_models",
    "residual_diagnostics",
    "estimate_covariance",
]

# temperatures at or above this are lattice-dominated; the restricted fit
# drops the per-sample constant floors entirely
PHONON_LIMITED_T_MIN_K = 125.0

# relative singular-value cutoff below which the normal equations are
# treated as rank deficient
_RANK_RCOND = 1e-10

_MAX_EVALUATIONS = 100     # projections in one polish

# residual_diagnostics: outlier cut, in sigma
_OUTLIER_THRESHOLD = 2.5

# profile grid points per mode energy, by Orbach term count (cells ~ points^n/n!)
_PROFILE_POINTS = {1: 30, 2: 30, 3: 15}


class RankDeficiencyError(RuntimeError):
    """Normal equations singular: some parameter combination is unconstrained."""


@dataclass(frozen=True)
class FitProblem:
    """A dataset plus the model and fitting policy.

    ``constants`` chooses the shared-parameter structure: ``"per_sample"``
    fits one (a3, b3) floor per sample label, ``"none"`` fixes all floors to
    zero.  ``t_min`` restricts the rows used.  The phonon-limited framing
    (T >= 125 K, no constants) is available via :meth:`phonon_limited`.
    ``multistart`` is the most profile minima polished (see :func:`fit`);
    the bounds and the starts follow from the model alone.
    """

    dataset: Dataset
    model: ModelSpec
    constants: str = "per_sample"
    t_min: float | None = None
    multistart: int = 16

    def __post_init__(self) -> None:
        if self.constants not in ("per_sample", "none"):
            raise ValueError(f"constants must be 'per_sample' or 'none', got {self.constants!r}")
        if self.multistart < 1:
            raise ValueError("multistart count must be >= 1")
        if self.t_min is not None:
            _require({"t_min": self.t_min}, "positive")

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
        _Term(None if t.delta is None else col[t.delta], col[t.a], col[t.b])
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


def _bounds(asm: _Assembled) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bound of every parameter column, by parameter kind."""
    lo, hi = np.empty(len(asm.names)), np.empty(len(asm.names))
    for t in asm.terms:
        if t.delta is None:
            coeff = (1e-18, 1e-3)      # T^5 coefficients are tiny in s^-1 K^-5
        else:
            lo[t.delta], hi[t.delta] = 5.0, 400.0
            coeff = (1e-6, 1e9)
        lo[[t.a, t.b]], hi[[t.a, t.b]] = coeff
    for floor in asm.floors:
        lo[list(floor)], hi[list(floor)] = 1e-8, 1e3
    return lo, hi


def _model(asm: _Assembled, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized residuals at ``p``, summed by the helper ``rates`` uses
    (floors last) so they match its rates bit for bit, and their Jacobian
    d r / d log p, with d/d delta of n(n+1) equal to -(2n+1) n(n+1) / k_B T.
    """
    err_omega, err_gamma = asm.err[0::2], asm.err[1::2]
    jac = np.zeros((len(asm.data), len(p)))
    triples = []
    # an overflow (inf, or 0 * inf) is caught below and named by its temperature
    with np.errstate(over="ignore", invalid="ignore"):
        for t in asm.terms:
            if t.delta is None:
                column = _term_column(None, asm.temps)
            else:
                n = _bose_einstein(p[t.delta] / asm.kT)
                column = n * (n + 1.0)
                slope = -(2.0 * n + 1.0) * n * (n + 1.0) / asm.kT
                jac[0::2, t.delta] = p[t.a] * slope * p[t.delta] / err_omega
                jac[1::2, t.delta] = p[t.b] * slope * p[t.delta] / err_gamma
            jac[0::2, t.a] = column * p[t.a] / err_omega
            jac[1::2, t.b] = column * p[t.b] / err_gamma
            triples.append((column, p[t.a], p[t.b]))
    finite = np.isfinite(jac).all(axis=1)
    if not finite.all():
        row = np.flatnonzero(~finite)[0]
        raise ValueError(f"the fit's Jacobian is not finite at temperature "
                         f"{asm.labels[row][2]!r} K")
    model = np.empty(len(asm.data))
    model[0::2], model[1::2] = _sum_terms(triples)
    if asm.floor_cols is not None:
        model += p[asm.floor_cols]
        jac[np.arange(len(asm.data)), asm.floor_cols] = p[asm.floor_cols] / asm.err
    return (model - asm.data) / asm.err, jac


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, |a x - b|^2) at the exact min over x >= 0, batched over leading axes.

    The optimum is the best support whose least-squares solution is feasible;
    with at most 5 columns each support's normal equations are solved, the
    full one first (where it is feasible, no other can do better), and a
    singular one by the pseudo-inverse.
    """
    at = np.swapaxes(a, -1, -2)
    gram, rhs = at @ a, at @ b[..., None]
    k = a.shape[-1]
    x, best = np.zeros(rhs.shape), np.full(gram.shape[:-2], np.sum(b * b, axis=-1))
    for cols in [list(range(k))] + [list(c) for size in range(1, k)
                                    for c in itertools.combinations(range(k), size)]:
        g = gram[..., cols, :][..., :, cols]
        try:
            x_s = np.linalg.solve(g, rhs[..., cols, :])
        except np.linalg.LinAlgError:
            x_s = np.linalg.pinv(g) @ rhs[..., cols, :]
        trial = np.zeros(rhs.shape)
        trial[..., cols, :] = x_s
        r2 = np.sum(((a @ trial)[..., 0] - b) ** 2, axis=-1)
        better = np.all(x_s >= 0.0, axis=(-2, -1)) & (r2 < best)
        x[better], best[better] = trial[better], r2[better]
        if len(cols) == k and better.all():
            break       # the full support is feasible everywhere
    return x[..., 0], best


def _project(asm: _Assembled, log_deltas: np.ndarray,
             held: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(chi2, parameters) at mode energies exp(log_deltas), batched over
    leading axes: each channel's coefficients (maybe 0) and floors by
    :func:`_nnls` on the basis columns scaled by the errors, then to unit
    norm (T^5 would dwarf a floor indicator unscaled).  A column whose
    entry in ``held`` (a parameter vector) is not NaN keeps that value."""
    orbach = [t for t in asm.terms if t.delta is not None]
    fixed = [t for t in asm.terms if t.delta is None]
    deltas = np.exp(log_deltas)
    n = _bose_einstein(deltas[..., None] / asm.kT)        # (..., mode, row)
    n *= n + 1.0
    p = np.zeros((*deltas.shape[:-1], len(asm.names)))
    p[..., [t.delta for t in orbach]] = deltas
    chi2 = 0.0
    for k, field in enumerate("ab"):
        err = asm.err[k::2]
        cols = [getattr(t, field) for t in orbach + fixed] + [pair[k] for pair in asm.floors]
        basis = np.empty((*deltas.shape[:-1], len(cols), len(err)))
        basis[..., :len(orbach), :] = n
        basis[..., len(orbach):, :] = np.reshape(
            [_term_column(None, asm.temps) for _ in fixed]
            + [asm.floor_cols[k::2] == pair[k] for pair in asm.floors], (-1, len(err)))
        basis /= err
        norm = np.sqrt(np.einsum("...ij,...ij->...i", basis, basis))
        norm[norm == 0.0] = 1.0
        basis /= norm[..., None]
        target = asm.data[k::2] / err
        fix = np.zeros(len(cols), bool) if held is None else ~np.isnan(held[cols])
        if fix.any():
            target = target - np.einsum("...i,...ij->...j", held[cols][fix] * norm[..., fix],
                                        basis[..., fix, :])
            basis[..., fix, :] = 0.0
        x, r2 = _nnls(np.swapaxes(basis, -1, -2), target)
        p[..., cols] = x / norm
        chi2 = chi2 + r2
    return chi2, p if held is None else np.where(np.isnan(held), p, held)


def _profile(asm: _Assembled, lo: np.ndarray,
             hi: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(chi2, physical parameters) at the distinct local minima of the
    profile chi2 over a log grid of mode energies, best first.

    In a cell mode k takes the k-th of ascending grid indices, and one
    :func:`_project` solves every cell.  A cell that no neighbour
    (diagonals too) undercuts is a minimum; touching minima are one plateau.
    """
    deltas = [t.delta for t in asm.terms if t.delta is not None]
    size = _PROFILE_POINTS[len(deltas)]
    grid = np.log(np.geomspace(lo[deltas], hi[deltas], size))
    cells = np.array(list(itertools.combinations(range(size), len(deltas))))
    cell_chi2, cell_p = _project(asm, grid[cells, np.arange(len(deltas))])

    chi2 = np.full((size,) * len(deltas), np.inf)
    chi2[tuple(cells.T)] = cell_chi2
    found = dict(zip(map(tuple, cells.tolist()), cell_p))

    offsets = [o for o in itertools.product((-1, 0, 1), repeat=len(deltas)) if any(o)]
    padded = np.pad(chi2, 1, constant_values=np.inf)
    lowest = np.min([padded[tuple(slice(1 + o, 1 + o + size) for o in off)]
                     for off in offsets], axis=0)
    minima = set(found).intersection(map(tuple, np.argwhere(chi2 <= lowest).tolist()))
    out, taken = [], set()
    for idx in sorted(minima, key=lambda c: (chi2[c], c)):
        if idx in taken:
            continue
        out.append((float(chi2[idx]), found[idx]))
        taken.add(idx)
        plateau = [idx]
        for cell in plateau:        # grows while it is walked
            for near in (tuple(c + o for c, o in zip(cell, off)) for off in offsets):
                if near in minima and near not in taken:
                    taken.add(near)
                    plateau.append(near)
    return out


def _canonical_order(asm: _Assembled, p: np.ndarray) -> np.ndarray:
    """Permute parameters so the Orbach terms are ascending in energy."""
    orbach = [t for t in asm.terms if t.delta is not None]
    out = p.copy()
    for new, old in zip(orbach, sorted(orbach, key=lambda t: p[t.delta])):
        out[[new.delta, new.a, new.b]] = p[[old.delta, old.a, old.b]]
    return out


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
    start_chi2: tuple[float, ...]
    constants: str
    t_min: float | None
    dataset_checksum: str
    dataset_provenance: str

    @property
    def label(self) -> str:
        """Model label, suffixed with the temperature cut when there is one."""
        return self.model.label + ("" if self.t_min is None else f" (T>={self.t_min:g}K)")

    def to_model_params(self) -> RateLaw:
        """The fitted rate law, floors included."""
        return RateLaw(self.model, self.params)

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
                "n_starts": len(self.start_chi2),
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
        worst = np.argsort(np.abs(vt[-1]))[::-1][:2]
        pair = " and ".join(str(param_names[i]) for i in sorted(worst))
        raise RankDeficiencyError(
            f"rank-deficient fit: parameters {pair} are degenerate "
            f"(singular-value ratio {ratio:.2e})"
        )
    inv_s2 = 1.0 / s**2
    return (vt.T * inv_s2) @ vt


class _Polish(NamedTuple):
    """Outcome of :func:`least_squares`: the optimum and its evaluation counts."""

    p: np.ndarray       # physical parameters, inside their bounds
    chi2: float
    nfev: int           # projections
    njev: int           # projected Jacobians
    converged: bool     # False when the evaluation cap ended the solve


def least_squares(asm: _Assembled, p0: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> _Polish:
    """Separable fit from the mode energies of ``p0``: Levenberg-Marquardt
    on u = log delta alone (Golub & Pereyra, SIAM J. Numer. Anal. 10 (1973)
    413), the rest by :func:`_project`: a coefficient over its upper bound is
    held there while the others are re-solved, and one under its lower bound
    (a stand-in for 0) is raised to it.  Kaufman's Jacobian (BIT 15 (1975)
    49) is the model's log-delta columns projected off those of the
    coefficients inside their bounds.  An energy on a bound that its
    gradient pushes outward, or whose e-fold moves the residuals less than
    their rounding, is held.  The solve stops when the predicted or the
    actual fall of chi2 is within chi2's rounding error.
    """
    deltas = [t.delta for t in asm.terms if t.delta is not None]
    linear = np.setdiff1d(np.arange(len(asm.names)), deltas)
    u_lo, u_hi = np.log(lo[deltas]), np.log(hi[deltas])
    scale = np.finfo(float).eps * np.abs(asm.data / asm.err)   # each residual's rounding

    def evaluate(u):
        held = np.full(len(lo), np.nan)
        p = _project(asm, u, held)[1]
        while (p[linear] > hi[linear]).any():   # hold the furthest over, re-solve the rest
            j = linear[np.argmax(p[linear] / hi[linear])]
            held[j] = hi[j]
            p = _project(asm, u, held)[1]
        p = np.clip(p, lo, hi)
        r, jac = _model(asm, p)
        return p, float(r @ r), u, r, jac

    point = evaluate(np.clip(np.log(p0[deltas]), u_lo, u_hi))
    nfev, njev, damping = 1, 0, 1e-3
    while nfev < _MAX_EVALUATIONS:
        p, chi2, u, r, jac = point
        inside = jac[:, linear[(lo[linear] < p[linear]) & (p[linear] < hi[linear])]]
        kaufman = jac[:, deltas] - inside @ np.linalg.lstsq(inside, jac[:, deltas], rcond=None)[0]
        gradient, njev = kaufman.T @ r, njev + 1
        kaufman[:, ((u <= u_lo) & (gradient > 0.0)) | ((u >= u_hi) & (gradient < 0.0))
                | (np.linalg.norm(kaufman, axis=0) <= np.linalg.norm(scale))] = 0.0
        rounding = 2.0 * float(np.linalg.norm(r * scale)) + float(scale @ scale)
        fall = kaufman @ np.linalg.lstsq(kaufman, r, rcond=None)[0]
        if float(fall @ fall) <= rounding:
            return _Polish(p, chi2, nfev, njev, True)
        while nfev < _MAX_EVALUATIONS:
            # Marquardt's scaling: the damping is relative to each curvature
            rows = np.diag(np.sqrt(damping * np.sum(kaufman**2, axis=0)))
            step = np.linalg.lstsq(np.vstack([kaufman, rows]),
                                   np.concatenate([-r, np.zeros(len(u))]), rcond=None)[0]
            trial, nfev = evaluate(np.clip(u + step, u_lo, u_hi)), nfev + 1
            if abs(chi2 - trial[1]) <= rounding:
                return _Polish(*min(point, trial, key=lambda q: q[1])[:2], nfev, njev, True)
            if trial[1] < chi2:
                point, damping = trial, damping / 10.0
                break
            damping *= 10.0
    return _Polish(*point[:2], nfev, njev, False)


def fit(problem: FitProblem) -> FitResult:
    """Minimize the weighted chi-squared: assemble the problem, profile the
    mode energies, and polish each of the best ``multistart`` minima of
    :func:`_profile` by :func:`least_squares`.  Ties break by lowest chi2,
    then fewest evaluations, then start index.
    """
    asm = _assemble(problem)
    lo, hi = _bounds(asm)
    results = [least_squares(asm, p0, lo, hi)
               for _, p0 in _profile(asm, lo, hi)[:problem.multistart]]
    best = min(results, key=lambda r: (r.chi2, r.nfev))     # first start on a tie
    p_best = _canonical_order(asm, best.p)
    residuals, jac_log = _model(asm, p_best)
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
        converged=best.converged,
        n_iterations=best.nfev,
        gradient_norm=grad_norm,
        start_chi2=tuple(r.chi2 for r in results),
        constants=problem.constants,
        t_min=problem.t_min,
        dataset_checksum=problem.dataset.checksum(),
        dataset_provenance=problem.dataset.provenance,
    )


def compare_models(results: Sequence[FitResult]) -> tuple[FitResult, ...]:
    """The fits of one dataset, best reduced chi-squared first (stable)."""
    if not results:
        raise ValueError("nothing to compare")
    if len({r.dataset_checksum for r in results}) > 1:
        raise ValueError("fits compare different datasets; checksums differ")
    return tuple(sorted(results, key=lambda r: r.chi2_reduced))


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
    outliers: tuple[ResidualOutlier, ...]
    outlier_threshold: float


def residual_diagnostics(result: FitResult) -> ResidualDiagnostics:
    """Summarize residual normality for a converged fit."""
    if not result.converged:
        raise ValueError("diagnostics need a converged fit")
    r = result.residuals_normalized
    mean = float(np.mean(r))
    variance = float(np.var(r))  # population convention (divide by N)
    outliers = tuple(
        ResidualOutlier(nv, sample, t, channel, float(value))
        for (nv, sample, t, channel), value in zip(result.residual_labels, r)
        if abs(value) > _OUTLIER_THRESHOLD
    )
    return ResidualDiagnostics(
        mean=mean,
        variance=variance,
        outliers=outliers,
        outlier_threshold=_OUTLIER_THRESHOLD,
    )
