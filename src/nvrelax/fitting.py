"""Weighted nonlinear least squares for the rate models.

The chi-squared objective sums normalized residuals of both rates over all
dataset rows:

    chi2(theta) = sum_i [ (Omega_i - Omega(T_i; theta))^2 / sigma_Omega_i^2
                        + (gamma_i - gamma(T_i; theta))^2 / sigma_gamma_i^2 ]

Both rate laws are ordered sums of Orbach and T^5 terms, laid out once by
:attr:`ModelSpec.terms`; mode energies and coefficients are global across
samples, the constant floors are per sample and added last.  Given the mode
energies, both laws are linear in coefficients and floors, on one basis
(Orbach columns, T^5, floor indicators) that :func:`_model` evaluates, its
columns and slopes from ``models._term_column`` and its sums from the helper
of ``rates``, so fit and evaluation agree bit for bit.  :func:`_project`
solves that basis exactly, both channels of every grid cell in one batched
non-negative least squares (:func:`_nnls`) in which each problem stops at
the support that meets the optimality conditions; a fit searches the 1 to 3
log energies alone (variable projection), from the best minima of a grid
profile, the only start path.  The polish adds NL2SOL's structured secant
estimate of the residual curvature to Gauss-Newton where it predicts better
(Dennis, Gay & Welsch, ACM TOMS 7 (1981) 348), so it converges superlinearly
on large-residual fits.  Each parameter's bounds are fixed by its kind;
uncertainties come from the log-space Jacobian by the delta method.  Nothing
is random.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import Dataset, _require
from .models import ModelSpec, RateLaw, _Term, _sum_terms, _term_column

__all__ = [
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
    zero.  ``t_min`` restricts the rows used; the phonon-limited fit is
    ``constants="none", t_min=125.0``.  The bounds and the starts follow
    from the model alone (see :func:`fit`).
    """

    dataset: Dataset
    model: ModelSpec
    constants: str = "per_sample"
    t_min: float | None = None

    def __post_init__(self) -> None:
        if self.constants not in ("per_sample", "none"):
            raise ValueError(f"constants must be 'per_sample' or 'none', got {self.constants!r}")
        if self.t_min is not None:
            _require({"t_min": self.t_min}, "positive")


# ---------------------------------------------------------------------------
# internal problem assembly


@dataclass(frozen=True)
class _Assembled:
    """Every layout fact of one fit, decided once by :func:`_assemble`.  Data
    and errors are C-contiguous (matmul rounds by memory order); residuals,
    labels and Jacobian rows interleave the channels (omega, gamma) per row.
    The one basis layout of :func:`_project` and :func:`_model`: each
    channel's ``channel_cols`` (Orbach, T^5, floors) multiply the Orbach
    columns at the mode energies, then ``fixed_rows``."""

    names: tuple[str, ...]
    temps: np.ndarray           # per row
    data: np.ndarray            # (channel, row)
    err: np.ndarray             # (channel, row)
    labels: tuple[tuple[str, str, float, str], ...]  # (nv_id, sample, T, channel)
    modes: np.ndarray           # (Orbach term, (delta, a, b) column), term order
    linear: np.ndarray          # every column but the mode energies, ascending
    lo: np.ndarray              # each column's bounds, by parameter kind
    hi: np.ndarray
    channel_cols: np.ndarray    # (channel, basis column)
    fixed_rows: np.ndarray      # (T^5, then each sample's floor indicator; row)


def _assemble(problem: FitProblem) -> _Assembled:
    dataset = problem.dataset
    if problem.t_min is not None:
        dataset = dataset.restricted(problem.t_min)
    if len(dataset) == 0:
        raise ValueError("no dataset rows left to fit")

    rows = dataset.rows
    temps = np.array([r.temperature for r in rows])
    data = np.array([[r.omega for r in rows], [r.gamma for r in rows]], dtype=float)
    err = np.array([[r.omega_err for r in rows], [r.gamma_err for r in rows]], dtype=float)
    labels = tuple((r.nv_id, r.sample, r.temperature, channel)
                   for r in rows for channel in ("omega", "gamma"))

    # sorted sample order keeps parameter naming independent of row order
    samples = sorted({r.sample for r in rows}) if problem.constants == "per_sample" else ()
    names = [*problem.model.param_names, *(f"{c}3_{s}" for s in samples for c in "ab")]
    if len(names) >= data.size:
        raise ValueError(f"{len(names)} free parameters but only {data.size} residuals; "
                         "underdetermined")
    col = {name: j for j, name in enumerate(names)}
    terms = tuple(
        _Term(None if t.delta is None else col[t.delta], col[t.a], col[t.b])
        for t in problem.model.terms
    )
    orbach = [t for t in terms if t.delta is not None]
    fixed = [t for t in terms if t.delta is None]
    modes = np.array(orbach)
    # bounds by parameter kind: floors, coefficients (T^5's are tiny in
    # s^-1 K^-5), mode energies
    lo, hi = np.full(len(names), 1e-8), np.full(len(names), 1e3)
    for t in terms:
        lo[[t.a, t.b]], hi[[t.a, t.b]] = (1e-18, 1e-3) if t.delta is None else (1e-6, 1e9)
    lo[modes[:, 0]], hi[modes[:, 0]] = 5.0, 400.0
    fixed_rows = [_term_column(None, temps) for _ in fixed]
    fixed_rows += [[r.sample == s for r in rows] for s in samples]
    return _Assembled(
        names=tuple(names),
        temps=temps,
        data=data,
        err=err,
        labels=labels,
        modes=modes,
        linear=np.array([j for j in range(len(names)) if j not in modes[:, 0]]),
        lo=lo,
        hi=hi,
        channel_cols=np.array([[getattr(t, c) for t in orbach + fixed]
                               + [col[f"{c}3_{s}"] for s in samples] for c in "ab"]),
        fixed_rows=np.array(fixed_rows, dtype=float).reshape(-1, len(rows)),
    )


def _model(asm: _Assembled, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized residuals at ``p`` and their Jacobian d r / d log p on the
    basis :func:`_project` solves, summed by the helper ``rates`` uses (floors
    last, as indicator columns) so they match its rates bit for bit.
    """
    deltas = p[asm.modes[:, 0]]
    coef = p[asm.channel_cols.T]                    # (basis column, channel)
    jac = np.zeros((len(p), 2, len(asm.temps)))     # (parameter, channel, row)
    # an overflow (inf, or 0 * inf) is caught below and named by its temperature
    with np.errstate(over="ignore", invalid="ignore"):
        columns, slopes = _term_column(deltas[:, None], asm.temps, slope=True)
        basis = np.concatenate((columns, asm.fixed_rows))
        jac[asm.channel_cols.T, [0, 1]] = basis[:, None] * coef[..., None] / asm.err
        jac[asm.modes[:, 0]] = (coef[:len(deltas), :, None] * slopes[:, None]
                                * deltas[:, None, None] / asm.err)
    finite = np.isfinite(jac).all(axis=(0, 1))
    if not finite.all():
        raise ValueError(f"the fit's Jacobian is not finite at temperature "
                         f"{float(asm.temps[np.flatnonzero(~finite)[0]])!r} K")
    model = np.array(_sum_terms(zip(basis, *coef.T)))
    return ((model - asm.data) / asm.err).T.ravel(), jac.T.reshape(-1, len(p))


@functools.lru_cache(maxsize=None)
def _supports(k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(support, the other columns) for every nonempty support of ``k``
    columns: the full one first, then by descending size."""
    return tuple((np.array(cols), np.array([j for j in range(k) if j not in cols], dtype=int))
                 for size in range(k, 0, -1) for cols in itertools.combinations(range(k), size))


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched normal equations; if any is singular (a held or an
    underflowed column is all zero), the ones whose LU factorization meets
    an exact zero pivot (LAPACK's getrf, which ``solve`` runs too) go to one
    batched pseudo-inverse and the others to one batched solve, so no
    problem's bits depend on its batch-mates."""
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        with np.errstate(divide="ignore"):
            singular = np.linalg.slogdet(gram)[0] == 0
        x = np.empty(rhs.shape)
        x[~singular] = np.linalg.solve(gram[~singular], rhs[~singular])
        x[singular] = np.linalg.pinv(gram[singular]) @ rhs[singular]
        return x


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, |a x - b|^2) at the exact min over x >= 0, batched over leading axes.

    With at most 5 columns the supports are few, so each problem solves
    their normal equations, the full support first and then by descending
    size, and stops at the first whose solution meets the Karush-Kuhn-Tucker
    conditions (Lawson & Hanson, *Solving Least Squares Problems*, 1974,
    ch. 23): x >= 0 on the support and a^T (b - a x) <= 0 off it, or
    a^T b <= 0 for x = 0.  With full-rank columns that is the unique
    optimum.  A problem that no support certifies (rounding can do that
    where columns are degenerate) takes the feasible support with the least
    |a x - b|^2, x = 0 included, the first in the order full, then ascending
    size on a tie.
    """
    at = np.swapaxes(a, -1, -2)
    gram, rhs = at @ a, at @ b[..., None]
    k = a.shape[-1]
    x = np.zeros(rhs.shape)
    flat_gram, flat_rhs, flat_x = (v.reshape(-1, *v.shape[-2:]) for v in (gram, rhs, x))
    todo = np.arange(len(flat_rhs))     # problems not yet certified
    for cols, rest in _supports(k):
        g, r = flat_gram[todo], flat_rhs[todo]
        x_s = _solve(g[:, cols[:, None], cols], r[:, cols])
        w = r[:, rest, 0] - (g[:, rest[:, None], cols] @ x_s)[..., 0]
        done = np.all(x_s >= 0.0, axis=(1, 2)) & np.all(w <= 0.0, axis=1)
        flat_x[todo[done][:, None], cols] = x_s[done]
        todo = todo[~done]
        if len(todo) == 0:
            break
    todo = todo[~np.all(flat_rhs[todo, :, 0] <= 0.0, axis=1)]     # else x = 0
    if len(todo):
        flat_a = a.reshape(-1, *a.shape[-2:])
        flat_b = np.broadcast_to(b, a.shape[:-1]).reshape(-1, a.shape[-2])
        flat_x[todo] = _best_feasible(flat_a[todo], flat_b[todo], flat_gram[todo], flat_rhs[todo])
    # (a x - b)^2 in place, the same arithmetic with no 0.4 MB profile temporaries
    residual = (a @ x)[..., 0]
    residual -= b
    residual **= 2
    return x[..., 0], np.sum(residual, axis=-1)


def _best_feasible(a: np.ndarray, b: np.ndarray, gram: np.ndarray,
                   rhs: np.ndarray) -> np.ndarray:
    """:func:`_nnls`'s fallback over a flat batch: the x (column vectors) of
    the feasible support with the least |a x - b|^2, x = 0 included, the
    first in the order full, then ascending size on a tie."""
    supports = _supports(a.shape[-1])
    x, best = np.zeros(rhs.shape), np.sum(b * b, axis=-1)
    for cols, _ in supports[:1] + tuple(sorted(supports[1:], key=lambda s: len(s[0]))):
        x_s = _solve(gram[:, cols[:, None], cols], rhs[:, cols])
        trial = np.zeros(rhs.shape)
        trial[:, cols] = x_s
        r2 = np.sum(((a @ trial)[..., 0] - b) ** 2, axis=-1)
        better = np.all(x_s >= 0.0, axis=(1, 2)) & (r2 < best)
        x[better], best[better] = trial[better], r2[better]
    return x


def _project(asm: _Assembled, log_deltas: np.ndarray,
             held: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(chi2, parameters) at mode energies exp(log_deltas), batched over
    leading axes: both channels' coefficients (maybe 0) and floors by one
    :func:`_nnls` call on the basis columns scaled by the errors, then to
    unit norm (T^5 would dwarf a floor indicator unscaled).  A column whose
    entry in ``held`` (a parameter vector) is not NaN keeps that value; the
    channels may hold different columns."""
    deltas = np.exp(log_deltas)
    columns = _term_column(deltas[..., None], asm.temps)     # (..., mode, row)
    modes = columns.shape[-2]
    basis = np.empty((*deltas.shape[:-1], *asm.channel_cols.shape, len(asm.temps)))
    np.divide(columns[..., None, :, :], asm.err[:, None, :], out=basis[..., :modes, :])
    basis[..., modes:, :] = asm.fixed_rows / asm.err[:, None, :]
    norm = np.sqrt(np.einsum("...ij,...ij->...i", basis, basis))
    norm[norm == 0.0] = 1.0
    basis /= norm[..., None]
    target = asm.data / asm.err
    fix = np.zeros(basis.shape[-3:-1], bool) if held is None else ~np.isnan(held[asm.channel_cols])
    if fix.any():
        shift = np.zeros(basis.shape[:-2] + basis.shape[-1:])
        for k in np.flatnonzero(fix.any(axis=1)):
            cols = asm.channel_cols[k][fix[k]]
            shift[..., k, :] = np.einsum("...i,...ij->...j", held[cols] * norm[..., k, fix[k]],
                                         basis[..., k, fix[k], :])
        target = target - shift
        basis[..., fix, :] = 0.0
    x, r2 = _nnls(np.swapaxes(basis, -1, -2), target)
    p = np.zeros((*deltas.shape[:-1], len(asm.names)))
    p[..., asm.modes[:, 0]] = deltas
    p[..., asm.channel_cols] = x / norm
    chi2 = r2[..., 0] + r2[..., 1]
    return chi2, p if held is None else np.where(np.isnan(held), p, held)


def _profile(asm: _Assembled) -> list[tuple[float, np.ndarray]]:
    """(chi2, physical parameters) at the distinct local minima of the
    profile chi2 over a log grid of mode energies, best first.

    In a cell mode k takes the k-th of ascending grid indices, and one
    :func:`_project` solves every cell.  A cell that no neighbour
    (diagonals too) undercuts is a minimum; touching minima are one plateau.
    """
    deltas, modes = asm.modes[:, 0], len(asm.modes)
    size = _PROFILE_POINTS[modes]
    grid = np.log(np.geomspace(asm.lo[deltas], asm.hi[deltas], size))
    cells = np.array(list(itertools.combinations(range(size), modes)))
    cell_chi2, cell_p = _project(asm, grid[cells, np.arange(modes)])

    chi2 = np.full((size,) * modes, np.inf)
    chi2[tuple(cells.T)] = cell_chi2
    found = dict(zip(map(tuple, cells.tolist()), cell_p))

    offsets = [o for o in itertools.product((-1, 0, 1), repeat=modes) if any(o)]
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
    out = p.copy()
    out[asm.modes] = p[asm.modes[np.argsort(p[asm.modes[:, 0]], kind="stable")]]
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
    converged: bool     # False when the evaluation cap or a failed evaluation ended it


def least_squares(asm: _Assembled, p0: np.ndarray) -> _Polish:
    """Separable fit from the mode energies of ``p0``: Levenberg-Marquardt
    on u = log delta alone (Golub & Pereyra, SIAM J. Numer. Anal. 10 (1973)
    413), the rest by :func:`_project`: a coefficient over its upper bound is
    held there while the others are re-solved, and one under its lower bound
    (a stand-in for 0) is raised to it.  Kaufman's Jacobian K (BIT 15 (1975)
    49) is the model's log-delta columns projected off those of the
    coefficients inside their bounds.  An energy on a bound that its
    gradient pushes outward, or whose e-fold moves the residuals less than
    their rounding, is held: its row and column of the step's matrix are
    the identity's.

    The step solves (K^T K + S + lambda diag(K^T K)) s = -K^T r, with S the
    structured secant estimate of sum_i r_i Hess r_i of NL2SOL (Dennis, Gay
    & Welsch, ACM TOMS 7 (1981) 348).  S starts at 0; after each accepted
    step, with y = K+^T r+ - K^T r and y# = K+^T r+ - K^T r+, it is sized
    by min(1, |s^T y#| / |s^T S s|) and updated so that S+ s = y#, unless
    y^T s <= 0.  S enters the step only while it predicted the last
    accepted step's change of chi2 better than Gauss-Newton did (the model
    switch), so small-residual fits keep Gauss-Newton's pace.  A step that
    does not descend, as an indefinite S can make, raises lambda as a
    rejected one does.  The solve stops when the Gauss-Newton predicted or
    the actual fall of chi2 is within chi2's rounding error.

    A chi2, gradient or K^T K that overflows is a failed evaluation: such a
    trial is rejected, and at the current point the start ends unconverged
    with chi2 = inf, so it never wins.  An update of S that overflows is
    dropped for Gauss-Newton.
    """
    deltas, linear, lo, hi = asm.modes[:, 0], asm.linear, asm.lo, asm.hi
    u_lo, u_hi = np.log(lo[deltas]), np.log(hi[deltas])
    # each residual's rounding, interleaved like the residuals
    scale = np.finfo(float).eps * np.abs(asm.data / asm.err).T.ravel()

    def evaluate(u):
        held = np.full(len(lo), np.nan)
        p = _project(asm, u, held)[1]
        while (p[linear] > hi[linear]).any():   # hold the furthest over, re-solve the rest
            j = linear[np.argmax(p[linear] / hi[linear])]
            held[j] = hi[j]
            p = _project(asm, u, held)[1]
        p = np.clip(p, lo, hi)
        r, jac = _model(asm, p)
        with np.errstate(over="ignore"):    # an overflowed chi2 is a failed evaluation
            return p, float(r @ r), u, r, jac

    point = evaluate(np.clip(np.log(p0[deltas]), u_lo, u_hi))
    nfev, njev, damping = 1, 0, 1e-3
    secant, use_secant, last = np.zeros((len(deltas), len(deltas))), False, None
    while nfev < _MAX_EVALUATIONS:
        p, chi2, u, r, jac = point
        inside = jac[:, linear[(lo[linear] < p[linear]) & (p[linear] < hi[linear])]]
        kaufman = jac[:, deltas] - inside @ np.linalg.lstsq(inside, jac[:, deltas], rcond=None)[0]
        with np.errstate(over="ignore", invalid="ignore"):    # an overflow is checked below
            gradient, njev = kaufman.T @ r, njev + 1
            if last is not None:    # Dennis-Gay-Welsch update over the accepted step
                s, y = last[0], gradient - last[1]
                y_sharp = gradient - last[2].T @ r
                if (ys := y @ s) > 0.0:
                    if (sss := s @ secant @ s) != 0.0:
                        secant *= min(1.0, abs(s @ y_sharp) / abs(sss))
                    z = y_sharp - secant @ s
                    secant += ((np.outer(z, y) + np.outer(y, z)) / ys
                               - (s @ z) / ys**2 * np.outer(y, y))
            frozen = (((u <= u_lo) & (gradient > 0.0)) | ((u >= u_hi) & (gradient < 0.0))
                      | (np.linalg.norm(kaufman, axis=0) <= np.linalg.norm(scale)))
            k = np.where(frozen, 0.0, kaufman)
            g, gram = k.T @ r, k.T @ k
        if not (np.isfinite(chi2) and np.isfinite(gradient).all() and np.isfinite(gram).all()):
            return _Polish(p, np.inf, nfev, njev, False)
        if not np.isfinite(secant).all():
            secant = np.zeros_like(secant)
        rounding = 2.0 * float(np.linalg.norm(r * scale)) + float(scale @ scale)
        fall = k @ np.linalg.lstsq(k, r, rcond=None)[0]
        if float(fall @ fall) <= rounding:
            return _Polish(p, chi2, nfev, njev, True)
        s_term = np.where(frozen[:, None] | frozen, 0.0, secant)
        curvature = gram + np.diag(frozen.astype(float)) + (s_term if use_secant else 0.0)
        while nfev < _MAX_EVALUATIONS:
            # Marquardt's scaling: the damping is relative to each curvature
            step = np.linalg.solve(curvature + np.diag(damping * np.diag(gram)), -g)
            if step @ g >= 0.0:     # uphill, as an indefinite secant term can make it
                damping *= 10.0
                continue
            trial, nfev = evaluate(np.clip(u + step, u_lo, u_hi)), nfev + 1
            if abs(chi2 - trial[1]) <= rounding:
                return _Polish(*min(point, trial, key=lambda q: q[1])[:2], nfev, njev, True)
            if trial[1] < chi2:
                # the model switch: the secant term stays in while it predicts better
                s = trial[2] - u
                change, newton = trial[1] - chi2, 2.0 * (g @ s) + s @ gram @ s
                use_secant = abs(change - newton - s @ s_term @ s) < abs(change - newton)
                point, damping, last = trial, damping / 10.0, (s, gradient, kaufman)
                break
            damping *= 10.0
    return _Polish(*point[:2], nfev, njev, False)


def fit(problem: FitProblem) -> FitResult:
    """Minimize the weighted chi-squared: assemble the problem, profile the
    mode energies, and polish every distinct minimum of :func:`_profile` by
    :func:`least_squares`.  Ties break by lowest chi2, then fewest
    evaluations, then start index.  Raises RuntimeError when every start
    failed on an overflow.
    """
    asm = _assemble(problem)
    results = [least_squares(asm, p0) for _, p0 in _profile(asm)]
    best = min(results, key=lambda r: (r.chi2, r.nfev))     # first start on a tie
    if best.chi2 == np.inf:
        raise RuntimeError("chi2 or its derivatives overflow at every start of the fit")
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
