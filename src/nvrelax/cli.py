"""Command-line front end: every pipeline as a reproducible subcommand.

Subcommands: ``fit`` (rate-model fits), ``eval`` (rate and coherence
tables from fitted parameters), ``spectral`` (broadened spectral functions
and quadrature rate curves), ``simulate`` (three-level protocol with shot
noise), ``compare`` (model ranking plus high-temperature extrapolation).

Every output file embeds the tool version, a canonical echo of the run
configuration, the seed, and a checksum of the governing input (the
measurement dataset for fit/compare, the parameter file for eval, the
coupling table for spectral, the emitted synthetic dataset for simulate),
so two runs with an identical configuration are byte-identical. ``_write``
is the one place that stamps and writes an output.

Exit codes: 0 success, 1 input error (message on standard error),
2 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from . import __version__
from .core import (
    BUILTIN_TAG,
    DEFAULT_SEED,
    Dataset,
    DatasetError,
    TransitionChannel,
)
from .core import _T_INGEST_MAX_K, _T_INGEST_MIN_K, _csv_text, _read_input, _sha256
from .core import load_dataset as _load_dataset
from .dynamics import (
    ProtocolSpec,
    RateMatrix,
    extract_rates,
    simulate_experiment,
    to_rate_measurement,
)
from .fitting import FitProblem, compare_models, fit
from .models import ModelSpec, RateLaw, coherence_limits
from .spectral import (
    anchor_coupling_table,
    build_spectral_function,
    parse_coupling_text,
    rate_curve,
    refit_theory_curve,
    spectral_to_csv_text,
)

__all__ = ["main"]

ANCHOR_TAG = "anchor-modes"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for numerical non-convergence, so
    # usage problems must not fall through to argparse's exit(2)
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# characters of an output written at a time
_WRITE_PIECE = 1 << 20


def _write(args: argparse.Namespace, checksum: str, path: str | None,
           body: str | dict) -> None:
    """Stamp ``body`` (text, or a dict written as JSON) with the version,
    the config echo, the seed and ``checksum``; write it to ``path``, or to
    standard output when None."""
    options = []
    for key, value in vars(args).items():
        if key in ("handler", "subcommand") or value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        options.append((key.replace("_", "-"), str(value)))
    metadata = {
        "version": f"nvrelax {__version__}",
        "config": " ".join([args.subcommand, *(f"--{k}={v}" for k, v in sorted(options))]),
        "seed": args.seed,
        "dataset_checksum": checksum,
    }
    if isinstance(body, dict):
        parts = [json.dumps({**metadata, **body}, indent=2) + "\n"]
    else:
        parts = [_csv_text(None, [], metadata), body]
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8")) as out:
        # the stamp and the body, each in pieces: a 250001-row spectral CSV
        # is never copied whole, neither joined to its stamp nor encoded
        for part in parts:
            for start in range(0, len(part), _WRITE_PIECE):
                out.write(part[start:start + _WRITE_PIECE])


# ---------------------------------------------------------------- fit


def _cmd_fit(args) -> int:
    dataset = _load_dataset(args.data)
    result = fit(FitProblem(dataset=dataset, model=ModelSpec.parse(args.model),
                            constants=args.constants, t_min=args.t_min))
    _write(args, dataset.checksum(), args.output, result.to_report_dict())
    if not result.converged:
        print("fit did not converge", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- eval


def _parse_params(text: str) -> tuple[str, dict[str, float]]:
    """(model label, {name: value}) of a parameter file's text.

    Accepts either a fit report (parameters as a list of name/value/sigma
    records) or a plain mapping {"model": ..., "parameters": {name: value}}.
    """
    try:
        document = json.loads(text)
    except RecursionError as exc:    # nesting too deep: an input fault, not a numerical one
        raise ValueError(str(exc)) from None
    if not (isinstance(document, dict) and isinstance(document.get("model"), str)):
        raise ValueError("needs an object with a 'model' string")
    raw = document.get("parameters")
    if isinstance(raw, list) and all(isinstance(entry, dict) and "value" in entry
                                     and isinstance(entry.get("name"), str) for entry in raw):
        raw = {entry["name"]: entry["value"] for entry in raw}
    if not isinstance(raw, dict):
        raise ValueError("needs 'parameters': a mapping, or a list of objects with "
                         "'name' and 'value'")
    values = {}
    for name, value in raw.items():
        try:
            if isinstance(value, bool):    # float(true) would read it as 1
                raise TypeError
            values[name] = float(value)
        except (TypeError, ValueError, OverflowError):  # an int too large for a float overflows
            raise ValueError(f"parameter {name!r} must be a number, got {value!r}") from None
    return document["model"], values


def _temperature_grid(args, geometric: bool) -> np.ndarray:
    if getattr(args, "temps", None):
        return np.array([float(t) for t in args.temps.split(",")])
    if args.t_max <= args.t_min:
        raise ValueError("t-max must exceed t-min")
    try:
        return (np.geomspace if geometric else np.linspace)(args.t_min, args.t_max, args.n_temps)
    except (ValueError, MemoryError):
        raise ValueError(f"--n-temps {args.n_temps} asks for more temperatures than can "
                         "be allocated") from None


def _cmd_eval(args) -> int:
    (label, values), text = _read_input(args.params, "params", _parse_params)
    params = RateLaw(ModelSpec.parse(label), values)
    temps = _temperature_grid(args, geometric=False)
    rows = []
    for t in temps:
        omega, gamma = params.rates(args.sample, float(t))
        ratio = gamma / omega if omega > 0 else math.nan
        lim = coherence_limits(omega, gamma)
        rows.append(f"{float(t)!r},{omega!r},{gamma!r},{ratio!r},"
                    f"{lim.t2_sq!r},{lim.t2_dq!r},{lim.t1!r}")
    _write(args, _sha256(text), args.output, _csv_text(
        "temperature_k,omega_s,gamma_s,gamma_over_omega,t2_sq_s,t2_dq_s,t1_s", rows))
    return 0


# ---------------------------------------------------------------- spectral


def _cmd_spectral(args) -> int:
    if args.coupling == ANCHOR_TAG:
        table = anchor_coupling_table()
        coupling_text = table.to_csv_text()
    else:
        table, coupling_text = _read_input(args.coupling, "coupling", parse_coupling_text)
    checksum = _sha256(coupling_text)

    # each channel on its own default grid: the CSV writer formats the
    # grid's text once for both, since the two grids have the same bits
    f_sq = build_spectral_function(table, TransitionChannel.SINGLE_QUANTUM, sigma=args.sigma)
    f_dq = build_spectral_function(table, TransitionChannel.DOUBLE_QUANTUM, sigma=args.sigma)
    temps = _temperature_grid(args, geometric=True)
    curve = rate_curve(f_sq, f_dq, temps)
    # a failed refit must leave no files behind, so it runs before any write
    if args.refit:
        result = refit_theory_curve(curve, t_max=float(args.t_max))

    _write(args, checksum, f"{args.output}.sq.csv", spectral_to_csv_text(f_sq))
    _write(args, checksum, f"{args.output}.dq.csv", spectral_to_csv_text(f_dq))
    _write(args, checksum, f"{args.output}.rates.csv", curve.to_csv_text())
    if args.refit:
        _write(args, checksum, f"{args.output}.refit.json", result.to_report_dict())
    return 0


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args) -> int:
    rates = RateMatrix(args.omega, args.gamma)
    spec = ProtocolSpec(
        shots=None if args.noise_free else args.shots,
        n_tau=args.n_tau, tau_max_scale=args.tau_max_scale)
    sim = simulate_experiment(rates, spec, seed=args.seed)
    estimate = extract_rates(sim.omega_branch, sim.gamma_branch)

    if estimate.gamma_negative:
        dataset_text = _csv_text(
            None, [], {"note": "negative rate estimate, no dataset row emitted"})
    else:
        row = to_rate_measurement(estimate, temperature=args.temperature)
        dataset_text = Dataset(rows=(row,), provenance="synthetic-protocol").to_csv_text()
    checksum = _sha256(dataset_text)

    _write(args, checksum, f"{args.output}.dataset.csv", dataset_text)

    _write(args, checksum, f"{args.output}.curves.csv", _csv_text("branch,tau_s,value,error", [
        f"{name},{tau!r},{value!r},{error!r}"
        for name, branch in (("omega", sim.omega_branch), ("gamma", sim.gamma_branch))
        for tau, value, error in zip(branch.tau_grid, branch.values, branch.errors)]))

    _write(args, checksum, f"{args.output}.report.json", {
        "truth": {"omega_s": rates.omega, "gamma_s": rates.gamma},
        "protocol": {
            "shots": spec.shots,
            "n_tau": spec.n_tau,
            "tau_max_scale": spec.tau_max_scale,
            "omega_branch": {"init": sim.omega_branch.init_state,
                             "pair": list(sim.omega_branch.readout_pair)},
            "gamma_branch": {"init": sim.gamma_branch.init_state,
                             "pair": list(sim.gamma_branch.readout_pair)},
        },
        "estimate": {
            "omega_s": estimate.omega, "omega_err_s": estimate.omega_err,
            "gamma_s": estimate.gamma, "gamma_err_s": estimate.gamma_err,
            "r1_s": estimate.r1, "r1_err_s": estimate.r1_err,
            "r2_s": estimate.r2, "r2_err_s": estimate.r2_err,
            "gamma_negative": estimate.gamma_negative,
        },
        "temperature_k": args.temperature,
    })
    return 0


# ---------------------------------------------------------------- compare


def _cmd_compare(args) -> int:
    if len(args.models) < 2:
        raise _UsageError("compare: need at least two models")
    dataset = _load_dataset(args.data)
    specs = [ModelSpec.parse(m) for m in args.models]
    for i, spec in enumerate(specs):
        if spec in specs[:i]:
            raise _UsageError(f"compare: model {spec.label} given more than once")
    ranked = compare_models([
        fit(FitProblem(dataset=dataset, model=spec, constants=args.constants, t_min=args.t_min))
        for spec in specs])
    best = ranked[0]

    report = {"ranking": [
        {
            "model": r.label,
            "n_params": len(r.param_names),
            "dof": r.dof,
            "chi2": r.chi2,
            "chi2_reduced": r.chi2_reduced,
            "delta_chi2_reduced": r.chi2_reduced - best.chi2_reduced,
            "converged": r.converged,
        }
        for r in ranked
    ]}

    if args.extrapolate is not None:
        predictions, divergence = {}, {}
        for r in ranked:
            params = r.to_model_params()
            per_sample = {}
            for sample in params.samples:
                omega, gamma = params.rates(sample, args.extrapolate)
                per_sample[sample or "lattice"] = {"omega_s": omega, "gamma_s": gamma}
            predictions[r.label] = per_sample
            if r is best:
                if any(0.0 in vals.values() for vals in per_sample.values()):
                    raise ValueError(f"best model {r.label} predicts a zero rate at temperature "
                                     f"{args.extrapolate!r} K; no divergence from it is defined")
                continue
            divergence[r.label] = {
                sample: {
                    "omega_pct": 100.0 * (vals["omega_s"] / best_vals["omega_s"] - 1.0),
                    "gamma_pct": 100.0 * (vals["gamma_s"] / best_vals["gamma_s"] - 1.0),
                }
                for (sample, vals), best_vals in zip(
                    per_sample.items(), predictions[best.label].values())
            }
        report["extrapolation"] = {
            "temperature_k": args.extrapolate,
            "predictions": predictions,
            "divergence_vs_best_pct": divergence,
        }

    _write(args, dataset.checksum(), args.output, report)
    if not all(r.converged for r in ranked):
        print("at least one fit did not converge", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- parser


def _positive(cast):
    """argparse type: a finite ``cast`` (float or int) > 0; the parser names
    the flag on error."""
    def parse(text: str):
        try:
            value = cast(text)
            valid = math.isfinite(value) and value > 0
        except (ValueError, OverflowError):  # an int too large for a float overflows
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
        return value
    return parse


_positive_float, _positive_int = _positive(float), _positive(int)


def _row_temperature(text: str) -> float:
    """argparse type: a temperature (K) that a dataset row may carry."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not _T_INGEST_MIN_K <= value <= _T_INGEST_MAX_K:     # also false for NaN
        raise argparse.ArgumentTypeError(
            f"must lie in [{_T_INGEST_MIN_K:g}, {_T_INGEST_MAX_K:g}] K, got {text!r}")
    return value


def _temperature_list(text: str) -> str:
    """argparse type: comma-separated _positive_float values, kept as text
    so the config echo renders them as given."""
    for item in text.split(","):
        _positive_float(item)
    return text


def _add_fit_options(sub) -> None:
    sub.add_argument("--data", default=BUILTIN_TAG,
                     help=f"dataset CSV path or the builtin tag {BUILTIN_TAG!r}")
    sub.add_argument("--constants", choices=("per_sample", "none"),
                     default="per_sample",
                     help="sample-constant floors: one pair per sample, or none")
    sub.add_argument("--t-min", type=_positive_float, default=None,
                     help="drop rows below this temperature (K)")


def _add_run_options(sub, output_help: str = "output file (default: standard output)",
                     output_required: bool = False) -> None:
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="seed for every random draw in the run "
                          f"(default {DEFAULT_SEED}); recorded in outputs")
    sub.add_argument("-o", "--output", required=output_required, help=output_help)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="nvrelax",
        description="Temperature-dependent spin relaxation: fits, spectral "
                    "quadrature, protocol simulation, coherence bounds.")
    parser.add_argument("--version", action="version",
                        version=f"nvrelax {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True,
                                       parser_class=_Parser)

    p_fit = subparsers.add_parser("fit", help="fit a rate model to a dataset")
    p_fit.add_argument("--model", default="n-mode:2",
                       help="model label: n-mode:1..3 or prior")
    _add_fit_options(p_fit)
    _add_run_options(p_fit)
    p_fit.set_defaults(handler=_cmd_fit)

    p_eval = subparsers.add_parser(
        "eval", help="tabulate rates, their ratio, and coherence bounds")
    p_eval.add_argument("--params", required=True,
                        help="JSON parameter file (a fit report works)")
    p_eval.add_argument("--sample", default=None,
                        help="sample label for constant floors (omit: lattice only)")
    p_eval.add_argument("--temps", type=_temperature_list, default=None,
                        help="comma-separated temperature list (K)")
    p_eval.add_argument("--t-min", type=_positive_float, default=200.0)
    p_eval.add_argument("--t-max", type=_positive_float, default=474.0)
    p_eval.add_argument("--n-temps", type=_positive_int, default=20)
    _add_run_options(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_spec = subparsers.add_parser(
        "spectral", help="broaden coupling tables and integrate rate curves")
    p_spec.add_argument("--coupling", default=ANCHOR_TAG,
                        help=f"coupling CSV path or the builtin tag {ANCHOR_TAG!r}")
    p_spec.add_argument("--sigma", type=_positive_float, default=1.0,
                        help="Gaussian broadening width (meV)")
    p_spec.add_argument("--t-min", type=_positive_float, default=100.0)
    p_spec.add_argument("--t-max", type=_positive_float, default=5000.0)
    p_spec.add_argument("--n-temps", type=_positive_int, default=40)
    p_spec.add_argument("--refit", action="store_true",
                        help="append a two-mode fit of the rate curve")
    _add_run_options(p_spec, output_required=True,
                     output_help="output prefix: writes PREFIX.sq.csv, "
                                 "PREFIX.dq.csv, PREFIX.rates.csv[, PREFIX.refit.json]")
    p_spec.set_defaults(handler=_cmd_spectral)

    p_sim = subparsers.add_parser(
        "simulate", help="run the three-level protocol and extract rates")
    p_sim.add_argument("--omega", type=float, required=True,
                       help="true single-quantum rate (1/s)")
    p_sim.add_argument("--gamma", type=float, required=True,
                       help="true double-quantum rate (1/s)")
    noise = p_sim.add_mutually_exclusive_group(required=True)
    noise.add_argument("--shots", type=int, default=None,
                       help="readout shots per point")
    noise.add_argument("--noise-free", action="store_true",
                       help="exact populations, no sampling")
    p_sim.add_argument("--n-tau", type=int, default=20)
    p_sim.add_argument("--tau-max-scale", type=_positive_float, default=2.5,
                       help="grid reaches this many expected decay times")
    p_sim.add_argument("--temperature", type=_row_temperature, default=295.0,
                       help="temperature label for the emitted dataset row (K)")
    _add_run_options(p_sim, output_required=True,
                     output_help="output prefix: writes PREFIX.dataset.csv, "
                                 "PREFIX.curves.csv, PREFIX.report.json")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_cmp = subparsers.add_parser(
        "compare", help="rank models by reduced chi-squared")
    p_cmp.add_argument("--models", nargs="+", required=True,
                       help="two or more model labels")
    _add_fit_options(p_cmp)
    p_cmp.add_argument("--extrapolate", type=_positive_float, default=None,
                       help="also report predictions at this temperature (K)")
    _add_run_options(p_cmp)
    p_cmp.set_defaults(handler=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        # a ValueError to Python, but numerical: LAPACK failed on finite input
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, ValueError, KeyError, OSError, MemoryError) as exc:
        # args[0] drops a KeyError's quotes, but of an OSError it is the errno
        # and of numpy's MemoryError the array shape
        message = (str(exc) if isinstance(exc, (OSError, MemoryError)) or not exc.args
                   else exc.args[0])
        print(f"error: {message}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # rank deficiency, quadrature failure: numerical, not input
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
