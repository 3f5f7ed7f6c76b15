"""Command-line front end: every pipeline as a reproducible subcommand.

Subcommands: ``fit`` (rate-model fits), ``eval`` (rate and coherence
tables from fitted parameters), ``spectral`` (broadened spectral functions
and quadrature rate curves), ``simulate`` (three-level protocol with shot
noise), ``compare`` (model ranking plus high-temperature extrapolation).

Every output file embeds the tool version, a canonical echo of the run
configuration, the seed, and a checksum of the governing input (the
measurement dataset for fit/compare, the parameter file for eval, the
coupling table for spectral, the emitted synthetic dataset for simulate),
so two runs with an identical configuration are byte-identical.

Exit codes: 0 success, 1 input error (message on standard error),
2 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    BUILTIN_TAG,
    DEFAULT_SEED,
    Dataset,
    DatasetError,
    TransitionChannel,
)
from .core import load_dataset as _load_dataset
from .dynamics import (
    ProtocolSpec,
    RateMatrix,
    extract_rates,
    simulate_experiment,
    to_rate_measurement,
)
from .fitting import (
    FitProblem,
    ModelSpec,
    compare_models,
    fit,
    params_from_dict,
)
from .models import coherence_limits
from .spectral import (
    MAX_MODE_ENERGY_MEV,
    anchor_coupling_table,
    build_spectral_function,
    parse_coupling_text,
    rate_curve,
    refit_theory_curve,
    spectral_to_csv_text,
)

__all__ = ["RunConfig", "main"]

ANCHOR_TAG = "anchor-modes"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for numerical non-convergence, so
    # usage problems must not fall through to argparse's exit(2)
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@dataclass(frozen=True)
class RunConfig:
    """Canonical record of one invocation, embedded in every output."""

    subcommand: str
    options: tuple[tuple[str, str], ...]    # sorted (name, rendered value)
    seed: int
    format: str                             # "csv", "structured-report", or both

    @classmethod
    def from_namespace(cls, args: argparse.Namespace, format: str) -> "RunConfig":
        options = []
        for key, value in vars(args).items():
            if key in ("handler", "subcommand", "format") or value is None:
                continue
            if isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, (list, tuple)):
                rendered = ",".join(str(v) for v in value)
            else:
                rendered = str(value)
            options.append((key.replace("_", "-"), rendered))
        return cls(subcommand=args.subcommand, options=tuple(sorted(options)),
                   seed=args.seed, format=format)

    @property
    def echo(self) -> str:
        rendered = " ".join(f"--{k}={v}" for k, v in self.options)
        return f"{self.subcommand} {rendered}".strip()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _metadata_dict(config: RunConfig, checksum: str) -> dict:
    return {
        "version": f"nvrelax {__version__}",
        "config": config.echo,
        "seed": config.seed,
        "dataset_checksum": checksum,
    }


def _metadata_lines(config: RunConfig, checksum: str) -> str:
    return (
        f"# version: nvrelax {__version__}\n"
        f"# config: {config.echo}\n"
        f"# seed: {config.seed}\n"
        f"# dataset_checksum: {checksum}\n"
    )


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit_json(document: dict, path: str | None) -> None:
    _emit(json.dumps(document, indent=2) + "\n", path)


# ---------------------------------------------------------------- fit


def _cmd_fit(args) -> int:
    config = RunConfig.from_namespace(args, format="structured-report")
    dataset = _load_dataset(args.data)
    model = ModelSpec.parse(args.model)
    if args.phonon_limited:
        if args.constants != "per_sample" or args.t_min is not None:
            raise _UsageError(
                "fit: --phonon-limited already fixes --constants/--t-min")
        problem = FitProblem.phonon_limited(
            dataset, model, multistart=args.multistart, seed=args.seed)
    else:
        problem = FitProblem(
            dataset=dataset, model=model, constants=args.constants,
            t_min=args.t_min, multistart=args.multistart, seed=args.seed)
    result = fit(problem)
    report = _metadata_dict(config, dataset.checksum())
    report.update(result.to_report_dict())
    _emit_json(report, args.output)
    if not result.converged:
        print("fit did not converge", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- eval


def _read_params_file(path: str) -> tuple[str, dict[str, float], str]:
    """Returns (model label, {name: value}, file checksum).

    Accepts either a fit report (parameters as a list of name/value/sigma
    records) or a plain mapping {"model": ..., "parameters": {name: value}}.
    """
    text = Path(path).read_text(encoding="utf-8")
    document = json.loads(text)
    if "model" not in document or "parameters" not in document:
        raise ValueError(f"params file {path!r} needs 'model' and 'parameters' keys")
    raw = document["parameters"]
    if isinstance(raw, list):
        values = {entry["name"]: float(entry["value"]) for entry in raw}
    else:
        values = {name: float(v) for name, v in raw.items()}
    return document["model"], values, _sha256(text)


def _temperature_grid(args, geometric: bool) -> np.ndarray:
    if getattr(args, "temps", None):
        temps = np.array([float(t) for t in args.temps.split(",")])
        if not np.all(np.isfinite(temps) & (temps > 0)):
            raise ValueError("--temps: temperatures must be positive and finite")
        return temps
    if args.t_max <= args.t_min:
        raise ValueError("t-max must exceed t-min")
    return (np.geomspace if geometric else np.linspace)(args.t_min, args.t_max, args.n_temps)


def _cmd_eval(args) -> int:
    config = RunConfig.from_namespace(args, format="csv")
    label, values, checksum = _read_params_file(args.params)
    params = params_from_dict(label, values)
    temps = _temperature_grid(args, geometric=False)
    lines = [_metadata_lines(config, checksum)
             + "temperature_k,omega_s,gamma_s,gamma_over_omega,t2_sq_s,t2_dq_s,t1_s"]
    for t in temps:
        omega, gamma = params.rates(args.sample, float(t))
        ratio = gamma / omega if omega > 0 else math.nan
        lim = coherence_limits(omega, gamma)
        lines.append(f"{float(t)!r},{omega!r},{gamma!r},{ratio!r},"
                     f"{lim.t2_sq!r},{lim.t2_dq!r},{lim.t1!r}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------- spectral


def _cmd_spectral(args) -> int:
    config = RunConfig.from_namespace(args, format="csv")
    if args.coupling == ANCHOR_TAG:
        table = anchor_coupling_table()
        coupling_text = table.to_csv_text()
    else:
        coupling_text = Path(args.coupling).read_text(encoding="utf-8")
        table = parse_coupling_text(coupling_text, supercell_note=args.coupling)
    checksum = _sha256(coupling_text)
    header = _metadata_lines(config, checksum)

    # narrow peaks need a finer grid than the 0.05 meV default to keep the
    # quadrature error check satisfied
    spacing = min(0.05, args.sigma / 10.0)
    n_points = int(round(MAX_MODE_ENERGY_MEV / spacing)) + 1
    grid = np.linspace(0.0, MAX_MODE_ENERGY_MEV, n_points)
    f_sq = build_spectral_function(
        table, TransitionChannel.SINGLE_QUANTUM, order=2, sigma=args.sigma,
        grid=grid)
    f_dq = build_spectral_function(
        table, TransitionChannel.DOUBLE_QUANTUM, order=2, sigma=args.sigma,
        grid=grid)
    temps = _temperature_grid(args, geometric=True)
    curve = rate_curve(f_sq, f_dq, temps)

    prefix = args.output
    _emit(header + spectral_to_csv_text(f_sq), f"{prefix}.sq.csv")
    _emit(header + spectral_to_csv_text(f_dq), f"{prefix}.dq.csv")
    _emit(header + curve.to_csv_text(), f"{prefix}.rates.csv")
    if args.refit:
        result = refit_theory_curve(
            curve, t_max=float(args.t_max), multistart=args.multistart,
            seed=args.seed)
        report = _metadata_dict(config, checksum)
        report.update(result.to_report_dict())
        _emit_json(report, f"{prefix}.refit.json")
    return 0


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args) -> int:
    config = RunConfig.from_namespace(args, format="csv")
    rates = RateMatrix(args.omega, args.gamma)
    spec = ProtocolSpec(
        shots=None if args.noise_free else args.shots,
        n_tau=args.n_tau, tau_max_scale=args.tau_max_scale,
        readout_fidelity=args.fidelity)
    sim = simulate_experiment(rates, spec, seed=args.seed,
                              omega_pair=("0", args.omega_partner),
                              gamma_init=args.gamma_init)
    estimate = extract_rates(sim.omega_branch, sim.gamma_branch)

    if estimate.gamma_negative:
        dataset_text = ("# note: negative rate estimate, no dataset row emitted\n")
        checksum = _sha256(dataset_text)
    else:
        row = to_rate_measurement(estimate, temperature=args.temperature)
        dataset = Dataset(rows=(row,), provenance="synthetic-protocol")
        dataset_text = dataset.to_csv_text()
        checksum = dataset.checksum()
    header = _metadata_lines(config, checksum)

    prefix = args.output
    _emit(header + dataset_text, f"{prefix}.dataset.csv")

    curve_lines = [header + "branch,tau_s,value,error"]
    for name, branch in (("omega", sim.omega_branch), ("gamma", sim.gamma_branch)):
        for tau, value, error in zip(branch.tau_grid, branch.values, branch.errors):
            curve_lines.append(f"{name},{tau!r},{value!r},{error!r}")
    _emit("\n".join(curve_lines) + "\n", f"{prefix}.curves.csv")

    report = _metadata_dict(config, checksum)
    report.update({
        "truth": {"omega_s": rates.omega, "gamma_s": rates.gamma},
        "protocol": {
            "shots": spec.shots,
            "effective_shots": spec.effective_shots,
            "n_tau": spec.n_tau,
            "tau_max_scale": spec.tau_max_scale,
            "readout_fidelity": spec.readout_fidelity,
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
    _emit_json(report, f"{prefix}.report.json")
    return 0


# ---------------------------------------------------------------- compare


def _cmd_compare(args) -> int:
    config = RunConfig.from_namespace(args, format="structured-report")
    if len(args.models) < 2:
        raise _UsageError("compare: need at least two models")
    dataset = _load_dataset(args.data)
    specs = [ModelSpec.parse(m) for m in args.models]
    for i, spec in enumerate(specs):
        if spec in specs[:i]:
            raise _UsageError(f"compare: model {spec.label} given more than once")
    results = []
    for spec in specs:
        problem = FitProblem(
            dataset=dataset, model=spec, constants=args.constants,
            t_min=args.t_min, multistart=args.multistart, seed=args.seed)
        results.append(fit(problem))
    ranking = compare_models(results)
    by_label = {r.label: r for r in results}

    report = _metadata_dict(config, dataset.checksum())
    report["ranking"] = [
        {
            "model": row.label,
            "n_params": row.n_params,
            "dof": row.dof,
            "chi2": row.chi2,
            "chi2_reduced": row.chi2_reduced,
            "delta_chi2_reduced": row.delta_chi2_reduced,
            "converged": by_label[row.label].converged,
        }
        for row in ranking
    ]

    if args.extrapolate is not None:
        best_label = ranking.rows[0].label
        predictions = {}
        for row in ranking:
            result = by_label[row.label]
            params = result.to_model_params()
            per_sample = {}
            for sample in params.samples:
                omega, gamma = params.rates(sample, args.extrapolate)
                per_sample[sample or "lattice"] = {"omega_s": omega, "gamma_s": gamma}
            predictions[row.label] = per_sample
        divergence = {}
        for label, per_sample in predictions.items():
            if label == best_label:
                continue
            divergence[label] = {
                sample: {
                    "omega_pct": 100.0 * (vals["omega_s"] / best_vals["omega_s"] - 1.0),
                    "gamma_pct": 100.0 * (vals["gamma_s"] / best_vals["gamma_s"] - 1.0),
                }
                for (sample, vals), best_vals in zip(
                    per_sample.items(), predictions[best_label].values())
            }
        report["extrapolation"] = {
            "temperature_k": args.extrapolate,
            "predictions": predictions,
            "divergence_vs_best_pct": divergence,
        }

    _emit_json(report, args.output)
    if not all(r.converged for r in results):
        print("at least one fit did not converge", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- parser


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0; the parser names the flag on error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _add_fit_options(sub, multistart_default: int) -> None:
    sub.add_argument("--data", default=BUILTIN_TAG,
                     help=f"dataset CSV path or the builtin tag {BUILTIN_TAG!r}")
    sub.add_argument("--constants", choices=("per_sample", "none"),
                     default="per_sample",
                     help="sample-constant floors: one pair per sample, or none")
    sub.add_argument("--t-min", type=float, default=None,
                     help="drop rows below this temperature (K)")
    sub.add_argument("--multistart", type=int, default=multistart_default,
                     help="number of optimizer starts")


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
    _add_fit_options(p_fit, multistart_default=16)
    p_fit.add_argument("--phonon-limited", action="store_true",
                       help="restrict to T >= 125 K and drop constant floors")
    _add_run_options(p_fit)
    p_fit.set_defaults(handler=_cmd_fit)

    p_eval = subparsers.add_parser(
        "eval", help="tabulate rates, their ratio, and coherence bounds")
    p_eval.add_argument("--params", required=True,
                        help="JSON parameter file (a fit report works)")
    p_eval.add_argument("--sample", default=None,
                        help="sample label for constant floors (omit: lattice only)")
    p_eval.add_argument("--temps", default=None,
                        help="comma-separated temperature list (K)")
    p_eval.add_argument("--t-min", type=_positive_float, default=200.0)
    p_eval.add_argument("--t-max", type=_positive_float, default=474.0)
    p_eval.add_argument("--n-temps", type=int, default=20)
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
    p_spec.add_argument("--n-temps", type=int, default=40)
    p_spec.add_argument("--refit", action="store_true",
                        help="append a two-mode fit of the rate curve")
    p_spec.add_argument("--multistart", type=int, default=8)
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
    p_sim.add_argument("--tau-max-scale", type=float, default=2.5,
                       help="grid reaches this many expected decay times")
    p_sim.add_argument("--fidelity", type=float, default=1.0,
                       help="readout fidelity in (0, 1]; scales effective shots")
    p_sim.add_argument("--temperature", type=float, default=295.0,
                       help="temperature label for the emitted dataset row (K)")
    p_sim.add_argument("--omega-partner", default="-1",
                       help="state read against P0 on the 3-Omega branch")
    p_sim.add_argument("--gamma-init", default="+1",
                       help="initial state of the Omega + 2 gamma branch")
    _add_run_options(p_sim, output_required=True,
                     output_help="output prefix: writes PREFIX.dataset.csv, "
                                 "PREFIX.curves.csv, PREFIX.report.json")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_cmp = subparsers.add_parser(
        "compare", help="rank models by reduced chi-squared")
    p_cmp.add_argument("--models", nargs="+", required=True,
                       help="two or more model labels")
    _add_fit_options(p_cmp, multistart_default=16)
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
    except (DatasetError, ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # rank deficiency, quadrature failure: numerical, not input
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
