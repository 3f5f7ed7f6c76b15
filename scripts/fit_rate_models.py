#!/usr/bin/env python3
"""Fit every rate model to the bundled dataset and print the comparison.

Runs the one/two/three-mode laws and the prior (Orbach + T^5) model as
joint weighted fits over both transition channels, prints the parameter
table with uncertainties for the headline two-mode fit, the model ranking,
and the residual diagnostics, and optionally writes the full reports as
JSON.
"""
import argparse
import json
from pathlib import Path

from nvrelax.core import BUILTIN_TAG, DEFAULT_SEED, load_dataset
from nvrelax.fitting import (
    FitProblem,
    ModelSpec,
    compare_models,
    fit,
    residual_diagnostics,
)

MULTISTARTS = {"n-mode:1": 8, "n-mode:2": 16, "n-mode:3": 32, "prior": 8}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default=BUILTIN_TAG)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--output-dir", default=None,
                        help="write one JSON report per model here")
    args = parser.parse_args()

    dataset = load_dataset(args.data)
    print(f"dataset: {dataset.provenance}, {len(dataset.rows)} rows, "
          f"checksum {dataset.checksum()[:12]}")

    results = {}
    for label, multistart in MULTISTARTS.items():
        problem = FitProblem(
            dataset=dataset, model=ModelSpec.parse(label),
            multistart=multistart, seed=args.seed)
        results[label] = fit(problem)

    print("\nmodel ranking (best first):")
    ranking = compare_models(list(results.values()))
    for row in ranking:
        print(f"  {row.label:<10s} chi2/dof = {row.chi2:8.2f}/{row.dof}"
              f"  chi2_v = {row.chi2_reduced:6.3f}"
              f"  (+{row.delta_chi2_reduced:.3f})")

    headline = results["n-mode:2"]
    print("\ntwo-mode joint fit:")
    for name in headline.param_names:
        print(f"  {name:<8s} = {headline.params[name]:12.5g}"
              f" +- {headline.sigma[name]:.3g}")

    diag = residual_diagnostics(headline)
    print(f"\nresiduals: mean {diag.mean:+.3f}, variance {diag.variance:.3f}, "
          f"{len(diag.outliers)} outliers beyond {diag.outlier_threshold} sigma")
    for outlier in diag.outliers:
        print(f"  {outlier.nv_id} ({outlier.channel}) at "
              f"{outlier.temperature:.1f} K: {outlier.value:+.2f}")

    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for label, result in results.items():
            path = out / (label.replace(":", "") + ".json")
            path.write_text(json.dumps(result.to_report_dict(), indent=2) + "\n")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
