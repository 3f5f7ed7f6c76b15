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

from nvrelax.core import BUILTIN_TAG, load_dataset
from nvrelax.fitting import (
    FitProblem,
    ModelSpec,
    compare_models,
    fit,
    residual_diagnostics,
)

# every fit polishes up to FitProblem.multistart (16) minima of its
# mode-energy profile, best first; none of them needs more
MODELS = ("n-mode:1", "n-mode:2", "n-mode:3", "prior")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default=BUILTIN_TAG)
    parser.add_argument("--output-dir", default=None,
                        help="write one JSON report per model here")
    args = parser.parse_args()

    dataset = load_dataset(args.data)
    print(f"dataset: {dataset.provenance}, {len(dataset.rows)} rows, "
          f"checksum {dataset.checksum()[:12]}")

    results = {}
    for label in MODELS:
        results[label] = fit(FitProblem(dataset=dataset, model=ModelSpec.parse(label)))

    print("\nmodel ranking (best first):")
    ranked = compare_models(list(results.values()))
    for r in ranked:
        print(f"  {r.label:<10s} chi2/dof = {r.chi2:8.2f}/{r.dof}"
              f"  chi2_v = {r.chi2_reduced:6.3f}"
              f"  (+{r.chi2_reduced - ranked[0].chi2_reduced:.3f})")

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
