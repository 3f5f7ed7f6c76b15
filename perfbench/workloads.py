"""The four benchmark workloads: inputs from a seed, one pass, a gate.

Each workload is built from public nvrelax API and the CLI only.  Calls go
through module attributes at call time (``cli.main``, ``spectral.rate_curve``)
so that the tracer's wrappers see them.

* ``ladder``: ``compare`` over n-mode:1/2/3 and prior with a 700 K
  extrapolation.  Fitting and models do the work; spectral and dynamics
  stay idle.
* ``spectral-narrow``: ``spectral --sigma 0.01``, a 250001-point grid and
  40 temperatures.  Quadrature and CSV formatting on 2 MB arrays; fitting
  stays idle.
* ``bias-sweep``: reference functions on the default 5001-point grid, a
  40-point rate curve and a two-mode refit, for sigma = 7.5 and 15 meV.
  The same layers as above in a small-array, per-call-overhead regime.
* ``protocol-mc``: 100 seeded protocol simulations with rate extraction,
  the only workload that exercises dynamics.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

LADDER_MODELS = ("n-mode:1", "n-mode:2", "n-mode:3", "prior")
LADDER_RANKING = ("n-mode:3", "n-mode:2", "prior", "n-mode:1")
BIAS_SIGMAS_MEV = (7.5, 15.0)
MC_SEEDS = 100
MC_TRUTH = (60.0, 128.0)          # Omega, gamma in 1/s
MC_SHOTS = 100_000

# spectral-narrow rates must match the pinned values to this relative
# tolerance: far above the 4e-14 that reordered sums move them, far below
# any change of physics or grid
SPECTRAL_RTOL = 1e-9


@dataclass
class PassResult:
    """What one pass produced: its outputs by name."""

    outputs: dict[str, bytes]

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.outputs):
            h.update(name.encode() + b"\0" + self.outputs[name] + b"\0")
        return h.hexdigest()

    @property
    def output_bytes(self) -> int:
        return sum(len(v) for v in self.outputs.values())


class Workload:
    """Base: ``setup`` builds the inputs, ``run_pass`` is the timed call,
    ``gate`` returns the reasons the outputs are wrong (empty when right).

    A run with seed S uses seeds S .. S + seeds_per_run - 1 in turn, so
    that a workload whose work depends on the seed is timed over several.
    """

    name: str
    items_per_pass: int
    seeds_per_run = 1

    def __init__(self, seed: int, workdir: Path):
        self.seeds = [seed + k for k in range(self.seeds_per_run)]
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, seed: int) -> PassResult:
        raise NotImplementedError

    def gate(self, result: PassResult) -> list[str]:
        raise NotImplementedError

    def item_of(self, span_name, args):
        """Item identifier opened by a traced call, or None."""
        return None


def _run_cli(argv: list[str]) -> None:
    from nvrelax import cli
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"nvrelax {' '.join(argv)} exited with code {code}")


def _read_outputs(paths: dict[str, Path]) -> dict[str, bytes]:
    return {name: path.read_bytes() for name, path in paths.items()}


class Ladder(Workload):
    name = "ladder"
    items_per_pass = len(LADDER_MODELS)
    # the seed moves the starts, and with them the evaluation count by ~4%
    seeds_per_run = 4

    def setup(self) -> None:
        import nvrelax.cli  # noqa: F401  (import cost belongs to set-up)
        self.report = self.workdir / "ladder.json"
        self.argv = {
            seed: ["compare", "--models", *LADDER_MODELS, "--extrapolate", "700",
                   "--seed", str(seed), "-o", str(self.report)]
            for seed in self.seeds}
        self._fits = 0

    def run_pass(self, seed) -> PassResult:
        _run_cli(self.argv[seed])
        return PassResult(_read_outputs({"report": self.report}))

    def gate(self, result):
        report = json.loads(result.outputs["report"])
        rows = {row["model"]: row for row in report["ranking"]}
        chi2v = {label: rows[label]["chi2_reduced"] for label in LADDER_MODELS}
        problems = []
        order = tuple(row["model"] for row in report["ranking"])
        if order != LADDER_RANKING:
            problems.append(f"ranking {order}, expected {LADDER_RANKING}")
        if not all(row["converged"] for row in report["ranking"]):
            problems.append("a fit did not converge")
        # acceptance criterion 2 (the one-mode delta_1 window needs
        # parameters, which the compare report does not carry)
        if not 3.4 <= chi2v["n-mode:1"] <= 4.4:
            problems.append(f"n-mode:1 chi2v {chi2v['n-mode:1']} outside [3.4, 4.4]")
        if not 1.1 <= chi2v["n-mode:2"] <= 1.5:
            problems.append(f"n-mode:2 chi2v {chi2v['n-mode:2']} outside [1.1, 1.5]")
        if not chi2v["n-mode:3"] <= chi2v["n-mode:2"] <= chi2v["prior"]:
            problems.append("criterion 2 ordering of n-mode:3, n-mode:2, prior broken")
        # acceptance criterion 3: 700 K prior-over-two-mode excess, sample A
        predictions = report["extrapolation"]["predictions"]
        prior, two = predictions["prior"]["A"], predictions["n-mode:2"]["A"]
        omega_excess = 100.0 * (prior["omega_s"] / two["omega_s"] - 1.0)
        gamma_excess = 100.0 * (prior["gamma_s"] / two["gamma_s"] - 1.0)
        if not 30.0 <= omega_excess <= 70.0:
            problems.append(f"700 K Omega excess {omega_excess:.2f}% outside [30, 70]")
        if not 10.0 <= gamma_excess <= 30.0:
            problems.append(f"700 K gamma excess {gamma_excess:.2f}% outside [10, 30]")
        return problems

    def item_of(self, span_name, args):
        if span_name == "fitting.fit":
            self._fits += 1
            return f"fit-{self._fits}"
        return None


class SpectralNarrow(Workload):
    name = "spectral-narrow"
    items_per_pass = 40

    def setup(self) -> None:
        import nvrelax.cli  # noqa: F401
        self.prefix = self.workdir / "narrow"
        self.argv = ["spectral", "--sigma", "0.01", "--seed", str(self.seeds[0]),
                     "-o", str(self.prefix)]
        self.reference = _parse_rates(
            (REFERENCE_DIR / "spectral_narrow_rates.csv").read_text(encoding="utf-8"))

    def run_pass(self, seed) -> PassResult:
        _run_cli(self.argv)
        paths = {kind: Path(f"{self.prefix}.{kind}.csv") for kind in ("sq", "dq", "rates")}
        return PassResult(_read_outputs(paths))

    def gate(self, result):
        rates = _parse_rates(result.outputs["rates"].decode("utf-8"))
        if len(rates) != len(self.reference):
            return [f"{len(rates)} rate rows, expected {len(self.reference)}"]
        problems = []
        for got, want in zip(rates, self.reference):
            if got[0] != want[0] or not all(
                    math.isclose(g, w, rel_tol=SPECTRAL_RTOL) for g, w in zip(got, want)):
                problems.append(f"rates row {got} differs from reference {want}")
        return problems

    def item_of(self, span_name, args):
        # one item is one temperature point, both channels
        if span_name == "spectral.second_order_rate" and len(args) > 1:
            return f"T={float(args[1])!r}"
        return None


def _parse_rates(text: str) -> list[tuple[float, ...]]:
    """Numeric rows of a rates CSV, skipping comments and the header."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("temperature_k"):
            continue
        rows.append(tuple(float(v) for v in line.split(",")))
    return rows


class BiasSweep(Workload):
    name = "bias-sweep"
    items_per_pass = len(BIAS_SIGMAS_MEV)
    # the refit's starts depend on the seed; evaluations vary by ~15%
    seeds_per_run = 8

    def setup(self) -> None:
        import numpy as np
        import nvrelax.spectral  # noqa: F401
        self.temps = np.geomspace(100.0, 5000.0, 40)

    def run_pass(self, seed) -> PassResult:
        from nvrelax import spectral
        outputs = {}
        for sigma in BIAS_SIGMAS_MEV:
            f_sq, f_dq = spectral.two_peak_reference_functions(sigma)
            curve = spectral.rate_curve(f_sq, f_dq, self.temps)
            fit = spectral.refit_theory_curve(curve, t_max=5000.0, seed=seed)
            outputs[f"{sigma!r}.rates"] = curve.to_csv_text().encode("utf-8")
            outputs[f"{sigma!r}.fit"] = json.dumps(fit.to_report_dict()).encode("utf-8")
        return PassResult(outputs)

    def gate(self, result):
        problems = []
        bias = {}
        for sigma in BIAS_SIGMAS_MEV:
            report = json.loads(result.outputs[f"{sigma!r}.fit"])
            if not report["fit"]["converged"]:
                problems.append(f"sigma={sigma}: refit did not converge")
            params = {p["name"]: p["value"] for p in report["parameters"]}
            bias[sigma] = (1.0 - params["delta_1"] / 65.0, 1.0 - params["delta_2"] / 155.0)
        # acceptance criterion 6
        for b in bias[7.5]:
            if not 0.05 <= b <= 0.10:
                problems.append(f"sigma=7.5 bias {b:.4f} outside [0.05, 0.10]")
        for k in (0, 1):
            if not bias[15.0][k] > bias[7.5][k]:
                problems.append(f"sigma=15 bias {bias[15.0][k]:.4f} not above sigma=7.5")
        return problems

    def item_of(self, span_name, args):
        if span_name == "spectral.two_peak_reference_functions" and args:
            return f"sigma={float(args[0])!r}"
        return None


class ProtocolMC(Workload):
    name = "protocol-mc"
    items_per_pass = MC_SEEDS

    def setup(self) -> None:
        from nvrelax import dynamics
        self.truth = dynamics.RateMatrix(*MC_TRUTH)
        self.spec = dynamics.ProtocolSpec(shots=MC_SHOTS)
        self._experiments = 0

    def run_pass(self, seed) -> PassResult:
        from nvrelax import dynamics
        lines = []
        for experiment_seed in range(seed, seed + MC_SEEDS):
            sim = dynamics.simulate_experiment(self.truth, self.spec, seed=experiment_seed)
            e = dynamics.extract_rates(sim.omega_branch, sim.gamma_branch)
            lines.append(f"{e.omega!r},{e.omega_err!r},{e.gamma!r},{e.gamma_err!r}\n")
        return PassResult({"estimates": "".join(lines).encode("utf-8")})

    def gate(self, result):
        import numpy as np
        problems = []
        omega, omega_err, gamma, gamma_err = np.array(
            [[float(v) for v in line.split(",")]
             for line in result.outputs["estimates"].decode("utf-8").splitlines()]).T
        if len(omega) != MC_SEEDS:
            return [f"{len(omega)} estimates, expected {MC_SEEDS}"]
        if np.any(gamma < 0):
            problems.append("a gamma estimate came out negative")
        pulls_w = (omega - self.truth.omega) / omega_err
        pulls_g = (gamma - self.truth.gamma) / gamma_err
        pulls = np.concatenate([pulls_w, pulls_g])
        # over 60 disjoint blocks of 100 seeds (10000-15999) the statistics
        # came out as: pull spread 1.00 +- 0.058 (0.865-1.121), coverage
        # 0.955 +- 0.015 (0.920-0.990), pull means 0.00 +- 0.10; each window
        # sits about four standard deviations out, so a correct estimator
        # fails on very few seeds, while errors misstated by a third or a
        # bias of half an error bar fail
        for name, p in (("Omega", pulls_w), ("gamma", pulls_g)):
            if abs(p.mean()) >= 0.45:
                problems.append(f"{name} pull mean {p.mean():.3f} not within 0.45")
        spread = float(pulls.std())
        coverage = float(np.mean(np.abs(pulls) <= 2.0))
        if not 0.77 <= spread <= 1.23:
            problems.append(f"pull spread {spread:.3f} outside [0.77, 1.23]")
        if coverage < 0.89:
            problems.append(f"2-sigma coverage {coverage:.3f} below 0.89")
        return problems

    def item_of(self, span_name, args):
        if span_name == "dynamics.simulate_experiment":
            self._experiments += 1
            return f"experiment-{self._experiments}"
        return None


WORKLOADS = {w.name: w for w in (Ladder, SpectralNarrow, BiasSweep, ProtocolMC)}
