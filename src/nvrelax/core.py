"""Units, shared domain types, and the bundled measured-rate dataset.

The internal unit system is fixed: energies in meV, temperatures in K,
rates in s^-1, spin-phonon coupling amplitudes in MHz.  Conversions happen
only at I/O boundaries, through :func:`convert_energy`.
"""
from __future__ import annotations

import enum
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "BOLTZMANN_MEV_PER_K",
    "HBAR_MEV_S",
    "PLANCK_MEV_S",
    "PLANCK_MEV_PER_MHZ",
    "BUILTIN_TAG",
    "BUILTIN_DATA_ENV",
    "CSV_HEADER",
    "DEFAULT_SEED",
    "RateMeasurement",
    "Dataset",
    "TransitionChannel",
    "DatasetError",
    "convert_energy",
    "load_dataset",
    "parse_dataset_text",
    "write_dataset",
]

# CODATA 2018 values, full precision; rounded forms appear in docstrings.
BOLTZMANN_MEV_PER_K = 8.617333262e-2    # meV / K
HBAR_MEV_S = 6.582119569e-13            # meV s
PLANCK_MEV_S = 4.135667696e-12          # meV s
PLANCK_MEV_PER_MHZ = 4.135667696e-6     # meV per MHz (h * 1 MHz in meV)

# tag resolving to the dataset published with the measurements (53 rows)
BUILTIN_TAG = "paper-table-s4"
# environment variable that redirects the builtin tag to a CSV on disk
BUILTIN_DATA_ENV = "NVRELAX_BUILTIN_DATA"

CSV_HEADER = "nv_id,sample,temperature_k,omega_s,omega_err_s,gamma_s,gamma_err_s"

# every stochastic entry point (multistart sampling, protocol simulation)
# draws from a generator seeded with this value unless told otherwise
DEFAULT_SEED = 1729

# ingestion bounds for measured data; synthetic model curves may go beyond
_T_INGEST_MIN_K = 1.0
_T_INGEST_MAX_K = 2000.0

# accepted spellings for the energy-equivalent units of convert_energy
_UNIT_ALIASES = {
    "mev": "meV",
    "ghz": "GHz",
    "ghz*h": "GHz",
    "ghz·h": "GHz",
    "k": "K",
    "k*kb": "K",
    "k·k_b": "K",
    "kelvin": "K",
}


def _canonical_unit(unit: str) -> str:
    try:
        return _UNIT_ALIASES[unit.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown energy unit {unit!r}; expected one of meV, GHz (times h), "
            f"K (times k_B)"
        ) from None


def convert_energy(value: float, from_unit: str, to_unit: str) -> float:
    """Convert between energy-equivalent units: meV, GHz (via h), K (via k_B).

    Frequencies are treated as energies h*f and temperatures as k_B*T, so
    e.g. ``convert_energy(2.87, "GHz", "meV")`` gives the zero-field
    splitting in meV.  Round trips are exact to 1e-12 relative.
    """
    src = _canonical_unit(from_unit)
    dst = _canonical_unit(to_unit)
    in_mev = {
        "meV": value,
        "GHz": PLANCK_MEV_S * value * 1e9,
        "K": BOLTZMANN_MEV_PER_K * value,
    }[src]
    return {
        "meV": in_mev,
        "GHz": in_mev / (PLANCK_MEV_S * 1e9),
        "K": in_mev / BOLTZMANN_MEV_PER_K,
    }[dst]


class TransitionChannel(enum.Enum):
    """Spin-phonon transition channels of the triplet ground state.

    SINGLE_QUANTUM couples |0> to |+-1> (rate Omega), DOUBLE_QUANTUM couples
    |-1> to |+1> (rate gamma), DEPHASING carries no relaxation-rate role and
    exists for spectral display only.
    """

    SINGLE_QUANTUM = "single_quantum"
    DOUBLE_QUANTUM = "double_quantum"
    DEPHASING = "dephasing"

    @classmethod
    def parse(cls, token: str) -> "TransitionChannel":
        try:
            return cls(token.strip().lower())
        except ValueError:
            valid = ", ".join(c.value for c in cls)
            raise ValueError(f"unknown channel {token!r}; expected one of {valid}") from None


class DatasetError(ValueError):
    """Malformed or invalid measured-rate data."""


def _require_finite(values: Mapping[str, float], error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming the first of ``values`` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise error(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class RateMeasurement:
    """One relaxometry measurement: both rates with 1-sigma errors at one T."""

    nv_id: str
    sample: str
    temperature: float      # K
    omega: float            # s^-1
    omega_err: float        # s^-1
    gamma: float            # s^-1
    gamma_err: float        # s^-1

    def __post_init__(self) -> None:
        _require_finite({name: getattr(self, name) for name in
                         ("temperature", "omega", "omega_err", "gamma", "gamma_err")},
                        DatasetError)
        if self.temperature <= 0:
            raise DatasetError(f"temperature must be positive, got {self.temperature}")
        if self.omega < 0 or self.gamma < 0:
            raise DatasetError(f"rates must be nonnegative, got ({self.omega}, {self.gamma})")
        # errors feed inverse-variance weights, so zero is as bad as negative
        if self.omega_err <= 0 or self.gamma_err <= 0:
            raise DatasetError(
                f"error bars must be strictly positive, got ({self.omega_err}, {self.gamma_err})"
            )


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of rate measurements.

    Duplicate (nv_id, temperature) rows are permitted and kept as independent
    points; the bundled dataset itself contains a repeated condition.
    """

    rows: tuple[RateMeasurement, ...]
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def samples(self) -> tuple[str, ...]:
        """Distinct sample labels in first-appearance order."""
        seen: dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.sample, None)
        return tuple(seen)

    def restricted(self, t_min: float) -> "Dataset":
        """Sub-dataset with temperature >= t_min (phonon-limited cut)."""
        kept = tuple(r for r in self.rows if r.temperature >= t_min)
        return Dataset(rows=kept, provenance=f"{self.provenance} [T >= {t_min:g} K]".strip())

    def to_csv_text(self) -> str:
        """Canonical text form; floats use shortest round-trip formatting."""
        lines = [CSV_HEADER]
        for m in self.rows:
            lines.append(
                f"{m.nv_id},{m.sample},{m.temperature!r},{m.omega!r},"
                f"{m.omega_err!r},{m.gamma!r},{m.gamma_err!r}"
            )
        return "\n".join(lines) + "\n"

    def checksum(self) -> str:
        """sha256 of the canonical text form, for report provenance."""
        return hashlib.sha256(self.to_csv_text().encode("utf-8")).hexdigest()


_NUMERIC_COLUMNS = ("temperature_k", "omega_s", "omega_err_s", "gamma_s", "gamma_err_s")


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, line) of every line that is neither blank nor a comment."""
    return [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.startswith("#")]


def parse_dataset_text(text: str, provenance: str = "") -> Dataset:
    """Parse canonical CSV text into a Dataset.

    Raises DatasetError naming line and column for malformed rows or
    non-finite values, and enforces the ingestion bounds on temperature.
    """
    lines = _content_lines(text)
    if not lines:
        raise DatasetError("empty dataset: no header line found")
    header_lineno, header = lines[0]
    header = header.strip()
    if header != CSV_HEADER:
        raise DatasetError(
            f"line {header_lineno}: bad header {header!r}; expected {CSV_HEADER!r}")
    if len(lines) == 1:
        raise DatasetError("empty dataset: header but no rows")

    columns = CSV_HEADER.split(",")
    rows = []
    for lineno, line in lines[1:]:
        fields = line.strip().split(",")
        if len(fields) != len(columns):
            raise DatasetError(
                f"line {lineno}: expected {len(columns)} fields, got {len(fields)}"
            )
        values: dict[str, float | str] = {"nv_id": fields[0], "sample": fields[1]}
        for name, raw in zip(columns[2:], fields[2:]):
            try:
                values[name] = float(raw)
            except ValueError:
                raise DatasetError(
                    f"line {lineno}, column {name}: not a number: {raw!r}"
                ) from None
            if not math.isfinite(values[name]):
                raise DatasetError(f"line {lineno}, column {name}: not finite: {raw!r}")
        t = values["temperature_k"]
        if not _T_INGEST_MIN_K <= t <= _T_INGEST_MAX_K:
            raise DatasetError(
                f"line {lineno}, column temperature_k: {t} outside "
                f"[{_T_INGEST_MIN_K:g}, {_T_INGEST_MAX_K:g}] K"
            )
        try:
            rows.append(
                RateMeasurement(
                    nv_id=str(values["nv_id"]),
                    sample=str(values["sample"]),
                    temperature=t,
                    omega=values["omega_s"],
                    omega_err=values["omega_err_s"],
                    gamma=values["gamma_s"],
                    gamma_err=values["gamma_err_s"],
                )
            )
        except DatasetError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None
    return Dataset(rows=tuple(rows), provenance=provenance)


def load_dataset(source: str) -> Dataset:
    """Load a dataset from a CSV path or from the builtin tag.

    The builtin tag returns the dataset published with the measurements
    (53 rows over two samples, 8.9 K to 473.5 K).  Setting the environment
    variable named by BUILTIN_DATA_ENV redirects the tag to a file.
    """
    if source == BUILTIN_TAG:
        override = os.environ.get(BUILTIN_DATA_ENV)
        if override:
            return parse_dataset_text(
                _read_text(override), provenance=f"{BUILTIN_TAG} (override: {override})"
            )
        return parse_dataset_text(_BUILTIN_TABLE, provenance=BUILTIN_TAG)
    return parse_dataset_text(_read_text(source), provenance=source)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DatasetError(f"cannot read dataset file {path!r}: {exc}") from None


def write_dataset(dataset: Dataset, path: str, metadata: dict[str, str] | None = None) -> None:
    """Write canonical CSV, optionally preceded by '#'-prefixed metadata lines."""
    with open(path, "w", encoding="utf-8") as fh:
        if metadata:
            for key, value in metadata.items():
                fh.write(f"# {key}: {value}\n")
        fh.write(dataset.to_csv_text())


# Published measured rates, transcribed verbatim: 53 rows, 35 sample A and
# 18 sample B, in the source table's column-major reading order.  The two
# NVB5 rows at 473.3 K are genuinely duplicated measurement conditions.  The
# entry "0.0(8)e-2" is stored as value 0.0 with error 0.008.
_BUILTIN_TABLE = """\
nv_id,sample,temperature_k,omega_s,omega_err_s,gamma_s,gamma_err_s
NVA,A,8.9,0.017,0.009,0.05,0.03
NVA,A,50.0,0.02,0.02,0.09,0.06
NVA,A,84.6,0.04,0.02,0.5,0.2
NVA,A,124.1,1.0,0.09,3.4,0.4
NVA,A,148.4,2.64,0.16,7.0,0.6
NVA,A,158.6,4.0,0.3,10.3,0.8
NVA,A,160.9,4.0,0.3,12.1,0.9
NVA,A,172.9,6.2,0.2,16.6,0.8
NVA,A,184.9,8.3,0.4,20.9,1.3
NVA,A,196.9,11.4,0.5,23.2,1.6
NVA,A,208.5,14.5,0.7,39.0,2.0
NVA,A,221.4,19.1,1.0,52.0,3.0
NVA,A,233.5,22.3,1.0,57.0,4.0
NVA,A,244.7,28.5,1.3,72.0,4.0
NVA,A,256.4,35.4,1.7,79.0,5.0
NVA,A,268.8,45.0,2.0,91.0,7.0
NVA,A,281.4,54.0,3.0,105.0,8.0
NVA,A,295.0,60.0,3.0,128.0,7.0
NVA,A,301.5,60.0,2.0,132.0,7.0
NVA,A,308.1,73.0,3.0,150.0,10.0
NVA,A,323.8,87.0,5.0,130.0,12.0
NVA,A,326.1,77.0,3.0,157.0,10.0
NVA,A,328.3,96.0,4.0,159.0,11.0
NVA,A,337.6,101.0,5.0,195.0,13.0
NVA,A,353.7,114.0,5.0,227.0,15.0
NVA,A,368.7,132.0,6.0,251.0,17.0
NVA,A,380.4,138.0,6.0,280.0,20.0
NVA,A,390.3,165.0,7.0,260.0,20.0
NVA,A,401.6,179.0,7.0,350.0,20.0
NVA,A,415.6,213.0,10.0,370.0,30.0
NVA,A,427.1,243.0,10.0,360.0,20.0
NVA,A,440.1,254.0,11.0,410.0,30.0
NVA,A,454.0,262.0,11.0,430.0,30.0
NVA,A,465.5,304.0,13.0,520.0,30.0
NVA,A,471.4,337.0,15.0,520.0,30.0
NVB3,B,8.9,0.016,0.006,0.34,0.08
NVB3,B,50.0,0.0,0.008,0.23,0.09
NVB2,B,99.3,0.23,0.07,1.1,0.3
NVB2,B,148.4,2.7,0.2,9.1,1.0
NVB2,B,196.9,13.3,1.3,30.0,4.0
NVB2,B,244.7,27.0,2.0,73.0,7.0
NVB1,B,295.0,50.0,11.0,120.0,40.0
NVB5,B,295.0,51.0,5.0,131.0,15.0
NVB4,B,295.0,65.0,5.0,123.0,13.0
NVB5,B,344.3,106.0,9.0,220.0,20.0
NVB4,B,344.9,76.0,12.0,190.0,40.0
NVB5,B,393.0,160.0,13.0,340.0,40.0
NVB4,B,393.6,177.0,16.0,290.0,40.0
NVB5,B,440.1,223.0,19.0,490.0,50.0
NVB4,B,441.1,270.0,30.0,520.0,80.0
NVB5,B,473.3,320.0,30.0,580.0,70.0
NVB5,B,473.3,350.0,30.0,500.0,70.0
NVB4,B,473.5,390.0,30.0,590.0,60.0
"""
