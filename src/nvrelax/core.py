"""Units, shared domain types, the bundled measured-rate dataset, and the
Gauss-Newton covariance that the fits of both fitting and dynamics take.

The internal unit system is fixed: energies in meV, temperatures in K,
rates in s^-1, spin-phonon coupling amplitudes in MHz.
"""
from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "BOLTZMANN_MEV_PER_K",
    "HBAR_MEV_S",
    "PLANCK_MEV_S",
    "PLANCK_MEV_PER_MHZ",
    "BUILTIN_TAG",
    "CSV_HEADER",
    "DEFAULT_SEED",
    "RateMeasurement",
    "Dataset",
    "TransitionChannel",
    "DatasetError",
    "RankDeficiencyError",
    "estimate_covariance",
    "load_dataset",
    "parse_dataset_text",
]

# CODATA 2018 values, full precision; rounded forms appear in docstrings.
BOLTZMANN_MEV_PER_K = 8.617333262e-2    # meV / K
HBAR_MEV_S = 6.582119569e-13            # meV s
PLANCK_MEV_S = 4.135667696e-12          # meV s
PLANCK_MEV_PER_MHZ = 4.135667696e-6     # meV per MHz (h * 1 MHz in meV)

# tag resolving to the dataset published with the measurements (53 rows)
BUILTIN_TAG = "paper-table-s4"

CSV_HEADER = "nv_id,sample,temperature_k,omega_s,omega_err_s,gamma_s,gamma_err_s"

# the protocol simulation, the one stochastic entry point, draws from a
# generator seeded with this value unless told otherwise
DEFAULT_SEED = 1729

# ingestion bounds for measured data; synthetic model curves may go beyond
_T_INGEST_MIN_K = 1.0
_T_INGEST_MAX_K = 2000.0

class TransitionChannel(enum.Enum):
    """Spin-phonon transition channels of the triplet ground state.

    SINGLE_QUANTUM couples |0> to |+-1> (rate Omega), DOUBLE_QUANTUM couples
    |-1> to |+1> (rate gamma).
    """

    SINGLE_QUANTUM = "single_quantum"
    DOUBLE_QUANTUM = "double_quantum"

    @classmethod
    def parse(cls, token: str) -> "TransitionChannel":
        try:
            return cls(token.strip().lower())
        except ValueError:
            valid = ", ".join(c.value for c in cls)
            raise ValueError(f"unknown channel {token!r}; expected one of {valid}") from None


class DatasetError(ValueError):
    """Malformed or invalid measured-rate data."""


# the domains of _require, each a test on a finite value
_DOMAINS = {
    "finite": lambda v: True,
    "nonnegative": lambda v: v >= 0.0,
    "positive": lambda v: v > 0.0,
}


def _require(values: Mapping[str, object], domain: str = "finite",
             error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming the first of ``values`` that is a boolean, NaN,
    infinite, or outside ``domain``: "finite", "nonnegative" or "positive".

    A value is a number or an array (or a sequence numpy reads as one).  A
    boolean, an array of them, or a sequence holding one is refused rather
    than read as 0 or 1; numpy reads ``(False, 2.0)`` as floats, so a
    list's or a tuple's entries are looked at one by one.  So is a string,
    bytes, complex or other object value (``'300'``, ``['1', 2.0]``,
    ``None``, a ``Fraction``), not cast to float, and an int too large for
    a float is refused as not finite.  A Python or numpy float, or a Python
    int, passes on ``math.isfinite`` and the domain test alone; an array of
    numbers passes on one ``min()`` and one ``max()`` (a NaN makes both
    NaN).  Only a value that does not pass this way is looked at again, by
    :func:`_refuse`, which builds the message and names an array's failing
    element by its flat index.
    """
    within = _DOMAINS[domain]
    for name, value in values.items():
        if isinstance(value, float) or type(value) is int:
            lowest = highest = value
        else:
            a = np.asarray(value)
            kind = a.dtype.kind
            if kind == "b" or isinstance(value, (list, tuple)) and _holds_bool(value):
                raise error(f"{name} must be a number, not a boolean")
            if kind in "SUcO":
                raise error(f"{name} must be a number, got {value!r}")
            if kind not in "fiu" or not a.size:
                _refuse(name, value, domain, error)
                continue
            lowest, highest = a.min(), a.max()
        try:
            passes = math.isfinite(lowest) and math.isfinite(highest) and within(lowest)
        except OverflowError:   # an int beyond the float range
            raise error(f"{name} must be finite, got {value!r}") from None
        if not passes:
            _refuse(name, value, domain, error)


# singular-value ratio below which the normal equations count as rank deficient
_RANK_RCOND = 1e-10


class RankDeficiencyError(RuntimeError):
    """Normal equations singular: some parameter combination is unconstrained."""


def estimate_covariance(jacobian: np.ndarray, param_names: Sequence[str]) -> np.ndarray:
    """Gauss-Newton covariance (J^T J)^-1 for a residual Jacobian.

    The Jacobian must be of normalized residuals with respect to the
    parameters the covariance is wanted in.  Raises RankDeficiencyError
    naming the most degenerate parameter pair when the normal equations are
    numerically singular, as they always are with fewer residuals than
    parameters (none included).
    """
    jacobian = np.asarray(jacobian, dtype=float)
    rows, cols = jacobian.shape
    # a wide Jacobian's full SVD puts a vector of its null space in vt[-1]
    _, s, vt = np.linalg.svd(jacobian, full_matrices=rows < cols)
    # LAPACK may return a singular value of -0.0; an all-zero Jacobian has s[0] == 0
    ratio = abs(s[-1]) / s[0] if rows >= cols and s[0] != 0 else 0.0
    if ratio < _RANK_RCOND:
        worst = np.argsort(np.abs(vt[-1]))[::-1][:2]
        pair = " and ".join(str(param_names[i]) for i in sorted(worst))
        raise RankDeficiencyError(
            f"rank-deficient fit: parameters {pair} are degenerate "
            f"(singular-value ratio {ratio:.2e})"
        )
    inv_s2 = 1.0 / s**2
    return (vt.T * inv_s2) @ vt


def _require_integer(values: Mapping[str, object]) -> None:
    """Raise a ``ValueError`` naming the first of ``values`` that is not a
    Python or numpy integer: a boolean, or a float of whole value, too."""
    for name, value in values.items():
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _holds_bool(entries: list | tuple) -> bool:
    """Whether a list or tuple, or one nested in it, holds a boolean."""
    kinds = set(map(type, entries))
    return bool(kinds & {bool, np.bool_}) or bool(kinds & {list, tuple}) and any(
        _holds_bool(v) for v in entries if type(v) in (list, tuple))


def _refuse(name: str, value: object, domain: str, error: type[ValueError]) -> None:
    """Raise ``error`` if ``value`` is NaN, infinite or outside ``domain``,
    naming it, or for an array its failing element by flat index; an empty
    array passes.  The slow half of :func:`_require`."""
    a = np.asarray(value, dtype=float)
    if a.ndim == 0:
        extremes = [(name, float(a))]
    elif a.size:
        extremes = [(f"{name}[{i}]", float(a.flat[i]))
                    for i in (np.argmin(a), np.argmax(a))]
    else:
        return
    for label, v in extremes:
        if not math.isfinite(v):
            raise error(f"{label} must be finite, got {v}")
    label, lowest = extremes[0]
    if not _DOMAINS[domain](lowest):
        raise error(f"{label} must be {domain}, got {lowest}")


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
        # the ids are written verbatim into one CSV field each, and must read back unchanged
        for name in ("nv_id", "sample"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise DatasetError(f"{name} must be a string, got {value!r}")
            # a blank sample would fit floors named a3_ and b3_
            if not value:
                raise DatasetError(f"{name} must not be empty")
            if ("," in value or "".join(value.splitlines()) != value
                    or value.startswith("#") or value != value.strip()):
                raise DatasetError(
                    f"{name} must hold no comma or line break, not start with '#' "
                    f"and not start or end in whitespace, got {value!r}")
        _require({"temperature": self.temperature}, "positive", DatasetError)
        _require({"omega": self.omega, "gamma": self.gamma}, "nonnegative", DatasetError)
        # errors feed inverse-variance weights, so zero is as bad as negative
        _require({"omega_err": self.omega_err, "gamma_err": self.gamma_err}, "positive",
                 DatasetError)


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

    def restricted(self, t_min: float) -> "Dataset":
        """Sub-dataset with temperature >= t_min (phonon-limited cut)."""
        kept = tuple(r for r in self.rows if r.temperature >= t_min)
        return Dataset(rows=kept, provenance=f"{self.provenance} [T >= {t_min:g} K]".strip())

    def to_csv_text(self) -> str:
        """Canonical text form; floats use shortest round-trip formatting."""
        return _csv_text(CSV_HEADER, [
            f"{m.nv_id},{m.sample},{m.temperature!r},{m.omega!r},"
            f"{m.omega_err!r},{m.gamma!r},{m.gamma_err!r}" for m in self.rows])

    def checksum(self) -> str:
        """sha256 of the canonical text form, for report provenance."""
        return _sha256(self.to_csv_text())


_NUMERIC_COLUMNS = ("temperature_k", "omega_s", "omega_err_s", "gamma_s", "gamma_err_s")


def _sha256(text: str) -> str:
    """Hex sha256 of the UTF-8 bytes of ``text``: the checksum outputs record."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _csv_text(header: str | None, rows: list[str],
              comments: Mapping[str, object] | None = None) -> str:
    """The one CSV text format: a ``# key: value`` line per ``comments``
    entry, then ``header`` unless None, then the pre-formatted ``rows``;
    every line ends in a newline.

    ``rows`` holds the lines without their newlines.  The spectral CSV
    writer passes none and appends its own newline-terminated body, which
    it builds from its grid text rather than one line at a time.
    """
    lines = [f"# {key}: {value}" for key, value in (comments or {}).items()]
    if header is not None:
        lines.append(header)
    lines.extend(rows)
    lines.append("")
    return "\n".join(lines)


def _csv_rows(text: str, header: str, kind: str, error: type[ValueError]):
    """Yield (1-based line number, fields) for every row of CSV ``text``
    under ``header``; blank and ``#`` lines are skipped but counted.

    Raises ``error`` for a missing or wrong header and for a row whose
    width differs from the header's, naming the line.
    """
    lines = [(lineno, line.strip()) for lineno, line in enumerate(text.splitlines(), start=1)
             if line.strip() and not line.startswith("#")]
    if not lines:
        raise error(f"empty {kind}: no header line found")
    lineno, found = lines[0]
    if found != header:
        raise error(f"line {lineno}: bad header {found!r}; expected {header!r}")
    width = header.count(",") + 1
    for lineno, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != width:
            raise error(f"line {lineno}: expected {width} fields, got {len(fields)}")
        yield lineno, fields


def _csv_field(raw: str, kind: type, lineno: int, column: str, error: type[ValueError]):
    """``kind(raw)`` (``float`` or ``int``), or ``error`` naming the line and
    the column of a field that does not read as one."""
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise error(f"line {lineno}, column {column}: not {what}: {raw!r}") from None


def parse_dataset_text(text: str, provenance: str = "") -> Dataset:
    """Parse canonical CSV text into a Dataset.

    Raises DatasetError naming line and column for malformed rows or
    non-finite values, and enforces the ingestion bounds on temperature.
    """
    rows = []
    for lineno, fields in _csv_rows(text, CSV_HEADER, "dataset", DatasetError):
        numbers = []
        for name, raw in zip(_NUMERIC_COLUMNS, fields[2:]):
            numbers.append(_csv_field(raw, float, lineno, name, DatasetError))
            if not math.isfinite(numbers[-1]):
                raise DatasetError(f"line {lineno}, column {name}: not finite: {raw!r}")
        t = numbers[0]
        if not _T_INGEST_MIN_K <= t <= _T_INGEST_MAX_K:
            raise DatasetError(
                f"line {lineno}, column temperature_k: {t} outside "
                f"[{_T_INGEST_MIN_K:g}, {_T_INGEST_MAX_K:g}] K"
            )
        try:
            # the CSV columns are RateMeasurement's fields, in order
            rows.append(RateMeasurement(fields[0], fields[1], *numbers))
        except DatasetError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None
    if not rows:
        raise DatasetError("empty dataset: header but no rows")
    return Dataset(rows=tuple(rows), provenance=provenance)


def load_dataset(source: str) -> Dataset:
    """Load a dataset from a CSV path or from the builtin tag.

    The builtin tag returns the dataset published with the measurements
    (53 rows over two samples, 8.9 K to 473.5 K).
    """
    if source == BUILTIN_TAG:
        return parse_dataset_text(_BUILTIN_TABLE, provenance=BUILTIN_TAG)
    try:
        return _read_input(source, "dataset",
                           lambda text: parse_dataset_text(text, provenance=source))[0]
    except OSError as exc:
        raise DatasetError(f"cannot read dataset file {source!r}: {exc}") from None


def _read_input(path: str, kind: str, parse: Callable[[str], object]) -> tuple[object, str]:
    """(``parse(text)``, ``text``) of the UTF-8 file at ``path``, less the
    byte-order mark a spreadsheet may write first: such a file gives the
    same text, so the same checksum, as the same file without one.

    Bytes that do not decode, and any ValueError of ``parse``, raise
    ValueError (a DatasetError stays one) naming the ``kind`` file and its
    path; an OSError's message names the path already.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
        return parse(text), text
    except ValueError as exc:
        error = DatasetError if isinstance(exc, DatasetError) else ValueError
        raise error(f"{kind} file {path!r}: {exc}") from None


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
