"""Units, dataset schema, the bundled dataset, and the boundary check."""
import math
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvrelax.core import (
    BOLTZMANN_MEV_PER_K,
    BUILTIN_TAG,
    CSV_HEADER,
    HBAR_MEV_S,
    PLANCK_MEV_S,
    Dataset,
    DatasetError,
    RateMeasurement,
    TransitionChannel,
    _require,
    load_dataset,
    parse_dataset_text,
)
from nvrelax.dynamics import ProtocolSpec, RateMatrix, evolve
from nvrelax.fitting import FitProblem, ModelSpec
from nvrelax.models import (
    ModelSpec,
    RateLaw,
    coherence_limits,
    occupation,
    orbach_factor,
    orbach_factor_ddelta,
)
from nvrelax.spectral import (
    CouplingEntry,
    CouplingTable,
    RamanRateCurve,
    SpectralFunction,
    anchor_coupling_table,
    build_spectral_function,
    default_grid,
    order_dominance_ratio,
    rate_curve,
    refit_theory_curve,
    second_order_rate,
    spectral_to_csv_text,
    synthetic_peak_function,
)

SQ = TransitionChannel.SINGLE_QUANTUM


def test_constants_are_consistent():
    # h = 2 pi hbar must hold between the stored constants
    assert PLANCK_MEV_S == pytest.approx(2.0 * math.pi * HBAR_MEV_S, rel=1e-9)
    assert BOLTZMANN_MEV_PER_K == pytest.approx(8.617333262e-2, rel=1e-12)


class TestTransitionChannel:
    def test_parse_tokens(self):
        assert TransitionChannel.parse("single_quantum") is TransitionChannel.SINGLE_QUANTUM
        assert TransitionChannel.parse(" Double_Quantum ") is TransitionChannel.DOUBLE_QUANTUM
        # a dephasing channel has no relaxation rate and is not a channel
        with pytest.raises(ValueError, match="unknown channel 'dephasing'"):
            TransitionChannel.parse("dephasing")

    def test_unknown_channel_raises(self):
        with pytest.raises(ValueError, match="unknown channel"):
            TransitionChannel.parse("triple_quantum")


class TestRateMeasurementValidation:
    def test_nonpositive_error_rejected(self):
        with pytest.raises(DatasetError, match="^omega_err must be positive"):
            RateMeasurement("NVA", "A", 295.0, 60.0, 0.0, 128.0, 7.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(DatasetError, match="nonnegative"):
            RateMeasurement("NVA", "A", 295.0, -1.0, 3.0, 128.0, 7.0)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(DatasetError, match="temperature"):
            RateMeasurement("NVA", "A", 0.0, 60.0, 3.0, 128.0, 7.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [2, 3, 4, 5, 6])
    def test_nonfinite_value_rejected_naming_field(self, field, bad):
        values = ["NVA", "A", 295.0, 60.0, 3.0, 128.0, 7.0]
        values[field] = bad
        name = ("temperature", "omega", "omega_err", "gamma", "gamma_err")[field - 2]
        with pytest.raises(DatasetError, match=f"^{name} must be finite"):
            RateMeasurement(*values)

    # each id would not read back from the CSV unchanged: a comma or line
    # break splits the row, a leading '#' makes it a comment, and the
    # reader strips the line's edges
    @pytest.mark.parametrize("bad", ["NV,1", " NV1", "#NV1", "NV\n1", "NV1\t"])
    @pytest.mark.parametrize("field", [0, 1])
    def test_id_that_does_not_survive_csv_rejected_naming_field(self, field, bad):
        values = ["NVA", "A", 295.0, 60.0, 3.0, 128.0, 7.0]
        values[field] = bad
        with pytest.raises(DatasetError, match=f"^{('nv_id', 'sample')[field]} must hold"):
            RateMeasurement(*values)

    @pytest.mark.parametrize("field", [0, 1])
    def test_empty_id_rejected_naming_field(self, field):
        values = ["NVA", "A", 295.0, 60.0, 3.0, 128.0, 7.0]
        values[field] = ""
        with pytest.raises(DatasetError, match=f"^{('nv_id', 'sample')[field]} must not be empty$"):
            RateMeasurement(*values)

    def test_blank_sample_column_names_line(self):
        # a blank sample would otherwise fit floors named a3_ and b3_
        text = CSV_HEADER + "\nNVA,A,124.1,1.0,0.09,3.4,0.4\nNVA,,148.4,2.64,0.16,7.0,0.6\n"
        with pytest.raises(DatasetError, match="^line 3: sample must not be empty$"):
            parse_dataset_text(text)

    def test_comma_space_separated_row_names_sample(self):
        text = CSV_HEADER + "\nNVA, A, 295.0, 60.0, 3.0, 128.0, 7.0\n"
        with pytest.raises(DatasetError, match="^line 2: sample must hold"):
            parse_dataset_text(text)

    def test_zero_rate_with_positive_error_allowed(self):
        # the bundled dataset contains omega = 0.0 +- 0.008 at 50 K
        m = RateMeasurement("NVB3", "B", 50.0, 0.0, 0.008, 0.23, 0.09)
        assert m.omega == 0.0


class TestBuiltinDataset:
    def test_row_totals(self, builtin_dataset):
        assert len(builtin_dataset) == 53
        counts = Counter(row.sample for row in builtin_dataset)
        assert counts["A"] == 35
        assert counts["B"] == 18

    def test_temperature_range(self, builtin_dataset):
        temps = [row.temperature for row in builtin_dataset]
        assert min(temps) == 8.9
        assert max(temps) == 473.5

    def test_room_temperature_row(self, builtin_dataset):
        row = next(
            r for r in builtin_dataset if r.nv_id == "NVA" and r.temperature == 295.0
        )
        assert (row.omega, row.omega_err) == (60.0, 3.0)
        assert (row.gamma, row.gamma_err) == (128.0, 7.0)

    def test_lowest_temperature_row(self, builtin_dataset):
        row = next(r for r in builtin_dataset if r.temperature == 8.9 and r.sample == "A")
        assert (row.omega, row.omega_err) == (0.017, 0.009)
        assert (row.gamma, row.gamma_err) == (0.05, 0.03)

    def test_duplicate_condition_rows_retained(self, builtin_dataset):
        dupes = [
            r for r in builtin_dataset if r.nv_id == "NVB5" and r.temperature == 473.3
        ]
        assert len(dupes) == 2
        assert dupes[0] != dupes[1]  # independent measurements, different rates

    def test_restricted_phonon_limited_cut(self, builtin_dataset):
        cut = builtin_dataset.restricted(125.0)
        assert len(cut) == 46
        counts = Counter(row.sample for row in cut)
        assert counts["A"] == 31
        assert counts["B"] == 15


class TestDatasetIO:
    def test_builtin_round_trip_bit_for_bit(self, builtin_dataset):
        text = builtin_dataset.to_csv_text()
        again = parse_dataset_text(text)
        assert again.to_csv_text() == text
        assert again.rows == builtin_dataset.rows

    def test_write_then_load(self, builtin_dataset, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text(builtin_dataset.to_csv_text(), encoding="utf-8")
        again = load_dataset(str(path))
        assert again.rows == builtin_dataset.rows

    def test_empty_text_raises(self):
        with pytest.raises(DatasetError, match="empty dataset"):
            parse_dataset_text("")

    def test_header_only_raises(self):
        with pytest.raises(DatasetError, match="no rows"):
            parse_dataset_text(CSV_HEADER + "\n")

    def test_bad_header_raises(self):
        with pytest.raises(DatasetError, match="line 1"):
            parse_dataset_text("a,b,c\n1,2,3\n")

    def test_malformed_number_names_line_and_column(self):
        text = CSV_HEADER + "\nNVA,A,295.0,sixty,3.0,128.0,7.0\n"
        with pytest.raises(DatasetError, match="^line 2, column omega_s: not a number: 'sixty'$"):
            parse_dataset_text(text)

    def test_wrong_field_count_names_line(self):
        text = CSV_HEADER + "\nNVA,A,295.0,60.0\n"
        with pytest.raises(DatasetError, match="line 2"):
            parse_dataset_text(text)

    def test_nonpositive_error_bar_names_line(self):
        text = CSV_HEADER + "\nNVA,A,295.0,60.0,-3.0,128.0,7.0\n"
        with pytest.raises(DatasetError, match="line 2"):
            parse_dataset_text(text)

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    @pytest.mark.parametrize("column", CSV_HEADER.split(",")[2:])
    def test_nonfinite_value_names_line_and_column(self, column, raw):
        fields = dict(zip(CSV_HEADER.split(","),
                          ["NVA", "A", "295.0", "60.0", "3.0", "128.0", "7.0"]))
        fields[column] = raw
        text = CSV_HEADER + "\nNVA,A,300.0,61.0,3.0,129.0,7.0\n" + ",".join(fields.values()) + "\n"
        with pytest.raises(DatasetError, match=f"line 3, column {column}: not finite"):
            parse_dataset_text(text)

    def test_line_numbers_count_comments_and_blank_lines(self):
        text = ("# source: x\n" + CSV_HEADER + "\n\n# row 1\nNVA,A,300.0,61.0,3.0,129.0,7.0\n"
                "NVB,A,295.0,sixty,3.0,128.0,7.0\n")
        with pytest.raises(DatasetError, match="line 6, column omega_s"):
            parse_dataset_text(text)
        with pytest.raises(DatasetError, match="line 3: bad header"):
            parse_dataset_text("# a\n\na,b,c\n1,2,3\n")

    def test_ingestion_temperature_bounds(self):
        text = CSV_HEADER + "\nNVA,A,2500.0,60.0,3.0,128.0,7.0\n"
        with pytest.raises(DatasetError, match="temperature_k"):
            parse_dataset_text(text)
        text = CSV_HEADER + "\nNVA,A,0.5,60.0,3.0,128.0,7.0\n"
        with pytest.raises(DatasetError, match="temperature_k"):
            parse_dataset_text(text)

    def test_missing_file_raises(self):
        with pytest.raises(DatasetError, match="cannot read"):
            load_dataset("/nonexistent/rates.csv")

    def test_comment_lines_ignored(self, builtin_dataset):
        text = "# seed: 1\n# version: x\n" + builtin_dataset.to_csv_text()
        assert parse_dataset_text(text).rows == builtin_dataset.rows

    def test_checksum_tracks_content(self, builtin_dataset):
        full = builtin_dataset.checksum()
        assert full == builtin_dataset.checksum()  # stable
        assert Dataset(rows=builtin_dataset.rows[:-1]).checksum() != full

    def test_writers_bytes(self):
        # comment lines in the order given, then the header, then one line
        # per row, every line ending in a newline
        assert anchor_coupling_table().to_csv_text() == (
            "energy_mev,amplitude_mhz,channel,order\n"
            "62.4,0.6,single_quantum,2\n62.4,2.0,double_quantum,2\n"
            "160.7,0.07,single_quantum,2\n160.7,0.34,double_quantum,2\n")
        curve = RamanRateCurve(temperatures=(100.0, 300.5), omega=(0.25, 60.0),
                               gamma=(1.5, 128.0), provenance="literal")
        assert curve.to_csv_text() == (
            "# provenance: literal\ntemperature_k,omega_s,gamma_s\n"
            "100.0,0.25,1.5\n300.5,60.0,128.0\n")
        f = SpectralFunction(grid=[0.0, 0.5, 1.0, 1.5, 2.0], amplitude=[0.0, 0.25, 1.0, 0.25, 0.0],
                             channel=TransitionChannel.DOUBLE_QUANTUM, sigma=0.5)
        assert spectral_to_csv_text(f) == (
            "# channel: double_quantum\n# order: 2\n# sigma_mev: 0.5\n"
            "energy_mev,amplitude_mhz_per_mev\n"
            "0.0,0.0\n0.5,0.25\n1.0,1.0\n1.5,0.25\n2.0,0.0\n")
        ds = Dataset(rows=(RateMeasurement("NVA", "A", 295.0, 60.0, 3.0, 128.0, 7.0),))
        table = CSV_HEADER + "\nNVA,A,295.0,60.0,3.0,128.0,7.0\n"
        assert ds.to_csv_text() == table
        assert ds.checksum() == (
            "b6b7c1b9c1cb85b2469472610bb5da0202d133edb835634797f0b0b5ea0f4518")

    @given(
        temperature=st.floats(min_value=1.0, max_value=2000.0),
        omega=st.floats(min_value=0.0, max_value=1e4),
        omega_err=st.floats(min_value=1e-6, max_value=1e3),
        gamma=st.floats(min_value=0.0, max_value=1e4),
        gamma_err=st.floats(min_value=1e-6, max_value=1e3),
    )
    @settings(max_examples=50)
    def test_round_trip_any_row(self, temperature, omega, omega_err, gamma, gamma_err):
        """Shortest-repr float formatting survives write -> read -> write."""
        ds = Dataset(
            rows=(
                RateMeasurement("NVX", "A", temperature, omega, omega_err, gamma, gamma_err),
            )
        )
        text = ds.to_csv_text()
        again = parse_dataset_text(text)
        assert again.rows == ds.rows
        assert again.to_csv_text() == text


def _peak(**kwargs):
    return synthetic_peak_function(**{"peaks": [(68.2, 1e-12)], "sigma": 7.5,
                                      "channel": SQ, **kwargs})


# (field named in the message, domain, call taking the probed value)
BOUNDARIES = {
    "orbach_factor temperature": ("temperature", "positive",
                                  lambda x: orbach_factor(60.0, x)),
    "orbach_factor delta": ("delta", "positive", lambda x: orbach_factor(x, 300.0)),
    "RateLaw.rates": ("temperature", "positive", lambda x: RateLaw(
        ModelSpec("n_mode", 1), {"delta_1": 68.2, "a_1": 1.0, "b_1": 1.0}).rates(None, x)),
    "second_order_rate": ("temperature", "positive", lambda x: second_order_rate(_peak(), x)),
    "rate_curve": ("temperature", "positive", lambda x: rate_curve(_peak(), _peak(), [x])),
    "build_spectral_function": ("broadening width sigma", "positive",
                                lambda x: build_spectral_function(anchor_coupling_table(),
                                                                  SQ, sigma=x)),
    "default_grid": ("broadening width sigma", "positive", default_grid),
    "synthetic_peak_function sigma": ("broadening width sigma", "positive",
                                      lambda x: _peak(sigma=x)),
    "synthetic_peak_function center": ("peak center", "positive",
                                       lambda x: _peak(peaks=[(x, 1e-12)])),
    "RamanRateCurve temperatures": ("temperatures[0]", "positive",
                                    lambda x: RamanRateCurve((x,), (1.0,), (1.0,), "")),
    "RamanRateCurve rates": ("omega[0]", "nonnegative",
                             lambda x: RamanRateCurve((300.0,), (x,), (1.0,), "")),
    "RamanRateCurve omega errors": ("omega_rel_error[0]", "nonnegative",
                                    lambda x: RamanRateCurve((300.0,), (1.0,), (1.0,), "",
                                                             omega_rel_error=(x,))),
    "RamanRateCurve gamma errors": ("gamma_rel_error[0]", "nonnegative",
                                    lambda x: RamanRateCurve((300.0,), (1.0,), (1.0,), "",
                                                             omega_rel_error=(0.0,),
                                                             gamma_rel_error=(x,))),
    "order_dominance_ratio": ("zero-field splitting d_ghz", "nonnegative",
                              lambda x: order_dominance_ratio(x, 60.0)),
    "evolve": ("evolution time tau", "nonnegative",
               lambda x: evolve(RateMatrix(60.0, 128.0), "0", x)),
    "FitProblem t_min": ("t_min", "positive",
                         lambda x: FitProblem(dataset=load_dataset(BUILTIN_TAG),
                                              model=ModelSpec("n_mode", 1), t_min=x)),
    "refit_theory_curve t_max": ("t_max", "positive",
                                 lambda x: refit_theory_curve(
                                     RamanRateCurve((100.0, 200.0), (1.0, 2.0), (3.0, 4.0), ""),
                                     t_max=x)),
}


class TestBoundaryCheck:
    @pytest.mark.parametrize("bad", ["nan", "inf", "out of domain"])
    @pytest.mark.parametrize("entry", sorted(BOUNDARIES))
    def test_rejects_naming_the_field(self, entry, bad):
        field, domain, call = BOUNDARIES[entry]
        if bad == "out of domain" and domain == "finite":
            # no finite number lies outside "finite": probe a boolean instead
            value, message = True, "a number, not a boolean$"
        elif bad == "out of domain":
            value = 0.0 if domain == "positive" else -1.0
            message = f"{domain}, got "
        else:
            value, message = float(bad), "finite, got "
        with pytest.raises(ValueError, match=f"^{re.escape(field)} must be {message}"):
            call(value)


# (error, message, call) for a field of the wrong type; each was once
# accepted, or refused by a message that named no field
WRONG_TYPES = {
    "CouplingEntry channel": (ValueError, "channel must be a TransitionChannel, "
                              "got 'single_quantum'",
                              lambda: CouplingEntry(62.4, 0.6, "single_quantum")),
    "SpectralFunction channel": (ValueError, "channel must be a TransitionChannel, got 'sq'",
                                 lambda: SpectralFunction(np.arange(5.0), np.ones(5), "sq", 7.5)),
    "CouplingTable entry": (ValueError, "entries[0] must be a CouplingEntry, got "
                            "(62.4, 1.0, <TransitionChannel.SINGLE_QUANTUM: 'single_quantum'>)",
                            lambda: CouplingTable(entries=((62.4, 1.0, SQ),))),
    "CouplingTable entries": (ValueError, "entries[0] must be a CouplingEntry, got 'a'",
                              lambda: CouplingTable(entries="abc")),
    "CouplingTable entries int": (ValueError, "entries must be a sequence of CouplingEntry, "
                                  "got 5", lambda: CouplingTable(entries=5)),
    "CouplingTable entries None": (ValueError, "entries must be a sequence of CouplingEntry, "
                                   "got None", lambda: CouplingTable(entries=None)),
    "build_spectral_function channel": (ValueError,
                                        "channel must be a TransitionChannel, got 'sq'",
                                        lambda: build_spectral_function(
                                            anchor_coupling_table(), "sq", 7.5)),
    "synthetic_peak_function channel": (ValueError,
                                        "channel must be a TransitionChannel, got 'sq'",
                                        lambda: _peak(channel="sq")),
    "RateMeasurement nv_id": (DatasetError, "nv_id must be a string, got 1",
                              lambda: RateMeasurement(1, "A", 300.0, 1.0, 0.1, 1.0, 0.1)),
    "RateMeasurement sample": (DatasetError, "sample must be a string, got None",
                               lambda: RateMeasurement("NV", None, 300.0, 1.0, 0.1, 1.0, 0.1)),
}


class TestWrongTypes:
    @pytest.mark.parametrize("entry", sorted(WRONG_TYPES))
    def test_rejects_naming_the_field(self, entry):
        error, message, call = WRONG_TYPES[entry]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


def _require_reference(values, domain="finite", error=ValueError):
    """The boundary check before its fast path, kept as the oracle: every
    value goes through a float array, and an array's extremes are found by
    argmin and argmax.  An int that overflows the cast is refused as not
    finite, as the check does."""
    within = {"finite": lambda v: True, "nonnegative": lambda v: v >= 0.0,
              "positive": lambda v: v > 0.0}[domain]
    for name, value in values.items():
        try:
            a = np.asarray(value, dtype=float)
        except OverflowError:
            raise error(f"{name} must be finite, got {value!r}") from None
        if a.ndim == 0:
            extremes = [(name, float(a))]
        elif a.size:
            extremes = [(f"{name}[{i}]", float(a.flat[i]))
                        for i in (np.argmin(a), np.argmax(a))]
        else:
            continue
        for label, v in extremes:
            if not math.isfinite(v):
                raise error(f"{label} must be finite, got {v}")
        label, lowest = extremes[0]
        if not within(lowest):
            raise error(f"{label} must be {domain}, got {lowest}")


def _outcome(check, values, domain, error):
    """(exception class, message) that ``check`` raises, or None."""
    try:
        check(values, domain, error)
    except Exception as exc:    # the class itself is what is compared
        return type(exc), str(exc)
    return None


_EDGES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.7976931348623157e308,
                          math.nan, math.inf, -math.inf])
_FLOATS = st.one_of(_EDGES, st.floats(allow_nan=True, allow_infinity=True))
_FLOAT32S = st.one_of(_EDGES.filter(lambda v: abs(v) != 1.7976931348623157e308
                                    and abs(v) != 5e-324),
                      st.floats(width=32))
_INTS = st.one_of(st.integers(-3, 3), st.integers(-2**1100, 2**1100))
_INT64S = st.integers(-2**63, 2**63 - 1)
_SHAPES = st.sampled_from([(), (0,), (1,), (3,), (20,), (0, 3), (2, 3), (4, 1)])


@st.composite
def _arrays(draw):
    shape = draw(_SHAPES)
    dtype, elements = draw(st.sampled_from([(np.float64, _FLOATS), (np.float32, _FLOAT32S),
                                            (np.int64, _INT64S)]))
    n = int(np.prod(shape))
    return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype).reshape(shape)


# every form a number reaches the check in: Python and numpy scalars,
# arrays of any rank (empty too), and the tuples the dataclasses hold
_NUMBERS = st.one_of(
    _FLOATS,
    _INTS,
    _FLOATS.map(np.float64),
    _FLOAT32S.map(np.float32),
    _INT64S.map(np.int64),
    _arrays(),
    st.lists(_FLOATS, max_size=6).map(tuple),
)
_BOOLEANS = st.one_of(st.booleans(), st.booleans().map(np.bool_),
                      st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool)),
                      st.lists(st.booleans(), min_size=1, max_size=4).map(tuple),
                      # numpy reads these as numbers: (False, 2.0) is a float array
                      st.tuples(st.booleans(), _FLOATS).map(lambda v: (v[1], v[0], 2.0)),
                      st.tuples(st.booleans().map(np.bool_), _INTS).map(list),
                      st.booleans().map(lambda b: [[1.0, b], [2.0, 3.0]]))


class TestRequireFastPath:
    """``_require`` raises what it raised before its fast path, word for word."""

    @given(values=st.dictionaries(st.sampled_from(["omega", "tau_grid", "t"]), _NUMBERS,
                                  min_size=1, max_size=3),
           domain=st.sampled_from(["finite", "nonnegative", "positive"]),
           error=st.sampled_from([ValueError, DatasetError]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference(self, values, domain, error):
        assert _outcome(_require, values, domain, error) == \
            _outcome(_require_reference, values, domain, error)

    @given(value=_BOOLEANS, domain=st.sampled_from(["finite", "nonnegative", "positive"]),
           error=st.sampled_from([ValueError, DatasetError]))
    @settings(max_examples=50, deadline=None)
    def test_refuses_booleans_naming_the_field(self, value, domain, error):
        # the reference reads True as 1.0; the check refuses it instead
        with pytest.raises(error, match=r"^flag must be a number, not a boolean$"):
            _require({"omega": 1.0, "flag": value}, domain, error)

    @pytest.mark.parametrize("value", ["300", b"1", ["1", 2.0], 1 + 0j, np.complex128(2.0)],
                             ids=["str", "bytes", "str-list", "complex", "numpy-complex"])
    @pytest.mark.parametrize("error, field, call", [
        (ValueError, "t", lambda v: _require({"omega": 1.0, "t": v})),
        (DatasetError, "temperature", lambda v: RateMeasurement("NV", "A", v, 1.0, 0.1, 2.0, 0.2)),
        (ValueError, "gamma", lambda v: RateMatrix(60.0, v)),
    ], ids=["_require", "RateMeasurement", "RateMatrix"])
    def test_refuses_strings_bytes_and_complex_naming_the_field(self, value, error, field, call):
        # each was once cast to float: '300' built a row its CSV reader refuses
        message = re.escape(f"{field} must be a number, got {value!r}")
        with pytest.raises(error, match=f"^{message}$"):
            call(value)

    @pytest.mark.parametrize("error, message, call", [
        (ValueError, f"omega must be finite, got {10**400!r}", lambda: RateMatrix(10**400, 1)),
        (ValueError, f"omega must be finite, got {10**400!r}",
         lambda: coherence_limits(10**400, 1)),
        (DatasetError, f"temperature must be finite, got {10**400!r}",
         lambda: RateMeasurement("A", "A", 10**400, 1.0, 0.1, 2.0, 0.2)),
        (ValueError, "omega must be a number, got None", lambda: RateMatrix(None, 1.0)),
        (DatasetError, "temperature must be a number, got {'t': 1}",
         lambda: RateMeasurement("A", "A", {"t": 1}, 1.0, 0.1, 2.0, 0.2)),
        (ValueError, "x must be a number, got {1.0}", lambda: _require({"x": {1.0}})),
        (ValueError, "gamma must be a number, got Fraction(1, 2)",
         lambda: RateMatrix(1.0, Fraction(1, 2))),
        (ValueError, "t must be a number, got (1.0, Decimal('2'))",
         lambda: _require({"t": (1.0, Decimal("2"))})),
    ], ids=["huge-int-RateMatrix", "huge-int-coherence_limits", "huge-int-RateMeasurement",
            "None", "dict", "set", "Fraction", "Decimal"])
    def test_refuses_what_no_float_holds_naming_the_field(self, error, message, call):
        # each once raised OverflowError or TypeError, or read None as NaN
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    def test_booleans_are_refused_at_the_dataclasses(self):
        with pytest.raises(ValueError, match="^omega must be a number, not a boolean$"):
            RateMatrix(True, 1.0)
        with pytest.raises(DatasetError, match="^temperature must be a number"):
            RateMeasurement("NV", "A", np.True_, 1.0, 0.1, 2.0, 0.2)

    @pytest.mark.parametrize("field, call", [
        ("temperature", lambda: orbach_factor(60.0, True)),
        ("temperature", lambda: orbach_factor_ddelta(60.0, True)),
        ("temperature", lambda: occupation(60.0, True)),
        ("temperature", lambda: occupation(60.0, [300.0, True])),
        ("temperature", lambda: RateLaw(ModelSpec("n_mode", 1), {
            "delta_1": 68.2, "a_1": 1.0, "b_1": 1.0}).rates(None, True)),
        ("evolution time tau", lambda: evolve(RateMatrix(60.0, 128.0), "0", True)),
        ("tau_grid", lambda: ProtocolSpec(shots=10, tau_grid=(False, True, 2.0))),
        ("tau_grid", lambda: ProtocolSpec(shots=10, tau_grid=(0.0, 1.0, np.True_))),
    ])
    def test_booleans_are_refused_before_float_conversion(self, field, call):
        # each call once read True as 1 (T = 1 K, tau = 1 s) and False as 0
        with pytest.raises(ValueError, match=f"^{field} must be a number, not a boolean$"):
            call()
