"""Units, dataset schema, and the bundled dataset."""
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvrelax.core import (
    BOLTZMANN_MEV_PER_K,
    BUILTIN_DATA_ENV,
    BUILTIN_TAG,
    CSV_HEADER,
    HBAR_MEV_S,
    PLANCK_MEV_S,
    Dataset,
    DatasetError,
    RateMeasurement,
    TransitionChannel,
    convert_energy,
    load_dataset,
    parse_dataset_text,
    write_dataset,
)


class TestConvertEnergy:
    def test_ghz_to_mev_zero_field_splitting(self):
        # h * 2.87 GHz with CODATA h; frozen from direct evaluation
        assert convert_energy(2.87, "GHz", "meV") == pytest.approx(0.01186936628752, rel=1e-9)

    def test_kelvin_to_mev(self):
        assert convert_energy(295.08, "K", "meV") == pytest.approx(25.428027, rel=1e-6)

    def test_zero_is_zero_in_any_unit(self):
        for src in ("meV", "GHz", "K"):
            for dst in ("meV", "GHz", "K"):
                assert convert_energy(0.0, src, dst) == 0.0

    def test_aliases(self):
        assert convert_energy(1.0, "GHz*h", "meV") == convert_energy(1.0, "GHz", "meV")
        assert convert_energy(1.0, "K*kB", "meV") == convert_energy(1.0, "kelvin", "meV")

    def test_unknown_unit_raises(self):
        with pytest.raises(ValueError, match="unknown energy unit"):
            convert_energy(1.0, "eV", "meV")

    @given(
        value=st.floats(min_value=1e-6, max_value=1e6),
        src=st.sampled_from(["meV", "GHz", "K"]),
        dst=st.sampled_from(["meV", "GHz", "K"]),
    )
    def test_round_trip_identity(self, value, src, dst):
        """Converting there and back reproduces the input to 1e-12 relative."""
        back = convert_energy(convert_energy(value, src, dst), dst, src)
        assert back == pytest.approx(value, rel=1e-12)

    def test_constants_are_consistent(self):
        # h = 2 pi hbar must hold between the stored constants
        assert PLANCK_MEV_S == pytest.approx(2.0 * math.pi * HBAR_MEV_S, rel=1e-9)
        assert BOLTZMANN_MEV_PER_K == pytest.approx(8.617333262e-2, rel=1e-12)


class TestTransitionChannel:
    def test_parse_tokens(self):
        assert TransitionChannel.parse("single_quantum") is TransitionChannel.SINGLE_QUANTUM
        assert TransitionChannel.parse(" Double_Quantum ") is TransitionChannel.DOUBLE_QUANTUM
        assert TransitionChannel.parse("dephasing") is TransitionChannel.DEPHASING

    def test_unknown_channel_raises(self):
        with pytest.raises(ValueError, match="unknown channel"):
            TransitionChannel.parse("triple_quantum")


class TestRateMeasurementValidation:
    def test_nonpositive_error_rejected(self):
        with pytest.raises(DatasetError, match="strictly positive"):
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
        write_dataset(builtin_dataset, str(path), metadata={"note": "test copy"})
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
        with pytest.raises(DatasetError, match="line 2, column omega_s"):
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

    def test_builtin_env_override(self, builtin_dataset, tmp_path, monkeypatch):
        path = tmp_path / "override.csv"
        short = Dataset(rows=builtin_dataset.rows[:3])
        write_dataset(short, str(path))
        monkeypatch.setenv(BUILTIN_DATA_ENV, str(path))
        assert len(load_dataset(BUILTIN_TAG)) == 3

    def test_checksum_tracks_content(self, builtin_dataset):
        full = builtin_dataset.checksum()
        assert full == builtin_dataset.checksum()  # stable
        assert Dataset(rows=builtin_dataset.rows[:-1]).checksum() != full

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
