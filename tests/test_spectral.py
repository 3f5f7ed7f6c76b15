"""Tests for spectral-function construction and Raman rate quadrature."""
import dataclasses
import gc
import math
import re
import weakref
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from nvrelax import spectral
from nvrelax.core import (
    BOLTZMANN_MEV_PER_K,
    HBAR_MEV_S,
    PLANCK_MEV_PER_MHZ,
    PLANCK_MEV_S,
    TransitionChannel,
)
from nvrelax.models import ModelSpec, RateLaw, orbach_factor
from nvrelax.spectral import (
    COUPLING_CSV_HEADER,
    MAX_MODE_ENERGY_MEV,
    CouplingEntry,
    CouplingTable,
    QuadratureError,
    RamanRateCurve,
    SpectralFunction,
    anchor_coupling_table,
    build_spectral_function,
    default_grid,
    order_dominance_ratio,
    parse_coupling_text,
    rate_curve,
    refit_theory_curve,
    second_order_rate,
    spectral_to_csv_text,
    synthetic_peak_function,
    two_peak_reference_functions,
    _quadrature_weights,
    _simpson_weights,
)

SQ = TransitionChannel.SINGLE_QUANTUM
DQ = TransitionChannel.DOUBLE_QUANTUM

# fine grid resolving the 0.01 meV oracle Gaussians
FINE_GRID = np.linspace(0.0, 100.0, 200001)
# 0.05 meV spacing: the default grid for sigma >= 0.5 meV
COARSE_GRID = np.linspace(0.0, MAX_MODE_ENERGY_MEV, 5001)


class TestCouplingEntries:
    def test_energy_band_limits(self):
        with pytest.raises(ValueError, match="mode energy"):
            CouplingEntry(0.0, 1.0, SQ)
        with pytest.raises(ValueError, match="mode energy"):
            CouplingEntry(251.0, 1.0, SQ)
        CouplingEntry(250.0, 1.0, SQ)

    def test_amplitude_nonnegative(self):
        with pytest.raises(ValueError, match="amplitude"):
            CouplingEntry(50.0, -0.1, SQ)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_values_rejected_naming_field(self, bad):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            CouplingEntry(50.0, bad, SQ)
        with pytest.raises(ValueError, match="mode_energy must be finite"):
            CouplingEntry(bad, 1.0, SQ)

    def test_parse_names_line_of_nonfinite_amplitude(self):
        text = COUPLING_CSV_HEADER + "\n62.4,2.0,double_quantum,2\n62.4,nan,double_quantum,2\n"
        with pytest.raises(ValueError, match="line 3: amplitude must be finite"):
            parse_coupling_text(text)

    @pytest.mark.parametrize("column, row", [
        ("energy_mev", "abc,2.0,double_quantum,2"),
        ("amplitude_mhz", "62.4,abc,double_quantum,2"),
    ])
    def test_parse_names_the_column_of_an_unreadable_number(self, column, row):
        text = COUPLING_CSV_HEADER + "\n62.4,2.0,double_quantum,2\n" + row + "\n"
        with pytest.raises(ValueError, match=f"^line 3, column {column}: not a number: 'abc'$"):
            parse_coupling_text(text)

    @pytest.mark.parametrize("raw", ["2.0", "two", ""])
    def test_parse_names_the_order_column_of_a_non_integer(self, raw):
        text = COUPLING_CSV_HEADER + f"\n62.4,2.0,double_quantum,{raw}\n"
        message = re.escape(f"line 2, column order: not an integer: {raw!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_coupling_text(text)

    def test_for_channel_sorts_and_filters(self):
        table = CouplingTable(entries=(
            CouplingEntry(160.7, 0.34, DQ),
            CouplingEntry(62.4, 2.0, DQ),
            CouplingEntry(62.4, 0.6, SQ),
        ))
        selected = table.for_channel(DQ)
        assert [e.mode_energy for e in selected] == [62.4, 160.7]
        assert table.for_channel(SQ) == (CouplingEntry(62.4, 0.6, SQ),)

    def test_entries_are_stored_as_a_tuple(self):
        # a list left the frozen table unhashable
        table = CouplingTable(entries=list(anchor_coupling_table().entries))
        assert table == anchor_coupling_table() and hash(table) == hash(anchor_coupling_table())

    def test_csv_round_trip(self):
        table = anchor_coupling_table()
        parsed = parse_coupling_text(table.to_csv_text())
        assert parsed.entries == table.entries

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError, match="line 1: bad header 'energy,amp'"):
            parse_coupling_text("energy,amp\n1.0,2.0\n")

    def test_parse_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_coupling_text("\n\n")

    def test_parse_reports_line_numbers(self):
        text = COUPLING_CSV_HEADER + "\n62.4,2.0,double_quantum,2\n62.4,oops,dq,2\n"
        with pytest.raises(ValueError, match="line 3"):
            parse_coupling_text(text)

    def test_parse_line_numbers_count_comments_and_blank_lines(self):
        text = "# note\n" + COUPLING_CSV_HEADER + "\n\n62.4,2.0,double_quantum,2\n62.4,oops,dq,2\n"
        with pytest.raises(ValueError, match="line 5"):
            parse_coupling_text(text)

    def test_parse_skips_comments(self):
        text = "# note\n" + COUPLING_CSV_HEADER + "\n62.4,2.0,double_quantum,2\n"
        table = parse_coupling_text(text)
        assert table.entries == (CouplingEntry(62.4, 2.0, DQ),)

    def test_parse_refuses_a_dephasing_row_naming_its_line(self):
        text = COUPLING_CSV_HEADER + "\n62.4,2.0,double_quantum,2\n50.0,1.0,dephasing,2\n"
        with pytest.raises(ValueError, match="^line 3: unknown channel 'dephasing'"):
            parse_coupling_text(text)

    @pytest.mark.parametrize("order", [1, 0, 3, -1])
    def test_parse_refuses_a_row_not_of_order_two_naming_its_line(self, order):
        # the rates integrate order 2 alone: a row they would drop is refused
        row = f"40.0,1.0,single_quantum,{order}"
        text = COUPLING_CSV_HEADER + f"\n62.4,2.0,double_quantum,2\n {row} \n"
        with pytest.raises(ValueError) as excinfo:
            parse_coupling_text(text)
        assert str(excinfo.value) == (f"line 3: {row!r} is an order-{order} coupling; "
                                      "spectral integrates the second-order rate alone")

    def test_anchor_table_contents(self):
        table = anchor_coupling_table()
        dq = table.for_channel(DQ)
        assert [e.amplitude for e in dq] == [2.0, 0.34]
        sq = table.for_channel(SQ)
        assert [e.amplitude for e in sq] == [0.6, 0.07]


class TestBuildSpectralFunction:
    def test_single_entry_peak_value(self):
        table = CouplingTable(entries=(CouplingEntry(62.4, 2.0, DQ),))
        f = build_spectral_function(table, DQ, sigma=7.5)
        i = np.argmax(f.amplitude)
        assert f.grid[i] == pytest.approx(62.4, abs=f.spacing)
        # normalized Gaussian at its center: 2 / (7.5 sqrt(2 pi)) = 0.1064
        assert f.amplitude[i] == pytest.approx(2.0 * 0.05319, rel=1e-3)

    def test_narrow_width_integrates_to_total_coupling(self):
        table = anchor_coupling_table()
        f = build_spectral_function(table, DQ, sigma=0.5)
        integral = float(simpson(f.amplitude, x=f.grid))
        assert abs(integral - 2.34) / 2.34 < 1e-6

    def test_two_equal_entries_double(self):
        one = CouplingTable(entries=(CouplingEntry(80.0, 1.5, SQ),))
        two = CouplingTable(entries=(CouplingEntry(80.0, 1.5, SQ), CouplingEntry(80.0, 1.5, SQ)))
        f1 = build_spectral_function(one, SQ, sigma=5.0)
        f2 = build_spectral_function(two, SQ, sigma=5.0)
        assert np.allclose(f2.amplitude, 2.0 * f1.amplitude)

    def test_empty_channel_rejected(self):
        table = CouplingTable(entries=(CouplingEntry(62.4, 0.6, SQ),))
        with pytest.raises(ValueError, match="no coupling entries for channel 'double_quantum'"):
            build_spectral_function(table, DQ, sigma=7.5)

    def test_grid_coverage_enforced(self):
        table = anchor_coupling_table()
        short = np.linspace(0.0, 100.0, 2001)
        with pytest.raises(ValueError, match="grid must cover"):
            build_spectral_function(table, DQ, sigma=7.5, grid=short)
        # a peak past the default grid's 250 meV, or one whose 5 sigma
        # margin it cuts off, would lose its area rather than be refused
        with pytest.raises(ValueError, match=r"grid must cover \[0, 305\] meV"):
            synthetic_peak_function([(300.0, 1e-12)], sigma=1.0, channel=SQ)
        with pytest.raises(ValueError, match=r"grid must cover \[0, 274\] meV"):
            synthetic_peak_function([(65.0, 1e-12), (249.0, 1e-12)], sigma=5.0, channel=SQ)
        with pytest.raises(ValueError, match="grid must cover"):
            synthetic_peak_function([(68.2, 1e-12)], sigma=7.5, channel=SQ,
                                    grid=np.linspace(1.0, 250.0, 4981))

    def test_coverage_error_names_what_sets_the_grid_end(self):
        # a caller without a grid flag must see that sigma sets the margin
        with pytest.raises(ValueError) as excinfo:
            synthetic_peak_function([(65.0, 1e-12), (240.0, 1e-12)], sigma=4.0, channel=SQ)
        assert str(excinfo.value) == (
            "grid must cover [0, 260] meV, got [0, 250]: the highest center 240 meV "
            "plus a 5 sigma margin of 20 meV at sigma = 4 meV")

    def test_sigma_positive(self):
        with pytest.raises(ValueError, match="broadening width"):
            build_spectral_function(anchor_coupling_table(), DQ, sigma=0.0)

    @pytest.mark.parametrize("build", [
        lambda sigma: build_spectral_function(anchor_coupling_table(), SQ, sigma),
        lambda sigma: synthetic_peak_function([(68.2, 1e-12)], sigma, SQ),
    ], ids=["build_spectral_function", "synthetic_peak_function"])
    def test_builders_refuse_a_bad_sigma_by_name(self, build):
        # both take sigma through the one grid-and-coverage path
        for sigma, reason in [(0.0, "positive"), (-1.0, "positive"), (math.nan, "finite")]:
            with pytest.raises(ValueError, match=f"^broadening width sigma must be {reason}"):
                build(sigma)

    def test_own_checks_come_before_the_grid_checks(self):
        # each builder checks its own input first: a bad sigma or grid is
        # named only once the entries or the peaks are sound
        table = CouplingTable(entries=(CouplingEntry(62.4, 0.6, SQ),))
        with pytest.raises(ValueError, match="no coupling entries for channel 'double_quantum'"):
            build_spectral_function(table, DQ, sigma=0.0)
        with pytest.raises(ValueError, match="at least one peak is required"):
            synthetic_peak_function([], sigma=0.0, channel=SQ, grid=np.zeros(0))
        with pytest.raises(ValueError, match="peak center"):
            synthetic_peak_function([(-1.0, 1e-12)], sigma=0.0, channel=SQ)

    @pytest.mark.parametrize("sigma, n_points", [(7.5, 5001), (0.5, 5001), (0.3, 8334),
                                                 (0.01, 250001)])
    def test_default_grid_resolves_sigma(self, sigma, n_points):
        grid = default_grid(sigma)
        assert len(grid) == n_points
        assert np.array_equal(grid, _cli_grid(sigma))
        f = build_spectral_function(anchor_coupling_table(), DQ, sigma)
        peak = synthetic_peak_function([(68.2, 1e-12)], sigma, SQ)
        assert np.array_equal(f.grid, grid) and np.array_equal(peak.grid, grid)

    def test_arrays_immutable(self):
        f = build_spectral_function(anchor_coupling_table(), DQ, sigma=7.5)
        with pytest.raises(ValueError):
            f.amplitude[0] = 1.0
        with pytest.raises(ValueError):
            f.grid[0] = -1.0

    @pytest.mark.parametrize("sigma", [0.01, 0.3, 1.0, 7.5, 15.0])
    def test_windowed_kernels_match_the_full_grid_bit_for_bit(self, sigma):
        # each Gaussian is evaluated only within 40 sigma of its center;
        # couplings within 40 sigma of either end of the grid have their
        # windows clipped, and beyond the window exp underflows to 0
        low, high = 20.0 * min(sigma, 0.5), MAX_MODE_ENERGY_MEV - 5.0 * sigma
        table = CouplingTable(entries=(
            CouplingEntry(low, 0.3, SQ), CouplingEntry(62.4, 0.6, SQ),
            CouplingEntry(62.4 + 3.0 * sigma, 1.7, SQ), CouplingEntry(high, 0.07, SQ)))
        grid = default_grid(sigma)
        f = build_spectral_function(table, SQ, sigma, grid)
        amplitude = np.zeros_like(grid)
        for e in table.for_channel(SQ):
            amplitude += e.amplitude * spectral._gaussian(grid - e.mode_energy, sigma)
        assert f.amplitude.tobytes() == amplitude.tobytes()
        peaks = [(low, 1e-12), (65.0, 3e-12), (high, 2e-12)]
        synthetic = synthetic_peak_function(peaks, sigma, SQ, grid)
        f_diag = np.zeros_like(grid)
        for center, area in peaks:
            f_diag += area * spectral._gaussian(grid - center, sigma)
        f_diag *= -np.expm1(-0.5 * (grid / 10.0) ** 2)
        assert synthetic.amplitude.tobytes() == (np.sqrt(f_diag) / PLANCK_MEV_PER_MHZ).tobytes()


class TestSpectralFunctionInvariants:
    def test_grid_must_be_uniform(self):
        grid = np.array([0.0, 1.0, 2.0, 4.0, 5.0, 6.0])
        with pytest.raises(ValueError, match="uniformly spaced"):
            SpectralFunction(grid=grid, amplitude=np.zeros(6), channel=SQ, sigma=1.0)

    @pytest.mark.parametrize("wobble, uniform", [(0.9e-6, True), (1.1e-6, False),
                                                 (-1.1e-6, False)])
    def test_uniform_means_allclose_to_the_first_step(self, wobble, uniform):
        # steps of 1000 meV may differ from the first by 1e-12 + 1e-9 * 1000
        grid = np.arange(6.0) * 1000.0
        grid[3] += wobble
        steps = np.diff(grid)
        assert np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12) == uniform
        if uniform:
            SpectralFunction(grid=grid, amplitude=np.zeros(6), channel=SQ, sigma=1.0)
        else:
            with pytest.raises(ValueError, match="uniformly spaced"):
                SpectralFunction(grid=grid, amplitude=np.zeros(6), channel=SQ, sigma=1.0)

    def test_grid_must_ascend(self):
        grid = np.array([0.0, 2.0, 1.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="ascending"):
            SpectralFunction(grid=grid, amplitude=np.zeros(5), channel=SQ, sigma=1.0)

    def test_amplitude_shape_checked(self):
        with pytest.raises(ValueError, match="match the grid"):
            SpectralFunction(grid=np.linspace(0, 10, 11), amplitude=np.zeros(5),
                             channel=SQ, sigma=1.0)

    def test_amplitude_nonnegative(self):
        amp = np.zeros(11)
        amp[3] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            SpectralFunction(grid=np.linspace(0, 10, 11), amplitude=amp, channel=SQ, sigma=1.0)

    def test_malformed_function_rejected(self):
        with pytest.raises(ValueError, match="at least 5 samples"):
            SpectralFunction(grid=np.linspace(0, 10, 4), amplitude=np.zeros(4),
                             channel=SQ, sigma=1.0)

    @pytest.mark.parametrize("grid", [np.zeros(0), np.array(50.0), np.zeros((5, 5))],
                             ids=["empty", "0-d", "2-d"])
    @pytest.mark.parametrize("build", [
        lambda grid: build_spectral_function(anchor_coupling_table(), SQ, 7.5, grid),
        lambda grid: synthetic_peak_function([(68.2, 1e-12)], 7.5, SQ, grid),
    ], ids=["build_spectral_function", "synthetic_peak_function"])
    def test_builders_refuse_a_malformed_grid_by_name(self, grid, build):
        # checked before the coverage check and the broadening index it
        with pytest.raises(ValueError, match="^grid must be a 1-D array with at least 5 samples$"):
            build(grid)

    def test_nonfinite_grid_named(self):
        grid = np.linspace(0.0, 0.5, 6)
        grid[4] = math.nan
        with pytest.raises(ValueError, match=r"^grid\[4\] must be finite, got nan$"):
            SpectralFunction(grid=grid, amplitude=np.zeros(6), channel=SQ, sigma=1.0)

    def test_view_of_a_writeable_array_is_copied(self):
        # the grid text slot and _support keep what they first saw,
        # so a caller must not reach a function's arrays through another
        base = np.linspace(0.0, 0.4, 5).copy()
        amplitude = np.ones(5)
        f = SpectralFunction(grid=base[:], amplitude=amplitude[:], channel=SQ, sigma=1.0)
        energies, text = base.tolist(), spectral_to_csv_text(f)
        base[:], amplitude[:] = 2.0 * base, 2.0
        assert f.grid.tolist() == energies
        assert f.amplitude.tolist() == [1.0] * 5
        assert spectral_to_csv_text(f) == text == _reference_csv(f)
        assert not (f.grid.flags.writeable or f.amplitude.flags.writeable)

    def test_array_changed_through_an_earlier_view_is_not_seen(self):
        # a view taken before construction reaches the caller's array, never
        # the function's copy, so neither cache can go stale
        peak = synthetic_peak_function([(65.0, 1e-12)], 7.5, SQ)
        base, amplitude = peak.grid.copy(), peak.amplitude.copy()
        view = base[:]
        f = SpectralFunction(grid=base, amplitude=amplitude, channel=SQ, sigma=7.5)
        text, rate = spectral_to_csv_text(f), second_order_rate(f, 300.0)
        view[:] = view * 2
        amplitude[:] = 5.0
        assert base.flags.writeable and amplitude.flags.writeable
        assert f.grid is not base and f.amplitude is not amplitude
        assert f.grid.tobytes() == peak.grid.tobytes()
        assert f.amplitude.tobytes() == peak.amplitude.tobytes()
        assert spectral_to_csv_text(f) == text == _reference_csv(f)
        assert second_order_rate(f, 300.0) == rate == second_order_rate(peak, 300.0)

    @pytest.mark.parametrize("sigma", [0.001, 0.01, 0.3, 0.5, 1.0, 7.5, 15.0])
    def test_default_grid_is_linspace(self, sigma):
        spacing = min(0.05, sigma / 10.0)
        grid = default_grid(sigma)
        assert grid.tobytes() == np.linspace(0.0, MAX_MODE_ENERGY_MEV,
                                             round(MAX_MODE_ENERGY_MEV / spacing) + 1).tobytes()
        f = build_spectral_function(anchor_coupling_table(), DQ, sigma, grid)
        assert f.grid is not grid and grid.flags.writeable

    def test_no_peaks_rejected(self):
        with pytest.raises(ValueError, match="at least one peak"):
            synthetic_peak_function([], sigma=7.5, channel=SQ)


class TestSecondOrderRate:
    @pytest.mark.parametrize("temperature", [100.0, 295.0, 500.0])
    def test_delta_function_oracle(self, temperature):
        # narrow Gaussian of area A at 68.2 meV reduces the quadrature to
        # the analytic Orbach-like term (4 pi / hbar) A n(n+1)
        area = 1e-12
        f = synthetic_peak_function([(68.2, area)], sigma=0.01, channel=SQ,
                                    grid=FINE_GRID)
        got = second_order_rate(f, temperature)
        want = 4.0 * math.pi / HBAR_MEV_S * area * orbach_factor(68.2, temperature)
        assert abs(got - want) / want < 1e-3

    def test_frozen_to_zero(self):
        f = synthetic_peak_function([(68.2, 1e-12)], sigma=0.01, channel=SQ,
                                    grid=FINE_GRID)
        assert second_order_rate(f, 1.0) == 0.0

    def test_overflowing_occupancy_names_its_temperature(self):
        f, _ = two_peak_reference_functions(7.5)
        with pytest.raises(ValueError, match=r"not finite at temperature 1e\+300 K"):
            second_order_rate(f, 1e300)

    def test_subnormal_temperature_is_frozen_out(self):
        f, _ = two_peak_reference_functions(7.5)
        assert second_order_rate(f, 1e-320) == second_order_rate(f, 5e-324) == 0.0

    def test_weights_built_once_per_function(self, monkeypatch):
        calls = []
        weights = spectral._quadrature_weights
        monkeypatch.setattr(spectral, "_quadrature_weights",
                            lambda grid, keep: calls.append(len(keep)) or weights(grid, keep))
        f = build_spectral_function(anchor_coupling_table(), SQ, sigma=1.0)
        first = second_order_rate(f, 295.0)
        assert second_order_rate(f, 295.0) == first < second_order_rate(f, 400.0)
        assert len(calls) == 1 and 0 < calls[0] < len(f.grid)

    @pytest.mark.parametrize("sigma", [0.01, 0.3, 1.0, 7.5])
    def test_support_quadrature_matches_the_whole_grid(self, sigma):
        # only the samples of positive energy where F != 0 are integrated;
        # leaving out the zero terms moves the sum by rounding alone
        table = CouplingTable(entries=(CouplingEntry(62.4, 1.0, SQ),
                                       CouplingEntry(160.7, 0.3, SQ)))
        f = build_spectral_function(table, SQ, sigma)
        e = f.grid[1:]
        n = 1.0 / np.expm1(e / (BOLTZMANN_MEV_PER_K * 295.0))
        integrand = np.concatenate(([0.0], n * (n + 1.0) * f.diagonal_values()[1:]))
        want = 4.0 * math.pi / HBAR_MEV_S * float(_whole_grid_weights(f.grid) @ integrand)
        assert second_order_rate(f, 295.0) == pytest.approx(want, rel=1e-15, abs=0)

    def test_one_number_of_any_numeric_type_gives_the_same_bits(self):
        f, _ = two_peak_reference_functions(7.5)
        want = second_order_rate(f, 300.0)
        for t in (300, np.float64(300.0), np.int64(300), np.array(300.0)):
            got = second_order_rate(f, t)
            assert (got.hex(), got.rel_error) == (want.hex(), want.rel_error)

    def test_temperature_positive(self):
        f, _ = two_peak_reference_functions(7.5)
        with pytest.raises(ValueError, match="temperature"):
            second_order_rate(f, 0.0)

    def test_coarse_grid_raises_with_suggestion(self):
        # a 0.01 meV peak is unresolvable on a 0.05 meV grid
        f = synthetic_peak_function([(68.2, 1e-12)], sigma=0.01, channel=SQ,
                                    grid=COARSE_GRID)
        with pytest.raises(QuadratureError, match="refine the energy grid to spacing "
                                                  r"<= 0\.025 meV$"):
            second_order_rate(f, 295.0)

    def test_peaks_reaching_zero_energy_get_no_spacing(self):
        # F(0, 0) != 0 at sigma = 15 meV and n(n+1) grows as 1/e^2 there, so
        # a finer grid makes the error estimate larger, not smaller
        f = build_spectral_function(anchor_coupling_table(), DQ, sigma=15.0)
        with pytest.raises(QuadratureError, match="grows towards e = 0") as exc:
            second_order_rate(f, 300.0)
        assert str(exc.value).endswith("will not help")
        assert "spacing <=" not in str(exc.value)

    def test_halving_grid_is_stable(self):
        table = anchor_coupling_table()
        coarse_grid = COARSE_GRID
        fine_grid = np.linspace(0.0, 250.0, 10001)
        coarse = second_order_rate(build_spectral_function(table, DQ, 7.5, coarse_grid), 295.0)
        fine = second_order_rate(build_spectral_function(table, DQ, 7.5, fine_grid), 295.0)
        assert abs(fine - coarse) / fine < 1e-6

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(0.1, 10.0))
    def test_quadratic_in_amplitude(self, scale):
        base = build_spectral_function(anchor_coupling_table(), DQ, 7.5)
        scaled = SpectralFunction(grid=base.grid.copy(),
                                  amplitude=scale * base.amplitude,
                                  channel=base.channel, sigma=base.sigma)
        r_base = second_order_rate(base, 295.0)
        r_scaled = second_order_rate(scaled, 295.0)
        assert abs(r_scaled - scale**2 * r_base) / r_scaled < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(t_low=st.floats(50.0, 900.0), step=st.floats(10.0, 300.0))
    def test_strictly_increasing_in_temperature(self, t_low, step):
        f = build_spectral_function(anchor_coupling_table(), DQ, 7.5)
        assert second_order_rate(f, t_low + step) > second_order_rate(f, t_low)


class TestOrderDominance:
    def test_reference_value(self):
        ratio = order_dominance_ratio(2.87, 50.0)
        assert ratio == pytest.approx(5.6353e-8, rel=1e-4)
        assert 1e-8 <= ratio <= 1e-6

    def test_zero_splitting(self):
        assert order_dominance_ratio(0.0, 50.0) == 0.0

    def test_splitting_is_converted_through_planck(self):
        # at a 1 meV phonon the ratio's root is h D in meV: h * 2.87 GHz
        # with CODATA h, frozen from direct evaluation
        assert math.sqrt(order_dominance_ratio(2.87, 1.0)) == \
            pytest.approx(0.01186936628752, rel=1e-9)
        assert order_dominance_ratio(2.87, 68.2) == (PLANCK_MEV_S * 2.87e9 / 68.2) ** 2

    def test_quadratic_scaling(self):
        assert order_dominance_ratio(5.74, 50.0) == \
            pytest.approx(4.0 * order_dominance_ratio(2.87, 50.0), rel=1e-12)

    def test_energy_positive(self):
        with pytest.raises(ValueError, match="phonon energy"):
            order_dominance_ratio(2.87, 0.0)


class TestRateCurve:
    def test_monotone_increasing(self):
        f_sq, f_dq = two_peak_reference_functions(7.5)
        temps = np.linspace(125.0, 500.0, 16)
        curve = rate_curve(f_sq, f_dq, temps)
        assert all(b > a for a, b in zip(curve.omega, curve.omega[1:]))
        assert all(b > a for a, b in zip(curve.gamma, curve.gamma[1:]))

    def test_identical_inputs_identical_curves(self):
        f_sq, _ = two_peak_reference_functions(7.5)
        curve = rate_curve(f_sq, f_sq, [200.0, 300.0, 400.0])
        assert curve.omega == curve.gamma

    def test_double_quantum_exceeds_single_quantum(self):
        f_sq, f_dq = two_peak_reference_functions(7.5)
        curve = rate_curve(f_sq, f_dq, np.linspace(125.0, 500.0, 8))
        assert all(g > o for g, o in zip(curve.gamma, curve.omega))

    def test_csv_and_dataset_export(self):
        f_sq, f_dq = two_peak_reference_functions(7.5)
        curve = rate_curve(f_sq, f_dq, [200.0, 300.0])
        text = curve.to_csv_text()
        assert "temperature_k,omega_s,gamma_s" in text
        assert text.startswith("# provenance:")
        ds = curve.to_dataset()
        assert len(ds) == len(curve.temperatures) == 2
        row = ds.rows[0]
        assert row.omega_err == pytest.approx(0.01 * row.omega)
        assert row.gamma_err == pytest.approx(0.01 * row.gamma)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            RamanRateCurve(temperatures=(1.0, 2.0), omega=(1.0,), gamma=(1.0, 2.0),
                           provenance="x")


def _anchor_pair(sigma):
    table = anchor_coupling_table()
    return build_spectral_function(table, SQ, sigma), build_spectral_function(table, DQ, sigma)


# channel pairs whose supports hold the same energies (5000 samples each),
# and do not (1076 and 1080 samples)
CHANNEL_PAIRS = {
    "equal supports": lambda: two_peak_reference_functions(7.5),
    "unequal supports": lambda: _anchor_pair(0.01),
}


def _counting(monkeypatch, name):
    """Replace ``spectral.<name>`` by a wrapper that logs each call's arguments."""
    calls, original = [], getattr(spectral, name)
    monkeypatch.setattr(spectral, name, lambda *args: calls.append(args) or original(*args))
    return calls


def _bits(rates):
    return [float(r).hex() for r in rates]


class TestSharedOccupancyWeight:
    """The one-slot memo of n(n+1) that lets two channels share it per temperature."""

    TEMPS = np.geomspace(100.0, 500.0, 6)

    @pytest.mark.parametrize("pair", sorted(CHANNEL_PAIRS))
    def test_curve_is_each_channel_integrated_alone_bit_for_bit(self, pair):
        f_sq, f_dq = CHANNEL_PAIRS[pair]()
        curve = rate_curve(f_sq, f_dq, self.TEMPS)
        for f, rates, errors in ((f_sq, curve.omega, curve.omega_rel_error),
                                 (f_dq, curve.gamma, curve.gamma_rel_error)):
            alone = []
            for t in self.TEMPS:
                spectral._weight_slot = None
                alone.append(second_order_rate(f, t))
            assert _bits(rates) == _bits(alone)
            assert _bits(errors) == _bits(r.rel_error for r in alone)

    @pytest.mark.parametrize("pair", sorted(CHANNEL_PAIRS))
    def test_one_rate_per_channel_and_one_weight_per_distinct_support(self, pair, monkeypatch):
        f_sq, f_dq = CHANNEL_PAIRS[pair]()
        shared = np.array_equal(f_sq._support[0], f_dq._support[0])
        assert shared == (pair == "equal supports")
        rates = _counting(monkeypatch, "second_order_rate")
        kernel = _counting(monkeypatch, "_term_column")
        spectral._weight_slot = None
        rate_curve(f_sq, f_dq, self.TEMPS)
        assert [(f, float(t)) for f, t in rates] == [
            (f, t) for t in self.TEMPS.tolist() for f in (f_sq, f_dq)]
        assert len(kernel) == len(self.TEMPS) * (1 if shared else 2)

    def test_misses_on_another_temperature_or_other_energy_bits(self, monkeypatch):
        f, _ = two_peak_reference_functions(7.5)
        # the same amplitude on a grid scaled by one part in 2^40: a support
        # of the same length whose energies differ in their last bits
        moved = SpectralFunction(grid=f.grid * (1.0 + 2.0**-40), amplitude=f.amplitude,
                                 channel=SQ, sigma=7.5)
        twin = SpectralFunction(grid=f.grid.copy(), amplitude=2.0 * f.amplitude,
                                channel=SQ, sigma=7.5)
        assert len(moved._support[0]) == len(f._support[0])
        kernel = _counting(monkeypatch, "_term_column")
        spectral._weight_slot = None
        steps = ((f, 300.0, 1), (f, 300.0, 1), (twin, 300.0, 1), (f, 301.0, 2),
                 (moved, 301.0, 3), (f, 301.0, 4))
        rates = []
        for g, t, calls in steps:
            rates.append(second_order_rate(g, t))
            assert len(kernel) == calls
        alone = []
        for g, t, _ in steps:
            spectral._weight_slot = None
            alone.append(second_order_rate(g, t))
        assert _bits(rates) == _bits(alone)

    def test_slot_lets_a_freed_support_go(self):
        f_sq, f_dq = two_peak_reference_functions(7.5)
        spectral._weight_slot = None
        rate_curve(f_sq, f_dq, [300.0])
        energies = weakref.ref(f_dq._support[0])
        assert spectral._weight_slot[0]() is f_sq._support[0]
        del f_sq, f_dq
        gc.collect()
        assert energies() is None and spectral._weight_slot is None


def _cli_grid(sigma):
    """The energy grid ``nvrelax spectral --sigma`` integrates on."""
    spacing = min(0.05, sigma / 10.0)
    return np.linspace(0.0, MAX_MODE_ENERGY_MEV, int(round(MAX_MODE_ENERGY_MEV / spacing)) + 1)


def _reference_rate(f, temperature):
    """Per-temperature Simpson on the full grid, with its Richardson error."""
    e = f.grid[1:]
    with np.errstate(over="ignore"):
        n = 1.0 / np.expm1(e / (BOLTZMANN_MEV_PER_K * temperature))
    integrand = np.concatenate(([0.0], n * (n + 1.0))) * f.diagonal_values()
    full = simpson(integrand, x=f.grid)
    half = simpson(integrand[::2], x=f.grid[::2])
    return 4.0 * math.pi / HBAR_MEV_S * full, abs(full - half) / 15.0 / abs(full)


def _whole_grid_weights(grid):
    """Simpson weight vector of a whole uniform grid, accumulated pair by
    pair: the construction the index-wise weights replaced."""
    n = len(grid)
    h = float(grid[1] - grid[0])
    pair = spectral.simpson(np.eye(3), dx=h)
    paired = n if n % 2 else n - 1
    weights = np.zeros(n)
    for k in range(3):
        weights[k:paired - 2 + k:2] += pair[k]
    if n % 2 == 0:
        tail = spectral.simpson(np.eye(4), dx=h)
        weights[-3:] += tail[1:] - np.append(pair[1:], 0.0)
    return weights


class TestQuadratureEquivalence:
    @pytest.mark.parametrize("n, want", [
        (4, (F(1, 3), F(5, 4), F(1), F(5, 12))),
        (6, (F(1, 3), F(4, 3), F(2, 3), F(5, 4), F(1), F(5, 12))),
    ])
    def test_weights_are_the_cartwright_rule(self, n, want):
        # exact rationals, independent of the installed scipy: before
        # scipy 1.11 the even-count default was even='avg'
        assert _simpson_weights(n, 1.0, np.arange(n)).tolist() == [float(w) for w in want]

    @pytest.mark.parametrize("k", [3, 4])
    def test_templates_are_scipys_bit_for_bit(self, k):
        # the equality that keeps every spectral output byte-identical
        spacings = np.random.default_rng(k).uniform(1e-5, 2.0, 2000).tolist()
        for h in spacings + [0.05, 0.001, 0.03, 250 / 8333, 0.0025]:
            assert np.array_equal(spectral.simpson(np.eye(k), dx=h),
                                  simpson(np.eye(k), dx=h)), h

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 1001, 1002, 8334])
    def test_weights_match_scipy_simpson(self, n):
        grid = np.linspace(0.0, MAX_MODE_ENERGY_MEV, n)
        weights = _simpson_weights(n, float(grid[1] - grid[0]), np.arange(n))
        rng = np.random.default_rng(n)
        for _ in range(5):
            y = rng.random(n)
            want = simpson(y, x=grid)
            assert abs(weights @ y - want) / want < 1e-13

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 1001, 1002, 5001, 8334])
    def test_weights_at_indices_are_the_whole_grid_weights_bit_for_bit(self, n):
        # the weights at any index subset keep every bit of the whole-grid
        # construction they replaced, for odd and even sample counts alike
        rng = np.random.default_rng(n)
        for grid in (np.linspace(0.0, MAX_MODE_ENERGY_MEV, n), np.arange(n) * 0.07,
                     np.linspace(-3.0, 17.3, n)):
            full = _whole_grid_weights(grid)
            half = np.zeros(n)
            half[::2] = _whole_grid_weights(grid[::2]) if n >= 5 else 0.0
            for size in (0, 1, n // 3, n):
                indices = np.sort(rng.choice(n, size, replace=False))
                got = _simpson_weights(n, float(grid[1] - grid[0]), indices)
                assert np.array_equal(got, full[indices]), (grid[1], size)
                if n >= 5:
                    got_full, got_half = _quadrature_weights(grid, indices)
                    assert np.array_equal(got_full, full[indices])
                    assert np.array_equal(got_half, half[indices])

    @pytest.mark.parametrize("sigma, n_points", [(7.5, 5001), (0.01, 250001), (0.3, 8334)])
    def test_rate_curve_matches_full_grid_simpson(self, sigma, n_points):
        grid = _cli_grid(sigma)
        assert len(grid) == n_points
        table = anchor_coupling_table()
        f_sq = build_spectral_function(table, SQ, sigma, grid)
        f_dq = build_spectral_function(table, DQ, sigma, grid)
        temps = np.geomspace(100.0, 5000.0, 6)
        curve = rate_curve(f_sq, f_dq, temps)
        for f, rates, errors in ((f_sq, curve.omega, curve.omega_rel_error),
                                 (f_dq, curve.gamma, curve.gamma_rel_error)):
            for t, rate, error in zip(temps, rates, errors):
                want_rate, want_error = _reference_rate(f, t)
                assert rate == pytest.approx(want_rate, rel=1e-12, abs=0.0)
                assert error == pytest.approx(want_error, rel=1e-6, abs=1e-13)
                assert 0.0 <= error <= 1e-6

    def test_coarse_grid_still_raises_from_rate_curve(self):
        f = synthetic_peak_function([(68.2, 1e-12)], sigma=0.01, channel=SQ,
                                    grid=COARSE_GRID)
        with pytest.raises(QuadratureError, match="refine the energy grid to spacing "
                                                  r"<= 0\.025 meV$"):
            rate_curve(f, f, [295.0])

    def test_all_zero_function_gives_zero(self):
        table = CouplingTable(entries=(CouplingEntry(62.4, 0.0, SQ),))
        f = build_spectral_function(table, SQ, sigma=7.5)
        assert second_order_rate(f, 295.0) == 0.0
        curve = rate_curve(f, f, [100.0, 295.0])
        assert curve.omega == curve.gamma == (0.0, 0.0)
        assert curve.omega_rel_error == (0.0, 0.0)

    def test_error_estimates_travel_with_the_rate(self):
        f_sq, f_dq = two_peak_reference_functions(7.5)
        rate = second_order_rate(f_sq, 295.0)
        curve = rate_curve(f_sq, f_dq, [295.0])
        assert curve.omega == (float(rate),)
        assert curve.omega_rel_error == (rate.rel_error,)
        assert type(curve.omega[0]) is float

    def test_error_estimates_must_match_temperatures(self):
        with pytest.raises(ValueError, match="error estimates"):
            RamanRateCurve(temperatures=(1.0, 2.0), omega=(1.0, 2.0), gamma=(1.0, 2.0),
                           provenance="x", omega_rel_error=(0.0,))


class TestRefitTheoryCurve:
    def test_exact_two_mode_curve_recovered(self):
        params = RateLaw(ModelSpec("n_mode", 2), {
            "delta_1": 65.0, "a_1": 70.0, "b_1": 910.0,
            "delta_2": 155.0, "a_2": 169.0, "b_2": 2940.0,
        })
        temps = np.geomspace(100.0, 5000.0, 40)
        omegas, gammas = [], []
        for t in temps:
            rates = params.rates(None, float(t))
            omegas.append(rates.omega)
            gammas.append(rates.gamma)
        curve = RamanRateCurve(temperatures=tuple(float(t) for t in temps),
                               omega=tuple(omegas), gamma=tuple(gammas),
                               provenance="exact")
        result = refit_theory_curve(curve, t_max=5000.0)
        for name, value in (("delta_1", 65.0), ("a_1", 70.0), ("b_1", 910.0),
                            ("delta_2", 155.0), ("a_2", 169.0), ("b_2", 2940.0)):
            assert abs(result.params[name] - value) / value < 1e-6, name

    def test_rate_without_an_error_is_rejected(self):
        # a rate whose 1% error underflows to 0 cannot weight the fit; above
        # t_max it is not fitted
        curve = RamanRateCurve(temperatures=(0.3, 100.0, 200.0, 300.0, 400.0),
                               omega=(0.0, 1.0, 2.0, 3.0, 4.0),
                               gamma=(0.0, 2.0, 4.0, 6.0, 8.0), provenance="stub")
        with pytest.raises(ValueError, match="rate at temperature 0.3 K is too small"):
            refit_theory_curve(curve, t_max=400.0)

    def test_rows_above_t_max_are_not_read(self):
        # a zero rate above t_max has no weight but is never fitted: the
        # refit is that of the curve cut at t_max
        params = RateLaw(ModelSpec("n_mode", 2), {
            "delta_1": 65.0, "a_1": 70.0, "b_1": 910.0,
            "delta_2": 155.0, "a_2": 169.0, "b_2": 2940.0,
        })
        temps = (100.0, 150.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0,
                 950.0, 1000.0)
        rates = [params.rates(None, t) for t in temps]
        omega = tuple(r.omega for r in rates[:-1]) + (0.0,)
        curve = RamanRateCurve(temperatures=temps, omega=omega,
                               gamma=tuple(r.gamma for r in rates), provenance="stub")
        cut = RamanRateCurve(temperatures=temps[:10], omega=omega[:10],
                             gamma=curve.gamma[:10], provenance="stub")
        got, want = refit_theory_curve(curve, t_max=900.0), refit_theory_curve(cut, t_max=900.0)
        for field in dataclasses.fields(got):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name

    def test_default_refit_converges_from_its_best_profile_cell(self):
        # `nvrelax spectral --refit` at the default sigma = 1 meV: a polish of
        # all parameters once stopped at chi2 0.214 on its evaluation cap from
        # this cell, and only a second start reached the optimum
        table = anchor_coupling_table()
        curve = rate_curve(build_spectral_function(table, SQ, sigma=1.0),
                           build_spectral_function(table, DQ, sigma=1.0),
                           np.geomspace(100.0, 5000.0, 40))
        result = refit_theory_curve(curve, t_max=5000.0)
        assert result.converged
        assert result.start_chi2[0] <= 0.00196

    def test_refit_is_stable_under_one_ulp_changes(self):
        # the sigma = 7.5 curve of `nvrelax spectral --sigma 7.5 --refit` ends
        # in a flat valley; random starts took 34 to 331 evaluations and moved
        # the parameters by 5e-8 when half the Omega rates moved by one ulp.
        # The polish's path there still hangs on its start to 1e-14, so this
        # pins the profiled start of the 30-point grid, not every start
        table = anchor_coupling_table()
        curve = rate_curve(build_spectral_function(table, SQ, sigma=7.5),
                           build_spectral_function(table, DQ, sigma=7.5),
                           np.geomspace(100.0, 5000.0, 40))
        omega = np.array(curve.omega)
        curves = [curve]
        for first in (0, 1):
            for direction in (np.inf, -np.inf):
                moved = omega.copy()
                moved[first::2] = np.nextafter(moved[first::2], direction)
                curves.append(dataclasses.replace(curve, omega=tuple(moved.tolist())))
        fits = [refit_theory_curve(c, t_max=5000.0) for c in curves]
        nfev = [f.n_iterations for f in fits]
        assert max(nfev) <= 1.5 * min(nfev), nfev
        for f in fits[1:]:
            for name, value in fits[0].params.items():
                assert math.isclose(f.params[name], value, rel_tol=1e-6), name

    def test_coverage_precondition(self):
        f_sq, f_dq = two_peak_reference_functions(7.5)
        curve = rate_curve(f_sq, f_dq, np.linspace(150.0, 500.0, 15))
        with pytest.raises(ValueError, match="t_max"):
            refit_theory_curve(curve, t_max=5000.0)

    def test_curve_without_temperatures_rejected_by_name(self):
        curve = RamanRateCurve(temperatures=(), omega=(), gamma=(), provenance="empty")
        with pytest.raises(ValueError, match="^curve has no temperatures but t_max=400 K$"):
            refit_theory_curve(curve, t_max=400.0)

    def test_bias_windows(self, bias_study):
        d1_n, d2_n = bias_study[7.5]
        for peak, fitted in ((65.0, d1_n), (155.0, d2_n)):
            bias = (peak - fitted) / peak
            assert 0.05 <= bias <= 0.10, (peak, fitted)

    def test_wider_broadening_biases_more(self, bias_study):
        d1_n, d2_n = bias_study[7.5]
        d1_w, d2_w = bias_study[15.0]
        assert (65.0 - d1_w) / 65.0 > (65.0 - d1_n) / 65.0
        assert (155.0 - d2_w) / 155.0 > (155.0 - d2_n) / 155.0


class TestSpectralCsv:
    def test_header_and_metadata(self):
        f = build_spectral_function(anchor_coupling_table(), DQ, sigma=7.5)
        text = spectral_to_csv_text(f)
        lines = text.splitlines()
        assert lines[0] == "# channel: double_quantum"
        assert lines[1] == "# order: 2"
        assert lines[3] == "energy_mev,amplitude_mhz_per_mev"
        assert len(lines) == 4 + len(f.grid)


def _reference_csv(f):
    """The CSV text of ``f`` formatted one row at a time."""
    return (f"# channel: {f.channel.value}\n# order: 2\n# sigma_mev: {f.sigma!r}\n"
            "energy_mev,amplitude_mhz_per_mev\n"
            + "".join(f"{e!r},{a!r}\n" for e, a in zip(f.grid.tolist(), f.amplitude.tolist())))


# exact +0.0 and -0.0 drawn often enough to form runs, among subnormal and
# normal amplitudes
_AMPLITUDES = st.one_of(
    st.just(0.0), st.just(0.0), st.just(-0.0),
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308]),
    st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True))


@st.composite
def _float_grids(draw):
    """A grid of any span from any start, whose step is rarely decimal."""
    n = draw(st.integers(5, 40))
    start = draw(st.floats(-100.0, 100.0))
    span = draw(st.floats(1e-3, 1e3))
    return np.linspace(start, start + span, n).copy()   # owned, so not copied


@st.composite
def _decimal_grids(draw):
    """A grid of step k 10^-d (d = 0...6) that starts at 0, at a negative
    value, or a few steps below 1e-4, so that its values fall on both sides
    of 1e-4 (below which repr writes an exponent); or, as ``default_grid``
    builds them, ``np.linspace`` between two decimals of d places with up
    to 5000 samples, many of which lie an ulp or more off a decimal."""
    places = draw(st.integers(0, 6))
    if draw(st.booleans()):
        n = draw(st.integers(5, 5000))
        start = draw(st.integers(-10**4, 10**6))
        stop = start + draw(st.integers(1, 999)) * (n - 1)
        return np.linspace(start / 10**places, stop / 10**places, n)
    step = draw(st.integers(1, 999)) / 10**places
    n = draw(st.integers(5, 40))
    start = draw(st.one_of(
        st.just(0.0),
        st.integers(1, 10**4).map(lambda k: -k / 10**places),
        st.integers(0, n - 1).map(lambda k: 1e-4 - k * step)))
    return start + step * np.arange(n)


@st.composite
def _functions_on_grid(draw, count, grids=_float_grids()):
    """``count`` spectral functions sharing one grid array; beyond 40
    samples, each has nonzero amplitudes at no more than 40 of them."""
    grid = draw(grids)
    n = len(grid)
    functions = []
    for _ in range(count):
        if n <= 40:
            amplitude = draw(st.lists(_AMPLITUDES, min_size=n, max_size=n))
        else:
            amplitude = np.zeros(n)
            rows = draw(st.dictionaries(st.integers(0, n - 1), _AMPLITUDES, max_size=40))
            amplitude[list(rows)] = list(rows.values())
        functions.append(SpectralFunction(grid=grid, amplitude=amplitude, channel=SQ,
                                          sigma=float(grid[-1] - grid[0]) / n))
    return functions


class TestSpectralCsvRows:
    """The run-length writer against the one-row-at-a-time reference."""

    @settings(max_examples=40, deadline=None)
    @given(shared=_functions_on_grid(2), other=_functions_on_grid(1),
           order=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=6))
    def test_matches_row_by_row_reference(self, shared, other, order):
        # two functions on one grid, in any order, interleaved with a
        # function on another grid
        functions = shared + other
        for k in order:
            assert spectral_to_csv_text(functions[k]) == _reference_csv(functions[k])

    @settings(max_examples=60, deadline=None)
    @given(functions=_functions_on_grid(2, _decimal_grids()))
    def test_decimal_step_grids_match_the_reference(self, functions):
        # the grid text writes these grids' exact decimals by numpy
        assert spectral._decimal_places(functions[0].grid) is not None
        for f in functions:
            assert spectral_to_csv_text(f) == _reference_csv(f)

    def test_decimal_places_of_the_default_grids(self):
        # every default grid of sigma = 0.005, 0.01, ..., 0.5 meV and three
        # of the 0.05 meV one; a step first within 1e-12 of a whole number of
        # units at 10^6 units or more has no d (sigma = 0.07's 250/35714 meV
        # is 7000056.0004 units of 10^-9), so repr alone writes its grid, as
        # it does sigma = 0.15's and 0.35's (4e-10 off 7-place steps).  A
        # grid given a d has at least half its values written by digits
        places = {0.005: 4, 0.01: 3, 0.02: 3, 0.025: 4, 0.04: 3, 0.05: 3, 0.08: 3, 0.1: 2,
                  0.125: 4, 0.16: 3, 0.2: 2, 0.25: 3, 0.4: 2, 0.5: 2,
                  1.0: 2, 7.5: 2, 15.0: 2}
        for sigma in [round(0.005 * k, 3) for k in range(1, 101)] + [1.0, 7.5, 15.0]:
            grid = default_grid(sigma)
            d = spectral._decimal_places(grid)
            assert d == places.get(sigma), sigma
            if d is not None:
                exact, codes = spectral._decimal_rows(grid, d)
                assert 2 * np.count_nonzero(exact | (codes != 0)) >= len(grid), sigma

    def test_grid_without_a_decimal_step_falls_back_to_repr(self):
        grid = np.linspace(0.0, MAX_MODE_ENERGY_MEV, 8334)    # step 0.0300012 meV
        assert spectral._decimal_places(grid) is None
        f = SpectralFunction(grid=grid, amplitude=np.zeros(8334), channel=SQ, sigma=0.3)
        assert spectral_to_csv_text(f) == _reference_csv(f)

    @pytest.mark.parametrize("places, values", [
        *((places, None) for places in (0, 1, 3, 6, 14, 15)),
        (1, 1.0 + 0.5 * np.arange(400)),      # every value exact: none left for repr
        # every value negative or below 1e-4: all left for repr
        (3, np.concatenate([-0.25 * np.arange(200), 5e-7 * np.arange(200)])),
    ], ids=["0", "1", "3", "6", "14", "15", "all-exact", "all-repr"])
    def test_exact_decimal_rule_at_its_edges(self, places, values):
        # both sides of 1e-4 and of k = 10^15, zeros, negative values, huge
        # values, and the neighbours of exact decimals one and two ulps off,
        # at any decimal places
        if values is None:
            edges = [1e-4, 1.5e-4, 9.5e-5, 0.0, -0.0, -2.5, 5e-324, 1e-310, 0.1, 0.2, 0.3,
                     0.30000000000000004, 123.456, 250.0, 1e15 / 10**places,
                     (10**15 - 1) / 10**places, (10**15 + 1) / 10**places, 1e15, 1e300]
            above = [np.nextafter(v, np.inf) for v in edges]
            values = np.array(edges + above + [np.nextafter(v, np.inf) for v in above]
                              + [np.nextafter(v, -np.inf) for v in edges])
        # a grid of whole step is written at one decimal place, as repr
        # writes one fractional digit
        places = max(places, 1)
        exact, codes = spectral._decimal_rows(values, places)
        assert (spectral._chunk_lines(values, places, exact, codes)
                == spectral._repr_lines(values))

    @pytest.mark.parametrize("sigma", [0.01, 7.5])
    def test_default_grids_send_only_zero_to_repr(self, sigma, monkeypatch):
        # every other energy of these grids is an exact decimal of 3 or 2
        # places or lies an ulp above one (14% and 36% of the values)
        reached = []
        reference = spectral._repr_lines
        monkeypatch.setattr(spectral, "_repr_lines",
                            lambda values: reached.extend(values.tolist()) or reference(values))
        monkeypatch.setattr(spectral, "_grid_text_slot", None)
        grid = default_grid(sigma)
        text, _ = spectral._grid_text(grid)
        assert reached == [0.0]
        assert text == "".join(f"{v!r},0.0\n" for v in grid.tolist())

    @pytest.mark.parametrize("amplitude", [
        [1.0, 0.0, 0.0, 0.0, 2.5],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [3.0, 5e-324, 1e-310, 7.0, 1e300],
        [-0.0, 0.0, -0.0, -0.0, 0.0],
        [0.0, -0.0, 5e-324, 0.0, 0.0],
    ], ids=["nonzero-ends", "all-zero", "all-nonzero", "negative-zeros", "subnormal"])
    def test_edge_rows(self, amplitude):
        f = SpectralFunction(grid=np.linspace(0.0, 0.4, 5), amplitude=amplitude,
                             channel=DQ, sigma=0.1)
        assert spectral_to_csv_text(f) == _reference_csv(f)

    def test_negative_zero_grid_gets_its_own_text(self):
        # -0.0 == 0.0, but repr writes them apart: grids share text by bits
        amplitude = [0.0, 1.0, 0.0, 0.0, 0.0]
        signed, unsigned = (SpectralFunction(grid=[zero, 0.1, 0.2, 0.3, 0.4], amplitude=amplitude,
                                             channel=SQ, sigma=0.1)
                            for zero in (-0.0, 0.0))
        for f in (signed, unsigned, signed):
            assert spectral_to_csv_text(f) == _reference_csv(f)
        assert spectral_to_csv_text(signed).splitlines()[4] == "-0.0,0.0"

    @pytest.mark.parametrize("sigma", [0.01, 0.04, 0.25, 0.3, 1.0, 7.5])
    def test_cli_functions(self, sigma):
        grid = default_grid(sigma)
        functions = [build_spectral_function(anchor_coupling_table(), channel, sigma, grid)
                     for channel in (SQ, DQ)]
        for f in functions:
            assert spectral_to_csv_text(f) == _reference_csv(f)

    def test_grid_text_follows_its_grid(self):
        amplitude = [0.0, 1.0, 0.0, 0.0, 0.0]
        # a grid no other live function holds, so the slot cannot hit first
        grid = np.linspace(0.0, 0.28, 5)
        first = SpectralFunction(grid=grid, amplitude=amplitude, channel=SQ, sigma=0.1)
        twin = SpectralFunction(grid=grid.copy(), amplitude=amplitude, channel=SQ, sigma=0.1)
        assert twin.grid is not first.grid
        assert spectral_to_csv_text(first) == spectral_to_csv_text(twin)
        # equal grids share the text formatted for the first
        ref = spectral._grid_text_slot[0]
        assert ref() is first.grid
        # the slot lets its grid go, and a new grid (which may reuse the old
        # one's address) gets its own text
        del first, twin, grid
        gc.collect()
        assert ref() is None
        assert spectral._grid_text_slot is None
        moved = SpectralFunction(grid=np.linspace(1.0, 1.4, 5), amplitude=amplitude,
                                 channel=SQ, sigma=0.1)
        assert spectral_to_csv_text(moved) == _reference_csv(moved)
