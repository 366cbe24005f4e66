import functools
import re
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.fft
import scipy.signal
from hypothesis import given, settings, strategies as st

from spinnoise import spectral
from spinnoise.config import load_config
from spinnoise.exceptions import DomainError
from spinnoise.spectral import (
    HANN_ENBW_BINS,
    PeakReport,
    SpectrumRecord,
    TableRows,
    WelchAccumulator,
    average_spectra,
    find_peak,
    hann_window,
    next_fast_len,
    read_spectrum_csv,
    segment_length,
    video_average,
    welch_psd,
    welch_psd_batch,
    write_spectrum_csv,
    write_table,
)

DT = 1e-6  # 1 MHz sampling for the synthetic tests


def flat_record(values, df=1.0, rbw=1.5, n_averages=1, **meta):
    freqs = df * np.arange(len(values))
    return SpectrumRecord(freqs, values, rbw=rbw, n_averages=n_averages, metadata=meta)


class TestWelch:
    def test_on_bin_tone_parseval(self):
        nseg = segment_length(DT, 1e3)
        f0 = 75 * (1.0 / (nseg * DT))  # exactly on a bin
        t = DT * np.arange(2**17)
        amplitude = 0.7
        spec = welch_psd(amplitude * np.sin(2 * np.pi * f0 * t), DT, 1e3)
        mask = np.abs(spec.freqs - f0) <= 3 * spec.df
        peak_power = spec.psd[mask].sum() * spec.df
        assert peak_power == pytest.approx(amplitude**2 / 2, rel=0.01)

    def test_white_noise_level_per_bin(self):
        rng = np.random.default_rng(31)
        variance = 2.5
        x = rng.normal(0.0, np.sqrt(variance), size=2**19)
        spec = welch_psd(x, DT, 15e3)
        expected = 2.0 * variance * DT
        inner = spec.psd[1:-1]
        assert np.all(np.abs(inner - expected) < 0.05 * expected)
        assert spec.n_averages >= 100

    def test_parseval_for_random_signals(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.normal(size=2**16)
            spec = welch_psd(x, DT, 2e3)
            total = spec.psd.sum() * spec.df
            assert total == pytest.approx(np.mean(x**2), rel=0.01)

    def test_dc_lands_in_lowest_bins(self):
        x = np.full(2**14, 3.0)
        spec = welch_psd(x, DT, 5e3)
        assert np.argmax(spec.psd) == 0
        assert np.all(spec.psd[2:] < 1e-12 * spec.psd[0])
        assert spec.psd.sum() * spec.df == pytest.approx(9.0, rel=1e-6)

    def test_doubling_amplitude_quadruples_psd_exactly(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=2**14)
        a = welch_psd(x, DT, 5e3)
        b = welch_psd(2.0 * x, DT, 5e3)
        assert np.array_equal(b.psd, 4.0 * a.psd)

    def test_too_short_series_names_minimum(self):
        nseg = segment_length(DT, 1e3)
        with pytest.raises(DomainError, match=str(nseg + nseg // 2)):
            welch_psd(np.zeros(nseg), DT, 1e3)

    def test_achieved_rbw_recorded(self):
        spec = welch_psd(np.random.default_rng(0).normal(size=2**15), DT, 7e3)
        nseg = segment_length(DT, 7e3)
        assert spec.rbw == pytest.approx(1.5 / (nseg * DT))
        assert spec.rbw == pytest.approx(7e3, rel=0.15)

    @pytest.mark.parametrize("rbw", [0.0, -1.0, np.nan, np.inf])
    def test_rbw_must_be_finite_and_positive(self, rbw):
        with pytest.raises(DomainError, match="rbw_target"):
            segment_length(DT, rbw)

    def test_segment_longer_than_2_53_samples_is_refused(self):
        # The presets' sampling: 1e-300 Hz would need about 2.7e307 samples;
        # 1.23e-4 Hz needs 2.2e11, which is found at once.
        dt = 1.0 / 18e6
        with pytest.raises(DomainError, match=r"rbw=1e-300 Hz .* over 2\*\*53"):
            segment_length(dt, 1e-300)
        assert segment_length(dt, HANN_ENBW_BINS / (2**53 * dt)) == 2**53
        assert segment_length(dt, 1.23e-4) == 219520000000

    def test_batch_matches_single_columns(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2**14, 3))
        records = welch_psd_batch(x, DT, 5e3, metadata={"mode": "rnd"})
        for j, rec in enumerate(records):
            assert np.array_equal(rec.psd, welch_psd(x[:, j], DT, 5e3).psd)
            assert rec.metadata == {"mode": "rnd"}

    @pytest.mark.parametrize("rbw", [5e3, 1.5e6 / 297])
    def test_batch_matches_scipy_welch(self, rbw):
        # nseg is 300 (even) and 297 (odd); the length leaves a partial
        # last segment that must be dropped, as scipy drops it.
        nseg = segment_length(DT, rbw)
        assert nseg in (300, 297)
        n = 40 * nseg + 7
        assert (n - nseg) % (nseg - nseg // 2) != 0
        rng = np.random.default_rng(12)
        x = rng.normal(size=(n, 5)) + np.cumsum(rng.normal(size=(n, 5)), axis=0)
        records = welch_psd_batch(x, DT, rbw)
        for j, rec in enumerate(records):
            freqs, psd = scipy.signal.welch(
                x[:, j], fs=1.0 / DT, window="hann", nperseg=nseg,
                noverlap=nseg // 2, detrend=False, scaling="density",
            )
            assert np.array_equal(rec.freqs, freqs)
            assert np.allclose(rec.psd, psd, rtol=1e-13, atol=0.0)
            assert rec.n_averages == 1 + (n - nseg) // (nseg - nseg // 2)

    @pytest.mark.parametrize("rbw", [5e3, 1.5e6 / 297, 1.5e6 / 27000])
    @pytest.mark.parametrize("tail", [0, 7])
    def test_streamed_pieces_equal_one_push(self, rbw, tail):
        # Uneven pieces, then 256-sample pushes as the engine makes them;
        # odd (297) and even (300) nseg, and an nseg (27000) that takes
        # many pushes to complete; with and without a trailing partial
        # segment.
        nseg = segment_length(DT, rbw)
        hop = nseg - nseg // 2
        n = 40 * hop + nseg + tail
        rng = np.random.default_rng(13)
        x = rng.normal(size=(n, 4)) + np.cumsum(rng.normal(size=(n, 4)), axis=0)
        whole = welch_psd_batch(x, DT, rbw, metadata={"mode": "end"})
        accumulator = WelchAccumulator(4, DT, rbw)
        cuts = [0, 1, 150, 447, *range(4543, n, 256), n]
        for lo, hi in zip(cuts, cuts[1:]):
            accumulator.push(x[lo:hi].T)
        streamed = accumulator.records({"mode": "end"})
        assert accumulator.n_segments == 41
        for a, b in zip(streamed, whole):
            assert np.array_equal(a.psd, b.psd)
            assert np.array_equal(a.freqs, b.freqs)
            assert (a.rbw, a.n_averages, a.metadata) == (b.rbw, b.n_averages, b.metadata)
        part = accumulator.records(traces=slice(1, 3))
        assert [rec.psd.tolist() for rec in part] == [rec.psd.tolist() for rec in whole[1:3]]
        # The scan sink's input: the engine's trajectory-major block of
        # [RND, END] rows, (points * 2 trajectories, n, 2), pushed as a
        # strided (point, mode, trajectory, n) view of both modes or of one;
        # the column left out is NaN, so reading it would show.
        for modes in (slice(0, 2), slice(0, 1), slice(1, 2)):
            points = 2 // (modes.stop - modes.start)
            rows = np.full((points, 2, 2, n), np.nan)
            rows[:, modes] = x.T.reshape(points, -1, 2, n)
            rows = np.ascontiguousarray(rows.transpose(0, 2, 3, 1)).reshape(points * 2, n, 2)
            viewed = WelchAccumulator(4, DT, rbw)
            for lo, hi in zip(cuts, cuts[1:]):
                viewed.push(rows[:, lo:hi].reshape(points, 2, hi - lo, 2).transpose(0, 3, 1, 2)[:, modes])
            assert [rec.psd.tolist() for rec in viewed.records()] == [rec.psd.tolist() for rec in whole]
        with pytest.raises(DomainError, match=re.escape("expected samples of shape (4, n)")):
            accumulator.push(np.zeros((1, 3, 2, 10)))

    @given(
        nseg=st.sampled_from([n for n in range(8, 200) if next_fast_len(n) == n]),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=100)
    def test_any_cut_equals_one_push(self, nseg, data):
        rbw = HANN_ENBW_BINS / (nseg * DT)
        assert segment_length(DT, rbw) == nseg
        n = data.draw(st.integers(2 * nseg, 12 * nseg), label="n")
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=30), label="cuts"))
        x = np.random.default_rng(nseg).normal(size=(3, n))
        one = WelchAccumulator(3, DT, rbw)
        one.push(x)
        pieces = WelchAccumulator(3, DT, rbw)
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            pieces.push(x[:, lo:hi])
        assert pieces.n_segments == one.n_segments == 1 + (n - nseg) // (nseg - nseg // 2)
        for a, b in zip(pieces.records(), one.records()):
            assert np.array_equal(a.psd, b.psd)

    def test_streamed_too_short_series_names_minimum(self):
        nseg = segment_length(DT, 1e3)
        accumulator = WelchAccumulator(2, DT, 1e3)
        accumulator.push(np.zeros((2, nseg)))
        with pytest.raises(DomainError, match=str(nseg + nseg // 2)):
            accumulator.records()
        with pytest.raises(DomainError, match="shape"):
            accumulator.push(np.zeros((3, 10)))

    # NaN was refused as a segment over 2**53 samples; inf built an estimate
    # with an RBW of 0, whose records divided by zero.
    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1.0])
    def test_step_refused_unless_finite_and_positive(self, dt):
        with pytest.raises(DomainError, match=r"^dt must be finite and > 0, got"):
            WelchAccumulator(1, dt, 1e3)

    def test_odd_segment_needs_two_full_segments(self):
        # The presets' sampling and 91 kHz RBW give nseg 297 and hop 149:
        # 445 samples hold one segment only, 446 hold two.
        dt = 1.0 / 18e6
        assert segment_length(dt, 91e3) == 297
        rng = np.random.default_rng(14)
        short = WelchAccumulator(1, dt, 91e3)
        short.push(rng.normal(size=(1, 445)))
        with pytest.raises(DomainError, match="446"):
            short.records()
        enough = WelchAccumulator(1, dt, 91e3)
        enough.push(rng.normal(size=(1, 446)))
        assert enough.records()[0].n_averages == 2
        with pytest.raises(DomainError, match="446"):
            WelchAccumulator(1, dt, 91e3).require(445)
        WelchAccumulator(1, dt, 91e3).require(446)

    @pytest.mark.parametrize("rbw, nseg", [(5e3, 300), (1.5e6 / 297, 297)])
    def test_require_refuses_exactly_below_two_segments(self, rbw, nseg):
        accumulator = WelchAccumulator(1, DT, rbw)
        assert (accumulator.nseg, accumulator.hop) == (nseg, nseg - nseg // 2)
        minimum = nseg + accumulator.hop
        with pytest.raises(DomainError, match=f"need at least {minimum} samples .* got {minimum - 1}"):
            accumulator.require(minimum - 1)
        accumulator.require(minimum)

    def test_push_allocates_no_chunk_sized_arrays(self):
        # A scan task's shape: 112 traces, nseg 297 and 256-sample pushes.
        # Once the accumulator's arrays exist, a push that completes two
        # segments across the held samples and the new ones allocates less
        # than one copy of the samples it is given (it allocates numpy's
        # ufunc iteration buffer, 64 KiB with NumPy 2.4, and no array).
        accumulator = WelchAccumulator(112, DT, 1.5e6 / 297)
        rng = np.random.default_rng(16)
        for _ in range(2):
            accumulator.push(rng.normal(size=(112, 256)))
        x = rng.normal(size=(112, 256))
        tracemalloc.start()
        try:
            accumulator.push(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert accumulator.n_segments == 4
        assert peak < x.nbytes

    def test_one_push_of_many_segments_holds_one_segment_a_trace(self):
        # 4 traces of 2^16 samples at nseg 297 complete 438 segments in one
        # push.  Each is joined, windowed and transformed alone in arrays of
        # one segment a trace, so the push allocates far less than a copy of
        # its samples.
        x = np.random.default_rng(17).normal(size=(4, 2**16))
        accumulator = WelchAccumulator(4, DT, 1.5e6 / 297)
        assert accumulator.nseg == 297
        tracemalloc.start()
        try:
            accumulator.push(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert accumulator.n_segments == 1 + (2**16 - 297) // 149
        assert peak < x.nbytes / 4

    def test_building_one_costs_no_memory_whatever_the_segment(self):
        # A 2^40-sample segment: its window alone would take 8 TB, its
        # power sum 16 TB for four traces.
        rbw = HANN_ENBW_BINS / (2**40 * DT)
        tracemalloc.start()
        try:
            accumulator = WelchAccumulator(4, DT, rbw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert accumulator.nseg == 2**40
        assert accumulator.rbw == pytest.approx(rbw, rel=1e-12)
        with pytest.raises(DomainError, match=str(2**40 + 2**39)):
            accumulator.require(2**17)

    def test_layout_is_read_from_the_accumulator(self):
        x = np.random.default_rng(15).normal(size=(2, 3000))
        accumulator = WelchAccumulator(2, DT, 5e3)
        accumulator.push(x)
        records = accumulator.records()
        scale = 1.0 / ((1.0 / DT) * np.sum(hann_window(300) ** 2))
        assert accumulator.density_scale == scale
        assert np.array_equal(accumulator.freqs, np.fft.rfftfreq(300, DT))
        for rec in records:
            assert rec.freqs is accumulator.freqs
            assert rec.rbw == accumulator.rbw == HANN_ENBW_BINS / (300 * DT)

    def test_needs_at_least_one_trace(self):
        with pytest.raises(DomainError, match="n_traces >= 1"):
            WelchAccumulator(0, DT, 1e3)
        with pytest.raises(DomainError, match="n_traces >= 1"):
            welch_psd_batch(np.zeros((1000, 0)), DT, 1e3)

    def test_rejects_wrong_dimensionality(self):
        with pytest.raises(DomainError):
            welch_psd(np.zeros((100, 2)), DT, 1e3)
        with pytest.raises(DomainError):
            welch_psd_batch(np.zeros(100), DT, 1e3)


class TestHannWindow:
    def test_same_bits_as_scipy(self):
        for n in range(1, 601):
            assert np.array_equal(hann_window(n), scipy.signal.get_window("hann", n)), n

    @pytest.mark.parametrize("preset", ["fig3_end", "fig6_rnd"])
    def test_same_bits_as_scipy_at_preset_segment_length(self, preset):
        cfg = load_config(preset=preset, overrides=["rbw_hz=91e3"])
        nseg = segment_length(cfg.dt_s, cfg.rbw_hz)
        assert np.array_equal(hann_window(nseg), scipy.signal.get_window("hann", nseg))
        assert np.array_equal(WelchAccumulator(1, cfg.dt_s, cfg.rbw_hz).window, hann_window(nseg))


class TestNextFastLen:
    def test_same_as_scipy(self):
        for n in range(1, 20001):
            assert next_fast_len(n) == scipy.fft.next_fast_len(n), n

    @given(target=st.integers(1, 2**53))
    @settings(deadline=None, max_examples=300)
    def test_same_as_scipy_up_to_2_53(self, target):
        assert next_fast_len(target) == scipy.fft.next_fast_len(target)


class TestSpectrumRecord:
    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            SpectrumRecord(np.array([0.0, 1.0]), np.array([1.0]), rbw=1, n_averages=1)
        with pytest.raises(DomainError):
            SpectrumRecord(np.array([1.0, 0.5]), np.array([1.0, 1.0]), rbw=1, n_averages=1)
        with pytest.raises(DomainError):
            SpectrumRecord(np.array([0.0, 1.0]), np.array([1.0, -2.0]), rbw=1, n_averages=1)
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="psd"):
                SpectrumRecord(np.array([0.0, 1.0]), np.array([1.0, bad]), rbw=1, n_averages=1)
            with pytest.raises(DomainError, match="freqs"):
                SpectrumRecord(np.array([0.0, bad]), np.array([1.0, 1.0]), rbw=1, n_averages=1)
        # An rbw that no estimate has, and fewer than one average.
        for bad in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(DomainError, match="^rbw must be finite and > 0"):
                SpectrumRecord(np.array([0.0, 1.0]), np.array([1.0, 1.0]), rbw=bad, n_averages=1)
        for bad in (0, -1):
            with pytest.raises(DomainError, match="^n_averages must be >= 1"):
                SpectrumRecord(np.array([0.0, 1.0]), np.array([1.0, 1.0]), rbw=1, n_averages=bad)


class TestVideoAverage:
    def test_identity_when_vbw_equals_rbw(self):
        spec = flat_record(np.arange(50.0) + 1.0, rbw=10.0)
        out = video_average(spec, 10.0)
        assert np.array_equal(out.psd, spec.psd)
        assert out.metadata["vbw_hz"] == 10.0

    def test_variance_reduction(self):
        rng = np.random.default_rng(12)
        spec = flat_record(rng.gamma(shape=1.0, size=20000), rbw=90.0)
        out = video_average(spec, 10.0)  # 9-bin moving average
        interior = slice(20, -20)
        ratio = out.psd[interior].var() / spec.psd[interior].var()
        assert ratio == pytest.approx(10.0 / 90.0, rel=0.15)

    def test_peak_center_unmoved(self):
        bins = np.arange(400.0)
        bump = np.exp(-0.5 * ((bins - 173.0) / 6.0) ** 2)
        out = video_average(flat_record(bump, rbw=30.0), 3.0)
        assert np.argmax(out.psd) == 173

    def test_vbw_above_rbw_rejected(self):
        with pytest.raises(DomainError):
            video_average(flat_record(np.ones(10), rbw=5.0), 6.0)
        with pytest.raises(DomainError, match="^vbw must be > 0, got nan"):
            video_average(flat_record(np.ones(10), rbw=5.0), np.nan)

    def test_kernel_clamped_to_trace(self):
        spec = flat_record(np.ones(11), rbw=1000.0)
        out = video_average(spec, 1.0)  # nominal kernel far wider than trace
        assert np.allclose(out.psd, 1.0)

    @pytest.mark.parametrize("rbw", [10.0, 90.0])  # kernel of 1 bin, then of 9
    def test_source_left_as_it_was(self, rbw):
        spec = flat_record(np.arange(50.0) + 1.0, rbw=rbw, mode="rnd")
        psd, metadata = spec.psd.copy(), dict(spec.metadata)
        out = video_average(spec, 10.0)
        assert np.array_equal(spec.psd, psd)
        assert spec.metadata == metadata
        assert out.metadata is not spec.metadata
        assert out.metadata == {**metadata, "vbw_hz": 10.0}


class TestAverageSpectra:
    def make(self, rng, n_averages=1):
        return flat_record(rng.gamma(1.0, size=64), n_averages=n_averages, mode="rnd")

    def test_single_input_identity(self):
        rng = np.random.default_rng(0)
        spec = self.make(rng)
        out = average_spectra([spec])
        assert np.array_equal(out.psd, spec.psd)
        assert out.n_averages == spec.n_averages

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(1)
        specs = [self.make(rng) for _ in range(7)]
        a = average_spectra(specs)
        b = average_spectra(specs[::-1])
        c = average_spectra(specs[3:] + specs[:3])
        assert np.array_equal(a.psd, b.psd)
        assert np.array_equal(a.psd, c.psd)

    def test_mean_and_average_count(self):
        specs = [
            flat_record(np.full(4, 1.0), n_averages=10),
            flat_record(np.full(4, 3.0), n_averages=14),
        ]
        out = average_spectra(specs)
        assert np.allclose(out.psd, 2.0)
        assert out.n_averages == 24

    def test_error_shrinks_with_ensemble_size(self):
        rng = np.random.default_rng(2)
        m = 16
        singles = [self.make(rng) for _ in range(m)]
        averaged = average_spectra(singles)
        spread_single = np.std(singles[0].psd)
        spread_mean = np.std(averaged.psd - 1.0)
        assert spread_mean == pytest.approx(spread_single / np.sqrt(m), rel=0.2)

    def test_grid_and_metadata_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        base = self.make(rng)
        shifted = flat_record(np.ones(64), df=2.0, mode="rnd")
        with pytest.raises(DomainError):
            average_spectra([base, shifted])
        other_mode = flat_record(np.ones(64), mode="end")
        with pytest.raises(DomainError):
            average_spectra([base, other_mode])

    def test_rbw_mismatch_rejected(self):
        # Same grid and metadata, a different resolution bandwidth.
        specs = [flat_record(np.ones(8), rbw=rbw, mode="rnd") for rbw in (1.5, 2.0)]
        with pytest.raises(DomainError, match="^spectra must share the same rbw to be averaged$"):
            average_spectra(specs)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            average_spectra([])

    @pytest.mark.parametrize("n_specs", [1, 3])
    def test_sources_left_as_they_were(self, n_specs):
        rng = np.random.default_rng(4)
        specs = [self.make(rng) for _ in range(n_specs)]
        before = [(spec.psd.copy(), dict(spec.metadata)) for spec in specs]
        out = average_spectra(specs)
        for spec, (psd, metadata) in zip(specs, before):
            assert np.array_equal(spec.psd, psd)
            assert spec.metadata == metadata
            assert out.metadata is not spec.metadata
        assert out.metadata == {"mode": "rnd"}


class TestFindPeak:
    def lorentzian_record(self, f0=2.1e6, width=30e3, df=10e3, floor=0.0):
        freqs = df * np.arange(1000)
        psd = 1e-12 / (1.0 + ((freqs - f0) / width) ** 2) + floor
        return SpectrumRecord(freqs, psd, rbw=df, n_averages=1)

    def test_centroid_recovers_center(self):
        spec = self.lorentzian_record()
        report = find_peak(spec, around=2.05e6, halfwidth=0.4e6)
        assert isinstance(report, PeakReport)
        assert abs(report.peak_freq - 2.1e6) <= spec.df
        assert report.peak_power > 0
        assert report.window == pytest.approx(0.8e6)

    def test_pure_floor_gives_zero_power(self):
        freqs = 10e3 * np.arange(1000)
        spec = SpectrumRecord(freqs, np.full(1000, 3e-15), rbw=10e3, n_averages=1)
        report = find_peak(spec, around=5e6, halfwidth=0.5e6, floor=3e-15)
        assert report.peak_power == 0.0
        assert report.peak_freq == pytest.approx(5e6)

    def test_floor_record_subtraction(self):
        floor_level = 2e-13
        spec = self.lorentzian_record(floor=floor_level)
        floor = SpectrumRecord(
            spec.freqs, np.full_like(spec.psd, floor_level), rbw=spec.rbw, n_averages=1
        )
        with_floor = find_peak(spec, 2.1e6, 0.4e6, floor=floor)
        clean = find_peak(self.lorentzian_record(), 2.1e6, 0.4e6)
        assert with_floor.peak_power == pytest.approx(clean.peak_power, rel=1e-9)

    def test_window_must_stay_in_band(self):
        spec = self.lorentzian_record()
        with pytest.raises(DomainError):
            find_peak(spec, around=9.9e6, halfwidth=0.5e6)
        with pytest.raises(DomainError):
            find_peak(spec, around=0.1e6, halfwidth=0.5e6)
        # NaN passed the band check: a zero peak_power at a NaN centroid, or
        # a NaN window.
        with pytest.raises(DomainError, match="^need a finite around and halfwidth > 0, got nan and"):
            find_peak(spec, around=np.nan, halfwidth=1e5)
        with pytest.raises(DomainError, match="^need a finite around and halfwidth > 0, got .* and nan"):
            find_peak(spec, around=2.8e6, halfwidth=np.nan)

    def test_floor_grid_mismatch_rejected(self):
        spec = self.lorentzian_record()
        bad_floor = SpectrumRecord(
            spec.freqs[:-1], spec.psd[:-1], rbw=spec.rbw, n_averages=1
        )
        with pytest.raises(DomainError):
            find_peak(spec, 2.1e6, 0.4e6, floor=bad_floor)


class TestCsvRoundTrip:
    def test_write_read_identity(self, tmp_path):
        rng = np.random.default_rng(9)
        spec = welch_psd(rng.normal(size=2**14), DT, 5e3, metadata={
            "theta_deg": 12.0, "b_gauss": 1.0, "delta_hz": 1.5e9,
            "mode": "end", "vbw_hz": None, "seed": 7,
        })
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        back = read_spectrum_csv(path)
        assert np.array_equal(back.freqs, spec.freqs)
        assert np.array_equal(back.psd, spec.psd)
        assert back.rbw == spec.rbw
        assert back.n_averages == spec.n_averages
        assert back.metadata["mode"] == "end"

    def test_missing_or_impossible_rbw_refused(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(flat_record(np.ones(3), mode="rnd"), path)
        text = path.read_text()
        path.write_text(text.replace("# rbw_hz=1.5\n", ""))
        with pytest.raises(DomainError, match=r"spec\.csv: no rbw_hz line$"):
            read_spectrum_csv(path)
        for value in ("nan", "0"):
            path.write_text(text.replace("# rbw_hz=1.5\n", f"# rbw_hz={value}\n"))
            with pytest.raises(DomainError, match=rf"spec\.csv: rbw must be finite and > 0, got {value}"):
                read_spectrum_csv(path)
        path.write_text(text.replace("# n_averages=1\n", "# n_averages=0\n"))
        with pytest.raises(DomainError, match=r"spec\.csv: n_averages must be >= 1, got 0$"):
            read_spectrum_csv(path)
        lines = text.splitlines(True)
        row = lines.index("freq_hz,psd\n") + 2
        for cells, message in [
            ("5.0,1.0", "freqs must be strictly increasing and start >= 0"),
            ("1.0,-1.0", "psd entries must be finite and >= 0"),
            ("1.0,nan", "psd entries must be finite and >= 0"),
        ]:
            path.write_text("".join([*lines[:row], cells + "\n", *lines[row + 1 :]]))
            with pytest.raises(DomainError, match=rf"spec\.csv: {message}$"):
                read_spectrum_csv(path)

    @pytest.mark.parametrize("key, value, what", [
        ("rbw_hz", "x1.5", "a number"), ("n_averages", "one", "an integer"),
    ])
    def test_non_numeric_metadata_refused_by_file_and_key(self, tmp_path, key, value, what):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(flat_record(np.ones(3), mode="rnd"), path)
        path.write_text(re.sub(rf"^# {key}=.*$", f"# {key}={value}", path.read_text(), flags=re.M))
        with pytest.raises(DomainError, match=rf"spec\.csv: {key}={value} is not {what}$"):
            read_spectrum_csv(path)

    def test_missing_n_averages_refused(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(flat_record(np.ones(3), n_averages=4, mode="rnd"), path)
        path.write_text(path.read_text().replace("# n_averages=4\n", ""))
        with pytest.raises(DomainError, match=r"spec\.csv: no n_averages line$"):
            read_spectrum_csv(path)

    @pytest.mark.parametrize("row", ["1.0,1.0,1.0", "1.0", "1.0,x"])
    def test_malformed_row_refused_by_file_and_line(self, tmp_path, row):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(flat_record(np.ones(3), mode="rnd"), path)
        lines = path.read_text().splitlines(True)
        header = lines.index("freq_hz,psd\n")
        lines[header + 2] = row + "\n"
        path.write_text("".join(lines))
        message = rf"spec\.csv: line {header + 3} is not two numbers: {re.escape(repr(row))}$"
        with pytest.raises(DomainError, match=message):
            read_spectrum_csv(path)

    def test_header_layout(self, tmp_path):
        spec = flat_record(np.ones(3), mode="rnd", theta_deg=4.0)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        text = path.read_text().splitlines()
        meta_lines = [l for l in text if l.startswith("#")]
        assert any(re.match(r"# theta_deg=", l) for l in meta_lines)
        header_idx = text.index("freq_hz,psd")
        assert header_idx == len(meta_lines)
        assert len(text) == header_idx + 1 + 3

    def test_table_layout_is_exact(self, tmp_path):
        metadata = {
            "z_first": 0.1, "vbw_hz": None, "shot_floor": True, "clamped": False,
            "seed": 7, "mode": "end", "rbw_hz": np.float64(91e3),
        }
        columns = {"t_s": np.array([0.0, 1e-300]), "psd": np.array([1.0 / 3.0, -0.0])}
        path = tmp_path / "table.csv"
        write_table(path, metadata, columns)
        assert path.read_bytes() == (
            b"# z_first=0.1\n"
            b"# vbw_hz=\n"
            b"# shot_floor=true\n"
            b"# clamped=false\n"
            b"# seed=7\n"
            b"# mode=end\n"
            b"# rbw_hz=91000.0\n"
            b"t_s,psd\n"
            b"0.0,0.3333333333333333\n"
            b"1e-300,-0.0\n"
        )
        rows = path.read_text().splitlines()[-2:]
        back = np.array([[float(v) for v in row.split(",")] for row in rows])
        expected = np.column_stack(list(columns.values()))
        assert np.array_equal(back, expected)
        assert np.array_equal(np.signbit(back), np.signbit(expected))

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        path = tmp_path / "table.csv"
        with pytest.raises(DomainError, match=r"equal lengths.*'a': 3, 'b': 1"):
            write_table(path, {}, {"a": [1.0, 2.0, 3.0], "b": [4.0]})
        assert not path.exists()


@pytest.fixture(scope="module")
def two_process_pool():
    with ProcessPoolExecutor(max_workers=2) as pool:
        yield pool


def series_columns(n_rows, seed=3):
    # Distinct values in every row and column, so a block written out of
    # order, twice or not at all changes the bytes.
    rng = np.random.default_rng(seed)
    return {
        "t_s": (np.arange(n_rows) + 479) * (1.0 / 18e6),
        "rnd_au": rng.standard_normal(n_rows) * 1e-3,
        "end_au": rng.standard_normal(n_rows) * 1e-3,
    }


def series_rows(n_rows, start, stop):
    # The workers' reader of series_table: module-level, so a worker can
    # call it, and reading no rows from the caller.
    return [column[start:stop] for column in series_columns(n_rows).values()]


def series_table(n_rows):
    return TableRows(("t_s", "rnd_au", "end_au"), n_rows, functools.partial(series_rows, n_rows))


class TestTableWriterOnAPool:
    @pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097, 3 * 4096 + 17])
    def test_same_bytes_with_and_without_an_executor(self, tmp_path, two_process_pool, n_rows):
        # An executor's workers read each block of a TableRows by its row
        # range; columns are formatted in process, and refused on an executor.
        assert spectral._TABLE_BLOCK_ROWS == 4096
        metadata = {"theta_deg": 30.0, "seed": 901}
        columns = series_columns(n_rows)
        write_table(tmp_path / "serial.csv", metadata, columns)
        serial = (tmp_path / "serial.csv").read_bytes()
        assert serial.count(b"\n") == len(metadata) + 1 + n_rows
        for name, executor in [("rows.csv", None), ("pool.csv", two_process_pool)]:
            write_table(tmp_path / name, metadata, series_table(n_rows), executor=executor)
            assert (tmp_path / name).read_bytes() == serial, name
        with pytest.raises(TypeError, match="TableRows"):
            write_table(tmp_path / "refused.csv", metadata, columns, executor=two_process_pool)
        assert not (tmp_path / "refused.csv").exists()

    @pytest.mark.parametrize("pooled", [False, True])
    def test_writing_holds_a_few_blocks_of_text(self, tmp_path, two_process_pool, pooled):
        # The 130,594 rows of a 2^17-step simulate: about 8 MB of text, of
        # which the writing process holds a few blocks at a time.
        n_rows = 131072 - 478
        columns = series_columns(n_rows)
        block_text = len(spectral._format_rows(
            [column[: spectral._TABLE_BLOCK_ROWS] for column in columns.values()]
        ))
        if pooled:
            executor, table, warm = two_process_pool, series_table(n_rows), series_table(10)
        else:
            executor, table, warm = None, columns, series_columns(10)
        write_table(tmp_path / "warm.csv", {}, warm, executor=executor)
        tracemalloc.start()
        try:
            write_table(tmp_path / "series.csv", {}, table, executor=executor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table_text = (tmp_path / "series.csv").stat().st_size
        assert table_text > 25 * block_text
        assert peak < 2 * (spectral._TABLE_BLOCKS_IN_FLIGHT + 1) * block_text
        assert peak < 2e6
