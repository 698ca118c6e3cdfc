"""WAV ingestion, STFT conventions, band masks, and log-spectral distance."""

import wave

import numpy as np
import pytest

from pof import (AudioClip, BandMask, DataFormatError, Spectrogram, StftConfig,
                 UnsupportedFormatError, ValidationError, band_mask,
                 load_wav, log_spectral_distance, stft_magnitude, stft_power)


def write_wav(path, samples_int16, sample_rate=16000, channels=1, width=2):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(width)
        wf.setframerate(sample_rate)
        wf.writeframes(np.asarray(samples_int16, dtype="<i2").tobytes())


class TestLoadWav:
    def test_zeros(self, tmp_path):
        p = tmp_path / "z.wav"
        write_wav(p, np.zeros(200, dtype=np.int16))
        clip = load_wav(p)
        assert clip.samples.shape == (200,)
        assert np.all(clip.samples == 0.0)
        assert clip.sample_rate == 16000.0

    def test_full_scale_square_wave(self, tmp_path):
        p = tmp_path / "sq.wav"
        raw = np.tile([32767, -32767], 50).astype(np.int16)
        write_wav(p, raw)
        clip = load_wav(p)
        assert np.allclose(np.abs(clip.samples), 32767.0 / 32768.0)
        assert np.array_equal(np.sign(clip.samples), np.tile([1.0, -1.0], 50))

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(b"RIFF\x10\x00")
        with pytest.raises(DataFormatError):
            load_wav(p)

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "st.wav"
        write_wav(p, np.zeros(64, dtype=np.int16), channels=2)
        with pytest.raises(UnsupportedFormatError, match="mono"):
            load_wav(p)

    def test_8bit_rejected(self, tmp_path):
        p = tmp_path / "b8.wav"
        with wave.open(str(p), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(16000)
            wf.writeframes(bytes(64))
        with pytest.raises(UnsupportedFormatError, match="16-bit"):
            load_wav(p)


def naive_windowed_dft(frame):
    """O(N^2) DFT of a Hann-windowed frame: the FFT oracle."""
    n = frame.size
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / (n - 1)))
    x = frame * w
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    return np.exp(-2j * np.pi * k * t / n) @ x


class TestStft:
    def test_bin_count_1024(self, rng):
        clip = AudioClip(rng.normal(size=4096) * 0.1, 16000.0)
        spec = stft_magnitude(clip, StftConfig(n_fft=1024, hop=512))
        assert spec.n_bins == 513
        assert spec.n_frames == (4096 - 1024) // 512 + 1

    def test_window_is_symmetric_hann(self):
        n = 64
        expected = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / (n - 1)))
        assert np.allclose(np.hanning(n), expected, atol=0)

    def test_matches_naive_dft(self, rng):
        n = 128
        clip = AudioClip(rng.normal(size=n) * 0.3, 8000.0)
        spec = stft_magnitude(clip, StftConfig(n_fft=n, hop=n))
        oracle = np.abs(naive_windowed_dft(clip.samples))
        assert np.allclose(spec.data[:, 0], oracle, atol=1e-8)

    def test_sine_energy_concentration(self):
        sr, n = 16000.0, 1024
        k = 40
        t = np.arange(n * 3)
        clip = AudioClip(0.5 * np.sin(2 * np.pi * k * t / n), sr)
        spec = stft_magnitude(clip, StftConfig(n_fft=n, hop=n))
        energy = spec.data[:, 0] ** 2
        neighborhood = energy[k - 1 : k + 2].sum()
        assert neighborhood / energy.sum() >= 0.90
        # Hann main lobe: the center bin alone carries 2/3 of that energy
        assert energy[k] / neighborhood == pytest.approx(2.0 / 3.0, rel=1e-2)

    def test_power_is_squared_magnitude(self, rng):
        clip = AudioClip(rng.normal(size=1024) * 0.1, 16000.0)
        cfg = StftConfig(n_fft=256, hop=128)
        mag = stft_magnitude(clip, cfg)
        pow_ = stft_power(clip, cfg)
        assert np.allclose(pow_.data, mag.data**2, rtol=1e-12)
        assert pow_.kind == "power"

    def test_parseval_per_frame(self, rng):
        n = 256
        clip = AudioClip(rng.normal(size=n * 4) * 0.2, 16000.0)
        cfg = StftConfig(n_fft=n, hop=n // 2)
        spec = stft_power(clip, cfg)
        win = np.hanning(n)
        assert win @ win == pytest.approx(0.375 * (n - 1), rel=1e-12)
        for t in range(spec.n_frames):
            frame = clip.samples[t * cfg.hop : t * cfg.hop + n] * win
            one_sided = spec.data[:, t]
            full = one_sided[0] + 2 * one_sided[1:-1].sum() + one_sided[-1]
            assert full == pytest.approx(n * float(frame @ frame), rel=1e-6)

    def test_frame_locality(self, rng):
        # frame t depends only on samples [t*hop, t*hop + n_fft)
        cfg = StftConfig(n_fft=64, hop=32)
        x = rng.normal(size=256)
        y = x.copy()
        y[: cfg.hop] = 9.0          # touches only frames before t=1
        y[cfg.hop + cfg.n_fft :] = -9.0   # and after t=1
        a = stft_magnitude(AudioClip(x, 8000.0), cfg)
        b = stft_magnitude(AudioClip(y, 8000.0), cfg)
        assert np.array_equal(a.data[:, 1], b.data[:, 1])
        assert not np.array_equal(a.data[:, 0], b.data[:, 0])

    def test_too_short_clip(self):
        with pytest.raises(ValidationError):
            stft_magnitude(AudioClip(np.zeros(100), 16000.0), StftConfig(n_fft=256, hop=128))


class TestBandMask:
    def test_telephone_band(self):
        mask = band_mask(513, 16000.0, 1024, 400.0, 3400.0)
        assert mask.kept[0] == 26
        assert mask.kept[-1] == 217
        assert mask.size == 217 - 26 + 1

    def test_full_band(self):
        mask = band_mask(513, 16000.0, 1024, 0.0, 8000.0)
        assert mask.size == 513

    def test_bad_range(self):
        with pytest.raises(ValidationError):
            band_mask(513, 16000.0, 1024, 3400.0, 400.0)
        with pytest.raises(ValidationError):
            band_mask(513, 16000.0, 1024, 400.0, 9000.0)

    def test_empty_mask(self):
        # a band narrower than one bin that contains no bin center
        with pytest.raises(ValidationError):
            band_mask(513, 16000.0, 1024, 400.1, 406.0)


class TestApplyMask:
    """A band mask applied to spectrogram rows by BandMask.select."""

    def test_identity(self, rng):
        data = rng.lognormal(size=(8, 3))
        assert np.array_equal(BandMask(np.arange(8)).select(data, 8), data)

    def test_singleton(self, rng):
        data = rng.lognormal(size=(8, 3))
        assert np.array_equal(BandMask([5]).select(data, 8), data[5:6])

    def test_idempotent_with_identity_submask(self, rng):
        data = rng.lognormal(size=(8, 3))
        once = BandMask([2, 4, 6]).select(data, 8)
        twice = BandMask(np.arange(3)).select(once, 3)
        assert np.array_equal(once, twice)

    def test_out_of_range(self, rng):
        with pytest.raises(ValidationError):
            BandMask([7, 8]).select(rng.lognormal(size=(8, 3)), 8)

    @pytest.mark.parametrize("rows", [8, 3], ids=["full_band", "masked_rows"])
    def test_select_takes_full_band_or_masked_rows(self, rng, rows):
        data = rng.lognormal(size=(8, 3))
        mask = BandMask([2, 4, 6])
        given = data if rows == 8 else data[mask.kept]
        assert np.array_equal(mask.select(given, 8), data[mask.kept])

    @pytest.mark.parametrize("kept, rows", [([2, 4, 6], 5), ([7, 8], 8), ([7, 8], 2)],
                             ids=["wrong_row_count", "out_of_range", "out_of_range_masked"])
    def test_select_rejects(self, kept, rows):
        with pytest.raises(ValidationError):
            BandMask(kept).select(np.ones((rows, 3)), 8)


class TestLogSpectralDistance:
    def _spec(self, data):
        return Spectrogram(data, "magnitude", 16000, 14, 7)

    def test_identical_is_zero(self, rng):
        a = self._spec(rng.lognormal(size=(6, 4)))
        assert log_spectral_distance(a, a) == 0.0

    def test_factor_ten_is_twenty_db(self, rng):
        data = rng.lognormal(size=(6, 4))
        assert log_spectral_distance(
            self._spec(10.0 * data), self._spec(data)
        ) == pytest.approx(20.0, rel=1e-12)

    def test_matches_naive_loops(self, rng):
        da = rng.lognormal(size=(6, 4))
        db = rng.lognormal(size=(6, 4))
        mask = BandMask([1, 3, 4])
        total = 0.0
        for f in [1, 3, 4]:
            for t in range(4):
                total += (20.0 * np.log10(da[f, t] / db[f, t])) ** 2
        naive = np.sqrt(total / 12.0)
        assert log_spectral_distance(self._spec(da), self._spec(db), mask) == \
            pytest.approx(naive, rel=1e-10)

    def test_dim_mismatch(self, rng):
        a = self._spec(rng.lognormal(size=(6, 4)))
        b = self._spec(rng.lognormal(size=(6, 5)))
        with pytest.raises(ValidationError):
            log_spectral_distance(a, b)
