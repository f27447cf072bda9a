import numpy as np
import pytest

from conftest import reflect_indices, wav_bytes
from oversmooth.core import ContractError
from oversmooth import dsp


class TestReadWav:
    def test_silence(self, tmp_path):
        path = tmp_path / "z.wav"
        path.write_bytes(wav_bytes(np.zeros(100, dtype=np.int16)))
        clip = dsp.read_wav(path)
        assert clip.sample_rate == 22050
        assert len(clip.samples) == 100
        assert np.all(clip.samples == 0.0)

    def test_half_scale(self, tmp_path):
        path = tmp_path / "h.wav"
        path.write_bytes(wav_bytes([16384]))
        assert dsp.read_wav(path).samples[0] == 0.5

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "s.wav"
        path.write_bytes(wav_bytes(np.zeros(10, dtype=np.int16), channels=2))
        with pytest.raises(ContractError, match="expected mono, got 2 channels"):
            dsp.read_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "f.wav"
        path.write_bytes(wav_bytes(np.zeros(10, dtype=np.int16), audio_format=3))
        with pytest.raises(ContractError,
                           match=r"only PCM is supported \(format tag 3\)"):
            dsp.read_wav(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.wav"
        data = wav_bytes(np.zeros(50, dtype=np.int16))
        path.write_bytes(data[:-20])
        with pytest.raises(ContractError, match="data chunk truncated"):
            dsp.read_wav(path)

    def test_reads_every_pcm_value_exactly(self, tmp_path):
        pcm = np.random.default_rng(0).integers(-32768, 32768, size=500)
        pcm[:2] = -32768, 32767
        path = tmp_path / "rt.wav"
        path.write_bytes(wav_bytes(pcm, rate=16000))
        clip = dsp.read_wav(path)
        assert clip.sample_rate == 16000
        assert np.array_equal(clip.samples, pcm / 32768.0)


def sine(freq, n=22050, rate=22050, amp=0.5):
    t = np.arange(n) / rate
    return dsp.AudioClip(amp * np.sin(2 * np.pi * freq * t), rate)


def dft_magnitude_oracle(frame):
    """Direct DFT of one windowed frame, nested-sum definition."""
    n = len(frame)
    k = np.arange(n // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n)
    return np.abs(basis @ frame)


class TestStft:
    def test_zero_clip(self):
        clip = dsp.AudioClip(np.zeros(2048), 22050)
        mag = dsp.stft_magnitude(clip, 1024, 256)
        assert mag.shape == (8, 513)
        assert np.all(mag == 0.0)

    def test_frame_count(self):
        clip = dsp.AudioClip(np.zeros(1000), 22050)
        assert dsp.stft_magnitude(clip, 1024, 256).shape[0] == 4  # ceil(1000/256)

    def test_sine_peak_bin(self):
        mag = dsp.stft_magnitude(sine(440.0), 1024, 256)
        expected_bin = round(440 * 1024 / 22050)  # = 20
        interior = mag[2:-2]
        assert np.all(interior.argmax(axis=1) == expected_bin)

    def test_matches_direct_dft(self):
        clip = sine(440.0, n=4096)
        mag = dsp.stft_magnitude(clip, 1024, 256)
        # Rebuild frame 4 by hand: centered at 4*256, reflect-padded input.
        half = 512
        center = 4 * 256
        window = 0.5 * (1 - np.cos(2 * np.pi * np.arange(1024) / 1024))
        frame = clip.samples[center - half : center + half] * window
        assert np.allclose(mag[4], dft_magnitude_oracle(frame), atol=1e-9)

    def test_dc_peak_at_zero(self):
        clip = dsp.AudioClip(np.ones(2048), 22050)
        mag = dsp.stft_magnitude(clip, 1024, 256)
        assert np.all(mag.argmax(axis=1) == 0)

    def test_sign_flip_invariance(self):
        clip = sine(523.0, n=3000)
        flipped = dsp.AudioClip(-clip.samples, clip.sample_rate)
        assert np.allclose(
            dsp.stft_magnitude(clip), dsp.stft_magnitude(flipped), atol=1e-12
        )

    @pytest.mark.parametrize("frame,hop", [(1024, 256), (256, 64), (256, 300)])
    @pytest.mark.parametrize("n", [1, 2, 3, 100, 600])
    def test_padding_matches_the_index_rule(self, n, frame, hop):
        # Clips shorter than half a frame reflect more than once.
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        mag = dsp.stft_magnitude(dsp.AudioClip(x, 22050), frame, hop)
        n_frames = -(-n // hop)
        padded = x[reflect_indices(n, -(frame // 2), n + frame // 2 + frame)]
        frames = np.stack([padded[t * hop : t * hop + frame]
                           for t in range(n_frames)])
        expected = np.abs(np.fft.rfft(frames * dsp._hann(frame), axis=1))
        assert mag.shape == (n_frames, frame // 2 + 1)
        assert np.array_equal(mag[0], expected[0])
        assert np.array_equal(mag[-1], expected[-1])
        assert np.array_equal(mag, expected)

    def test_bad_hop(self):
        with pytest.raises(ContractError):
            dsp.stft_magnitude(sine(440), 1024, 0)

    def test_bad_frame_size(self):
        with pytest.raises(ContractError):
            dsp.stft_magnitude(sine(440), 1000, 256)


def centre_freqs(rate=22050, n_mels=80):
    """Each filter's peak: the inner ``n_mels`` of ``n_mels`` + 2 edges
    equally spaced on the mel scale from 0 Hz to ``rate`` / 2."""
    edges = np.linspace(dsp.hz_to_mel(0.0), dsp.hz_to_mel(rate / 2.0), n_mels + 2)
    return dsp.mel_to_hz(edges)[1:-1]


class TestMelFilterbank:
    def test_shape_and_nonnegativity(self):
        fb = dsp.mel_filterbank(22050, 1024, 80)
        assert fb.matrix.shape == (80, 513)
        assert np.all(fb.matrix >= 0)
        assert np.all(fb.matrix.sum(axis=1) > 0)

    def test_coverage_inside_band(self):
        fb = dsp.mel_filterbank(22050, 1024, 80)
        freqs = np.arange(513) * 22050 / 1024
        centres = centre_freqs()
        inside = (freqs > centres[0]) & (freqs < centres[-1])
        assert np.all(fb.matrix.sum(axis=0)[inside] > 0)

    def test_each_filter_peaks_at_its_centre(self):
        fb = dsp.mel_filterbank(22050, 1024, 80)
        freqs = np.arange(513) * 22050 / 1024
        peaks = freqs[fb.matrix.argmax(axis=1)]
        assert np.all(np.abs(peaks - centre_freqs()) <= 22050 / 1024)

    def test_htk_scale_roundtrip(self):
        f = np.array([0.0, 440.0, 11025.0])
        assert np.allclose(dsp.mel_to_hz(dsp.hz_to_mel(f)), f)


class TestMelSpectrogram:
    def test_silence_hits_floor(self):
        clip = dsp.AudioClip(np.zeros(2048), 22050)
        mel = dsp.mel_spectrogram(clip, dsp.mel_filterbank())
        assert np.allclose(mel, np.log(1e-5))

    def test_sine_peak_matches_filterbank(self):
        fb = dsp.mel_filterbank(22050, 1024, 80)
        mel = dsp.mel_spectrogram(sine(440.0), fb)
        expected = int(np.argmin(np.abs(centre_freqs() - 440.0)))
        interior = mel[2:-2]
        assert np.all(interior.argmax(axis=1) == expected)

    def test_amplitude_doubling_adds_log2(self):
        clip = sine(440.0, n=3000, amp=0.25)
        loud = dsp.AudioClip(2 * clip.samples, 22050)
        fb = dsp.mel_filterbank()
        a = dsp.mel_spectrogram(clip, fb)
        b = dsp.mel_spectrogram(loud, fb)
        above = a > np.log(1e-5) + 0.75  # stays above floor after doubling
        assert np.allclose(b[above] - a[above], np.log(2.0), atol=1e-9)

    def test_monotone_in_energy(self):
        clip = sine(880.0, n=2500, amp=0.3)
        louder = dsp.AudioClip(1.7 * clip.samples, 22050)
        fb = dsp.mel_filterbank()
        assert np.all(
            dsp.mel_spectrogram(louder, fb) >= dsp.mel_spectrogram(clip, fb) - 1e-12
        )

    def test_frame_size_comes_from_the_filterbank(self):
        clip, fb = sine(440.0, n=3000), dsp.mel_filterbank(22050, 512, 40)
        floor, hop = 1e-5, 128
        expected = np.log(np.maximum(
            dsp.stft_magnitude(clip, 512, hop) @ fb.matrix.T, floor))
        assert np.array_equal(dsp.mel_spectrogram(clip, fb, hop, floor), expected)

    def test_rate_mismatch(self):
        fb = dsp.mel_filterbank(22050, 1024, 80)
        clip = dsp.AudioClip(np.zeros(1000), 44100)
        with pytest.raises(ContractError, match="clip rate 44100 Hz != filterbank "
                                                "rate 22050 Hz"):
            dsp.mel_spectrogram(clip, fb)
