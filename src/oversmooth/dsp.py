"""Audio front end: WAV -> magnitude STFT -> mel filterbank -> log-mel grid.

Fixed conventions, chosen once and documented so numbers are reproducible:
Hann window (periodic), reflect padding with center-aligned frames,
HTK mel scale 2595*log10(1 + f/700) with f_min = 0 and f_max = rate/2,
unnormalized triangular filters, natural log with an amplitude floor.
Input audio must already be at the filterbank design rate; there is no
resampling.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ContractError, reflect_indices

DEFAULT_SAMPLE_RATE = 22050
DEFAULT_FRAME = 1024
DEFAULT_HOP = 256
DEFAULT_BINS = 80
DEFAULT_FLOOR = 1e-5


class WavError(ContractError):
    """A WAV file is missing, malformed, or outside the supported subset."""


class UnsupportedChannels(WavError):
    """Only mono input is supported."""


@dataclass(frozen=True)
class AudioClip:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ContractError("audio samples must be 1-D")
        if not np.all(np.isfinite(arr)):
            raise ContractError("audio samples must be finite")
        if self.sample_rate <= 0:
            raise ContractError("sample rate must be positive")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filters over rFFT bins.

    ``matrix`` has shape (F, n_fft // 2 + 1); ``center_freqs`` holds each
    filter's peak frequency in Hz.
    """

    matrix: np.ndarray
    center_freqs: np.ndarray
    sample_rate: int

    @property
    def bins(self) -> int:
        return self.matrix.shape[0]


def read_wav(path) -> AudioClip:
    """Read a RIFF/WAVE file (PCM, 16-bit, mono).

    Samples are scaled by 1/32768 into [-1, 1).
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack("<I", data[pos + 4 : pos + 8])
        body = data[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt " and len(body) >= 16:
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise WavError(f"{path}: data chunk truncated")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned
    if fmt is None or payload is None:
        raise WavError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if audio_format != 1:
        raise WavError(f"{path}: only PCM is supported (format tag {audio_format})")
    if channels != 1:
        raise UnsupportedChannels(f"{path}: expected mono, got {channels} channels")
    if bits != 16:
        raise WavError(f"{path}: only 16-bit PCM is supported (got {bits})")
    if len(payload) % 2 != 0:
        raise WavError(f"{path}: odd payload size for 16-bit samples")
    raw = np.frombuffer(payload, dtype="<i2").astype(np.float64)
    return AudioClip(raw / 32768.0, rate)


def _hann(n: int) -> np.ndarray:
    # Periodic Hann, the framing convention matching the hop-based analysis.
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def stft_magnitude(
    clip: AudioClip, frame_size: int = DEFAULT_FRAME, hop: int = DEFAULT_HOP
) -> np.ndarray:
    """Magnitude STFT with a Hann window and centered, reflect-padded frames.

    Frame t is centered at sample t*hop; the frame count is
    ceil(len(samples) / hop). Output shape is (T, frame_size // 2 + 1).
    """
    if frame_size <= 0:
        raise ContractError("frame_size must be positive")
    if frame_size & (frame_size - 1):
        raise ContractError("frame_size must be a power of two")
    if hop <= 0:
        raise ContractError("hop must be positive")
    x = clip.samples
    n = len(x)
    if n < 1:
        raise ContractError("clip must contain at least one sample")
    n_frames = -(-n // hop)
    half = frame_size // 2
    padded = x[reflect_indices(n, -half, n + half + frame_size)]
    window = _hann(frame_size)
    frames = np.stack(
        [padded[t * hop : t * hop + frame_size] for t in range(n_frames)]
    )
    return np.abs(np.fft.rfft(frames * window, axis=1))


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    n_fft: int = DEFAULT_FRAME,
    n_mels: int = DEFAULT_BINS,
) -> MelFilterbank:
    """Build unnormalized triangular filters, equally spaced on the mel scale
    from 0 Hz to the Nyquist frequency."""
    if n_mels < 1:
        raise ContractError("n_mels must be at least 1")
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0),
                                     n_mels + 2))
    fft_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    lower, center, upper = edges_hz[:-2], edges_hz[1:-1], edges_hz[2:]
    up = (fft_freqs[None, :] - lower[:, None]) / (center - lower)[:, None]
    down = (upper[:, None] - fft_freqs[None, :]) / (upper - center)[:, None]
    matrix = np.maximum(0.0, np.minimum(up, down))
    if np.any(matrix.sum(axis=1) <= 0.0):
        raise ContractError(
            "a mel filter covers no FFT bin; increase n_fft or reduce n_mels"
        )
    return MelFilterbank(matrix, center, sample_rate)


def mel_spectrogram(
    clip: AudioClip,
    filterbank: MelFilterbank | None = None,
    frame_size: int = DEFAULT_FRAME,
    hop: int = DEFAULT_HOP,
    floor: float = DEFAULT_FLOOR,
):
    """Log-mel spectrogram: log(max(filterbank @ magnitude, floor)).

    The clip's sample rate must match the filterbank design rate.
    Returns a (T, F) float array; wrap in :class:`core.Spectrogram` as needed.
    """
    if filterbank is None:
        filterbank = mel_filterbank(clip.sample_rate, frame_size)
    if clip.sample_rate != filterbank.sample_rate:
        raise ContractError(
            f"clip rate {clip.sample_rate} Hz != filterbank rate "
            f"{filterbank.sample_rate} Hz (no resampling)"
        )
    if floor <= 0.0:
        raise ContractError("floor must be positive")
    mag = stft_magnitude(clip, frame_size, hop)
    mel = mag @ filterbank.matrix.T
    return np.log(np.maximum(mel, floor))
