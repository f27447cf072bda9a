"""Shared value types, deterministic randomness, and spectrogram/alignment I/O.

The two on-disk formats defined here are the interchange contract for the
whole package:

* ``MEL1`` binary spectrograms: magic ``b"MEL1"``, u32-LE frame count T,
  u32-LE bin count F, then T*F little-endian IEEE-754 32-bit floats in
  time-major (row-major) order.
* Alignment TSV: UTF-8 lines ``label<TAB>start<TAB>end`` with end exclusive,
  sorted by start and non-overlapping.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MEL_MAGIC = b"MEL1"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ContractError(ValueError):
    """An input violates one of the documented contracts.

    The CLI maps these to exit code 2; anything else is an internal error.
    """


class BadMagic(ContractError):
    """A binary file does not start with the expected magic bytes."""


class FormatError(ContractError):
    """A file parses but its payload is inconsistent with its header."""


class AlignmentError(ContractError):
    """An alignment entry violates ordering, span, or type constraints."""


@dataclass(frozen=True)
class Spectrogram:
    """A T x F grid of log-mel values, time-major.

    Values must be finite. Instances are immutable after construction; the
    backing array is marked read-only so they can be shared across threads.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ContractError(f"spectrogram must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ContractError(f"spectrogram needs T >= 1 and F >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ContractError("spectrogram values must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def bins(self) -> int:
        return self.values.shape[1]


def as_grid(x) -> np.ndarray:
    """The values of a Spectrogram, or any 2-D array-like as float64."""
    if isinstance(x, Spectrogram):
        return x.values
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ContractError("expected a 2-D grid")
    return arr


@dataclass(frozen=True)
class AlignmentEntry:
    label: str
    start: int
    end: int  # exclusive


@dataclass(frozen=True)
class Alignment:
    """Ordered, non-overlapping phoneme-to-frame-span table."""

    entries: tuple[AlignmentEntry, ...] = field(default_factory=tuple)

    def __post_init__(self):
        entries = tuple(self.entries)
        prev_end = None
        for e in entries:
            if e.start < 0:
                raise AlignmentError(f"negative start frame in {e.label!r}")
            if e.start >= e.end:
                raise AlignmentError(
                    f"empty span for {e.label!r}: [{e.start}, {e.end})"
                )
            if prev_end is not None and e.start < prev_end:
                raise AlignmentError(
                    f"overlapping span for {e.label!r} starting at {e.start}"
                )
            prev_end = e.end
        object.__setattr__(self, "entries", entries)

    def spans(self, label: str) -> list[tuple[int, int]]:
        """Frame spans [start, end) carrying ``label``, in order."""
        return [(e.start, e.end) for e in self.entries if e.label == label]

    def labels(self) -> list[str]:
        """Distinct labels in first-appearance order."""
        seen: dict[str, None] = {}
        for e in self.entries:
            seen.setdefault(e.label, None)
        return list(seen)


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class SeededRng:
    """Deterministic random stream addressed by (seed, stream).

    Backed by the counter-based Philox bit generator keyed with the 128-bit
    word ``stream << 64 | seed``, so identical (seed, stream) pairs replay
    identical draw sequences across runs and platforms. Parallel work should
    derive one substream per task via :meth:`substream` instead of sharing an
    instance.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        key = (self.stream << 64) | self.seed
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def substream(self, label: int) -> "SeededRng":
        """A statistically independent stream for the same seed.

        The label is mixed into the current stream id with a splitmix64
        round, so nested derivations stay collision-resistant.
        """
        mixed = _splitmix64(self.stream ^ _splitmix64(int(label) & _MASK64))
        return SeededRng(self.seed, mixed)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self.generator.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        return self.generator.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, stream={self.stream})"


def reflect_indices(n: int, lo: int, hi: int) -> np.ndarray:
    """Indices lo..hi-1 reflected into [0, n) without repeating edges."""
    period = max(2 * (n - 1), 1)  # n == 1 maps every index to 0
    idx = np.abs(np.arange(lo, hi)) % period
    return np.where(idx >= n, period - idx, idx)


def write_mel(spec: Spectrogram, path) -> None:
    """Write a spectrogram in the MEL1 binary format.

    Values are stored as 32-bit floats; inputs already representable in
    float32 round-trip bit-exactly.
    """
    payload = np.ascontiguousarray(spec.values, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MEL_MAGIC)
        fh.write(struct.pack("<II", spec.frames, spec.bins))
        fh.write(payload.tobytes())


def read_mel(path) -> Spectrogram:
    """Read a MEL1 file written by :func:`write_mel`."""
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
    if data[:4] != MEL_MAGIC:
        raise BadMagic(f"{path}: expected magic {MEL_MAGIC!r}, got {data[:4]!r}")
    t, f = struct.unpack("<II", data[4:12])
    if t < 1 or f < 1:
        raise FormatError(f"{path}: invalid dimensions {t}x{f}")
    expected = 12 + 4 * t * f
    if len(data) != expected:
        raise FormatError(
            f"{path}: payload is {len(data) - 12} bytes, header implies {4 * t * f}"
        )
    values = np.frombuffer(data, dtype="<f4", offset=12).reshape(t, f)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: payload contains non-finite values")
    return Spectrogram(values.astype(np.float64))


def read_alignment(path) -> Alignment:
    """Parse an alignment TSV file (``label<TAB>start<TAB>end`` per line)."""
    entries = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise AlignmentError(f"{path}:{lineno}: expected 3 tab-separated fields")
        label, start_s, end_s = parts
        try:
            start, end = int(start_s), int(end_s)
        except ValueError:
            raise AlignmentError(
                f"{path}:{lineno}: frame fields must be integers, got "
                f"{start_s!r}, {end_s!r}"
            ) from None
        entries.append(AlignmentEntry(label, start, end))
    return Alignment(tuple(entries))


def write_alignment(align: Alignment, path) -> None:
    lines = [f"{e.label}\t{e.start}\t{e.end}" for e in align.entries]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def gather_phoneme_frames(
    spec: Spectrogram, align: Alignment, phoneme: str
) -> np.ndarray:
    """Concatenate all frames of ``spec`` aligned to ``phoneme``.

    Returns an (n_frames, F) array with frames copied in span order; a
    phoneme that never occurs yields a 0-frame result. Spans reaching past
    the end of the spectrogram are a contract error.
    """
    pieces = []
    for start, end in align.spans(phoneme):
        if end > spec.frames:
            raise AlignmentError(
                f"span [{start}, {end}) for {phoneme!r} exceeds T={spec.frames}"
            )
        pieces.append(spec.values[start:end])
    if not pieces:
        return np.empty((0, spec.bins), dtype=np.float64)
    return np.concatenate(pieces, axis=0)
