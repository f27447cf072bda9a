"""Shared value types, deterministic randomness, and spectrogram/alignment I/O.

The two on-disk formats defined here are the interchange contract for the
whole package:

* ``MEL1`` binary spectrograms: magic ``b"MEL1"``, u32-LE frame count T,
  u32-LE bin count F, then T*F little-endian IEEE-754 32-bit floats in
  time-major (row-major) order. The flow's ``FLW2`` checkpoints use the same
  envelope (:func:`write_binary`, :func:`read_binary`) with a longer header.
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

    The one error type for rejected input: its message names the problem.
    The CLI maps it to exit code 2; anything else is an internal error.
    """


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
                raise ContractError(f"negative start frame in {e.label!r}")
            if e.start >= e.end:
                raise ContractError(
                    f"empty span for {e.label!r}: [{e.start}, {e.end})"
                )
            if prev_end is not None and e.start < prev_end:
                raise ContractError(
                    f"overlapping span for {e.label!r} starting at {e.start}"
                )
            prev_end = e.end
        object.__setattr__(self, "entries", entries)

    def spans(self, label: str) -> list[tuple[int, int]]:
        """Frame spans [start, end) carrying ``label``, in order."""
        return [(e.start, e.end) for e in self.entries if e.label == label]


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class SeededRng(np.random.Generator):
    """Deterministic random stream addressed by (seed, stream).

    A numpy Generator over the counter-based Philox bit generator keyed with
    the 128-bit word ``stream << 64 | seed``, so identical (seed, stream)
    pairs replay identical draw sequences across runs and platforms. Parallel
    work should derive one substream per task via :meth:`substream` instead
    of sharing an instance.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        super().__init__(np.random.Philox(key=(self.stream << 64) | self.seed))

    def substream(self, label: int) -> "SeededRng":
        """A statistically independent stream for the same seed.

        The label is mixed into the current stream id with a splitmix64
        round, so nested derivations stay collision-resistant.
        """
        mixed = _splitmix64(self.stream ^ _splitmix64(int(label) & _MASK64))
        return SeededRng(self.seed, mixed)

    def categorical(self, weights, size) -> np.ndarray:
        """Indices drawn by ``weights`` along their last axis, K entries.

        Draws ``size`` uniforms; each pick counts the cumulative weights its
        uniform reaches, clamped to K - 1 so that a cumulative sum rounding
        below 1 still picks a valid index. Weights of shape (..., K) need a
        ``size`` ending in their leading shape.
        """
        cdf = np.cumsum(weights, axis=-1)
        u = self.uniform(size=size)
        return np.minimum((u[..., None] >= cdf).sum(axis=-1), cdf.shape[-1] - 1)


class Adam:
    """Adam (Kingma & Ba, 2015) on one parameter array of ``size`` (an int
    or a shape), updated in place."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size, step_size: float):
        self.step_size = step_size
        self.m, self.v, self._tmp, self._den = np.zeros((4, *np.atleast_1d(size)))
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Update ``theta`` in place with gradient ``grad``, allocating nothing."""
        self.t += 1
        m, v, tmp, den = self.m, self.v, self._tmp, self._den
        m *= self.beta1
        m += np.multiply(1 - self.beta1, grad, out=tmp)
        v *= self.beta2
        v += np.multiply(np.multiply(1 - self.beta2, grad, out=tmp), grad, out=tmp)
        np.divide(m, 1 - self.beta1**self.t, out=tmp)  # m_hat
        tmp *= self.step_size
        np.sqrt(np.divide(v, 1 - self.beta2**self.t, out=den), out=den)
        den += self.eps
        theta -= np.divide(tmp, den, out=tmp)


def write_binary(path, magic: bytes, header, values) -> None:
    """Write ``magic``, ``header`` as u32-LE words, then ``values`` as
    little-endian float32; a value that float32 cannot hold finitely is an
    error, raised before the file is opened."""
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(values, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        raise ContractError(f"{path}: values must be finite in float32 "
                            f"(|v| <= {np.finfo(np.float32).max:.4g})")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<{len(header)}I", *header))
        fh.write(payload.tobytes())


def read_binary(path, magic: bytes, words: int, floats):
    """Read a file written by :func:`write_binary` with a ``words``-word
    header; returns (header, float32 payload).

    ``floats(header)`` gives the payload length the header implies, or
    raises :class:`ContractError` for a header it rejects; it runs before
    anything is allocated, and its message is re-raised behind the
    ``{path}:`` prefix. Any other payload size, and a payload holding a NaN
    or infinity, is also a :class:`ContractError`.
    """
    data = Path(path).read_bytes()
    start = 4 + 4 * words
    if len(data) < start:
        raise ContractError(f"{path}: truncated header ({len(data)} bytes)")
    if data[:4] != magic:
        raise ContractError(f"{path}: expected magic {magic!r}, got {data[:4]!r}")
    header = struct.unpack(f"<{words}I", data[4:start])
    try:
        expected = 4 * floats(header)
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from None
    if len(data) - start != expected:
        raise ContractError(
            f"{path}: payload is {len(data) - start} bytes, header implies {expected}"
        )
    payload = np.frombuffer(data, dtype="<f4", offset=start)
    if not np.all(np.isfinite(payload)):
        raise ContractError(f"{path}: payload contains non-finite values")
    return header, payload


def write_mel(spec: Spectrogram, path) -> None:
    """Write a spectrogram in the MEL1 binary format.

    Values are stored as 32-bit floats; inputs already representable in
    float32 round-trip bit-exactly.
    """
    write_binary(path, MEL_MAGIC, (spec.frames, spec.bins), spec.values)


def _mel_floats(header) -> int:
    t, f = header
    if t < 1 or f < 1:
        raise ContractError(f"invalid dimensions {t}x{f}")
    return t * f


def read_mel(path) -> Spectrogram:
    """Read a MEL1 file written by :func:`write_mel`."""
    (t, f), payload = read_binary(path, MEL_MAGIC, 2, _mel_floats)
    return Spectrogram(payload.reshape(t, f).astype(np.float64))


def read_alignment(path) -> Alignment:
    """Parse an alignment TSV file (``label<TAB>start<TAB>end`` per line)."""
    entries = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ContractError(f"{path}:{lineno}: expected 3 tab-separated fields")
        label, start_s, end_s = parts
        try:
            start, end = int(start_s), int(end_s)
        except ValueError:
            raise ContractError(
                f"{path}:{lineno}: frame fields must be integers, got "
                f"{start_s!r}, {end_s!r}"
            ) from None
        entries.append(AlignmentEntry(label, start, end))
    return Alignment(tuple(entries))
