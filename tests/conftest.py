import base64
import struct
import xml.etree.ElementTree as ET
import zlib
from pathlib import Path

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
PNG_PREFIX = "data:image/png;base64,"


def wav_bytes(samples_i16, rate=22050, channels=1, bits=16, audio_format=1):
    body = np.asarray(samples_i16, dtype="<i2").tobytes()
    block = channels * bits // 8
    return (
        b"RIFF"
        + struct.pack("<I", 36 + len(body))
        + b"WAVEfmt "
        + struct.pack("<IHHIIHH", 16, audio_format, channels, rate,
                      rate * block, block, bits)
        + b"data"
        + struct.pack("<I", len(body))
        + body
    )


def random_sign_prototypes(n_modes, seed):
    """Four conditions, each a list of ``n_modes`` random +-1 8x8 prototypes
    whose rows at each position differ between the condition's prototypes:
    a row that two modes share tells the row after it nothing of the mode."""
    rng = np.random.default_rng(seed)
    rows = 2.0 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1.0
    return [list(rows[np.stack([rng.choice(256, n_modes, replace=False)
                                for _ in range(8)], axis=1)])
            for _ in range(4)]


def reflect_indices(n, lo, hi):
    """Indices lo..hi-1 reflected into [0, n) without repeating edges, the
    index-array rule the front end padded with before it used np.pad."""
    period = max(2 * (n - 1), 1)  # n == 1 maps every index to 0
    idx = np.abs(np.arange(lo, hi)) % period
    return np.where(idx >= n, period - idx, idx)


def write_alignment(align, path) -> None:
    """Write ``align`` as the TSV that ``core.read_alignment`` parses."""
    lines = [f"{e.label}\t{e.start}\t{e.end}" for e in align.entries]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                          encoding="utf-8")


def decode_png(data: bytes) -> np.ndarray:
    """Pixels of an 8-bit RGB, non-interlaced PNG whose rows all use filter
    type 0, as a (height, width, 3) uint8 array, top row first.

    Checks the signature, every chunk's CRC, the IHDR fields and that IEND
    comes last; anything else fails an assertion."""
    assert data[:8] == PNG_SIGNATURE
    pos, chunks = 8, []
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        assert len(body) == length and crc == zlib.crc32(tag + body), tag
        chunks.append((tag, body))
        pos += 12 + length
    assert pos == len(data)
    assert chunks[0][0] == b"IHDR" and chunks[-1] == (b"IEND", b"")
    width, height, depth, color_type, compression, filtering, interlace = \
        struct.unpack(">IIBBBBB", chunks[0][1])
    assert (depth, color_type, compression, filtering, interlace) == \
        (8, 2, 0, 0, 0)
    raw = zlib.decompress(b"".join(b for t, b in chunks if t == b"IDAT"))
    rows = np.frombuffer(raw, np.uint8).reshape(height, 1 + 3 * width)
    assert not rows[:, 0].any(), "every row must use filter type 0"
    return rows[:, 1:].reshape(height, width, 3)


def heatmap_pixels(svg: str) -> np.ndarray:
    """The one ``<image>`` of a heatmap SVG, decoded: (rows, cols, 3) uint8
    with matrix row 0 first, i.e. the image flipped upside down."""
    images = list(ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}image"))
    assert len(images) == 1
    href = images[0].get("href")
    assert images[0].get("preserveAspectRatio") == "none"
    assert images[0].get("style") == "image-rendering:pixelated"
    assert href.startswith(PNG_PREFIX)
    return decode_png(base64.b64decode(href[len(PNG_PREFIX):],
                                       validate=True))[::-1]
