import struct
from pathlib import Path

import numpy as np


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


def write_alignment(align, path) -> None:
    """Write ``align`` as the TSV that ``core.read_alignment`` parses."""
    lines = [f"{e.label}\t{e.start}\t{e.end}" for e in align.entries]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                          encoding="utf-8")
