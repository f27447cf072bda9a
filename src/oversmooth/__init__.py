"""Quantify and reproduce over-smoothing in spectrogram prediction.

Submodules:

* :mod:`oversmooth.core` - value types, seeded RNG streams, MEL1/TSV I/O
* :mod:`oversmooth.dsp` - WAV -> STFT -> log-mel front end
* :mod:`oversmooth.metrics` - Laplacian-response variance and SSIM
* :mod:`oversmooth.density` - per-phoneme KDE marginals/joints, dip statistic
* :mod:`oversmooth.probloss` - per-cell Laplace mixtures
* :mod:`oversmooth.flow` - conditional normalizing flow with exact NLL
* :mod:`oversmooth.gan` - LSGAN losses and random-window discriminators
* :mod:`oversmooth.toylab` - synthetic one-to-many generation experiments
* :mod:`oversmooth.cli` - the ``oversmooth`` command
"""

from ._version import __version__
from .core import (
    Alignment,
    AlignmentEntry,
    ContractError,
    SeededRng,
    Spectrogram,
    read_alignment,
    read_mel,
    write_mel,
)

__all__ = [
    "__version__",
    "Alignment",
    "AlignmentEntry",
    "ContractError",
    "SeededRng",
    "Spectrogram",
    "read_alignment",
    "read_mel",
    "write_mel",
]
