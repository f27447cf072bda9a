"""Least-squares adversarial losses with multiple random-window critics.

A grid is clipped into three windows of different lengths, each scored by its
own tiny 2-D convolutional discriminator, whose convolutions are one gather
of 3x3 taps into columns and one matrix product each (im2col). Only the
loss/score/gradient math lives here; the (deliberately unguaranteed)
adversarial training demo sits in the toy lab.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import ContractError, SeededRng, Spectrogram, flat_views

LEAKY_SLOPE = 0.2
MIN_CLIP_SIDE = 8  # receptive footprint of the three stride-2 stages
_STAGE_CHANNELS = (4, 8, 16)


@dataclass(frozen=True)
class WindowSpec:
    """Three window lengths in frames; each clip is clamped to the grid."""

    lengths: tuple[int, int, int] = (32, 64, 128)

    def __post_init__(self):
        if len(self.lengths) != 3:
            raise ContractError("exactly 3 window lengths are required")
        if any(length < 1 for length in self.lengths):
            raise ContractError("window lengths must be positive")


def random_windows(spec, windows: WindowSpec, rng: SeededRng):
    """Clip the grid into 3 random windows along time, full bins retained.

    Clip i has min(lengths[i], T) frames at an offset uniform over the valid
    starts, so a fixed (seed, stream) reproduces the same offsets. Returns
    (clips, offsets): the clips and the first frame of each.
    """
    values = spec.values if isinstance(spec, Spectrogram) else np.asarray(spec)
    t = values.shape[0]
    clips, offsets = [], []
    for length in windows.lengths:
        size = min(length, t)
        offset = int(rng.integers(0, t - size + 1))
        clips.append(values[offset : offset + size].copy())
        offsets.append(offset)
    return clips, offsets


def _score_sets(sets, expected=3) -> list[np.ndarray]:
    sets = [np.asarray(s, dtype=np.float64).ravel() for s in sets]
    if len(sets) != expected:
        raise ContractError(f"expected {expected} score sets, got {len(sets)}")
    if any(len(s) == 0 for s in sets):
        raise ContractError("score sets must be non-empty")
    return sets


def lsgan_d_loss(real_scores, fake_scores) -> float:
    """Sum over critics of mean (real - 1)^2 + mean fake^2."""
    real = _score_sets(real_scores)
    fake = _score_sets(fake_scores)
    return float(
        sum(np.mean((r - 1.0) ** 2) + np.mean(f**2) for r, f in zip(real, fake))
    )


def lsgan_g_loss(fake_scores) -> float:
    """Mean over critics of mean (fake - 1)^2."""
    fake = _score_sets(fake_scores)
    return float(np.mean([np.mean((f - 1.0) ** 2) for f in fake]))


@dataclass
class TinyDiscriminator:
    """Three stride-2 3x3 conv stages with leaky activations, then a global
    mean pool and an affine map to one scalar score. A stage multiplies its
    (c_out, c_in*9) kernel matrix by the (c_in*9, cells) gathered taps of its
    zero-padded input; backward, a ``bincount`` sums tap gradients per cell.

    Normalization and dropout act as evaluation-time no-ops, so scoring is
    deterministic; training-time dropout belongs to the demo loop.

    The parameter arrays are views into one vector, ``params``, laid out as
    every ``conv_w``, every ``conv_b``, ``out_w``, then ``out_b``.
    """

    conv_w: list[np.ndarray]  # (c_out, c_in, 3, 3) per stage
    conv_b: list[np.ndarray]
    out_w: np.ndarray  # (c_last,)
    out_b: np.ndarray  # 0-d
    params: np.ndarray

    @classmethod
    def random(cls, rng: SeededRng, weight_scale: float = 0.1) -> "TinyDiscriminator":
        c_ins = (1,) + _STAGE_CHANNELS[:-1]
        params, views = flat_views(
            [(c_out, c_in, 3, 3) for c_out, c_in in zip(_STAGE_CHANNELS, c_ins)]
            + [(c_out,) for c_out in _STAGE_CHANNELS]
            + [(_STAGE_CHANNELS[-1],), ()])
        conv_w, conv_b, (out_w, out_b) = views[:3], views[3:6], views[6:]
        for w in conv_w + [out_w]:
            w[...] = weight_scale * rng.normal(size=w.shape)
        return cls(conv_w, conv_b, out_w, out_b, params)


@functools.lru_cache(maxsize=32)
def _tap_index(c_in: int, h: int, w: int) -> np.ndarray:
    """Flat indices of every stride-2 3x3 tap of a (c_in, h, w) input, as a
    read-only (c_in*9, ho*wo) array whose rows follow the kernel layout
    (c_in, 3, 3). Taps on the one-cell zero padding index the zero appended
    after the flattened input, at position c_in*h*w."""
    ho, wo = (h + 1) // 2, (w + 1) // 2
    r = (2 * np.arange(ho) + np.arange(3)[:, None] - 1)[:, None, :, None]
    c = (2 * np.arange(wo) + np.arange(3)[:, None] - 1)[None, :, None, :]
    inside = (r >= 0) & (r < h) & (c >= 0) & (c < w)
    chan = (h * w) * np.arange(c_in)[:, None, None, None, None]
    idx = np.where(inside, chan + r * w + c, c_in * h * w).reshape(-1, ho * wo)
    idx.flags.writeable = False
    return idx


def discriminator_score(disc: TinyDiscriminator, clip: np.ndarray) -> float:
    """Deterministic scalar score for one clip (frames x bins)."""
    score, _ = discriminator_score_and_grads(disc, clip, want_grads=False)
    return score


def discriminator_score_and_grads(disc: TinyDiscriminator, clip: np.ndarray,
                                  want_grads: bool = True):
    """Score plus gradients w.r.t. every parameter and the clip itself.

    Returns ``(score, grads)`` where grads is None when not requested,
    otherwise a dict with ``conv_w``, ``conv_b``, ``out_w``, ``out_b``, and
    ``clip`` entries, plus ``params``: the parameter gradients as one vector
    laid out like ``disc.params``.
    """
    clip = np.asarray(clip, dtype=np.float64)
    if clip.ndim != 2:
        raise ContractError("clip must be a 2-D grid")
    if min(clip.shape) < MIN_CLIP_SIDE:
        raise ContractError(
            f"clip {clip.shape} smaller than the receptive footprint "
            f"({MIN_CLIP_SIDE}x{MIN_CLIP_SIDE})"
        )
    x, shape = clip.reshape(1, -1), (1, *clip.shape)  # x: (channels, cells)
    caches = []
    for w, b in zip(disc.conv_w, disc.conv_b):
        idx = _tap_index(*shape)
        cols = np.append(x, 0.0)[idx]
        pre = w.reshape(len(w), -1) @ cols + b[:, None]
        caches.append((w, idx, cols, pre, x.size))
        x = np.where(pre > 0, pre, LEAKY_SLOPE * pre)
        shape = (len(w), (shape[1] + 1) // 2, (shape[2] + 1) // 2)
    pooled = x.mean(axis=1)
    score = float(disc.out_w @ pooled + disc.out_b)
    if not want_grads:
        return score, None

    grads = {"conv_w": [], "conv_b": [], "out_w": pooled.copy(), "out_b": 1.0}
    d_x = np.broadcast_to(disc.out_w[:, None] / x.shape[1], x.shape)
    for w, idx, cols, pre, size in reversed(caches):
        d_pre = d_x.reshape(pre.shape) * np.where(pre > 0, 1.0, LEAKY_SLOPE)
        grads["conv_w"].insert(0, (d_pre @ cols.T).reshape(w.shape))
        grads["conv_b"].insert(0, d_pre.sum(axis=1))
        d_cols = w.reshape(len(w), -1).T @ d_pre
        d_x = np.bincount(idx.ravel(), d_cols.ravel(), size + 1)[:size]
    grads["clip"] = d_x.reshape(clip.shape)
    grads["params"] = np.concatenate([*(g.ravel() for g in grads["conv_w"]),
                                      *grads["conv_b"], pooled, [1.0]])
    return score, grads

