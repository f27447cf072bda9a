"""Least-squares adversarial losses with multiple random-window critics.

A grid is clipped into three windows of different lengths, each scored by its
own tiny 2-D convolutional discriminator. Only the loss/score/gradient math
lives here; the (deliberately unguaranteed) adversarial training demo sits in
the toy lab.
"""

from __future__ import annotations

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
    mean pool and an affine map to one scalar score.

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


def _conv_pad(x: np.ndarray) -> np.ndarray:
    return np.pad(x, ((0, 0), (1, 1), (1, 1)))


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    padded = _conv_pad(x)
    view = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
    view = view[:, ::2, ::2]
    out = np.einsum("ihwkl,oikl->ohw", view, w) + b[:, None, None]
    return out, view, padded.shape


def _conv_backward(d_out, view, pad_shape, w):
    d_w = np.einsum("ohw,ihwkl->oikl", d_out, view)
    d_b = d_out.sum(axis=(1, 2))
    d_pad = np.zeros(pad_shape)
    hp, wp = d_out.shape[1:]
    for ki in range(3):
        for kj in range(3):
            contrib = np.einsum("ohw,oi->ihw", d_out, w[:, :, ki, kj])
            d_pad[:, ki : ki + 2 * hp : 2, kj : kj + 2 * wp : 2] += contrib
    return d_w, d_b, d_pad[:, 1:-1, 1:-1]


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
    h = clip[None, :, :]
    caches = []
    for w, b in zip(disc.conv_w, disc.conv_b):
        pre, view, pad_shape = _conv_forward(h, w, b)
        h = np.where(pre > 0, pre, LEAKY_SLOPE * pre)
        caches.append((pre, view, pad_shape))
    pooled = h.mean(axis=(1, 2))
    score = float(disc.out_w @ pooled + disc.out_b)
    if not want_grads:
        return score, None

    grads = {"conv_w": [], "conv_b": [], "out_w": pooled.copy(), "out_b": 1.0}
    cells = h.shape[1] * h.shape[2]
    d_h = np.broadcast_to(
        disc.out_w[:, None, None] / cells, h.shape
    ).copy()
    for (pre, view, pad_shape), w in zip(reversed(caches), reversed(disc.conv_w)):
        d_pre = d_h * np.where(pre > 0, 1.0, LEAKY_SLOPE)
        d_w, d_b, d_h = _conv_backward(d_pre, view, pad_shape, w)
        grads["conv_w"].insert(0, d_w)
        grads["conv_b"].insert(0, d_b)
    grads["clip"] = d_h[0]
    grads["params"] = np.concatenate([*(g.ravel() for g in grads["conv_w"]),
                                      *grads["conv_b"], pooled, [1.0]])
    return score, grads

