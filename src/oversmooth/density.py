"""Distribution diagnostics: per-phoneme KDE marginals/joints and the dip
statistic for multimodality.

The dip statistic follows the classical greatest-convex-minorant /
least-concave-majorant computation on the sorted sample. The majorant is
computed as the minorant of the mirrored sample -x[::-1]: mirroring flips the
sign of both factors of every hull comparison, so each stays exact. Values
respect the theoretical bounds 1/(2n) <= dip <= 1/4; larger values are
stronger evidence of multimodality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError


@dataclass(frozen=True)
class Density1D:
    grid: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class Density2D:
    grid_x: np.ndarray
    grid_y: np.ndarray
    values: np.ndarray  # shape (len(grid_x), len(grid_y))


@dataclass(frozen=True)
class DipResult:
    dip: float
    n: int


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Reference-rule bandwidth 1.06 * std * n**(-1/5)."""
    n = len(samples)
    if n < 2:
        raise ContractError("bandwidth rule needs at least 2 samples")
    sd = float(np.std(samples, ddof=1))
    if sd == 0.0:
        raise ContractError(
            "sample has zero variance; pass an explicit bandwidth"
        )
    return 1.06 * sd * n ** (-0.2)


def _bandwidth(values: np.ndarray, given) -> float:
    """Silverman's rule for ``values`` when ``given`` is None; otherwise
    ``given``, which must be finite and above 0."""
    if given is None:
        return silverman_bandwidth(values)
    h = float(given)
    if not 0.0 < h < np.inf:
        raise ContractError(f"bandwidth must be finite and positive, got {given}")
    return h


def _auto_grid(samples: np.ndarray, h: float, points: int) -> np.ndarray:
    grid = np.linspace(samples.min() - 4.0 * h, samples.max() + 4.0 * h, points)
    if grid[1] - grid[0] > 2.0 * h:  # the trapezoid sum could then be off by over 1.4%
        raise ContractError(f"bandwidth {h} is too small: below half the grid "
                            f"step {grid[1] - grid[0]}")
    return grid


def _finite(values, bandwidth):
    """``values``, or a ContractError naming ``bandwidth`` if one is not finite."""
    if np.all(np.isfinite(values)):
        return values
    raise ContractError(f"bandwidth {bandwidth} is too small: the density overflows")


def _gauss_sum(grid: np.ndarray, samples: np.ndarray, h: float) -> np.ndarray:
    """Sum of Gaussian kernels on ``grid``, bit for bit the sum over
    4,096-sample chunks of ``norm * exp(-0.5 * z * z).sum(axis=0)`` with
    ``z = (grid - chunk[:, None]) / h``.

    Each chunk is evaluated in blocks of rows in two (rows, G) buffers of
    about 512 KB each for a G-point grid (128 rows at G = 512; at least 2
    rows, so 32 * G bytes past G = 32,768): working memory depends on the
    grid length, not on the sample count. numpy reduces a C-ordered axis 0
    row by row, so carrying the running column sum as row 0 of the next
    block adds the rows in the one-shot order.
    """
    out = np.zeros(len(grid))
    norm = _finite(1.0 / (np.sqrt(2.0 * np.pi) * h), h)
    rows = min(len(samples), 4096, max(2, 65536 // max(len(grid), 1)))
    z, k = np.empty((2, rows, len(grid)))
    total = np.empty(len(grid))
    for start in range(0, len(samples), 4096):
        chunk = samples[start : start + 4096]
        lo = carry = 0  # after a chunk's first block, row 0 holds the sum
        while lo < len(chunk):
            block = chunk[lo : lo + rows - carry]
            stop = carry + len(block)
            zb, kb = z[carry:stop], k[carry:stop]
            np.divide(np.subtract(grid, block[:, None], out=zb), h, out=zb)
            np.exp(np.multiply(np.multiply(-0.5, zb, out=kb), zb, out=kb), out=kb)
            if carry:
                k[0] = total
            np.add.reduce(k[:stop], axis=0, out=total)
            lo, carry = lo + len(block), 1
        out += norm * total
    return out


def kde1d(samples, bandwidth: float | None = None) -> Density1D:
    """Gaussian-kernel density estimate of a 1-D sample on 512 points over
    [min - 4h, max + 4h], which keeps the trapezoidal integral within 2% of
    one. A zero-variance sample requires an explicit bandwidth, and one
    below half the grid step, or so small that the density overflows, is a
    ContractError."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    if len(x) < 1:
        raise ContractError("need at least one sample")
    if not np.all(np.isfinite(x)):
        raise ContractError("samples must be finite")
    h = _bandwidth(x, bandwidth)
    g = _auto_grid(x, h, 512)
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is exact; _finite checks the rest
        return Density1D(g, _finite(_gauss_sum(g, x, h) / len(x), h))


def kde2d(pairs, bandwidths: tuple[float, float] | None = None) -> Density2D:
    """Product-Gaussian KDE of an (n, 2) sample on a 128 x 128 grid."""
    p = np.asarray(pairs, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 1:
        raise ContractError("pairs must be a non-empty (n, 2) array")
    if not np.all(np.isfinite(p)):
        raise ContractError("pairs must be finite")
    xs, ys = p[:, 0], p[:, 1]
    given_x, given_y = (None, None) if bandwidths is None else bandwidths
    hx, hy = _bandwidth(xs, given_x), _bandwidth(ys, given_y)
    with np.errstate(divide="ignore", over="ignore"):  # as in kde1d
        norm = _finite(np.float64(1.0) / (2.0 * np.pi * hx * hy), (hx, hy))
        gx = _auto_grid(xs, hx, 128)
        gy = _auto_grid(ys, hy, 128)
        values = np.zeros((len(gx), len(gy)))
        for start in range(0, len(p), 1024):
            cx = xs[start : start + 1024]
            cy = ys[start : start + 1024]
            kx = np.exp(-0.5 * ((gx[None, :] - cx[:, None]) / hx) ** 2)
            ky = np.exp(-0.5 * ((gy[None, :] - cy[:, None]) / hy) ** 2)
            values += kx.T @ ky
        return Density2D(gx, gy, _finite(values * norm / len(p), (hx, hy)))


def _phoneme_blocks(corpus, phoneme: str, bins) -> list[np.ndarray]:
    """The (frames, F) block of every span of ``phoneme``, in corpus order.

    ``corpus`` is an iterable of (Spectrogram, Alignment) pairs. Before any
    block is returned, every index in ``bins`` is checked against [0, F) and
    every span end against T on every utterance.
    """
    blocks = []
    for spec, align in corpus:
        for b in bins:
            if not 0 <= b < spec.bins:
                raise ContractError(f"bin {b} out of range [0, {spec.bins})")
        for start, end in align.spans(phoneme):
            if end > spec.frames:
                raise ContractError(
                    f"span [{start}, {end}) for {phoneme!r} exceeds T={spec.frames}"
                )
            blocks.append(spec.values[start:end])
    if not blocks:
        raise ContractError(f"phoneme {phoneme!r} absent from corpus")
    return blocks


def pooled_phoneme_values(corpus, phoneme: str, bin_index: int) -> np.ndarray:
    """All values at one bin over every span of a phoneme, corpus-pooled."""
    blocks = _phoneme_blocks(corpus, phoneme, (bin_index,))
    return np.concatenate([block[:, bin_index] for block in blocks])


def phoneme_joint(corpus, phoneme: str, kind: str, first: int, second: int,
                  bandwidths: tuple[float, float] | None = None) -> Density2D:
    """Joint KDE of two grid positions conditioned on a phoneme.

    ``kind`` selects the pairing: "freq" pairs bins ``first`` and ``second``
    of the same frame, "time" pairs bin ``first`` at frames t and
    t + ``second`` (the lag). Time pairs never cross span boundaries, so
    both frames are guaranteed to carry the same phoneme.
    """
    if kind == "freq":
        bins = [first, second]
        pairs = [block[:, bins] for block in _phoneme_blocks(corpus, phoneme, bins)]
    elif kind == "time":
        if second < 1:
            raise ContractError("lag must be >= 1")
        pairs = [np.column_stack([block[:-second, first], block[second:, first]])
                 for block in _phoneme_blocks(corpus, phoneme, (first,))]
    else:
        raise ContractError(f"unknown joint kind {kind!r}")
    pairs = np.concatenate(pairs)
    if len(pairs) == 0:
        raise ContractError(f"no within-span pairs for {phoneme!r} with "
                      f"{kind}:{first},{second}")
    return kde2d(pairs, bandwidths)


def _minorant_links(x: list) -> list:
    """links[j]: start of the ECDF's greatest-convex-minorant segment ending at j."""
    links = [0] * len(x)
    for j in range(1, len(x)):
        a = j - 1
        while a:
            b = links[a]
            if (x[j] - x[a]) * (a - b) < (x[a] - x[b]) * (j - a):
                break
            a = b
        links[j] = a
    return links


def _ecdf_gap(x: list, hull: list, upper: bool) -> float:
    """Largest deviation, in samples, of the ECDF above (``upper``) or below
    the segments of an ascending hull; 0.0 when the hull is one vertex."""
    gap = 1.0 if len(hull) > 1 else 0.0
    for jb, je in zip(hull, hull[1:]):
        if je - jb > 1 and x[je] != x[jb]:
            c = (je - jb) / (x[je] - x[jb])
            for jj in range(jb, je + 1):
                d = (x[jj] - x[jb]) * c
                t = d - (jj - jb - 1) if upper else (jj - jb + 1) - d
                if gap < t:
                    gap = t
    return gap


def _dip_sorted(x: np.ndarray) -> float:
    """Raw dip, already divided by 2n, of a sorted sample with n >= 4 and
    x[0] != x[-1]: both hulls are refitted over a shrinking modal interval."""
    # Plain Python floats and lists: the loops index one element at a time,
    # which numpy scalars make several times slower, with the same values.
    x = x.tolist()
    n = len(x)
    low, high = 0, n - 1
    d_best = 0.0

    mn = _minorant_links(x)
    # mj[k]: end of the concave-majorant segment starting at k.
    mj = [n - 1 - v for v in reversed(_minorant_links([-v for v in reversed(x)]))]

    while True:
        gcm = [high]
        while gcm[-1] > low:
            gcm.append(mn[gcm[-1]])
        ig = l_gcm = len(gcm) - 1
        ix = ig - 1
        lcm = [low]
        while lcm[-1] < high:
            lcm.append(mj[lcm[-1]])
        ih = l_lcm = len(lcm) - 1
        iv = 1

        d = 0.0
        if l_gcm != 1 or l_lcm != 1:
            # Largest distance between the two hulls.
            while True:
                gcmix = gcm[ix]
                lcmiv = lcm[iv]
                if gcmix > lcmiv:
                    gcmi1 = gcm[ix + 1]
                    dx = (lcmiv - gcmi1 + 1) - (x[lcmiv] - x[gcmi1]) * (
                        gcmix - gcmi1
                    ) / (x[gcmix] - x[gcmi1])
                    iv += 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv - 1
                else:
                    lcmiv1 = lcm[iv - 1]
                    dx = (x[gcmix] - x[lcmiv1]) * (lcmiv - lcmiv1) / (
                        x[lcmiv] - x[lcmiv1]
                    ) - (gcmix - lcmiv1 - 1)
                    ix -= 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv
                if ix < 0:
                    ix = 0
                if iv > l_lcm:
                    iv = l_lcm
                if gcm[ix] == lcm[iv]:
                    break
        if d < d_best:
            break

        d_best = max(d_best, _ecdf_gap(x, gcm[ig:][::-1], False),
                     _ecdf_gap(x, lcm[ih:], True))
        if low == gcm[ig] and high == lcm[ih]:
            break
        low = gcm[ig]
        high = lcm[ih]
    return d_best / (2.0 * n)


def dip_statistic(samples) -> DipResult:
    """Hartigan-Hartigan dip of a sample's empirical CDF.

    The result is clamped into the theoretical range [1/(2n), 1/4], which
    also covers the degenerate n = 2 and n = 3 cases where every sample is
    exactly 1/(2n) away from some unimodal CDF.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = len(x)
    if n < 2:
        raise ContractError("dip needs at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise ContractError("samples must be finite")
    if n < 4 or x[0] == x[-1]:
        raw = 0.0
    else:
        raw = _dip_sorted(x)
    return DipResult(float(min(max(raw, 0.5 / n), 0.25)), n)

