"""Grid losses: MAE/MSE, SSIM loss, and per-cell Laplace mixtures.

A mixture field holds, for every grid cell, K mixture weights, location
parameters, and scale parameters of Laplace components. Cells are modeled
independently; the per-cell density is multimodal. The scale floor keeps
log-likelihoods finite and gives degenerate fits a well-defined optimum.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics
from .core import BadMagic, ContractError, FormatError, SeededRng, Spectrogram, as_grid

BETA_FLOOR = 1e-3
LMF_MAGIC = b"LMF1"


def elementwise_loss(kind: str, pred, target) -> float:
    """Mean absolute (``"mae"``) or mean squared (``"mse"``) error."""
    p, t = as_grid(pred), as_grid(target)
    if p.shape != t.shape:
        raise ContractError(f"shape mismatch {p.shape} vs {t.shape}")
    delta = p - t
    if kind == "mae":
        return float(np.mean(np.abs(delta)))
    if kind == "mse":
        return float(np.mean(delta * delta))
    raise ContractError(f"unknown loss kind {kind!r}")


def ssim_loss(pred, target, cfg: metrics.SsimConfig | None = None) -> float:
    """1 - mean SSIM; zero iff the grids are identical."""
    return 1.0 - metrics.ssim(pred, target, cfg)


@dataclass(frozen=True)
class LaplaceMixtureField:
    """Per-cell K-component Laplace mixture parameters.

    All three arrays have shape (T, F, K). Weights sum to one per cell and
    scales respect the floor.
    """

    pi: np.ndarray
    mu: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        beta = np.asarray(self.beta, dtype=np.float64)
        if not (pi.shape == mu.shape == beta.shape) or pi.ndim != 3:
            raise ContractError("pi, mu, beta must share a (T, F, K) shape")
        if not (np.all(np.isfinite(pi)) and np.all(np.isfinite(mu))
                and np.all(np.isfinite(beta))):
            raise ContractError("mixture parameters must be finite")
        if np.any(np.abs(pi.sum(axis=2) - 1.0) > 1e-6) or np.any(pi < 0):
            raise ContractError("weights must be non-negative and sum to 1 per cell")
        if np.any(beta < BETA_FLOOR * (1 - 1e-12)):
            raise ContractError(f"scales must be >= {BETA_FLOOR}")
        for name, arr in (("pi", pi), ("mu", mu), ("beta", beta)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.pi.shape[:2]

    @property
    def components(self) -> int:
        return self.pi.shape[2]


@dataclass
class UnconstrainedMixtureParams:
    """Optimization-space parameters: logits, raw locations, raw scales.

    Weights come from a softmax over ``logits``; scales from
    softplus(raw_scale) + floor. All arrays are (T, F, K).
    """

    logits: np.ndarray
    mu: np.ndarray
    raw_scale: np.ndarray

    def constrain(self) -> LaplaceMixtureField:
        return LaplaceMixtureField(
            _softmax(self.logits), self.mu.copy(), _softplus(self.raw_scale) + BETA_FLOOR
        )


def _fold(ufunc, parts):
    """``ufunc`` applied left to right over per-component arrays.

    Mixtures keep K small, and numpy's max or sum reduction over a short
    trailing axis costs far more per element than K - 1 elementwise calls.
    For K < 8 numpy reduces such an axis left to right too, so the values
    are the same; from K = 8 on its pairwise summation can differ in the
    last bits.
    """
    out = parts[0]
    for part in parts[1:]:
        out = ufunc(out, part)
    return out


def _log_sum_exp(comps):
    """Log-sum-exp over the list of component terms ``comps``.

    Returns (log-sum-exp, [exp(comp - top) per component], their sum). A
    cell where every term is -inf gets a log-density of -inf.
    """
    top = _fold(np.maximum, comps)
    if not np.isfinite(top).all():
        top = np.where(np.isfinite(top), top, 0.0)
    shifted = [np.exp(comp - top) for comp in comps]
    total = _fold(np.add, shifted)
    return top + np.log(total), shifted, total


def _softmax(a: np.ndarray) -> np.ndarray:
    _, e, total = _log_sum_exp([a[..., j] for j in range(a.shape[-1])])
    return np.stack([part / total for part in e], axis=-1)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _inv_softplus(v: np.ndarray) -> np.ndarray:
    # softplus(s) = v  =>  s = v + log(1 - exp(-v))
    v = np.asarray(v, dtype=np.float64)
    return v + np.log1p(-np.exp(-v))


def _targets_3d(target) -> np.ndarray:
    """Accept one (T, F) grid or a stack (n, T, F); return the stack."""
    if isinstance(target, Spectrogram):
        return target.values[None, :, :]
    arr = np.asarray(target, dtype=np.float64)
    if arr.ndim == 2:
        return arr[None, :, :]
    if arr.ndim == 3:
        return arr
    raise ContractError("target must be (T, F) or (n, T, F)")


def _component_terms(pi, mu, beta, targets):
    """Per-component log pi - log(2 beta) - |y - mu| / beta, with y - mu and
    |y - mu|: lists of one (T, F, n) array per component.

    Samples go last so that per-cell parameters broadcast along contiguous
    rows of samples.
    """
    y = np.ascontiguousarray(np.moveaxis(targets, 0, -1))
    with np.errstate(divide="ignore"):
        offset = (np.log(pi) - np.log(2.0 * beta))[..., None]
    mu, beta = mu[..., None], beta[..., None]
    comps, diffs, absdiffs = [], [], []
    for j in range(pi.shape[-1]):
        diff = y - mu[:, :, j]
        absdiff = np.abs(diff)
        comp = np.divide(absdiff, beta[:, :, j])
        np.subtract(offset[:, :, j], comp, out=comp)
        comps.append(comp)
        diffs.append(diff)
        absdiffs.append(absdiff)
    return comps, diffs, absdiffs


def lm_log_density(field: LaplaceMixtureField, target) -> np.ndarray:
    """Per-cell log-density of targets under the field, shape (n, T, F)."""
    targets = _targets_3d(target)
    if targets.shape[1:] != field.shape:
        raise ContractError(
            f"target grid {targets.shape[1:]} does not match field {field.shape}"
        )
    comps, _, _ = _component_terms(field.pi, field.mu, field.beta, targets)
    return np.ascontiguousarray(np.moveaxis(_log_sum_exp(comps)[0], -1, 0))


def lm_nll(field: LaplaceMixtureField, target) -> float:
    """Mean negative log-likelihood of grid values under the mixture field.

    ``target`` is a single (T, F) grid or an (n, T, F) stack; stacks are
    averaged over samples as well as cells.
    """
    return float(-np.mean(lm_log_density(field, target)))


def lm_nll_naive(field: LaplaceMixtureField, target) -> float:
    """Direct-probability evaluation, for cross-checking the stabilized path."""
    targets = _targets_3d(target)
    y = targets[..., None]
    dens = field.pi * np.exp(-np.abs(y - field.mu) / field.beta) / (2.0 * field.beta)
    return float(-np.mean(np.log(dens.sum(axis=-1))))


def lm_nll_grad(params: UnconstrainedMixtureParams, target):
    """NLL and its analytic gradient w.r.t. the unconstrained parameters.

    Returns ``(nll, grads)`` with ``grads`` an UnconstrainedMixtureParams
    holding the partials. The location sub-gradient at |y - mu| = 0 is 0.
    """
    targets = _targets_3d(target)
    t, f, k = params.logits.shape
    if targets.shape[1:] != (t, f):
        raise ContractError("target shape does not match parameters")
    if not (np.all(np.isfinite(params.logits)) and np.all(np.isfinite(params.mu))
            and np.all(np.isfinite(params.raw_scale))):
        raise ContractError("parameters must be finite")
    n = targets.shape[0]
    pi = _softmax(params.logits)  # (T, F, K)
    beta = _softplus(params.raw_scale) + BETA_FLOOR
    sig = 1.0 / (1.0 + np.exp(-params.raw_scale))  # d beta / d raw_scale

    comps, diffs, absdiffs = _component_terms(pi, params.mu, beta, targets)
    lse, shifted, total = _log_sum_exp(comps)
    nll = float(-np.mean(lse))

    # Per component, sums over samples of the responsibility r, of
    # r * sign(y - mu) and of r * |y - mu|; 1/beta is applied after the sum.
    resp_sum, sign_sum, abs_sum = [], [], []
    for resp, diff, absdiff in zip(shifted, diffs, absdiffs):
        np.divide(resp, total, out=resp)
        resp_sum.append(resp.sum(axis=-1))
        np.multiply(absdiff, resp, out=absdiff)
        abs_sum.append(absdiff.sum(axis=-1))
        np.sign(diff, out=diff)
        np.multiply(diff, resp, out=diff)
        sign_sum.append(diff.sum(axis=-1))
    resp_sum, sign_sum, abs_sum = (np.stack(parts, axis=-1) for parts in
                                   (resp_sum, sign_sum, abs_sum))
    count = n * t * f
    g_logits = (n * pi - resp_sum) / count
    g_mu = -sign_sum / beta / count
    g_scale = (resp_sum / beta - abs_sum / beta**2) * sig / count
    if not np.isfinite(nll):
        raise ContractError("non-finite loss; parameters out of range")
    return nll, UnconstrainedMixtureParams(g_logits, g_mu, g_scale)


def laplace_inverse_cdf(u, mu, beta):
    """Quantile function of the Laplace distribution, u in (0, 1)."""
    u = np.asarray(u, dtype=np.float64)
    shifted = u - 0.5
    return mu - beta * np.sign(shifted) * np.log1p(-2.0 * np.abs(shifted))


def lm_sample_stack(field: LaplaceMixtureField, rng: SeededRng,
                    count: int) -> np.ndarray:
    """Draw ``count`` grids in one vectorized pass, shape (count, T, F)."""
    t, f = field.shape
    k = field.components
    u_comp = rng.uniform(size=(count, t, f))
    cdf = np.cumsum(field.pi, axis=-1)
    choice = (u_comp[..., None] >= cdf).sum(axis=-1)
    choice = np.minimum(choice, k - 1)
    idx_t, idx_f = np.meshgrid(np.arange(t), np.arange(f), indexing="ij")
    mu = field.mu[idx_t, idx_f, choice]
    beta = field.beta[idx_t, idx_f, choice]
    tiny = np.finfo(np.float64).tiny
    u = np.clip(rng.uniform(size=(count, t, f)), tiny, 1.0 - 1e-16)
    return laplace_inverse_cdf(u, mu, beta)


def lm_sample(field: LaplaceMixtureField, rng: SeededRng) -> np.ndarray:
    """Draw one grid: per cell, pick a component by weight, then an
    inverse-CDF Laplace draw from it."""
    return lm_sample_stack(field, rng, 1)[0]


def _rprop_step(value, grad, prev_sign, delta, shrink=0.5, grow=1.2,
                d_min=1e-12, d_max=1.0):
    """One iRPROP- update in place; returns the new gradient signs."""
    sign = np.sign(grad)
    agree = sign * prev_sign
    delta *= np.where(agree > 0, grow, np.where(agree < 0, shrink, 1.0))
    np.clip(delta, d_min, d_max, out=delta)
    sign = np.where(agree < 0, 0.0, sign)  # skip the move after a flip
    value -= sign * delta
    return sign


def fit_lm(samples, k: int, steps: int = 400, step_size: float = 0.02,
           seed: int = 0, restarts: int = 5) -> LaplaceMixtureField:
    """Fit a K-component mixture field to per-cell sample sets.

    ``samples`` is an (n, T, F) stack: n observed grids, each cell fitted
    independently (but in one vectorized pass). Optimization is sign-based
    resilient gradient descent (iRPROP-) on the unconstrained parameters,
    full batch, which converges tightly even at the |y - mu| kinks. The best
    of ``restarts`` seeded random initializations by final NLL wins.
    """
    data = np.asarray(samples, dtype=np.float64)
    if data.ndim != 3:
        raise ContractError("samples must be an (n, T, F) stack")
    n, t, f = data.shape
    if n < k:
        raise ContractError(f"need at least K={k} samples per cell, got {n}")
    if k < 1 or steps < 1 or step_size <= 0 or restarts < 1:
        raise ContractError("bad fitting hyperparameters")

    mad = np.median(np.abs(data - np.median(data, axis=0)), axis=0)  # (T, F)
    beta0 = np.maximum(mad, 10.0 * BETA_FLOOR)
    quantiles = np.quantile(data, (np.arange(k) + 0.5) / k, axis=0)  # (K, T, F)
    root = SeededRng(seed, stream=0x4C4D)  # fitting stream

    best = None
    best_nll = np.inf
    for r in range(restarts):
        rng = root.substream(r)
        if r == 0:
            # Anchor components at per-cell quantiles; later restarts explore.
            mu0 = np.moveaxis(quantiles, 0, -1)
        else:
            pick = rng.integers(0, n, size=(t, f, k))
            idx_t, idx_f = np.meshgrid(np.arange(t), np.arange(f), indexing="ij")
            mu0 = data[pick, idx_t[..., None], idx_f[..., None]]
        params = UnconstrainedMixtureParams(
            logits=0.01 * rng.normal(size=(t, f, k)),
            mu=mu0 + 0.01 * beta0[..., None] * rng.normal(size=(t, f, k)),
            raw_scale=np.broadcast_to(
                _inv_softplus(np.maximum(beta0 - BETA_FLOOR, 1e-6))[..., None],
                (t, f, k),
            ).copy(),
        )
        deltas = [np.full((t, f, k), step_size) for _ in range(3)]
        signs = [np.zeros((t, f, k)) for _ in range(3)]
        nll = np.inf
        for _ in range(steps):
            nll, g = lm_nll_grad(params, data)
            signs[0] = _rprop_step(params.logits, g.logits, signs[0], deltas[0])
            signs[1] = _rprop_step(params.mu, g.mu, signs[1], deltas[1])
            signs[2] = _rprop_step(params.raw_scale, g.raw_scale, signs[2], deltas[2])
        nll, _ = lm_nll_grad(params, data)
        if nll < best_nll:
            best_nll = nll
            best = params
    return best.constrain()


def write_mixture(field: LaplaceMixtureField, path) -> None:
    """Serialize a mixture field (magic LMF1, u32 K/T/F, then the pi, mu,
    beta planes as little-endian float32, k-fastest)."""
    t, f = field.shape
    with open(path, "wb") as fh:
        fh.write(LMF_MAGIC)
        fh.write(struct.pack("<III", field.components, t, f))
        for plane in (field.pi, field.mu, field.beta):
            fh.write(np.ascontiguousarray(plane, dtype="<f4").tobytes())


def read_mixture(path) -> LaplaceMixtureField:
    data = Path(path).read_bytes()
    if len(data) < 16:
        raise FormatError(f"{path}: truncated header")
    if data[:4] != LMF_MAGIC:
        raise BadMagic(f"{path}: expected magic {LMF_MAGIC!r}, got {data[:4]!r}")
    k, t, f = struct.unpack("<III", data[4:16])
    plane = t * f * k
    if len(data) != 16 + 12 * plane:
        raise FormatError(f"{path}: payload size does not match header")
    flat = np.frombuffer(data, dtype="<f4", offset=16).astype(np.float64)
    pi, mu, beta = (flat[i * plane : (i + 1) * plane].reshape(t, f, k)
                    for i in range(3))
    # Renormalize float32-quantized weights before validation.
    pi = pi / pi.sum(axis=-1, keepdims=True)
    return LaplaceMixtureField(pi, mu, np.maximum(beta, BETA_FLOOR))


def mixture_to_csv(field: LaplaceMixtureField, path) -> None:
    t, f = field.shape
    lines = ["t,f,k,pi,mu,beta"]
    for ti in range(t):
        for fi in range(f):
            for ki in range(field.components):
                lines.append(
                    f"{ti},{fi},{ki},{field.pi[ti, fi, ki]!r},"
                    f"{field.mu[ti, fi, ki]!r},{field.beta[ti, fi, ki]!r}"
                )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
