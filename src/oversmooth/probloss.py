"""Per-cell Laplace mixtures over grids.

A mixture field holds, for every grid cell, K mixture weights, location
parameters, and scale parameters of Laplace components. Cells are modeled
independently; the per-cell density is multimodal. The scale floor keeps
log-likelihoods finite and gives degenerate fits a well-defined optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, SeededRng

BETA_FLOOR = 1e-3


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


def _fold(ufunc, parts, out):
    """``ufunc`` applied left to right over per-component arrays, into ``out``.

    Mixtures keep K small, and numpy's max or sum reduction over a short
    trailing axis costs far more per element than K - 1 elementwise calls.
    For K < 8 numpy reduces such an axis left to right too, so the values
    are the same; from K = 8 on its pairwise summation can differ in the
    last bits. The first pair goes straight into ``out``.
    """
    if len(parts) == 1:
        out[...] = parts[0]
    for i, part in enumerate(parts[1:]):
        ufunc(out if i else parts[0], part, out=out)
    return out


def log_sum_exp(comps, out=None):
    """Log-sum-exp over the same-shape terms ``comps``, a list or a stack.

    Returns (log-sum-exp, the terms exp(comp - top), their sum), the shifted
    terms in place of ``comps``; ``out``, if given, is a (3, *shape) buffer
    for the top term, the sum and the log-sum-exp. A cell where every term
    is -inf gets a log-density of -inf.
    """
    top, total, lse = np.empty((3,) + comps[0].shape) if out is None else out
    _fold(np.maximum, comps, top)
    if not np.isfinite(top).all():
        np.copyto(top, 0.0, where=~np.isfinite(top))
    for comp in comps:
        np.exp(np.subtract(comp, top, out=comp), out=comp)
    _fold(np.add, comps, total)
    np.add(top, np.log(total, out=lse), out=lse)
    return lse, comps, total


def _softmax(a: np.ndarray) -> np.ndarray:
    _, e, total = log_sum_exp(np.moveaxis(a, -1, 0).copy())
    return np.moveaxis(np.divide(e, total, out=e), 0, -1)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _inv_softplus(v: np.ndarray) -> np.ndarray:
    # softplus(s) = v  =>  s = v + log(1 - exp(-v))
    v = np.asarray(v, dtype=np.float64)
    return v + np.log1p(-np.exp(-v))


def _targets_3d(target) -> np.ndarray:
    """Accept one (T, F) grid or a stack (n, T, F); return the stack."""
    arr = np.asarray(target, dtype=np.float64)
    if arr.ndim == 2:
        return arr[None, :, :]
    if arr.ndim == 3:
        return arr
    raise ContractError("target must be (T, F) or (n, T, F)")


class LmWorkspace:
    """Buffers for :func:`lm_nll_grad` on one (n, T, F) stack and K
    components, allocated once and overwritten by every call that gets it:
    the stack's samples-last copy (cells broadcast along contiguous rows of
    samples), the per-component terms, log-sum-exp parts and the gradient."""

    def __init__(self, targets: np.ndarray, k: int):
        self.targets = targets
        self.y = np.ascontiguousarray(np.moveaxis(targets, 0, -1))
        self.terms = np.empty((3, k) + self.y.shape)  # log terms, y - mu, |y - mu|
        self.cells = np.empty((3,) + self.y.shape)  # top, sum, log-sum-exp
        self.grad = np.empty((3,) + self.y.shape[:2] + (k,))
        self.grads = UnconstrainedMixtureParams(*self.grad)  # views of ``grad``


def _component_terms(pi, mu, beta, ws: LmWorkspace):
    """Per-component log pi - log(2 beta) - |y - mu| / beta, y - mu and
    |y - mu| over the workspace's stack, written into ``ws.terms``."""
    with np.errstate(divide="ignore"):
        offset = (np.log(pi) - np.log(2.0 * beta))[..., None]
    mu, beta = mu[..., None], beta[..., None]
    comps, diffs, absdiffs = ws.terms
    for j in range(pi.shape[-1]):
        np.subtract(ws.y, mu[:, :, j], out=diffs[j])
        np.abs(diffs[j], out=absdiffs[j])
        np.divide(absdiffs[j], beta[:, :, j], out=comps[j])
        np.subtract(offset[:, :, j], comps[j], out=comps[j])
    return comps, diffs, absdiffs


def lm_log_density(field: LaplaceMixtureField, target) -> np.ndarray:
    """Per-cell log-density of targets under the field, shape (n, T, F)."""
    targets = _targets_3d(target)
    if targets.shape[1:] != field.shape:
        raise ContractError(
            f"target grid {targets.shape[1:]} does not match field {field.shape}"
        )
    ws = LmWorkspace(targets, field.components)
    comps, _, _ = _component_terms(field.pi, field.mu, field.beta, ws)
    return np.ascontiguousarray(np.moveaxis(log_sum_exp(comps, ws.cells)[0], -1, 0))


def lm_nll(field: LaplaceMixtureField, target) -> float:
    """Mean negative log-likelihood of grid values under the mixture field.

    ``target`` is a single (T, F) grid or an (n, T, F) stack; stacks are
    averaged over samples as well as cells.
    """
    return float(-np.mean(lm_log_density(field, target)))


def lm_nll_grad(params: UnconstrainedMixtureParams, target, *,
                workspace: LmWorkspace | None = None):
    """NLL and its analytic gradient w.r.t. the unconstrained parameters.

    Returns ``(nll, grads)`` with ``grads`` an UnconstrainedMixtureParams
    holding the partials. The location sub-gradient at |y - mu| = 0 is 0.
    With ``workspace``, an :class:`LmWorkspace` made for this ``target``
    stack and K, ``grads`` is the workspace's buffer, valid until the next
    call with it; without, the partials are fresh arrays.
    """
    targets = _targets_3d(target)
    t, f, k = params.logits.shape
    if targets.shape[1:] != (t, f):
        raise ContractError("target shape does not match parameters")
    if not (np.all(np.isfinite(params.logits)) and np.all(np.isfinite(params.mu))
            and np.all(np.isfinite(params.raw_scale))):
        raise ContractError("parameters must be finite")
    ws = workspace or LmWorkspace(targets, k)
    if ws.targets is not targets or ws.terms.shape[1] != k:
        raise ContractError("the workspace was made for another target stack or K")
    n = targets.shape[0]
    pi = _softmax(params.logits)  # (T, F, K)
    beta = _softplus(params.raw_scale) + BETA_FLOOR
    sig = 1.0 / (1.0 + np.exp(-params.raw_scale))  # d beta / d raw_scale

    comps, diffs, absdiffs = _component_terms(pi, params.mu, beta, ws)
    lse, shifted, total = log_sum_exp(comps, ws.cells)
    nll = float(-np.mean(lse))

    # Per component, sums over samples of the responsibility r, of r * sign(y - mu)
    # (copysign, 0 at exact ties: np.sign's bits) and of r * |y - mu|, in the
    # gradient buffer; 1/beta is applied after the sum, and resp_sum read last.
    g = ws.grads
    resp_sum, sign_sum, abs_sum = g.logits, g.mu, g.raw_scale
    for j, (resp, diff, absdiff) in enumerate(zip(shifted, diffs, absdiffs)):
        np.divide(resp, total, out=resp)
        resp.sum(axis=-1, out=resp_sum[..., j])
        np.copyto(np.copysign(resp, diff, out=diff), 0.0, where=absdiff == 0.0)
        diff.sum(axis=-1, out=sign_sum[..., j])
        np.multiply(absdiff, resp, out=absdiff)
        absdiff.sum(axis=-1, out=abs_sum[..., j])
    count = n * t * f
    np.divide(-sign_sum / beta, count, out=g.mu)
    np.divide((resp_sum / beta - abs_sum / beta**2) * sig, count, out=g.raw_scale)
    np.divide(n * pi - resp_sum, count, out=g.logits)
    if not np.isfinite(nll):
        raise ContractError("non-finite loss; parameters out of range")
    return nll, g


def laplace_inverse_cdf(u, mu, beta):
    """Quantile function of the Laplace distribution, u in (0, 1)."""
    u = np.asarray(u, dtype=np.float64)
    shifted = u - 0.5
    return mu - beta * np.sign(shifted) * np.log1p(-2.0 * np.abs(shifted))


def lm_sample_stack(field: LaplaceMixtureField, rng: SeededRng,
                    count: int) -> np.ndarray:
    """Draw ``count`` grids in one vectorized pass, shape (count, T, F)."""
    t, f = field.shape
    choice = rng.categorical(field.pi, (count, t, f))
    idx_t, idx_f = np.meshgrid(np.arange(t), np.arange(f), indexing="ij")
    mu = field.mu[idx_t, idx_f, choice]
    beta = field.beta[idx_t, idx_f, choice]
    tiny = np.finfo(np.float64).tiny
    u = np.clip(rng.uniform(size=(count, t, f)), tiny, 1.0 - 1e-16)
    return laplace_inverse_cdf(u, mu, beta)


def _rprop_step(value, grad, sign, delta):
    """One iRPROP- update in place, ``sign`` from the last to the new signs."""
    agree = np.sign(grad) * sign
    delta *= np.where(agree > 0, 1.2, np.where(agree < 0, 0.5, 1.0))
    np.clip(delta, 1e-12, 1.0, out=delta)
    np.sign(grad, out=sign)
    sign[agree < 0] = 0.0  # skip the move after a flip
    value -= np.multiply(sign, delta, out=agree)


def fit_lm(samples, k: int, steps: int = 400, seed: int = 0,
           restarts: int = 5) -> LaplaceMixtureField:
    """Fit a K-component mixture field to per-cell sample sets.

    ``samples`` is an (n, T, F) stack: n observed grids, each cell fitted
    independently (but in one vectorized pass). Optimization is sign-based
    resilient gradient descent (iRPROP-) on the unconstrained parameters,
    full batch, which converges tightly even at the |y - mu| kinks. The best
    of ``restarts`` seeded random initializations by final NLL wins. Every
    :func:`lm_nll_grad` call of the fit runs in one :class:`LmWorkspace`.
    """
    data = np.asarray(samples, dtype=np.float64)
    if data.ndim != 3:
        raise ContractError("samples must be an (n, T, F) stack")
    n, t, f = data.shape
    if n < k:
        raise ContractError(f"need at least K={k} samples per cell, got {n}")
    if k < 1 or steps < 1 or restarts < 1:
        raise ContractError("bad fitting hyperparameters")

    mad = np.median(np.abs(data - np.median(data, axis=0)), axis=0)  # (T, F)
    beta0 = np.maximum(mad, 10.0 * BETA_FLOOR)
    quantiles = np.quantile(data, (np.arange(k) + 0.5) / k, axis=0)  # (K, T, F)
    root = SeededRng(seed, stream=0x4C4D)  # fitting stream
    ws = LmWorkspace(data, k)

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
        theta = np.empty((3, t, f, k))  # logits, mu and raw scales, stepped together
        theta[0] = 0.01 * rng.normal(size=(t, f, k))
        theta[1] = mu0 + 0.01 * beta0[..., None] * rng.normal(size=(t, f, k))
        theta[2] = _inv_softplus(np.maximum(beta0 - BETA_FLOOR, 1e-6))[..., None]
        params = UnconstrainedMixtureParams(*theta)
        delta, sign = np.full((3, t, f, k), 0.02), np.zeros((3, t, f, k))
        for _ in range(steps):
            lm_nll_grad(params, data, workspace=ws)
            _rprop_step(theta, ws.grad, sign, delta)
        nll, _ = lm_nll_grad(params, data, workspace=ws)
        if nll < best_nll:
            best_nll = nll
            best = params
    return best.constrain()
