"""Desk-scale conditional normalizing flow over (T, c) grids.

Each flow step combines three invertible sublayers with exact log-Jacobians:
a per-channel affine (actnorm), an invertible c x c channel-mixing matrix,
and an affine coupling layer whose scale/shift come from a small tanh MLP fed
with the untouched channels plus a per-frame condition vector.

Direction conventions, fixed once:

* analysis (data -> latent, the training direction) applies steps in list
  order; within a step: ``h = scale * h + bias``, then ``h = h @ inv(mix).T``,
  then the second half of channels is normalized as
  ``z_b = (h_b - shift) * exp(-ell)``.
* synthesis (latent -> data, :func:`forward`) is the exact inverse, steps in
  reverse order.

``scale``/``bias`` therefore live on the data side (data-dependent init makes
the first actnorm output standard per channel), while ``mix`` is stored in the
synthesis sense: a step whose matrix is 2I doubles values on the way from
latent to data. The coupling log-scale ``ell`` is squashed to (-2, 2) with
2*tanh so round trips stay well conditioned. All log-determinants are those
of the actual maps; :func:`forward` and :func:`inverse` report values that
are exact negatives of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (Adam, ContractError, SeededRng, flat_views, read_binary,
                   write_binary)

FLW_MAGIC = b"FLW2"
LOG_2PI = np.log(2.0 * np.pi)


class UninitializedModel(ContractError):
    """The model's actnorm layers have not been initialized yet."""


class DegenerateChannel(ContractError):
    """A channel of the init batch has zero variance."""


class FlowDivergence(ContractError):
    """Training produced a non-finite likelihood."""


@dataclass
class CouplingNet:
    """Two-layer tanh perceptron: (h_a ++ cond) -> (raw log-scale, shift).

    With frame context the net maps each frame independently; with grid
    context it sees every frame of the conditioning half at once (the
    desk-scale stand-in for a coupling network with a temporal receptive
    field), which fixes the frame count. Its weights are stored in the order
    the flow computes them, channel-major: ``w1`` columns hold every frame
    of h_a's channel 0, then of channel 1, ..., then of each condition
    channel; ``w2``/``b2`` rows every frame of each raw log-scale channel,
    then of each shift channel.
    """

    w1: np.ndarray  # (hidden, in_dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (out_dim, hidden)
    b2: np.ndarray  # (out_dim,)


@dataclass
class FlowStep:
    scale: np.ndarray  # (c,), actnorm, data side
    bias: np.ndarray  # (c,)
    mix: np.ndarray  # (c, c), synthesis sense
    net: CouplingNet


def _net_dims(channels: int, cond_dim: int, context: str, frames: int):
    c_a = (channels + 1) // 2
    c_b = channels - c_a
    if context == "frame":
        return c_a + cond_dim, 2 * c_b
    if context == "grid":
        if frames < 1:
            raise ContractError("grid-context models must fix a frame count")
        return frames * (c_a + cond_dim), frames * 2 * c_b
    raise ContractError(f"unknown coupling context {context!r}")


@dataclass
class FlowModel:
    steps: list[FlowStep]
    params: np.ndarray  # every parameter, in the checkpoint payload's order
    channels: int
    cond_dim: int
    hidden: int
    initialized: bool = False
    context: str = "frame"
    frames: int = 0  # fixed frame count for grid context; 0 = flexible

    @property
    def split(self) -> tuple[int, int]:
        c_a = (self.channels + 1) // 2
        return c_a, self.channels - c_a

    @property
    def column_frames(self) -> int:
        """Frames per coupling-net column: 1 with frame context, the fixed
        frame count (a whole grid) with grid context."""
        return self.frames if self.context == "grid" else 1

    @classmethod
    def zeros(cls, channels: int, cond_dim: int, n_steps: int, hidden: int,
              context: str = "frame", frames: int = 0) -> "FlowModel":
        """All parameters zero, in one vector ``params`` laid out per step as
        scale, bias, mix, w1, b1, w2, b2; every step's arrays are views into
        it, so updating ``params`` in place updates the model."""
        if n_steps < 1:
            raise ContractError(f"a flow needs at least one step, got {n_steps}")
        in_dim, out_dim = _net_dims(channels, cond_dim, context, frames)
        shapes = [(channels,), (channels,), (channels, channels),
                  (hidden, in_dim), (hidden,), (out_dim, hidden), (out_dim,)]
        params, views = flat_views(shapes * n_steps)
        steps = [FlowStep(*views[i : i + 3], CouplingNet(*views[i + 3 : i + 7]))
                 for i in range(0, len(views), len(shapes))]
        return cls(steps, params, channels, cond_dim, hidden, context=context,
                   frames=frames)

    @classmethod
    def identity(cls, channels: int, cond_dim: int, n_steps: int = 1,
                 hidden: int = 16, context: str = "frame",
                 frames: int = 0) -> "FlowModel":
        """All-identity steps; usable without data-dependent init."""
        model = cls.zeros(channels, cond_dim, n_steps, hidden, context, frames)
        for step in model.steps:
            step.scale[...] = 1.0
            step.mix[...] = np.eye(channels)
        model.initialized = True
        return model

    @classmethod
    def random(cls, rng: SeededRng, channels: int, cond_dim: int,
               n_steps: int = 8, hidden: int = 16,
               weight_scale: float = 0.05, context: str = "frame",
               frames: int = 0) -> "FlowModel":
        """Random-rotation mixes and small coupling weights.

        The model still needs :func:`actnorm_init` on a data batch before
        likelihoods or sampling make sense.
        """
        if channels < 2:
            raise ContractError("need at least 2 channels for coupling splits")
        model = cls.zeros(channels, cond_dim, n_steps, hidden, context, frames)
        for step in model.steps:
            gaussian = rng.normal(size=(channels, channels))
            q, r = np.linalg.qr(gaussian)
            q = q * np.sign(np.diag(r))  # unique rotation-ish factor
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]  # keep det = +1
            step.scale[...] = 1.0
            step.mix[...] = q
            step.net.w1[...] = weight_scale * rng.normal(size=step.net.w1.shape)
            step.net.w2[...] = weight_scale * rng.normal(size=step.net.w2.shape)
        return model


@dataclass(frozen=True)
class ConditionedBatch:
    """Aligned stacks of target grids (n, T, c) and conditions (n, T, d)."""

    targets: np.ndarray
    conds: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.targets, dtype=np.float64)
        c = np.asarray(self.conds, dtype=np.float64)
        if t.ndim != 3 or c.ndim != 3:
            raise ContractError("targets and conds must be 3-D stacks")
        if t.shape[:2] != c.shape[:2]:
            raise ContractError(
                f"targets {t.shape} and conds {c.shape} disagree on (n, T)"
            )
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(c))):
            raise ContractError("batch values must be finite")
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "conds", c)

    def __len__(self) -> int:
        return self.targets.shape[0]


def _check_shapes(model: FlowModel, grids: np.ndarray, conds: np.ndarray):
    if grids.shape[-1] != model.channels:
        raise ContractError(
            f"grid has {grids.shape[-1]} channels, model expects {model.channels}"
        )
    if conds.shape[-1] != model.cond_dim:
        raise ContractError(
            f"condition dim {conds.shape[-1]} != model cond_dim {model.cond_dim}"
        )
    if grids.shape[:-1] != conds.shape[:-1]:
        raise ContractError("grid and condition frame counts disagree")
    if model.context == "grid" and grids.shape[-2] != model.frames:
        raise ContractError(
            f"grid-context model fixes T={model.frames}, got {grids.shape[-2]}"
        )


def _channels_first(x: np.ndarray) -> np.ndarray:
    """(n, T, k) stack -> contiguous (k, T * n) array, column j * n + i
    holding frame j of sample i.

    The flow computes in this layout: channel halves are contiguous row
    blocks, per-channel parameters broadcast along long rows, and a grid's
    coupling input is a reshape instead of a copy.
    """
    n, t, k = x.shape
    return np.ascontiguousarray(x.transpose(2, 1, 0)).reshape(k, t * n)


def _samples_first(h: np.ndarray, t: int, n: int) -> np.ndarray:
    """Inverse of :func:`_channels_first`."""
    return np.ascontiguousarray(h.reshape(len(h), t, n).transpose(2, 1, 0))


def _coupling_raw(net: CouplingNet, h_a: np.ndarray, cond: np.ndarray,
                 stack: int):
    """Coupling net on channel-first halves: (netin, hidden, tanh(raw), shift).

    The log-scale is ell = 2 * tanh(raw). ``netin`` and ``hidden`` hold one
    column per ``stack`` frames (one frame, or a whole grid channel-major);
    ``tanh(raw)`` and ``shift`` are channel-first like ``h_a``.
    """
    columns = h_a.shape[1] // stack
    netin = np.concatenate([h_a.reshape(len(h_a) * stack, columns),
                            cond.reshape(len(cond) * stack, columns)])
    hid = np.tanh(net.w1 @ netin + net.b1[:, None])
    out = (net.w2 @ hid + net.b2[:, None]).reshape(2, len(net.w2) // (2 * stack),
                                                  h_a.shape[1])
    return netin, hid, np.tanh(out[0]), out[1]


def _logdet_const(model: FlowModel, t: int) -> float:
    """The analysis log-determinant of every actnorm and mix, for T frames."""
    sign, mix_logdets = np.linalg.slogdet(np.stack([step.mix for step in model.steps]))
    if np.any(sign == 0):
        raise ContractError("channel-mix matrix is singular")
    scales = np.stack([step.scale for step in model.steps])
    return t * (np.log(np.abs(scales)).sum() - mix_logdets.sum())


def _analysis(model: FlowModel, grids: np.ndarray, conds: np.ndarray,
              cache: list | None = None, init: bool = False):
    """Data -> latent on an (n, T, c) stack; returns (z, per-sample logdet)
    with z channel-first (see :func:`_channels_first`).

    Each step's actnorm is folded into its mix: h -> F h + inv(mix) bias
    with F = inv(mix) diag(scale). With ``init``, each step first sets its
    actnorm to standardize its input over the batch (data-dependent init;
    the returned logdet then holds the scales from before). With a
    ``cache`` list, appends per step what the reverse sweep of
    :func:`nll_and_grads` needs.
    """
    c_a = model.split[0]
    n, t = grids.shape[:2]
    cond = _channels_first(conds)
    logdet = np.full(n, _logdet_const(model, t))
    inv_mixes = np.linalg.inv(np.stack([step.mix for step in model.steps]))
    h = _channels_first(grids)
    for step, inv_mix in zip(model.steps, inv_mixes):
        if init:
            std = h.std(axis=1)
            if np.any(std < 1e-12):
                raise DegenerateChannel(
                    f"zero-variance channels {np.nonzero(std < 1e-12)[0].tolist()} "
                    "in init batch"
                )
            step.scale[...] = 1.0 / std
            step.bias[...] = -h.mean(axis=1) / std
        h0 = h
        folded = inv_mix * step.scale
        h = folded @ h0 + (inv_mix @ step.bias)[:, None]
        netin, hid, th, shift = _coupling_raw(step.net, h[:c_a], cond,
                                              model.column_frames)
        exp_neg = np.exp(-2.0 * th)
        z_b = (h[c_a:] - shift) * exp_neg
        logdet -= 2.0 * th.reshape(len(th) * t, n).sum(axis=0)
        h = np.concatenate([h[:c_a], z_b])
        if cache is not None:
            cache.append((h0, inv_mix, folded, netin, hid, th, exp_neg, z_b))
    return h, logdet


def _synthesis(model: FlowModel, latents: np.ndarray, conds: np.ndarray):
    """Latent -> data on an (n, T, c) stack; returns (y, per-sample logdet)."""
    c_a = model.split[0]
    n, t = latents.shape[:2]
    cond = _channels_first(conds)
    logdet = np.full(n, -_logdet_const(model, t))
    h = _channels_first(latents)
    for step in reversed(model.steps):
        _, _, th, shift = _coupling_raw(step.net, h[:c_a], cond,
                                        model.column_frames)
        h = np.concatenate([h[:c_a], h[c_a:] * np.exp(2.0 * th) + shift])
        logdet += 2.0 * th.reshape(len(th) * t, n).sum(axis=0)
        h = (step.mix @ h - step.bias[:, None]) / step.scale[:, None]
    return _samples_first(h, t, n), logdet


def _require_initialized(model: FlowModel):
    if not model.initialized:
        raise UninitializedModel(
            "run actnorm_init on a data batch before using the model"
        )


def forward(model: FlowModel, z: np.ndarray, cond: np.ndarray):
    """Map one latent grid (T, c) to a data grid; returns (y, logdet)."""
    _require_initialized(model)
    z = np.asarray(z, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    _check_shapes(model, z, cond)
    y, logdet = _synthesis(model, z[None], cond[None])
    return y[0], float(logdet[0])


def inverse(model: FlowModel, y: np.ndarray, cond: np.ndarray):
    """Map one data grid (T, c) to its latent; returns (z, logdet)."""
    _require_initialized(model)
    y = np.asarray(y, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    _check_shapes(model, y, cond)
    z, logdet = _analysis(model, y[None], cond[None])
    return _samples_first(z, len(y), 1)[0], float(logdet[0])


def actnorm_init(model: FlowModel, batch: ConditionedBatch) -> FlowModel:
    """Data-dependent init: every actnorm standardizes its input batch.

    After init, the first actnorm's output over the init batch has
    per-channel mean 0 and standard deviation 1.
    """
    if model.initialized:
        raise ContractError("model is already initialized")
    if len(batch) < 1:
        raise ContractError("init batch must be non-empty")
    _check_shapes(model, batch.targets, batch.conds)
    _analysis(model, batch.targets, batch.conds, init=True)
    model.initialized = True
    return model


def log_likelihood(model: FlowModel, batch: ConditionedBatch) -> np.ndarray:
    """Per-sample log-likelihood under the standard-normal prior."""
    _require_initialized(model)
    _check_shapes(model, batch.targets, batch.conds)
    z, logdet = _analysis(model, batch.targets, batch.conds)
    return _log_prob(z, logdet, batch.targets.shape[1])


def _log_prob(z: np.ndarray, logdet: np.ndarray, t: int) -> np.ndarray:
    """Per-sample log-likelihood from channel-first latents of T frames and
    analysis log-determinants."""
    sq = (z**2).reshape(len(z) * t, len(logdet)).sum(axis=0)
    return -(0.5 * sq + 0.5 * len(z) * t * LOG_2PI) + logdet


def nll(model: FlowModel, batch: ConditionedBatch) -> float:
    """Mean per-sample negative log-likelihood under the standard-normal prior."""
    return float(-log_likelihood(model, batch).mean())


def sample(model: FlowModel, cond: np.ndarray, rng: SeededRng,
           temperature: float = 1.0) -> np.ndarray:
    """Draw one (T, c) grid: z ~ N(0, temperature**2 I) pushed to data space."""
    return sample_batch(model, np.asarray(cond)[None], rng, temperature)[0]


def sample_batch(model: FlowModel, conds: np.ndarray, rng: SeededRng,
                 temperature: float = 1.0) -> np.ndarray:
    """Draw one grid per condition row of an (n, T, d_cond) stack."""
    _require_initialized(model)
    if temperature <= 0:
        raise ContractError("temperature must be positive")
    conds = np.asarray(conds, dtype=np.float64)
    _check_shapes(model, np.empty(conds.shape[:2] + (model.channels,)), conds)
    z = temperature * rng.normal(
        size=(conds.shape[0], conds.shape[1], model.channels)
    )
    y, _ = _synthesis(model, z, conds)
    return y


# ---------------------------------------------------------------------------
# Analytic gradients and training
# ---------------------------------------------------------------------------


def nll_and_grads(model: FlowModel, batch: ConditionedBatch):
    """NLL and its gradient with respect to ``model.params``, one vector in
    the same layout (hand backprop)."""
    _require_initialized(model)
    _check_shapes(model, batch.targets, batch.conds)
    c_a = model.split[0]
    n, t = batch.targets.shape[:2]

    caches = []
    z, logdet = _analysis(model, batch.targets, batch.conds, caches)
    value = float(-_log_prob(z, logdet, t).mean())
    if not np.isfinite(value):
        raise FlowDivergence(f"non-finite NLL {value}")

    parts = []
    g = z / n  # dNLL/dz, channel-first
    for step, cache in zip(reversed(model.steps), reversed(caches)):
        h0, inv_mix, folded, netin, hid, th, exp_neg, z_b = cache
        w1, w2 = step.net.w1, step.net.w2
        g_a, g_b = g[:c_a], g[c_a:]
        d_hb = g_b * exp_neg
        d_ell = -g_b * z_b + 1.0 / n  # z-path plus the direct +ell/n term
        d_raw = d_ell * 2.0 * (1.0 - th**2)
        d_out = np.concatenate([d_raw, -d_hb]).reshape(len(w2), hid.shape[1])
        g_w2 = d_out @ hid.T
        g_b2 = d_out.sum(axis=1)
        d_pre = (w2.T @ d_out) * (1.0 - hid**2)
        g_w1 = d_pre @ netin.T
        g_b1 = d_pre.sum(axis=1)
        a_rows = len(g_a) * model.column_frames  # rows of netin that hold h_a
        d_ha = g_a + (w1[:, :a_rows].T @ d_pre).reshape(g_a.shape)
        g2 = np.concatenate([d_ha, d_hb])

        # Folded actnorm and mix, h2 = inv_mix (h0 * scale + bias): every
        # parameter gradient follows from g2 h0^T and g2's row sums.
        m0 = g2 @ h0.T
        s2 = g2.sum(axis=1)
        d_inv = m0 * step.scale + np.outer(s2, step.bias)
        g_mix = -inv_mix.T @ d_inv @ inv_mix.T + t * inv_mix.T
        g_scale = (inv_mix * m0).sum(axis=0) - t / step.scale
        g_bias = s2 @ inv_mix
        g = folded.T @ g2
        parts.append((g_scale, g_bias, g_mix, g_w1, g_b1, g_w2, g_b2))
    grad = np.concatenate([g.ravel() for part in reversed(parts) for g in part])
    return value, grad


@dataclass
class TrainResult:
    model: FlowModel
    curve: list  # (step, full-dataset nll)


def train_flow(model: FlowModel, batch: ConditionedBatch, steps: int = 500,
               step_size: float = 2e-3, batch_size: int = 128,
               seed: int = 0, eval_every: int = 100) -> TrainResult:
    """Minibatch Adam on the exact NLL with analytic gradients.

    The model must already be actnorm-initialized. The training curve holds
    full-dataset NLLs (step 0, every ``eval_every`` steps, and the final
    step); a non-finite loss raises :class:`FlowDivergence` instead of being
    swallowed.
    """
    _require_initialized(model)
    n = len(batch)
    if n < 1:
        raise ContractError("training set must be non-empty")
    rng = SeededRng(seed, stream=0x464C)
    adam = Adam(model.params.size, step_size)
    curve = [(0, nll(model, batch))]
    order = rng.permutation(n)
    cursor = 0
    # A diverging run overflows on its way to a non-finite NLL, which is
    # reported as FlowDivergence rather than as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, steps + 1):
            if cursor + batch_size > n:
                order = rng.permutation(n)
                cursor = 0
            idx = order[cursor : cursor + batch_size]
            cursor += batch_size
            mini = ConditionedBatch(batch.targets[idx], batch.conds[idx])
            _, grad = nll_and_grads(model, mini)
            adam.step(model.params, grad)
            if it % eval_every == 0 or it == steps:
                full = nll(model, batch)
                if not np.isfinite(full):
                    raise FlowDivergence(f"non-finite NLL at step {it}")
                curve.append((it, full))
    return TrainResult(model, curve)


def curve_to_csv(curve, path) -> None:
    lines = ["step,nll"] + [f"{s},{v!r}" for s, v in curve]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_model(model: FlowModel, path) -> None:
    """Checkpoint: magic FLW2; u32 K, c, cond_dim, hidden, initialized,
    grid_context, frames; then :attr:`FlowModel.params` (each step's scale,
    bias, mix, w1, b1, w2, b2) as little-endian float32."""
    header = (len(model.steps), model.channels, model.cond_dim, model.hidden,
              int(model.initialized), int(model.context == "grid"), model.frames)
    write_binary(path, FLW_MAGIC, header, model.params)


def _checkpoint_floats(header) -> int:
    k, c, cond_dim, hidden, _, grid_ctx, frames = header
    if k < 1:
        raise ContractError("a flow needs at least one step, got 0")
    in_dim, out_dim = _net_dims(c, cond_dim, "grid" if grid_ctx else "frame", frames)
    return k * (2 * c + c * c + hidden * (in_dim + 1 + out_dim) + out_dim)


def load_model(path) -> FlowModel:
    header, payload = read_binary(path, FLW_MAGIC, 7, _checkpoint_floats)
    k, c, cond_dim, hidden, inited, grid_ctx, frames = header
    model = FlowModel.zeros(c, cond_dim, k, hidden,
                            "grid" if grid_ctx else "frame", frames)
    model.params[...] = payload
    model.initialized = bool(inited)
    return model
