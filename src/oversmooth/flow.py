"""Desk-scale conditional normalizing flow over (T, c) grids.

Each flow step combines three invertible sublayers with exact log-Jacobians:
a per-channel affine (actnorm), an invertible c x c channel-mixing matrix,
and an affine coupling layer whose scale/shift come from a small tanh MLP fed
with the untouched channels plus a per-frame condition vector.

Direction conventions, fixed once:

* analysis (data -> latent, the training direction) applies steps 0 to
  K - 1 in turn; within step k: ``h = scale[k] * h + bias[k]``, then
  ``h = h @ inv(mix[k]).T``, then the second half of channels is normalized
  as ``z_b = (h_b - shift) * exp(-ell)``.
* synthesis (latent -> data, :func:`forward`) is the exact inverse, steps in
  reverse order.

``scale``/``bias`` therefore live on the data side (data-dependent init makes
the first actnorm output standard per channel), while ``mix`` is stored in the
synthesis sense: a step whose matrix is 2I doubles values on the way from
latent to data. The coupling log-scale ``ell`` is squashed to (-2, 2) with
2*tanh so round trips stay well conditioned. All log-determinants are those
of the actual maps; :func:`forward` and :func:`inverse` report values that
are exact negatives of each other. Every bias is a column of an augmented
matrix that multiplies a constant ones row (:class:`FlowWorkspace`), so its
gradient comes out of the weight's gradient matmul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Adam, ContractError, SeededRng, read_binary, write_binary

FLW_MAGIC = b"FLW2"
LOG_2PI = np.log(2.0 * np.pi)
EVAL_EVERY = 100  # training steps between the full-dataset NLLs of a curve


def _step_layout(n_steps: int, channels: int, cond_dim: int, hidden: int,
                 frames: int) -> dict:
    """One step's parameters of an ``n_steps``-step flow, name -> shape, in
    the checkpoint payload's order.

    The coupling net is a two-layer tanh perceptron, (h_a ++ cond) -> (raw
    log-scale, shift), and ``frames`` is its one coupling choice: each net
    column spans ``max(frames, 1)`` frames. With ``frames`` 0 it maps each
    frame alone; with ``frames`` T > 0 it sees every frame of the
    conditioning half at once (the desk-scale stand-in for a coupling network
    with a temporal receptive field), which fixes the frame count at T. Its
    weights are stored in the order the flow computes them, channel-major:
    ``w1`` columns hold every frame of h_a's channel 0, then of channel 1,
    ..., then of each condition channel; ``w2``/``b2`` rows every frame of
    each raw log-scale channel, then of each shift channel.
    """
    if n_steps < 1:
        raise ContractError(f"a flow needs at least one step, got {n_steps}")
    if frames < 0:
        raise ContractError(f"frame count must be >= 0, got {frames}")
    c_a = (channels + 1) // 2
    span = max(frames, 1)
    in_dim, out_dim = span * (c_a + cond_dim), span * 2 * (channels - c_a)
    return {"scale": (channels,), "bias": (channels,),  # actnorm, data side
            "mix": (channels, channels),  # synthesis sense
            "w1": (hidden, in_dim), "b1": (hidden,),  # coupling net
            "w2": (out_dim, hidden), "b2": (out_dim,)}


@dataclass(eq=False)
class FlowModel:
    """K flow steps with every parameter in one vector, ``params``, laid out
    step after step as :func:`_step_layout` lists them (the checkpoint
    payload's order). Each name of that layout is also an attribute, a
    (K, ...) view of ``params`` whose row k is step k's array:
    ``model.mix[k]`` is step k's c x c mix, ``model.scale`` all K actnorm
    scales. Updating ``params`` or a view in place updates the model. A new
    model's parameters are all zero. ``frames`` is the one coupling choice:
    0 couples each frame alone and takes grids of any length, T > 0 couples
    whole T-frame grids and takes only those."""

    channels: int
    cond_dim: int
    n_steps: int
    hidden: int
    frames: int = 0
    initialized: bool = False

    def __post_init__(self):
        layout = _step_layout(self.n_steps, self.channels, self.cond_dim,
                              self.hidden, self.frames)
        sizes = [math.prod(shape) for shape in layout.values()]
        self.params = np.zeros(self.n_steps * sum(sizes))
        rows, start = self.params.reshape(self.n_steps, sum(sizes)), 0
        for (name, shape), size in zip(layout.items(), sizes):
            view = rows[:, start : start + size].reshape(self.n_steps, *shape)
            setattr(self, name, view)
            start += size

    @property
    def split(self) -> tuple[int, int]:
        c_a = (self.channels + 1) // 2
        return c_a, self.channels - c_a

    @property
    def column_frames(self) -> int:
        """Frames per coupling-net column: 1 when frames is 0, else the
        fixed frame count (a whole grid)."""
        return max(self.frames, 1)

    @classmethod
    def identity(cls, channels: int, cond_dim: int, n_steps: int = 1,
                 hidden: int = 16, frames: int = 0) -> "FlowModel":
        """All-identity steps; usable without data-dependent init."""
        model = cls(channels, cond_dim, n_steps, hidden, frames)
        model.scale[...], model.mix[...] = 1.0, np.eye(channels)
        model.initialized = True
        return model

    @classmethod
    def random(cls, rng: SeededRng, channels: int, cond_dim: int,
               n_steps: int = 8, hidden: int = 16,
               weight_scale: float = 0.05, frames: int = 0) -> "FlowModel":
        """Random-rotation mixes and small coupling weights.

        The model still needs :func:`actnorm_init` on a data batch before
        likelihoods or sampling make sense.
        """
        if channels < 2:
            raise ContractError("need at least 2 channels for coupling splits")
        model = cls(channels, cond_dim, n_steps, hidden, frames)
        model.scale[...] = 1.0
        for k in range(n_steps):
            gaussian = rng.normal(size=(channels, channels))
            q, r = np.linalg.qr(gaussian)
            q = q * np.sign(np.diag(r))  # unique rotation-ish factor
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]  # keep det = +1
            model.mix[k] = q
            model.w1[k] = weight_scale * rng.normal(size=model.w1.shape[1:])
            model.w2[k] = weight_scale * rng.normal(size=model.w2.shape[1:])
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
    if model.frames and grids.shape[-2] != model.frames:
        raise ContractError(
            f"grid-context model fixes T={model.frames}, got {grids.shape[-2]}"
        )


class FlowWorkspace:
    """Buffers for passes over (n, T) batches of one model's architecture,
    allocated once and overwritten by every call that gets the workspace.

    Arrays are channel-first, (k, T * n) with column j * n + i holding frame
    j of sample i: channel halves are row blocks, per-channel parameters
    broadcast along rows and a grid's coupling input is a reshape of h_a.
    ``h[s]`` is step s's input; ``netin``, ``hid``, ``th`` (tanh of the raw
    log-scale) and ``exp_neg`` are kept per step for the backward pass (the
    default depth) or reused by every step (``depth`` 1). ``h``, ``netin``
    and ``hid`` end in a ones row that no pass writes, the bias column's
    input for every step's ``w1a`` = [w1 | b1], ``w2a`` = [w2 | b2] and
    ``folded`` = [inv(mix) diag(scale) | inv(mix) bias], (K, ...) arrays
    that :func:`nll_and_grads` overwrites with their gradients. Only a
    full-depth workspace has the backward pass's ``g`` and ``d_pre`` and a
    ``grads``, whose ``params`` is the gradient vector.
    """

    def __init__(self, model: FlowModel, n: int, t: int, depth: int = 0):
        depth, c, n_t = depth or model.n_steps, model.channels, t * n
        (k, hidden, in_dim), cols = model.w1.shape, n_t // model.column_frames
        self.h = np.empty((depth + 1, c + 1, n_t))
        self.netin = np.empty((depth, in_dim + 1, cols))
        self.a_rows = model.split[0] * model.column_frames  # netin rows holding h_a
        self.hid = np.empty((depth, hidden + 1, cols))
        self.h[:, -1] = self.netin[:, -1] = self.hid[:, -1] = 1.0
        self.th, self.exp_neg = np.empty((2, depth, model.split[1], n_t))
        self.out = np.empty((model.w2.shape[1], cols))  # or its gradient
        self.w1a = np.empty((k, hidden, in_dim + 1))
        self.w2a = np.empty((k, len(self.out), hidden + 1))
        self.folded, self.inv_mixes = np.empty((k, c, c + 1)), None  # set by analysis
        self.g = self.d_pre = self.grads = None
        if depth == model.n_steps:  # buffers only the backward pass reads
            self.g, self.d_pre = np.empty((2, c, n_t)), np.empty((hidden, cols))
            # the gradient: a model of the same architecture, all zero
            self.grads = replace(model)

    def load(self, model: FlowModel, grids: np.ndarray, conds: np.ndarray):
        """(n, T, c) grids into ``h[0]``, (n, T, d) conditions into every
        ``netin``'s condition rows, and every step's ``w1a`` and ``w2a``."""
        n, t = grids.shape[:2]
        self.h[0, :-1].reshape(model.channels, t, n)[...] = grids.transpose(2, 1, 0)
        cond_rows = self.netin[0, self.a_rows : -1]
        cond_rows.reshape(model.cond_dim, t, n)[...] = conds.transpose(2, 1, 0)
        self.netin[1:, self.a_rows : -1] = cond_rows
        np.concatenate((model.w1, model.b1[..., None]), axis=2, out=self.w1a)
        np.concatenate((model.w2, model.b2[..., None]), axis=2, out=self.w2a)


def _samples_first(h: np.ndarray, t: int, n: int) -> np.ndarray:
    """(k, T * n) channel-first array -> contiguous (n, T, k) stack."""
    return np.ascontiguousarray(h.reshape(len(h), t, n).transpose(2, 1, 0))


def _coupling_raw(k: int, ws: FlowWorkspace, slot: int, h_a: np.ndarray):
    """Step k's coupling net on channel-first h_a in workspace slot ``slot``:
    returns (tanh(raw), shift), channel-first like ``h_a``.

    The log-scale is ell = 2 * tanh(raw). ``netin`` and ``hidden`` hold one
    column per frame, or per grid (channel-major) when the model fixes T.
    """
    netin, hid = ws.netin[slot], ws.hid[slot]
    netin[: ws.a_rows] = h_a.reshape(ws.a_rows, netin.shape[1])
    np.tanh(np.matmul(ws.w1a[k], netin, out=hid[:-1]), out=hid[:-1])
    np.matmul(ws.w2a[k], hid, out=ws.out)
    raw = ws.out.reshape(2, ws.th.shape[1], h_a.shape[1])
    return np.tanh(raw[0], out=ws.th[slot]), raw[1]


def _logdet_const(model: FlowModel, t: int) -> float:
    """The analysis log-determinant of every actnorm and mix, for T frames;
    a step that is not invertible is an error."""
    if not model.scale.all():
        raise ContractError(f"actnorm scale of step {model.scale.all(axis=1).argmin()} "
                            "has a zero entry: the flow is not invertible")
    sign, mix_logdets = np.linalg.slogdet(model.mix)
    if not sign.all():
        raise ContractError(f"channel-mix matrix of step {(sign != 0).argmin()} "
                            "is singular")
    return t * (np.log(np.abs(model.scale)).sum() - mix_logdets.sum())


def _fold(inv_mix, scale, bias, out):
    """One step's or every step's [inv(mix) diag(scale) | inv(mix) bias]."""
    np.multiply(inv_mix, scale[..., None, :], out=out[..., :-1])
    np.matmul(inv_mix, bias[..., None], out=out[..., -1:])


def _analysis(model: FlowModel, grids: np.ndarray, conds: np.ndarray,
              ws: FlowWorkspace | None = None, init: bool = False):
    """Data -> latent on an (n, T, c) stack in ``ws`` (or a depth-1 one);
    returns (z, per-sample logdet) with z channel-first, a view into it.

    Each step's actnorm is folded into its mix, one matmul of its
    ``ws.folded`` matrix by [h; 1]. With ``init``, each step first sets its
    actnorm to standardize its input over the batch (data-dependent init;
    the returned logdet then holds the scales from before). A full-depth
    ``ws`` keeps what the reverse sweep of :func:`nll_and_grads` needs.
    """
    c_a = model.split[0]
    n, t = grids.shape[:2]
    ws = ws or FlowWorkspace(model, n, t, depth=1)
    ws.load(model, grids, conds)
    logdet = np.full(n, _logdet_const(model, t))
    ws.inv_mixes = np.linalg.inv(model.mix)
    _fold(ws.inv_mixes, model.scale, model.bias, ws.folded)
    for k in range(model.n_steps):
        h0, h = ws.h[k % len(ws.h)], ws.h[(k + 1) % len(ws.h), :-1]
        if init:
            std = h0[:-1].std(axis=1)
            if np.any(std < 1e-12):
                raise ContractError(
                    f"zero-variance channels {np.nonzero(std < 1e-12)[0].tolist()} "
                    "in init batch"
                )
            model.scale[k] = 1.0 / std
            model.bias[k] = -h0[:-1].mean(axis=1) / std
            _fold(ws.inv_mixes[k], model.scale[k], model.bias[k], ws.folded[k])
        slot = k % len(ws.netin)
        np.matmul(ws.folded[k], h0, out=h)
        th, shift = _coupling_raw(k, ws, slot, h[:c_a])
        exp_neg = np.multiply(th, -2.0, out=ws.exp_neg[slot])
        h[c_a:] -= shift  # becomes z_b
        h[c_a:] *= np.exp(exp_neg, out=exp_neg)
        logdet -= 2.0 * th.reshape(len(th) * t, n).sum(axis=0)
    return ws.h[model.n_steps % len(ws.h), :-1], logdet


def _synthesis(model: FlowModel, latents: np.ndarray, conds: np.ndarray):
    """Latent -> data on an (n, T, c) stack; returns (y, per-sample logdet)."""
    c_a = model.split[0]
    n, t = latents.shape[:2]
    ws = FlowWorkspace(model, n, t, depth=1)
    ws.load(model, latents, conds)
    logdet = np.full(n, -_logdet_const(model, t))
    h, h_next = ws.h[:, :-1]
    for k in reversed(range(model.n_steps)):
        th, shift = _coupling_raw(k, ws, 0, h[:c_a])
        exp_pos = np.multiply(th, 2.0, out=ws.exp_neg[0])
        h[c_a:] *= np.exp(exp_pos, out=exp_pos)
        h[c_a:] += shift
        logdet += 2.0 * th.reshape(len(th) * t, n).sum(axis=0)
        np.matmul(model.mix[k], h, out=h_next)
        h_next -= model.bias[k, :, None]
        h_next /= model.scale[k, :, None]
        h, h_next = h_next, h
    return _samples_first(h, t, n), logdet


def _require_initialized(model: FlowModel):
    if not model.initialized:
        raise ContractError(
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


def log_likelihood(model: FlowModel, batch: ConditionedBatch, *,
                   workspace: FlowWorkspace | None = None) -> np.ndarray:
    """Per-sample log-likelihood under the standard-normal prior, computed in
    ``workspace`` (any depth, for the batch's (n, T)) or a depth-1 one."""
    _require_initialized(model)
    _check_shapes(model, batch.targets, batch.conds)
    n, t = batch.targets.shape[:2]
    ws = workspace or FlowWorkspace(model, n, t, depth=1)
    z, logdet = _analysis(model, batch.targets, batch.conds, ws)
    return _log_prob(z, logdet, t, z)  # squares the latents in place


def _log_prob(z: np.ndarray, logdet: np.ndarray, t: int,
              scratch: np.ndarray) -> np.ndarray:
    """Per-sample log-likelihood from channel-first latents of T frames and
    analysis log-determinants; z**2 goes to ``scratch``, shaped like z."""
    sq = np.square(z, out=scratch).reshape(len(z) * t, len(logdet)).sum(axis=0)
    return -(0.5 * sq + 0.5 * len(z) * t * LOG_2PI) + logdet


def nll(model: FlowModel, batch: ConditionedBatch, *, workspace=None) -> float:
    """Mean per-sample negative log-likelihood under the standard-normal prior."""
    return float(-log_likelihood(model, batch, workspace=workspace).mean())


def sample(model: FlowModel, cond: np.ndarray, rng: SeededRng,
           temperature: float = 1.0) -> np.ndarray:
    """Draw one (T, c) grid: z ~ N(0, temperature**2 I) pushed to data space."""
    return sample_batch(model, np.asarray(cond)[None], rng, temperature)[0]


def sample_batch(model: FlowModel, conds: np.ndarray, rng: SeededRng,
                 temperature: float = 1.0) -> np.ndarray:
    """Draw one grid per condition row of an (n, T, d_cond) stack; a draw or
    grid that overflows to a non-finite value is an error."""
    _require_initialized(model)
    if not (np.isfinite(temperature) and temperature > 0):
        raise ContractError(f"temperature must be finite and positive, got "
                            f"{temperature}")
    conds = np.asarray(conds, dtype=np.float64)
    _check_shapes(model, np.empty(conds.shape[:2] + (model.channels,)), conds)
    with np.errstate(over="ignore", invalid="ignore"):
        z = temperature * rng.normal(
            size=(conds.shape[0], conds.shape[1], model.channels)
        )
        y, _ = _synthesis(model, z, conds)
    if not np.all(np.isfinite(y)):
        raise ContractError(f"sampling at temperature {temperature} overflowed "
                            "to non-finite values")
    return y


# ---------------------------------------------------------------------------
# Analytic gradients and training
# ---------------------------------------------------------------------------


def nll_and_grads(model: FlowModel, batch: ConditionedBatch, *,
                  workspace: FlowWorkspace | None = None):
    """NLL and its gradient with respect to ``model.params``, one vector in
    the same layout (hand backprop).

    With ``workspace``, a full-depth :class:`FlowWorkspace` for the batch's
    (n, T), nothing batch-sized is allocated and the returned gradient is the
    workspace's buffer, valid until the next call with it; without, the call
    makes its own workspace and the gradient is a fresh array.
    """
    _require_initialized(model)
    _check_shapes(model, batch.targets, batch.conds)
    c_a = model.split[0]
    n, t = batch.targets.shape[:2]
    ws = workspace or FlowWorkspace(model, n, t)
    if ws.grads is None:
        raise ContractError("nll_and_grads needs a workspace of the model's depth")

    z, logdet = _analysis(model, batch.targets, batch.conds, ws)
    g, g2 = ws.g  # dNLL/d(step output) and dNLL/d(mix output), channel-first
    value = float(-_log_prob(z, logdet, t, g2).mean())
    if not np.isfinite(value):
        raise ContractError(f"non-finite NLL {value}")

    np.divide(z, n, out=g)
    d_out = ws.out  # the net output's gradient: d_raw rows, then -d_hb rows
    d_raw, neg_d_hb = d_out.reshape(2, len(ws.th[0]), z.shape[1])
    g_a, g_b, d_ha, d_hb = g[:c_a], g[c_a:], g2[:c_a], g2[c_a:]
    for k in reversed(range(model.n_steps)):
        act, th = ws.hid[k, :-1], ws.th[k]  # read last here, so overwritten below
        np.multiply(g_b, ws.exp_neg[k], out=d_hb)
        np.negative(g_b, out=d_raw)  # d_ell: z path plus the direct +ell/n term
        d_raw *= ws.h[k + 1, c_a:-1]  # z_b
        d_raw += 1.0 / n
        d_raw *= 2.0
        d_raw *= np.subtract(1.0, np.square(th, out=th), out=th)
        np.negative(d_hb, out=neg_d_hb)
        np.matmul(d_out, ws.hid[k].T, out=ws.w2a[k])  # gradients overwrite w2a, w1a, folded
        d_pre = np.matmul(model.w2[k].T, d_out, out=ws.d_pre)
        d_pre *= np.subtract(1.0, np.square(act, out=act), out=act)
        np.matmul(d_pre, ws.netin[k].T, out=ws.w1a[k])
        np.matmul(model.w1[k, :, : ws.a_rows].T, d_pre, out=d_ha.reshape(ws.a_rows, -1))
        d_ha += g_a
        np.matmul(ws.folded[k, :, :-1].T, g2, out=g)
        np.matmul(g2, ws.h[k].T, out=ws.folded[k])  # after folded[k]'s last read

    grads = ws.grads
    grads.w1[...], grads.b1[...] = ws.w1a[..., :-1], ws.w1a[..., -1]
    grads.w2[...], grads.b2[...] = ws.w2a[..., :-1], ws.w2a[..., -1]
    # Folded actnorm and mix, h2 = inv_mix (h0 * scale + bias): g2 h0^T and g2's
    # row sums, kept in the mix and scale gradients, give all their gradients below.
    grads.mix[...], grads.scale[...] = ws.folded[..., :-1], ws.folded[..., -1]
    inv_mixes, inv_t = ws.inv_mixes, ws.inv_mixes.transpose(0, 2, 1)
    np.matmul(grads.scale[:, None], inv_mixes, out=grads.bias[:, None])
    d_inv = (grads.mix * model.scale[:, None]
             + grads.scale[:, :, None] * model.bias[:, None])
    np.subtract((inv_mixes * grads.mix).sum(axis=1), t / model.scale, out=grads.scale)
    grads.mix[...] = -inv_t @ d_inv @ inv_t + t * inv_t
    return value, grads.params


@dataclass
class TrainResult:
    model: FlowModel
    curve: list  # (step, full-dataset nll)


def train_flow(model: FlowModel, batch: ConditionedBatch, steps: int = 500,
               step_size: float = 2e-3, batch_size: int = 128,
               seed: int = 0) -> TrainResult:
    """Minibatch Adam on the exact NLL with analytic gradients.

    The model must already be actnorm-initialized. The training curve holds
    full-dataset NLLs (step 0, every :data:`EVAL_EVERY` steps, and the final
    step); a non-finite loss raises :class:`ContractError` instead of being
    swallowed. Two workspaces live until the fit returns: a full-depth one
    of ``min(n, batch_size)`` samples for the steps, and one of n for the curve.
    Each step's minibatch is gathered into one batch of that size.
    """
    _require_initialized(model)
    n, t = batch.targets.shape[:2]
    if n < 1:
        raise ContractError("training set must be non-empty")
    rng = SeededRng(seed, stream=0x464C)
    adam = Adam(model.params.size, step_size)
    work = FlowWorkspace(model, min(n, batch_size), t)
    # np.take into ``out`` is several times slower from a stack that is not
    # C-ordered (FlowStrategy stacks transposed grids), so gather from a copy.
    targets, conds = map(np.ascontiguousarray, (batch.targets, batch.conds))
    mini = ConditionedBatch(np.zeros_like(targets[:batch_size]),
                            np.zeros_like(conds[:batch_size]))
    scoring = FlowWorkspace(model, n, t, depth=1)
    curve = [(0, nll(model, batch, workspace=scoring))]
    order = rng.permutation(n)
    cursor = 0
    # A diverging run overflows on its way to a non-finite NLL, which is
    # reported as a ContractError rather than as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, steps + 1):
            if cursor + batch_size > n:
                order = rng.permutation(n)
                cursor = 0
            idx = order[cursor : cursor + batch_size]
            cursor += batch_size
            # idx is in range; "clip" skips the buffered copy "raise" makes
            np.take(targets, idx, axis=0, out=mini.targets, mode="clip")
            np.take(conds, idx, axis=0, out=mini.conds, mode="clip")
            _, grad = nll_and_grads(model, mini, workspace=work)
            adam.step(model.params, grad)
            if it % EVAL_EVERY == 0 or it == steps:
                full = nll(model, batch, workspace=scoring)
                if not np.isfinite(full):
                    raise ContractError(f"non-finite NLL at step {it}")
                curve.append((it, full))
    return TrainResult(model, curve)


def save_model(model: FlowModel, path) -> None:
    """Checkpoint: magic FLW2; u32 K, c, cond_dim, hidden, initialized,
    grid_context (1 exactly when frames > 0), frames; then
    :attr:`FlowModel.params` (step 0's scale, bias, mix, w1, b1, w2, b2, then
    step 1's, ...) as little-endian float32."""
    header = (model.n_steps, model.channels, model.cond_dim, model.hidden,
              int(model.initialized), int(model.frames > 0), model.frames)
    write_binary(path, FLW_MAGIC, header, model.params)


def _checkpoint_floats(header) -> int:
    k, c, cond_dim, hidden, _, grid_ctx, frames = header
    if grid_ctx != (frames > 0):
        raise ContractError(f"grid-context word {grid_ctx} disagrees with "
                            f"frame count {frames}")
    layout = _step_layout(k, c, cond_dim, hidden, frames)
    return k * sum(map(math.prod, layout.values()))


def load_model(path) -> FlowModel:
    header, payload = read_binary(path, FLW_MAGIC, 7, _checkpoint_floats)
    k, c, cond_dim, hidden, inited, _, frames = header
    model = FlowModel(c, cond_dim, k, hidden, frames)
    model.params[...] = payload
    model.initialized = bool(inited)
    return model
