import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oversmooth.core import ContractError, SeededRng
from oversmooth import flow
from oversmooth.flow import (
    ConditionedBatch,
    FlowModel,
    FlowWorkspace,
    actnorm_init,
    forward,
    inverse,
    load_model,
    log_likelihood,
    nll,
    nll_and_grads,
    sample,
    sample_batch,
    save_model,
    train_flow,
)

LOG_2PI = np.log(2 * np.pi)
# Each step's parameters, in the checkpoint payload's order: (K, ...) views
# of FlowModel.params.
LAYOUT = ("scale", "bias", "mix", "w1", "b1", "w2", "b2")


def random_model(seed, channels=4, cond_dim=2, n_steps=8, hidden=16,
                 frames=0, t=6, n_init=32):
    """A ``frames``-coupled model, actnorm-initialized on a T = ``t`` batch."""
    rng = SeededRng(seed)
    model = FlowModel.random(rng, channels, cond_dim, n_steps=n_steps,
                             hidden=hidden, frames=frames)
    batch = ConditionedBatch(
        rng.normal(size=(n_init, t, channels)),
        rng.normal(size=(n_init, t, cond_dim)),
    )
    actnorm_init(model, batch)
    return model


class TestIdentityModel:
    def test_forward_is_identity(self):
        model = FlowModel.identity(4, 2, n_steps=3)
        rng = SeededRng(0)
        z = rng.normal(size=(5, 4))
        cond = rng.normal(size=(5, 2))
        y, logdet = forward(model, z, cond)
        assert np.array_equal(y, z)
        assert logdet == 0.0

    def test_inverse_is_identity(self):
        model = FlowModel.identity(3, 1, n_steps=2)
        rng = SeededRng(1)
        y = rng.normal(size=(4, 3))
        z, logdet = inverse(model, y, np.zeros((4, 1)))
        assert np.array_equal(z, y)
        assert logdet == 0.0


class TestChannelMixStep:
    def make_doubling_model(self, channels=4):
        model = FlowModel.identity(channels, 1, n_steps=1)
        model.mix[0] = 2.0 * np.eye(channels)
        return model

    def test_forward_logdet(self):
        model = self.make_doubling_model()
        z = np.ones((10, 4))
        y, logdet = forward(model, z, np.zeros((10, 1)))
        assert np.allclose(y, 2.0 * z)
        assert logdet == pytest.approx(10 * 4 * np.log(2), rel=1e-12)

    def test_inverse_halves(self):
        model = self.make_doubling_model()
        y = np.ones((10, 4))
        z, logdet = inverse(model, y, np.zeros((10, 1)))
        assert np.allclose(z, y / 2.0)
        assert logdet == pytest.approx(-10 * 4 * np.log(2), rel=1e-12)

    def test_change_of_variables_identity(self):
        doubling = self.make_doubling_model()
        identity = FlowModel.identity(4, 1, n_steps=1)
        rng = SeededRng(2)
        y = rng.normal(size=(3, 10, 4))
        cond = np.zeros((3, 10, 1))
        d = 10 * 4
        lhs = nll(doubling, ConditionedBatch(y, cond))
        rhs = nll(identity, ConditionedBatch(y / 2.0, cond)) + d * np.log(2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_singular_mix_is_a_contract_error(self):
        model = FlowModel.identity(4, 1, n_steps=2)
        model.mix[1] = 0.0
        z, cond = np.zeros((3, 4)), np.zeros((3, 1))
        for direction in (forward, inverse):
            with pytest.raises(ContractError, match="step 1 is singular"):
                direction(model, z, cond)

    def test_zero_actnorm_scale_is_a_contract_error(self):
        model = FlowModel.identity(4, 1, n_steps=3)
        model.scale[2, 1] = 0.0
        z, cond = np.zeros((3, 4)), np.zeros((3, 1))
        batch = ConditionedBatch(z[None], cond[None])
        calls = (lambda: forward(model, z, cond), lambda: inverse(model, z, cond),
                 lambda: nll(model, batch))
        for call in calls:  # a warning would fail the test too
            with pytest.raises(ContractError, match="scale of step 2 has a zero"):
                call()


class TestActnormInit:
    def test_standardized_batch_near_identity(self):
        rng = SeededRng(3)
        data = rng.normal(size=(4000, 6, 3))
        data = (data - data.reshape(-1, 3).mean(0)) / data.reshape(-1, 3).std(0)
        model = FlowModel.random(rng, 3, 1, n_steps=1, weight_scale=0.0)
        actnorm_init(model, ConditionedBatch(data, np.zeros((4000, 6, 1))))
        assert np.allclose(model.scale[0], 1.0, atol=1e-6)
        assert np.allclose(model.bias[0], 0.0, atol=1e-6)

    @pytest.mark.parametrize("frames", [0, 4])
    def test_shifted_batch_standardizes(self, frames):
        rng = SeededRng(4)
        data = 5.0 + 2.0 * rng.normal(size=(5000, 4, 2))
        model = FlowModel.random(rng, 2, 1, n_steps=1, weight_scale=0.0,
                                 frames=frames)
        actnorm_init(model, ConditionedBatch(data, np.zeros((5000, 4, 1))))
        assert np.allclose(model.scale[0], 0.5, atol=0.02)
        assert np.allclose(model.bias[0], -2.5, atol=0.1)
        normalized = model.scale[0] * data + model.bias[0]
        flat = normalized.reshape(-1, 2)
        assert np.all(np.abs(flat.mean(axis=0)) < 1e-5)
        assert np.all(np.abs(flat.std(axis=0) - 1.0) < 1e-3)

    def test_constant_channel_rejected(self):
        rng = SeededRng(5)
        data = rng.normal(size=(100, 4, 3))
        data[:, :, 1] = 7.0
        model = FlowModel.random(rng, 3, 1, n_steps=1)
        with pytest.raises(ContractError, match=r"zero-variance channels \[1\]"):
            actnorm_init(model, ConditionedBatch(data, np.zeros((100, 4, 1))))

    def test_double_init_rejected(self):
        model = random_model(6)
        with pytest.raises(ContractError):
            actnorm_init(model, ConditionedBatch(np.ones((2, 6, 4)),
                                                 np.ones((2, 6, 2))))

    def test_uninitialized_use_rejected(self):
        rng = SeededRng(7)
        model = FlowModel.random(rng, 4, 2, n_steps=1)
        with pytest.raises(ContractError, match="run actnorm_init"):
            forward(model, np.zeros((3, 4)), np.zeros((3, 2)))


class TestGridContextWeightOrder:
    def test_one_step_matches_a_hand_computed_coupling(self):
        rng = SeededRng(47)
        t, c, d, hidden = 4, 4, 2, 5
        model = FlowModel.random(rng, c, d, n_steps=1, hidden=hidden,
                                 weight_scale=0.5, frames=t)
        scale, bias, mix, w1, b1, w2, b2 = (getattr(model, name)[0]
                                            for name in LAYOUT)
        scale[...] = rng.uniform(0.5, 2.0, size=c)
        bias[...] = rng.normal(size=c)
        b1[...] = rng.normal(size=hidden)
        b2[...] = rng.normal(size=4 * t)
        model.initialized = True
        y, cond = rng.normal(size=(t, c)), rng.normal(size=(t, d))

        # One grid's net input is channel-major: every frame of h_a's
        # channel 0, then of channel 1, then of each condition channel; its
        # output is every frame of each raw log-scale channel, then of each
        # shift channel.
        h = (scale * y + bias) @ np.linalg.inv(mix).T
        h_a, h_b = h[:, :2], h[:, 2:]
        x = np.concatenate([h_a.T.ravel(), cond.T.ravel()])
        out = w2 @ np.tanh(w1 @ x + b1) + b2
        ell = 2.0 * np.tanh(out[:2 * t].reshape(2, t).T)
        shift = out[2 * t:].reshape(2, t).T
        expected_z = np.concatenate([h_a, (h_b - shift) * np.exp(-ell)], axis=1)
        expected_logdet = (t * (np.log(scale).sum()
                                - np.linalg.slogdet(mix)[1]) - ell.sum())

        z, logdet = inverse(model, y, cond)
        assert np.allclose(z, expected_z, rtol=1e-12, atol=1e-12)
        assert logdet == pytest.approx(expected_logdet, rel=1e-12)


class TestRoundTrip:
    @pytest.mark.parametrize("n_steps", [1, 8, 16])
    @pytest.mark.parametrize("frames", [0, 6])
    def test_inverse_of_forward(self, n_steps, frames):
        model = random_model(8 + n_steps, n_steps=n_steps, frames=frames)
        rng = SeededRng(9)
        z = rng.normal(size=(6, 4))
        cond = rng.normal(size=(6, 2))
        y, ld_f = forward(model, z, cond)
        z2, ld_i = inverse(model, y, cond)
        assert np.max(np.abs(z - z2)) < 1e-6
        assert ld_f == pytest.approx(-ld_i, abs=1e-8)

    def test_forward_of_inverse(self):
        model = random_model(10)
        rng = SeededRng(11)
        y = rng.normal(size=(6, 4))
        cond = rng.normal(size=(6, 2))
        z, _ = inverse(model, y, cond)
        y2, _ = forward(model, z, cond)
        assert np.max(np.abs(y - y2)) < 1e-6


class TestNll:
    def test_identity_at_zero_closed_form(self):
        model = FlowModel.identity(4, 1, n_steps=1)
        batch = ConditionedBatch(np.zeros((1, 2, 4)), np.zeros((1, 2, 1)))
        assert nll(model, batch) == pytest.approx(4.0 * LOG_2PI, abs=1e-9)

    def test_identity_on_gaussian_data(self):
        model = FlowModel.identity(4, 1, n_steps=1)
        rng = SeededRng(12)
        n, t, c = 400, 5, 4
        batch = ConditionedBatch(rng.normal(size=(n, t, c)),
                                 np.zeros((n, t, 1)))
        d = t * c
        expected = 0.5 * d * (1 + LOG_2PI)
        sd = np.sqrt(d / 2.0) / np.sqrt(n)  # var of 0.5*chi2_d mean
        assert abs(nll(model, batch) - expected) < 3 * sd

    def test_invariant_to_appended_identity_step(self):
        model = random_model(13, n_steps=4)
        rng = SeededRng(14)
        batch = ConditionedBatch(rng.normal(size=(8, 6, 4)),
                                 rng.normal(size=(8, 6, 2)))
        longer = FlowModel(4, 2, 5, 16)  # one params vector for 5 steps
        longer.params[...] = np.concatenate(
            [model.params, FlowModel.identity(4, 2, n_steps=1, hidden=16).params])
        longer.initialized = True
        assert nll(longer, batch) == pytest.approx(nll(model, batch), rel=1e-12)

    @pytest.mark.parametrize("frames", [0, 6])
    def test_empty_batch(self, frames):
        model = random_model(15, frames=frames)
        empty = ConditionedBatch(np.zeros((0, 6, 4)), np.zeros((0, 6, 2)))
        assert flow.log_likelihood(model, empty).shape == (0,)
        assert sample_batch(model, empty.conds, SeededRng(16)).shape == (0, 6, 4)


class TestLogdetAgainstNumericJacobian:
    @pytest.mark.parametrize("frames", [0, 2])
    def test_matches_assembled_jacobian(self, frames):
        model = random_model(15, channels=4, frames=frames, t=2, n_steps=4)
        rng = SeededRng(16)
        z = rng.normal(size=(2, 4))
        cond = rng.normal(size=(2, 2))
        _, logdet = forward(model, z, cond)
        d = z.size
        jac = np.zeros((d, d))
        eps = 1e-6
        for i in range(d):
            zp = z.ravel().copy()
            zp[i] += eps
            zm = z.ravel().copy()
            zm[i] -= eps
            yp, _ = forward(model, zp.reshape(z.shape), cond)
            ym, _ = forward(model, zm.reshape(z.shape), cond)
            jac[:, i] = (yp - ym).ravel() / (2 * eps)
        _, numeric = np.linalg.slogdet(jac)
        assert logdet == pytest.approx(numeric, rel=1e-4)


class TestGradients:
    @pytest.mark.parametrize("frames", [0, 2])
    def test_every_parameter_matches_finite_differences(self, frames):
        model = random_model(17, channels=2, cond_dim=1, n_steps=2, hidden=4,
                             frames=frames, t=2)
        rng = SeededRng(18)
        batch = ConditionedBatch(rng.normal(size=(3, 2, 2)),
                                 rng.normal(size=(3, 2, 1)))
        _, flat = nll_and_grads(model, batch)
        theta = model.params
        assert flat.shape == theta.shape
        eps = 1e-5
        for i in range(len(theta)):
            orig = theta[i]
            theta[i] = orig + eps
            hi = nll(model, batch)
            theta[i] = orig - eps
            lo = nll(model, batch)
            theta[i] = orig
            fd = (hi - lo) / (2 * eps)
            denom = max(1e-8, abs(fd) + abs(flat[i]))
            assert abs(flat[i] - fd) / denom < 1e-3


class TestSampling:
    def test_identity_sample_statistics(self):
        model = FlowModel.identity(10, 1, n_steps=1)
        rng = SeededRng(19)
        draws = sample_batch(model, np.zeros((100, 10, 1)), rng)
        values = draws.ravel()  # 10^4 standard normals
        assert abs(values.mean()) < 0.05
        assert 0.95 < values.std() < 1.05

    def test_zero_temperature_limit(self):
        model = random_model(20)
        cond = SeededRng(21).normal(size=(6, 2))
        base, _ = forward(model, np.zeros((6, 4)), cond)
        draw = sample(model, cond, SeededRng(22), temperature=1e-12)
        assert np.max(np.abs(draw - base)) < 1e-9

    def test_bit_identical_given_seed(self):
        model = random_model(23)
        cond = SeededRng(24).normal(size=(6, 2))
        a = sample(model, cond, SeededRng(77, 5))
        b = sample(model, cond, SeededRng(77, 5))
        assert np.array_equal(a, b)

    def test_sample_then_score_consistency(self):
        model = random_model(25, n_steps=4)
        rng = SeededRng(26)
        conds = np.repeat(rng.normal(size=(1, 6, 2)), 3000, axis=0)
        batch_a = ConditionedBatch(sample_batch(model, conds, rng), conds)
        batch_b = ConditionedBatch(sample_batch(model, conds, rng), conds)
        ll_a = flow.log_likelihood(model, batch_a)
        ll_b = flow.log_likelihood(model, batch_b)
        diff = ll_a.mean() - ll_b.mean()
        stderr = np.sqrt(ll_a.var() / len(ll_a) + ll_b.var() / len(ll_b))
        assert abs(diff) < 3 * stderr


class TestTraining:
    def test_recovers_known_generating_flow(self):
        gen_rng = SeededRng(27)
        generator = FlowModel.random(gen_rng, 4, 1, n_steps=2, hidden=8,
                                     weight_scale=0.3)
        generator.initialized = True
        n, t = 2000, 8
        conds = np.zeros((n, t, 1))
        data = sample_batch(generator, conds, gen_rng)
        batch = ConditionedBatch(data, conds)
        gen_nll = nll(generator, batch)

        student = FlowModel.random(SeededRng(28), 4, 1, n_steps=4, hidden=8)
        actnorm_init(student, batch)
        result = train_flow(student, batch, steps=1500, step_size=3e-3,
                            batch_size=256, seed=29)
        d = t * 4
        assert abs(result.curve[-1][1] - gen_nll) / d < 0.1

    def test_nothing_to_learn_stays_put(self):
        rng = SeededRng(30)
        n, t, c = 1000, 8, 4
        batch = ConditionedBatch(rng.normal(size=(n, t, c)),
                                 np.zeros((n, t, 1)))
        model = FlowModel.identity(c, 1, n_steps=2)
        result = train_flow(model, batch, steps=300, step_size=1e-3, seed=31)
        d = t * c
        entropy = 0.5 * d * (1 + LOG_2PI)
        assert abs(result.curve[-1][1] - entropy) / d < 0.05

    def test_loss_decreases(self):
        model = random_model(32, n_steps=4)
        rng = SeededRng(33)
        data = 0.5 * rng.normal(size=(500, 6, 4)) + 1.0
        batch = ConditionedBatch(data, rng.normal(size=(500, 6, 2)))
        result = train_flow(model, batch, steps=200, step_size=2e-3, seed=34)
        assert result.curve[-1][1] <= result.curve[0][1]

    def test_requires_initialized(self):
        model = FlowModel.random(SeededRng(35), 4, 1, n_steps=1)
        batch = ConditionedBatch(np.zeros((4, 2, 4)), np.zeros((4, 2, 1)))
        with pytest.raises(ContractError, match="run actnorm_init"):
            train_flow(model, batch, steps=1)


def reference_train(model, batch, steps, step_size, batch_size, seed,
                    eval_every):
    """train_flow's loop with every NLL and gradient allocated per call and
    the textbook Adam update written out."""
    rng = SeededRng(seed, stream=0x464C)
    m = np.zeros_like(model.params)
    v = np.zeros_like(model.params)
    curve = [(0, nll(model, batch))]
    order, cursor = rng.permutation(len(batch)), 0
    for it in range(1, steps + 1):
        if cursor + batch_size > len(batch):
            order, cursor = rng.permutation(len(batch)), 0
        idx = order[cursor : cursor + batch_size]
        cursor += batch_size
        _, g = nll_and_grads(model, ConditionedBatch(batch.targets[idx],
                                                     batch.conds[idx]))
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g * g
        m_hat = m / (1 - 0.9**it)
        v_hat = v / (1 - 0.999**it)
        model.params -= step_size * m_hat / (np.sqrt(v_hat) + 1e-8)
        if it % eval_every == 0 or it == steps:
            curve.append((it, nll(model, batch)))
    return curve


def per_step_nll_and_grads(model, batch, *, workspace=None):
    """nll_and_grads with every step's gradients written in the reverse sweep
    and its actnorm and mix gradients formed there by c x c products, one
    step at a time: the reference for the stacked gradient tail. The sweep
    takes each step's g2 [h0; 1]^T from the same augmented matmul, whose
    last column holds g2's row sums."""
    c_a = model.split[0]
    n, t = batch.targets.shape[:2]
    ws = workspace or FlowWorkspace(model, n, t)
    z, logdet = flow._analysis(model, batch.targets, batch.conds, ws)
    g, g2 = ws.g
    value = float(-flow._log_prob(z, logdet, t, g2).mean())
    np.divide(z, n, out=g)
    d_out = ws.out
    d_raw, neg_d_hb = d_out.reshape(2, len(ws.th[0]), z.shape[1])
    g_a, g_b, d_ha, d_hb = g[:c_a], g[c_a:], g2[:c_a], g2[c_a:]
    grads = ws.grads
    for k in reversed(range(model.n_steps)):
        inv_mix, scale, bias = ws.inv_mixes[k], model.scale[k], model.bias[k]
        hid, th = ws.hid[k], ws.th[k]
        np.multiply(g_b, ws.exp_neg[k], out=d_hb)
        np.negative(g_b, out=d_raw)
        d_raw *= ws.h[k + 1, c_a:-1]
        d_raw += 1.0 / n
        d_raw *= 2.0
        d_raw *= np.subtract(1.0, np.square(th, out=th), out=th)
        np.negative(d_hb, out=neg_d_hb)
        d_w2a = d_out @ hid.T
        grads.w2[k], grads.b2[k] = d_w2a[:, :-1], d_w2a[:, -1]
        d_pre = model.w2[k].T @ d_out
        d_pre *= 1.0 - hid[:-1] ** 2
        d_w1a = d_pre @ ws.netin[k].T
        grads.w1[k], grads.b1[k] = d_w1a[:, :-1], d_w1a[:, -1]
        np.matmul(model.w1[k, :, : ws.a_rows].T, d_pre, out=d_ha.reshape(ws.a_rows, -1))
        d_ha += g_a
        d_folded = g2 @ ws.h[k].T
        m0, s2 = d_folded[:, :-1].copy(), d_folded[:, -1].copy()
        d_inv = m0 * scale + np.outer(s2, bias)
        grads.mix[k] = -inv_mix.T @ d_inv @ inv_mix.T + t * inv_mix.T
        grads.scale[k] = (inv_mix * m0).sum(axis=0) - t / scale
        np.matmul(s2, inv_mix, out=grads.bias[k])
        np.matmul(ws.folded[k, :, :-1].T, g2, out=g)
    return value, ws.grads.params


class TestStackedGradientTail:
    """The actnorm and mix gradients of every step, formed at once from
    stacked views after the sweep, equal the per-step c x c formula bit for
    bit: in the value, the whole gradient vector and a trained model."""

    @pytest.mark.parametrize("frames", [0, 4])
    @pytest.mark.parametrize("channels", [5, 8])
    @pytest.mark.parametrize("n_steps", [1, 6])
    def test_value_and_gradient(self, frames, channels, n_steps):
        model = random_model(60, channels=channels, cond_dim=3, n_steps=n_steps,
                             hidden=7, frames=frames, t=4)
        rng = SeededRng(61)
        batch = ConditionedBatch(rng.normal(size=(9, 4, channels)) * 2 + 1,
                                 rng.normal(size=(9, 4, 3)))
        value, grad = nll_and_grads(model, batch)
        ref_value, ref_grad = per_step_nll_and_grads(model, batch)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("frames", [0, 4])
    def test_train_flow_params(self, frames, monkeypatch):
        model, ref = (random_model(62, channels=5, cond_dim=3, n_steps=6,
                                   hidden=7, frames=frames, t=4)
                      for _ in range(2))
        rng = SeededRng(63)
        batch = ConditionedBatch(rng.normal(size=(40, 4, 5)),
                                 rng.normal(size=(40, 4, 3)))
        result = train_flow(model, batch, steps=100, batch_size=16, seed=64)
        monkeypatch.setattr(flow, "nll_and_grads", per_step_nll_and_grads)
        ref_result = train_flow(ref, batch, steps=100, batch_size=16, seed=64)
        assert result.curve == ref_result.curve
        assert np.array_equal(model.params, ref.params)


class TestWorkspace:
    """A workspace moves the buffers, never a bit of the result. The
    canonical toy grid (8 channels = 8 frames, 4 condition channels, even
    halves) hides shape mix-ups, so these shapes differ in each."""

    SHAPES = {
        "odd_channels": dict(channels=5, cond_dim=3, frames=0, t=4),
        "grid_6_frames_5_channels": dict(channels=5, cond_dim=3, frames=6, t=6),
    }

    def model_and_batches(self, shape, n=9):
        kw = self.SHAPES[shape]
        model = random_model(40, n_steps=3, hidden=7, **kw)
        rng = SeededRng(41)
        batches = [ConditionedBatch(
            rng.normal(size=(n, kw["t"], kw["channels"])),
            rng.normal(size=(n, kw["t"], kw["cond_dim"])))
            for _ in range(2)]
        return model, batches

    @pytest.mark.parametrize("shape", SHAPES)
    def test_nll_and_grads_equal_the_call_without(self, shape):
        model, batches = self.model_and_batches(shape)
        ws = FlowWorkspace(model, 9, self.SHAPES[shape]["t"])
        for batch in batches + batches:  # the reused workspace stays exact
            value, grad = nll_and_grads(model, batch)
            ws_value, ws_grad = nll_and_grads(model, batch, workspace=ws)
            assert ws_value == value and np.array_equal(ws_grad, grad)
            assert ws_grad is ws.grads.params  # the workspace's buffer

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("depth", [0, 1])
    def test_log_likelihood_equals_the_call_without(self, shape, depth):
        model, batches = self.model_and_batches(shape)
        ws = FlowWorkspace(model, 9, self.SHAPES[shape]["t"], depth=depth)
        for batch in batches + batches:
            assert np.array_equal(log_likelihood(model, batch, workspace=ws),
                                  log_likelihood(model, batch))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_passes_in_turn_on_reused_workspaces(self, shape):
        # Each pass leaves the workspaces' ones rows as it found them: a
        # backward sweep that squares ``hid`` in place, or an in-place update
        # of ``h``, must stop at the ones row.
        model, batches = self.model_and_batches(shape)
        t = self.SHAPES[shape]["t"]
        full, single = FlowWorkspace(model, 9, t), FlowWorkspace(model, 9, t, depth=1)

        def passes(batch, full=None, single=None):
            value, grad = nll_and_grads(model, batch, workspace=full)
            return [value, grad.copy(), log_likelihood(model, batch, workspace=full),
                    log_likelihood(model, batch, workspace=single),
                    sample_batch(model, batch.conds, SeededRng(42))]

        fresh = [passes(batch) for batch in batches]
        for _ in range(2):
            for batch, expected in zip(batches, fresh):
                for got, want in zip(passes(batch, full, single), expected):
                    assert np.array_equal(got, want)

    def test_only_a_full_depth_workspace_has_backward_buffers(self):
        model, (batch, _) = self.model_and_batches("odd_channels")
        single, full = FlowWorkspace(model, 9, 4, depth=1), FlowWorkspace(model, 9, 4)
        assert single.g is single.d_pre is single.grads is None
        assert full.g.shape == (2, 5, 36) and full.d_pre.shape == (7, 36)
        with pytest.raises(ContractError, match="workspace of the model's depth"):
            nll_and_grads(model, batch, workspace=single)

    def test_gradient_without_workspace_is_not_overwritten(self):
        model, (first, second) = self.model_and_batches("odd_channels")
        _, grad = nll_and_grads(model, first)
        kept = grad.copy()
        _, later = nll_and_grads(model, second)
        assert not np.array_equal(later, kept)
        assert np.array_equal(grad, kept)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_train_flow_with_fewer_samples_than_a_batch(self, shape, monkeypatch):
        (model, (batch, _)), (ref, _) = (self.model_and_batches(shape, n=20),
                                         self.model_and_batches(shape, n=20))
        monkeypatch.setattr(flow, "EVAL_EVERY", 10)  # a curve point between steps
        result = train_flow(model, batch, steps=25, step_size=1e-2,
                            batch_size=128, seed=7)
        curve = reference_train(ref, batch, 25, 1e-2, 128, 7, 10)
        assert [s for s, _ in result.curve] == [0, 10, 20, 25]
        assert result.curve == curve
        assert np.array_equal(model.params, ref.params)


def step_arrays(model):
    """Every step's arrays, row k of each (K, ...) view, in the checkpoint
    payload's order."""
    return [getattr(model, name)[k] for k in range(model.n_steps)
            for name in LAYOUT]


class TestParamsVector:
    @pytest.mark.parametrize("frames", [0, 6])
    def test_every_step_array_is_a_view_of_params(self, frames, tmp_path):
        # Odd channel counts and a zero-width coupling net (empty w1, b1
        # and w2 views, ``flow train --hidden 0``) included.
        for channels, hidden in [(4, 16), (5, 16), (4, 0), (5, 0)]:
            model = random_model(42, channels=channels, n_steps=3, hidden=hidden,
                                 frames=frames)
            save_model(model, tmp_path / "m.flw")
            identity = FlowModel.identity(channels, 2, n_steps=3, hidden=hidden,
                                          frames=frames)
            for m in (model, identity, load_model(tmp_path / "m.flw")):
                views = [getattr(m, name) for name in LAYOUT]
                assert [len(v) for v in views] == [3] * len(LAYOUT)
                assert all(v.size == 0 or np.shares_memory(v, m.params)
                           for v in views)
                assert np.array_equal(
                    np.concatenate([a.ravel() for a in step_arrays(m)]), m.params)

    def test_checkpoint_payload_is_params_as_float32(self, tmp_path):
        model = random_model(43, n_steps=3)
        path = tmp_path / "m.flw"
        save_model(model, path)
        assert path.read_bytes()[4 + 4 * 7:] == model.params.astype("<f4").tobytes()

    def test_a_train_step_moves_params_and_every_view(self):
        model = random_model(44, n_steps=2)
        params = model.params
        before = [a.copy() for a in step_arrays(model)]
        rng = SeededRng(45)
        batch = ConditionedBatch(rng.normal(size=(8, 6, 4)),
                                 rng.normal(size=(8, 6, 2)))
        train_flow(model, batch, steps=1, batch_size=8, seed=46)
        assert model.params is params
        after = step_arrays(model)
        assert all(np.shares_memory(a, params) for a in after)
        assert not any(np.array_equal(a, b) for a, b in zip(after, before))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = random_model(36, n_steps=3)
        path = tmp_path / "model.flw"
        save_model(model, path)
        assert path.read_bytes()[:4] == b"FLW2"
        back = load_model(path)
        assert back.channels == model.channels
        assert back.cond_dim == model.cond_dim
        assert back.initialized
        assert back.n_steps == 3
        rng = SeededRng(37)
        z = rng.normal(size=(6, 4)).astype(np.float32).astype(np.float64)
        cond = rng.normal(size=(6, 2)).astype(np.float32).astype(np.float64)
        y1, _ = forward(model, z, cond)
        y2, _ = forward(back, z, cond)
        assert np.allclose(y1, y2, atol=1e-4)

    def test_grid_context_roundtrip(self, tmp_path):
        model = random_model(38, frames=6)
        path = tmp_path / "grid.flw"
        save_model(model, path)
        back = load_model(path)
        assert back.frames == 6 and back.column_frames == 6

    @pytest.mark.parametrize("frames, words", [(0, (0, 0)), (6, (1, 6))])
    def test_header_words(self, tmp_path, frames, words):
        # The last two FLW2 header words are (grid context, frame count), the
        # first 1 exactly when frames > 0, so every FLW2 file stays readable.
        path = tmp_path / "m.flw"
        save_model(random_model(49, n_steps=2, hidden=3, frames=frames), path)
        header = struct.unpack("<7I", path.read_bytes()[4:32])
        assert header == (2, 4, 2, 3, 1) + words

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.flw"
        path.write_bytes(b"WHAT" + b"\x00" * 40)
        with pytest.raises(ContractError, match="expected magic b'FLW2'"):
            load_model(path)

    @pytest.mark.parametrize("header", [
        (10**6, 4, 2, 16, 1, 0, 0),
        (2**32 - 1, 4, 2, 16, 1, 0, 0),
        (1, 65535, 2, 16, 1, 0, 0),
        (3, 4, 2, 2**32 - 1, 1, 1, 2**32 - 1),
    ])
    def test_oversized_header_rejected_before_allocating(self, tmp_path, header):
        path = tmp_path / "huge.flw"
        path.write_bytes(b"FLW2" + struct.pack("<7I", *header))
        start = time.process_time()
        with pytest.raises(ContractError, match="payload is 0 bytes, header implies"):
            load_model(path)
        assert time.process_time() - start < 0.1

    @pytest.mark.parametrize("grid_ctx, frames", [(1, 0), (0, 5)])
    def test_grid_context_word_must_match_frames(self, tmp_path, grid_ctx, frames):
        path = tmp_path / "grid.flw"
        path.write_bytes(b"FLW2" + struct.pack("<7I", 1, 4, 2, 16, 1, grid_ctx, frames))
        with pytest.raises(ContractError, match=f"grid-context word {grid_ctx} "
                                                f"disagrees with frame count {frames}"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        path = tmp_path / "m.flw"
        save_model(random_model(48, n_steps=2), path)
        data = bytearray(path.read_bytes())
        data[40:44] = np.float32(value).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ContractError, match="non-finite"):
            load_model(path)

    def test_zero_step_header_rejected(self, tmp_path):
        path = tmp_path / "empty.flw"
        path.write_bytes(b"FLW2" + struct.pack("<7I", 0, 4, 2, 16, 1, 0, 0))
        with pytest.raises(ContractError, match="at least one step"):
            load_model(path)

    def test_zero_step_model_rejected(self):
        with pytest.raises(ContractError, match="at least one step"):
            FlowModel(4, 2, 0, 16)

    def test_negative_frames_rejected(self):
        with pytest.raises(ContractError, match="frame count must be >= 0"):
            FlowModel(4, 2, 1, 16, frames=-1)

    @settings(max_examples=25, deadline=None)
    @given(channels=st.integers(2, 5), cond_dim=st.integers(0, 3),
           n_steps=st.integers(1, 3), hidden=st.integers(1, 5),
           frames=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, channels, cond_dim, n_steps, hidden,
                                frames, seed, tmp_path_factory):
        model = FlowModel.random(SeededRng(seed), channels, cond_dim,
                                 n_steps=n_steps, hidden=hidden, frames=frames)
        path = tmp_path_factory.mktemp("flw") / "m.flw"
        save_model(model, path)
        back = load_model(path)
        assert (back.channels, back.cond_dim, back.hidden, back.frames,
                back.initialized) == (channels, cond_dim, hidden, frames, False)
        assert np.array_equal(back.params,
                              model.params.astype(np.float32).astype(np.float64))

    @settings(max_examples=40, deadline=None)
    @given(cut=st.integers(0, 10**4), extra=st.binary(min_size=1, max_size=9),
           magic=st.binary(min_size=4, max_size=4))
    def test_malformed_files_are_contract_errors(self, cut, extra, magic,
                                                 tmp_path_factory):
        model = random_model(39, n_steps=2, hidden=3)
        path = tmp_path_factory.mktemp("flw") / "m.flw"
        save_model(model, path)
        data = path.read_bytes()
        variants = [data[: cut % len(data)], data + extra]
        if magic != b"FLW2":
            variants.append(magic + data[4:])
        for variant in variants:
            path.write_bytes(variant)
            with pytest.raises(ContractError):
                load_model(path)

    def test_params_roundtrip_grid_context(self):
        model = random_model(40, frames=6)
        other = FlowModel.identity(4, 2, n_steps=8, frames=6)
        other.params[...] = model.params
        rng = SeededRng(41)
        z, cond = rng.normal(size=(6, 4)), rng.normal(size=(6, 2))
        assert np.array_equal(forward(model, z, cond)[0],
                              forward(other, z, cond)[0])
