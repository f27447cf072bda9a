import numpy as np
import pytest

from oversmooth.core import ContractError, SeededRng, Spectrogram
from oversmooth.gan import (
    TinyDiscriminator,
    WindowSpec,
    discriminator_score,
    discriminator_score_and_grads,
    lsgan_d_loss,
    lsgan_g_loss,
    random_windows,
)


def sets(*values):
    return [[v] for v in values]


class TestLsganLosses:
    def test_perfect_discriminator(self):
        assert lsgan_d_loss(sets(1, 1, 1), sets(0, 0, 0)) == 0.0

    def test_equilibrium_half(self):
        assert lsgan_d_loss(sets(0.5, 0.5, 0.5), sets(0.5, 0.5, 0.5)) == 1.5

    def test_fully_fooled(self):
        assert lsgan_d_loss(sets(0, 0, 0), sets(1, 1, 1)) == 6.0

    def test_generator_perfect(self):
        assert lsgan_g_loss(sets(1, 1, 1)) == 0.0

    def test_generator_half(self):
        assert lsgan_g_loss(sets(0.5, 0.5, 0.5)) == 0.25

    def test_generator_zero(self):
        assert lsgan_g_loss(sets(0, 0, 0)) == 1.0

    def test_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            real = [rng.normal(size=4) for _ in range(3)]
            fake = [rng.normal(size=4) for _ in range(3)]
            assert lsgan_d_loss(real, fake) >= 0.0
            assert lsgan_g_loss(fake) >= 0.0

    def test_mean_within_sets(self):
        # loss uses per-critic means, then combines across the three critics
        assert lsgan_g_loss([[1, 0], [1, 0], [1, 0]]) == pytest.approx(0.5)

    def test_empty_set_rejected(self):
        with pytest.raises(ContractError):
            lsgan_g_loss([[1.0], [], [0.5]])

    def test_wrong_count_rejected(self):
        with pytest.raises(ContractError):
            lsgan_d_loss(sets(1, 1), sets(0, 0))


class TestRandomWindows:
    def test_clamped_lengths(self):
        spec = Spectrogram(np.zeros((100, 5)))
        clips, offsets = random_windows(spec, WindowSpec((32, 64, 128)),
                                        SeededRng(1))
        assert [c.shape[0] for c in clips] == [32, 64, 100]
        assert offsets[2] == 0
        assert all(c.shape[1] == 5 for c in clips)

    def test_exact_fit_offset_zero(self):
        values = np.arange(64 * 2, dtype=float).reshape(64, 2)
        clips, offsets = random_windows(values, WindowSpec((64, 64, 64)),
                                        SeededRng(2))
        assert offsets == [0, 0, 0]
        for clip in clips:
            assert np.array_equal(clip, values)

    def test_deterministic_given_stream(self):
        spec = np.random.default_rng(3).normal(size=(200, 4))
        a, offsets_a = random_windows(spec, WindowSpec(), SeededRng(9, 4))
        b, offsets_b = random_windows(spec, WindowSpec(), SeededRng(9, 4))
        assert offsets_a == offsets_b
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_never_out_of_bounds(self):
        spec = np.random.default_rng(4).normal(size=(70, 3))
        rng = SeededRng(5)
        for i in range(200):
            clips, offsets = random_windows(spec, WindowSpec(), rng.substream(i))
            for clip, offset in zip(clips, offsets):
                assert clip.shape[0] <= 70
                assert np.array_equal(clip, spec[offset : offset + len(clip)])

    def test_union_coverage(self):
        t = 100
        spec = np.arange(t, dtype=float)[:, None] * np.ones((1, 2))
        covered = np.zeros(t, dtype=bool)
        rng = SeededRng(6)
        for i in range(200):
            clips, _ = random_windows(spec, WindowSpec((32, 64, 128)),
                                      rng.substream(i))
            clip = clips[1]  # the length-64 window
            start = int(clip[0, 0])
            covered[start : start + 64] = True
        assert covered.all()

    def test_window_count_fixed(self):
        with pytest.raises(ContractError):
            WindowSpec((32, 64))


class TestDiscriminator:
    def test_zero_final_affine_scores_zero(self):
        disc = TinyDiscriminator.random(SeededRng(7))
        disc.out_w[...] = 0.0
        disc.out_b[...] = 0.0
        clip = SeededRng(8).normal(size=(16, 12))
        assert discriminator_score(disc, clip) == 0.0

    def test_identical_clips_identical_scores(self):
        disc = TinyDiscriminator.random(SeededRng(9))
        clip = SeededRng(10).normal(size=(32, 20))
        assert discriminator_score(disc, clip) == discriminator_score(
            disc, clip.copy()
        )

    def test_too_small_clip(self):
        disc = TinyDiscriminator.random(SeededRng(11))
        with pytest.raises(ContractError):
            discriminator_score(disc, np.zeros((4, 4)))

    def test_gradients_match_finite_differences(self):
        disc = TinyDiscriminator.random(SeededRng(12))
        clip = SeededRng(13).normal(size=(8, 8))
        _, grads = discriminator_score_and_grads(disc, clip)
        eps = 1e-6
        rng = np.random.default_rng(14)

        def rel_err(analytic, fd):
            return abs(analytic - fd) / max(1e-9, abs(analytic) + abs(fd))

        for stage in range(3):
            w = disc.conv_w[stage]
            for _ in range(4):
                idx = tuple(rng.integers(0, s) for s in w.shape)
                orig = w[idx]
                w[idx] = orig + eps
                up = discriminator_score(disc, clip)
                w[idx] = orig - eps
                down = discriminator_score(disc, clip)
                w[idx] = orig
                fd = (up - down) / (2 * eps)
                assert rel_err(grads["conv_w"][stage][idx], fd) < 1e-3
            b = disc.conv_b[stage]
            idx = int(rng.integers(0, len(b)))
            orig = b[idx]
            b[idx] = orig + eps
            up = discriminator_score(disc, clip)
            b[idx] = orig - eps
            down = discriminator_score(disc, clip)
            b[idx] = orig
            assert rel_err(grads["conv_b"][stage][idx],
                           (up - down) / (2 * eps)) < 1e-3
        for _ in range(6):
            idx = tuple(rng.integers(0, s) for s in clip.shape)
            bumped = clip.copy()
            bumped[idx] += eps
            up = discriminator_score(disc, bumped)
            bumped[idx] -= 2 * eps
            down = discriminator_score(disc, bumped)
            assert rel_err(grads["clip"][idx], (up - down) / (2 * eps)) < 1e-3

    def test_out_w_gradient_is_pooled_features(self):
        disc = TinyDiscriminator.random(SeededRng(15))
        clip = SeededRng(16).normal(size=(10, 10))
        score, grads = discriminator_score_and_grads(disc, clip)
        assert grads["out_b"] == 1.0
        assert score == pytest.approx(
            float(disc.out_w @ grads["out_w"] + disc.out_b), rel=1e-12
        )



class TestCriticParams:
    def test_params_roundtrip(self):
        disc = TinyDiscriminator.random(SeededRng(17))
        other = TinyDiscriminator.random(SeededRng(18))
        other.params[...] = disc.params
        clip = SeededRng(19).normal(size=(12, 12))
        score, grads = discriminator_score_and_grads(disc, clip)
        assert discriminator_score(other, clip) == score
        assert grads["params"].shape == disc.params.shape

    def test_every_array_is_a_view_of_params(self):
        disc = TinyDiscriminator.random(SeededRng(20))
        arrays = [*disc.conv_w, *disc.conv_b, disc.out_w, disc.out_b]
        assert all(np.shares_memory(a, disc.params) for a in arrays)
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]),
                              disc.params)

    def test_params_gradient_matches_finite_differences(self):
        disc = TinyDiscriminator.random(SeededRng(21))
        clip = SeededRng(22).normal(size=(12, 10))
        _, grads = discriminator_score_and_grads(disc, clip)
        flat = grads["params"]
        sizes = [a.size for a in (*disc.conv_w, *disc.conv_b, disc.out_w,
                                  disc.out_b)]
        ends = np.cumsum(sizes)
        eps = 1e-6
        for i in sorted({*(ends - sizes), *(ends - 1)}):  # each array's ends
            orig = disc.params[i]
            disc.params[i] = orig + eps
            up = discriminator_score(disc, clip)
            disc.params[i] = orig - eps
            down = discriminator_score(disc, clip)
            disc.params[i] = orig
            fd = (up - down) / (2 * eps)
            assert abs(flat[i] - fd) / max(1e-9, abs(flat[i]) + abs(fd)) < 1e-3


def reference_score_and_grads(disc, clip):
    """The pad + sliding_window_view + einsum convolution that the tap-index
    gather replaced, forward and backward."""
    h, caches = clip[None, :, :], []
    for w, b in zip(disc.conv_w, disc.conv_b):
        padded = np.pad(h, ((0, 0), (1, 1), (1, 1)))
        view = np.lib.stride_tricks.sliding_window_view(
            padded, (3, 3), axis=(1, 2))[:, ::2, ::2]
        pre = np.einsum("ihwkl,oikl->ohw", view, w) + b[:, None, None]
        h = np.where(pre > 0, pre, 0.2 * pre)
        caches.append((pre, view, padded.shape))
    pooled = h.mean(axis=(1, 2))
    score = float(disc.out_w @ pooled + disc.out_b)
    grads = {"conv_w": [], "conv_b": [], "out_w": pooled, "out_b": 1.0}
    d_h = np.broadcast_to(disc.out_w[:, None, None] / h[0].size, h.shape)
    for (pre, view, pad_shape), w in zip(reversed(caches), reversed(disc.conv_w)):
        d_out = d_h * np.where(pre > 0, 1.0, 0.2)
        grads["conv_w"].insert(0, np.einsum("ohw,ihwkl->oikl", d_out, view))
        grads["conv_b"].insert(0, d_out.sum(axis=(1, 2)))
        d_pad = np.zeros(pad_shape)
        hp, wp = d_out.shape[1:]
        for ki in range(3):
            for kj in range(3):
                d_pad[:, ki : ki + 2 * hp : 2, kj : kj + 2 * wp : 2] += \
                    np.einsum("ohw,oi->ihw", d_out, w[:, :, ki, kj])
        d_h = d_pad[:, 1:-1, 1:-1]
    grads["clip"] = d_h[0]
    grads["params"] = np.concatenate([*(g.ravel() for g in grads["conv_w"]),
                                      *grads["conv_b"], pooled, [1.0]])
    return score, grads


@pytest.mark.parametrize("shape", [(8, 8), (9, 13), (8, 80), (32, 80),
                                   (128, 80), (17, 8)])
def test_gather_matmul_convolution_matches_the_einsum_reference(shape):
    disc = TinyDiscriminator.random(SeededRng(23), weight_scale=0.5)
    clip = SeededRng(24).normal(size=shape)
    score, grads = discriminator_score_and_grads(disc, clip)
    ref_score, ref = reference_score_and_grads(disc, clip)

    def close(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())

    close(score, ref_score)
    assert discriminator_score_and_grads(disc, clip, want_grads=False) == (score, None)
    for key in ("conv_w", "conv_b"):
        assert len(grads[key]) == 3
        for got, want in zip(grads[key], ref[key]):
            close(got, want)
    for key in ("out_w", "out_b", "clip", "params"):
        close(grads[key], ref[key])
