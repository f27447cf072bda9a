import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oversmooth.core import ContractError
from oversmooth.metrics import (
    SsimConfig,
    laplacian_response,
    ssim,
    ssim_map,
    var_laplacian,
)


def conv_oracle(grid):
    """Brute-force double-loop cross-correlation with the Laplacian mask,
    accumulating scalar products in mask order."""
    mask = np.array([[0, -1, 0], [-1, 4, -1], [0, -1, 0]]) / 6.0
    t, f = grid.shape
    out = np.zeros((t - 2, f - 2))
    for i in range(t - 2):
        for j in range(f - 2):
            acc = 0.0
            for di in range(3):
                for dj in range(3):
                    acc += mask[di, dj] * grid[i + di, j + dj]
            out[i, j] = acc
    return out


def ssim_map_2d_window(a, b, cfg):
    """SSIM map with the full 2-D window: the outer product of the 1-D
    weights, applied with einsum to a sliding view of each reflect-padded
    moment grid."""
    w = cfg.window
    if cfg.window_kind == "box":
        k1 = np.full(w, 1.0 / w)
    else:
        offsets = np.arange(w) - w // 2
        k1 = np.exp(-0.5 * (offsets / cfg.gaussian_sigma) ** 2)
        k1 /= k1.sum()
    kernel = np.outer(k1, k1)
    lo, hi = min(a.min(), b.min()), max(a.max(), b.max())
    span = hi - lo if hi > lo else 1.0
    a, b = (a - lo) / span, (b - lo) / span

    def window_mean(x):
        padded = np.pad(x, w // 2, mode="reflect")
        view = np.lib.stride_tricks.sliding_window_view(padded, kernel.shape)
        return np.einsum("ijkl,kl->ij", view, kernel)

    mu_a, mu_b = window_mean(a), window_mean(b)
    var_a = window_mean(a * a) - mu_a * mu_a
    var_b = window_mean(b * b) - mu_b * mu_b
    cov = window_mean(a * b) - mu_a * mu_b
    c1, c2 = 0.01**2, 0.03**2
    luminance = (2.0 * mu_a * mu_b + c1) / (mu_a**2 + mu_b**2 + c1)
    structure = (2.0 * cov + c2) / (var_a + var_b + c2)
    return luminance * structure


class TestLaplacianResponse:
    def test_constant_grid_zero(self):
        assert np.all(laplacian_response(np.full((5, 5), 3.3)) == 0.0)

    def test_center_impulse(self):
        grid = np.zeros((3, 3))
        grid[1, 1] = 1.0
        response = laplacian_response(grid)
        assert response.shape == (1, 1)
        assert response[0, 0] == pytest.approx(4 / 6, abs=1e-15)

    def test_two_impulses_row(self):
        grid = np.zeros((3, 5))
        grid[1, 1] = grid[1, 3] = 1.0
        response = laplacian_response(grid)
        assert np.allclose(response, [[2 / 3, -1 / 3, 2 / 3]], atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            grid = rng.normal(size=(5, 7))
            assert np.array_equal(laplacian_response(grid), conv_oracle(grid))

    def test_too_small(self):
        with pytest.raises(ContractError):
            laplacian_response(np.zeros((2, 5)))


class TestVarLaplacian:
    def test_constant_exactly_zero(self):
        assert var_laplacian(np.full((8, 8), -2.5)) == 0.0

    def test_hand_computed_example(self):
        grid = np.zeros((3, 5))
        grid[1, 1] = grid[1, 3] = 1.0
        assert var_laplacian(grid) == pytest.approx(2 / 81, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-100, 100))
    def test_translation_invariance(self, seed, shift):
        grid = np.random.default_rng(seed).normal(size=(6, 6))
        assert var_laplacian(grid + shift) == pytest.approx(
            var_laplacian(grid), rel=1e-9, abs=1e-12
        )

    def test_blur_reduces_variation(self):
        rng = np.random.default_rng(7)
        kernel = np.outer([1, 2, 1], [1, 2, 1]) / 16.0
        reduced = 0
        for _ in range(100):
            grid = rng.uniform(size=(16, 16))
            blurred = np.zeros((14, 14))
            for i in range(14):
                for j in range(14):
                    blurred[i, j] = np.sum(grid[i : i + 3, j : j + 3] * kernel)
            if var_laplacian(blurred) <= var_laplacian(grid):
                reduced += 1
        assert reduced >= 99


class TestSsim:
    def test_identical_grids_exactly_one(self):
        rng = np.random.default_rng(3)
        grid = rng.normal(size=(20, 16))
        assert ssim(grid, grid.copy()) == 1.0
        assert np.all(ssim_map(grid, grid.copy()) == 1.0)

    def test_constant_zero_vs_one(self):
        cfg = SsimConfig(lo=0.0, hi=1.0)
        a = np.zeros((16, 16))
        b = np.ones((16, 16))
        expected = 0.0001 / 1.0001
        assert ssim(a, b, cfg) == pytest.approx(expected, abs=1e-9)

    def test_equal_constants(self):
        a = np.full((12, 12), 0.5)
        assert ssim(a, a.copy()) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(14, 10)), rng.normal(size=(14, 10))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_map_bounded(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(15, 15)), rng.normal(size=(15, 15))
        cells = ssim_map(a, b)
        assert np.all(np.abs(cells) <= 1.0 + 1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            ssim(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_degenerate_range_config(self):
        with pytest.raises(ContractError):
            SsimConfig(lo=1.0, hi=1.0)

    def test_even_window_rejected(self):
        with pytest.raises(ContractError):
            SsimConfig(window=10)

    def test_gaussian_window_option(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(20, 20)), rng.normal(size=(20, 20))
        box = ssim(a, b, SsimConfig(window_kind="box"))
        gauss = ssim(a, b, SsimConfig(window_kind="gaussian"))
        assert box != gauss
        assert ssim(a, a, SsimConfig(window_kind="gaussian")) == 1.0

    def test_small_grid_behavior(self):
        # Grids smaller than the window still work via mirrored indices.
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 4))
        assert ssim(a, a.copy()) == 1.0


grid_shapes = pytest.mark.parametrize(
    "shape", [(1, 1), (4, 4), (15, 15), (517, 80)])
window_configs = pytest.mark.parametrize(
    "cfg",
    [SsimConfig(), SsimConfig(window_kind="gaussian"), SsimConfig(window=3),
     SsimConfig(window=7, window_kind="gaussian")],
    ids=["box11", "gauss11", "box3", "gauss7"])


class TestSsimSeparableWindow:
    @grid_shapes
    @window_configs
    def test_matches_the_2d_window(self, shape, cfg):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        a = rng.normal(size=shape)
        for b in (a + 0.3 * rng.normal(size=shape), rng.normal(size=shape)):
            cells = ssim_map(a, b, cfg)
            assert cells.shape == shape
            np.testing.assert_allclose(cells, ssim_map_2d_window(a, b, cfg),
                                       rtol=0, atol=1e-12)

    @grid_shapes
    @window_configs
    def test_identical_grids_give_exactly_one(self, shape, cfg):
        a = np.random.default_rng(7).normal(size=shape)
        assert np.all(ssim_map(a, a.copy(), cfg) == 1.0)
