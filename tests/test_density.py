import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oversmooth.core import (
    Alignment,
    AlignmentEntry,
    ContractError,
    SeededRng,
)
from oversmooth.density import (
    _dip_sorted,
    _gauss_sum,
    dip_statistic,
    kde1d,
    kde2d,
    phoneme_joint,
    pooled_phoneme_values,
    silverman_bandwidth,
)


def trapezoid(values, grid):
    return float(np.trapezoid(values, grid))


def gauss_formula(grid, samples, h):
    """The Gaussian KDE at every point of ``grid``, written out."""
    z = (np.asarray(grid)[:, None] - np.asarray(samples)[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (len(samples) * np.sqrt(2 * np.pi) * h)


class TestKde1d:
    def test_single_sample_peak(self):
        density = kde1d([0.0], bandwidth=1.0)
        assert density.grid[0] == -4.0 and density.grid[-1] == 4.0
        assert np.allclose(density.values, gauss_formula(density.grid, [0.0], 1.0),
                           rtol=0, atol=1e-12)
        assert density.values.max() == pytest.approx(1 / np.sqrt(2 * np.pi),
                                                     rel=1e-4)

    def test_symmetry(self):
        samples = [-2.0, -0.5, 0.5, 2.0]
        density = kde1d(samples, bandwidth=0.7)
        assert np.allclose(density.grid, -density.grid[::-1], rtol=0, atol=1e-12)
        assert np.allclose(density.values, gauss_formula(density.grid, samples, 0.7),
                           rtol=0, atol=1e-12)
        assert np.allclose(density.values, density.values[::-1], atol=1e-9)

    def test_integral_near_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            density = kde1d(rng.normal(size=200))
            mass = trapezoid(density.values, density.grid)
            assert 0.98 <= mass <= 1.02

    def test_nonnegative(self):
        density = kde1d(np.random.default_rng(1).normal(size=50))
        assert np.all(density.values >= 0)

    def test_zero_variance_needs_bandwidth(self):
        with pytest.raises(ContractError):
            kde1d([1.0, 1.0, 1.0])
        density = kde1d([1.0, 1.0, 1.0], bandwidth=0.5)
        assert (density.grid[0], density.grid[-1]) == (1.0 - 4 * 0.5, 1.0 + 4 * 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            kde1d([])

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), 0.0])
    def test_bandwidth_must_be_finite_and_positive(self, bandwidth):
        with pytest.raises(ContractError, match="bandwidth must be finite"):
            kde1d(np.array([0.0, 1.0, 2.0]), bandwidth=bandwidth)

    def test_silverman_formula(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=400)
        expected = 1.06 * np.std(x, ddof=1) * 400 ** (-0.2)
        assert silverman_bandwidth(x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("samples,bandwidth", [
        ([0.0, 1.0, 2.0], 1e-310),  # below half the grid step
        ([0.0] * 5, 1e-308),  # the normalisation holds, the density overflows
        ([0.0] * 5, 1e-310),  # the normalisation overflows
    ])
    def test_too_small_bandwidth_is_refused(self, samples, bandwidth):
        with pytest.raises(ContractError, match=f"bandwidth {bandwidth} is too small"):
            kde1d(samples, bandwidth=bandwidth)

    def test_bandwidth_below_half_the_grid_step_is_refused(self):
        # On [0, 1] the 512-point grid's step (1 + 8h) / 511 is 2h at h = 1/1014.
        density = kde1d([0.0, 1.0], bandwidth=1.001 / 1014)
        bound = 2.0 * np.exp(-np.pi ** 2 / 2.0)  # the trapezoid error at step 2h
        assert np.trapezoid(density.values, density.grid) == pytest.approx(1.0, abs=bound)
        with pytest.raises(ContractError, match=re.escape(
                f"bandwidth {0.999 / 1014} is too small: below half the grid step ")):
            kde1d([0.0, 1.0], bandwidth=0.999 / 1014)


def one_shot_gauss_sum(grid, samples, h):
    """The kernel sum as the literal formula over every sample at once."""
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * h)
    z = (grid - samples[:, None]) / h
    return norm * np.exp(-0.5 * z * z).sum(axis=0)


class TestGaussSum:
    """The blocked kernel sum keeps every bit of the one-shot formula."""

    @pytest.mark.parametrize("points", [1, 7, 512, 5000])
    def test_equals_the_one_shot_formula(self, points):
        rows = max(2, 65536 // points)  # the block row count B at this grid
        rng = np.random.default_rng(points)
        grid = np.linspace(-6.0, 6.0, points)
        for n in (1, rows - 1, rows, rows + 1, 4095, 4096, 4097, 9000):
            x, h = rng.normal(size=n) * 2.0, 0.2 + rng.random()
            # Columns are separate sums, so the reference takes the grid
            # 256 points at a time (5,000 leaves 136, never a single column,
            # which numpy would sum pairwise) to keep its arrays small.
            want = np.concatenate([one_shot_gauss_sum(grid[lo : lo + 256], x, h)
                                   for lo in range(0, points, 256)])
            assert _gauss_sum(grid, x, h).tobytes() == want.tobytes(), n

    def test_memory_does_not_grow_with_the_sample(self):
        # The 4,096 x 2,048 kernel matrix as a whole array would take 67 MB
        # per temporary.
        x = np.random.default_rng(3).normal(size=4096)
        grid = np.linspace(-4.0, 4.0, 2048)
        tracemalloc.start()
        try:
            _gauss_sum(grid, x, silverman_bandwidth(x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestKde2d:
    def test_single_pair_peak(self):
        density = kde2d([(0.0, 0.0)], bandwidth=1.0)
        peak = density.values.max()
        # the auto grid has no point exactly at the origin; the nearest one
        # sits within half a grid step, so the peak is just below 1/(2*pi)
        assert peak == pytest.approx(1 / (2 * np.pi), rel=1e-2)
        assert peak <= 1 / (2 * np.pi) + 1e-12
        ix = np.argmin(np.abs(density.grid_x))
        iy = np.argmin(np.abs(density.grid_y))
        assert density.values[ix, iy] == peak

    def test_diagonal_concentration(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=300)
        density = kde2d(np.column_stack([x, x]), bandwidth=0.1)
        gx, gy = np.meshgrid(density.grid_x, density.grid_y, indexing="ij")
        # both kernel factors sit >= 4.5 h out once |x - y| > 9h
        far = np.abs(gx - gy) > 0.9
        assert np.all(density.values[far] < 1e-6)

    def test_integral_near_one(self):
        rng = np.random.default_rng(4)
        pairs = rng.normal(size=(300, 2))
        density = kde2d(pairs)
        dx = density.grid_x[1] - density.grid_x[0]
        dy = density.grid_y[1] - density.grid_y[0]
        mass = density.values.sum() * dx * dy
        assert 0.95 <= mass <= 1.05

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            kde2d(np.empty((0, 2)))

    @pytest.mark.parametrize("pairs,bandwidth", [
        ([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], 1e-310),  # h * h is 0
        ([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], 1e-160),
        (np.zeros((20, 2)), 1e-154),  # the norm holds, the sum does not
    ])
    def test_too_small_bandwidth_is_refused(self, pairs, bandwidth):
        with pytest.raises(ContractError,
                           match=re.escape(f"bandwidth {bandwidth} is too small")):
            kde2d(pairs, bandwidth)

    @pytest.mark.parametrize("bandwidth", [1e154, 1e160, 1e305])
    def test_bandwidth_whose_norm_underflows_is_refused(self, bandwidth):
        pairs = np.random.default_rng(3).normal(size=(40, 2))
        with pytest.raises(ContractError, match=re.escape(
                f"bandwidth {bandwidth} is too large: the density underflows")):
            kde2d(pairs, bandwidth)

    def test_huge_bandwidth_with_a_normal_norm_is_a_density(self):
        # 1 / (2 pi h h) is about 1.6e-301 here, above the smallest normal
        density = kde2d(np.random.default_rng(3).normal(size=(40, 2)), 1e150)
        assert density.values.max() > 1e-302
        dx = density.grid_x[1] - density.grid_x[0]
        dy = density.grid_y[1] - density.grid_y[0]
        assert density.values.sum() * dx * dy == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), -1.0])
    def test_bandwidth_must_be_finite_and_positive(self, bandwidth):
        pairs = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        with pytest.raises(ContractError, match="bandwidth must be finite"):
            kde2d(pairs, bandwidth)


def corpus_from_columns(column_values, label="R", bins=4, bin_index=2):
    """One-utterance corpus with chosen values at one bin of every frame."""
    column_values = np.asarray(column_values, dtype=float)
    values = np.zeros((len(column_values), bins))
    values[:, bin_index] = column_values
    align = Alignment((AlignmentEntry(label, 0, len(column_values)),))
    return [(values, align)]


class TestPooledPhonemeValues:
    def test_single_span(self):
        values = np.arange(20 * 4, dtype=float).reshape(20, 4)
        align = Alignment((AlignmentEntry("A", 0, 12), AlignmentEntry("R", 12, 20)))
        pooled = pooled_phoneme_values([(values, align)], "R", 1)
        assert np.array_equal(pooled, values[12:20, 1])

    def test_utterance_without_phoneme_adds_nothing(self):
        values = np.arange(5 * 2, dtype=float).reshape(5, 2)
        with_a = (values, Alignment((AlignmentEntry("A", 1, 3),)))
        without = (np.zeros((5, 2)),
                   Alignment((AlignmentEntry("B", 0, 5),)))
        pooled = pooled_phoneme_values([without, with_a, without], "A", 0)
        assert np.array_equal(pooled, values[1:3, 0])

    def test_disjoint_spans_concatenate(self):
        values = np.arange(10 * 2, dtype=float).reshape(10, 2)
        align = Alignment(
            (AlignmentEntry("A", 0, 2), AlignmentEntry("B", 2, 6),
             AlignmentEntry("A", 6, 8))
        )
        corpus = [(values, align), (-values, align)]
        pooled = pooled_phoneme_values(corpus, "A", 1)
        assert np.array_equal(pooled, np.concatenate(
            [values[0:2, 1], values[6:8, 1], -values[0:2, 1], -values[6:8, 1]]))

    def test_span_exceeds_frames(self):
        spec = np.zeros((5, 2))
        align = Alignment((AlignmentEntry("A", 0, 9),))
        with pytest.raises(ContractError, match=r"\[0, 9\) for 'A' exceeds T=5"):
            pooled_phoneme_values([(spec, align)], "A", 0)

    def test_frame_count_matches_span_lengths(self):
        rng = np.random.default_rng(0)
        spec = rng.normal(size=(30, 3))
        align = Alignment(
            (AlignmentEntry("A", 0, 7), AlignmentEntry("B", 7, 11),
             AlignmentEntry("A", 15, 30))
        )
        assert len(pooled_phoneme_values([(spec, align)], "A", 2)) == 7 + 15

    @pytest.mark.parametrize("bin_index", [-1, 4])
    def test_bin_outside_every_width_rejected(self, bin_index):
        corpus = corpus_from_columns(np.ones(10))
        expected = rf"bin {bin_index} out of range \[0, 4\)"
        with pytest.raises(ContractError, match=expected):
            pooled_phoneme_values(corpus, "R", bin_index)


class TestPhonemeMarginal:
    """The marginal ``dist`` writes: ``kde1d`` of the pooled bin values."""

    def test_constant_peaks_at_value(self):
        corpus = corpus_from_columns(np.full(50, 2.5))
        density = kde1d(pooled_phoneme_values(corpus, "R", 2), bandwidth=0.3)
        peak = density.grid[np.argmax(density.values)]
        assert abs(peak - 2.5) < 0.05

    def test_bimodal_corpus_two_maxima(self):
        rng = np.random.default_rng(5)
        column = np.concatenate([
            rng.normal(-1.0, 0.1, size=200), rng.normal(1.0, 0.1, size=200)
        ])
        density = kde1d(pooled_phoneme_values(corpus_from_columns(column), "R", 2))
        v = density.values
        local_max = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]) & (v[1:-1] > 0.3 * v.max())
        peaks = density.grid[1:-1][local_max]
        assert any(abs(p + 1.0) < 0.3 for p in peaks)
        assert any(abs(p - 1.0) < 0.3 for p in peaks)

    def test_absent_phoneme(self):
        with pytest.raises(ContractError, match="phoneme 'ZZ' absent from corpus"):
            pooled_phoneme_values(corpus_from_columns(np.ones(10)), "ZZ", 2)

    def test_bin_out_of_range(self):
        with pytest.raises(ContractError, match=r"bin 9 out of range \[0, 4\)"):
            pooled_phoneme_values(corpus_from_columns(np.ones(10)), "R", 9)

    def test_pools_across_utterances(self):
        corpus = corpus_from_columns(np.full(30, -1.0)) + corpus_from_columns(
            np.full(30, 1.0)
        )
        density = kde1d(pooled_phoneme_values(corpus, "R", 2), bandwidth=0.2)
        assert trapezoid(density.values, density.grid) == pytest.approx(1.0, abs=0.02)


class TestPhonemeJoint:
    def test_equal_bins_concentrate_on_diagonal(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(80, 4))
        base[:, 3] = base[:, 2]
        align = Alignment((AlignmentEntry("R", 0, 80),))
        density = phoneme_joint([(base, align)], "R", "freq", 2, 3,
                                bandwidth=0.1)
        gx, gy = np.meshgrid(density.grid_x, density.grid_y, indexing="ij")
        assert np.all(density.values[np.abs(gx - gy) > 0.9] < 1e-6)

    def test_iid_noise_uncorrelated(self):
        rng = np.random.default_rng(7)
        spec = rng.normal(size=(10_500, 4))
        align = Alignment((AlignmentEntry("R", 0, 10_500),))
        density = phoneme_joint([(spec, align)], "R", "time", 2, 1)
        dx = density.grid_x[1] - density.grid_x[0]
        dy = density.grid_y[1] - density.grid_y[0]
        w = density.values * dx * dy
        w = w / w.sum()
        gx, gy = np.meshgrid(density.grid_x, density.grid_y, indexing="ij")
        ex, ey = (w * gx).sum(), (w * gy).sum()
        cov = (w * (gx - ex) * (gy - ey)).sum()
        sx = np.sqrt((w * (gx - ex) ** 2).sum())
        sy = np.sqrt((w * (gy - ey) ** 2).sum())
        assert abs(cov / (sx * sy)) < 0.1

    def test_time_pairs_respect_span_boundaries(self):
        values = np.zeros((4, 2))
        values[:, 0] = [0.0, 1.0, 10.0, 11.0]
        align = Alignment((AlignmentEntry("R", 0, 2), AlignmentEntry("R", 2, 4)))
        density = phoneme_joint([(values, align)], "R", "time", 0, 1,
                                bandwidth=0.5)
        # pairs are (0,1) and (10,11); never (1,10)
        ix = np.argmin(np.abs(density.grid_x - 1.0))
        iy = np.argmin(np.abs(density.grid_y - 10.0))
        assert density.values[ix, iy] < 1e-8

    @pytest.mark.parametrize("pair", [("freq", -1, 2), ("freq", 2, 4),
                                      ("time", -2, 1), ("time", 4, 1)])
    def test_bins_outside_width_rejected(self, pair):
        spec = np.zeros((6, 4))
        align = Alignment((AlignmentEntry("R", 0, 6),))
        with pytest.raises(ContractError, match=r"out of range \[0, 4\)"):
            phoneme_joint([(spec, align)], "R", *pair)

    def test_span_exceeds_frames(self):
        spec = np.zeros((5, 2))
        align = Alignment((AlignmentEntry("R", 0, 9),))
        with pytest.raises(ContractError, match="exceeds T=5"):
            phoneme_joint([(spec, align)], "R", "freq", 0, 1)

    def test_bins_checked_on_utterances_without_the_phoneme(self):
        narrow = (np.zeros((5, 2)),
                  Alignment((AlignmentEntry("B", 0, 5),)))
        corpus = corpus_from_columns(np.ones(10)) + [narrow]
        with pytest.raises(ContractError, match=r"bin 3 out of range \[0, 2\)"):
            phoneme_joint(corpus, "R", "freq", 0, 3)

    def test_lag_below_one_rejected(self):
        spec = np.zeros((5, 2))
        align = Alignment((AlignmentEntry("R", 0, 5),))
        with pytest.raises(ContractError, match="lag must be >= 1"):
            phoneme_joint([(spec, align)], "R", "time", 0, 0)

    def test_single_short_span_no_pairs(self):
        spec = np.zeros((1, 2))
        align = Alignment((AlignmentEntry("R", 0, 1),))
        with pytest.raises(ContractError, match="with time:0,1"):
            phoneme_joint([(spec, align)], "R", "time", 0, 1)

    def test_unknown_kind_rejected_before_the_corpus_is_read(self):
        with pytest.raises(ContractError, match="unknown joint kind 'bogus'"):
            phoneme_joint([], "R", "bogus", 0, 1)


def dip_two_point_oracle():
    """Grid search over piecewise-linear unimodal CDFs against the {0, 1}
    ECDF; knots at (-1, 0, 1, 2) with values (0, g0, g1, 1)."""
    xs = np.linspace(-1.5, 2.5, 2001)
    ecdf = np.where(xs < 0, 0.0, np.where(xs < 1, 0.5, 1.0))
    best = np.inf
    for g0 in np.linspace(0, 1, 201):
        for g1 in np.linspace(g0, 1, 201 - int(200 * g0)):
            slopes = (g0, g1 - g0, 1 - g1)
            valley = slopes[0] > slopes[1] < slopes[2]
            if valley:  # not convex-then-concave
                continue
            g = np.interp(xs, [-1, 0, 1, 2], [0, g0, g1, 1])
            best = min(best, np.max(np.abs(ecdf - g)))
    return best


def reference_dip_sorted(x):
    """The hull iteration with the majorant's link and ECDF-gap loops spelled
    out beside the minorant's: the oracle that ``density._dip_sorted`` must
    equal bit for bit."""
    # Plain Python floats and lists: the loops index one element at a time,
    # which numpy scalars make several times slower, with the same values.
    x = x.tolist()
    n = len(x)
    low, high = 0, n - 1
    d_best = 0.0

    # mn[j]: start of the convex-minorant segment ending at j.
    mn = [0] * n
    for j in range(1, n):
        mn[j] = j - 1
        while True:
            mnj = mn[j]
            mnmnj = mn[mnj]
            if mnj == 0 or (x[j] - x[mnj]) * (mnj - mnmnj) < (x[mnj] - x[mnmnj]) * (j - mnj):
                break
            mn[j] = mnmnj
    # mj[k]: end of the concave-majorant segment starting at k.
    mj = [0] * n
    mj[n - 1] = n - 1
    for k in range(n - 2, -1, -1):
        mj[k] = k + 1
        while True:
            mjk = mj[k]
            mjmjk = mj[mjk]
            if mjk == n - 1 or (x[k] - x[mjk]) * (mjk - mjmjk) < (x[mjk] - x[mjmjk]) * (k - mjk):
                break
            mj[k] = mjmjk

    gcm = [0] * n
    lcm = [0] * n
    while True:
        gcm[0] = high
        i = 0
        while gcm[i] > low:
            gcm[i + 1] = mn[gcm[i]]
            i += 1
        ig = l_gcm = i
        ix = ig - 1
        lcm[0] = low
        i = 0
        while lcm[i] < high:
            lcm[i + 1] = mj[lcm[i]]
            i += 1
        ih = l_lcm = i
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

        # Largest deviation of the ECDF from each hull segment.
        dip_l = 0.0
        for j in range(ig, l_gcm):
            max_t = 1.0
            jb, je = gcm[j + 1], gcm[j]
            if je - jb > 1 and x[je] != x[jb]:
                c = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (jj - jb + 1) - (x[jj] - x[jb]) * c
                    if max_t < t:
                        max_t = t
            if dip_l < max_t:
                dip_l = max_t
        dip_u = 0.0
        for j in range(ih, l_lcm):
            max_t = 1.0
            jb, je = lcm[j], lcm[j + 1]
            if je - jb > 1 and x[je] != x[jb]:
                c = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (x[jj] - x[jb]) * c - (jj - jb - 1)
                    if max_t < t:
                        max_t = t
            if dip_u < max_t:
                dip_u = max_t

        d_best = max(d_best, dip_l, dip_u)
        if low == gcm[ig] and high == lcm[ih]:
            break
        low = gcm[ig]
        high = lcm[ih]
    return d_best / (2.0 * n)


def dip_oracle_samples():
    """Seeded sorted samples with n = 4..300 of five kinds (uniform, normal,
    rounded to quarters, rounded to integers, two-mode), 400 of each, plus two
    normal samples of n = 5,000 and evenly spaced ones, whose two hulls are
    one segment each; only samples with x[0] != x[-1] qualify."""
    rng = np.random.default_rng(20260)
    kinds = (
        lambda n: rng.uniform(size=n),
        lambda n: rng.normal(size=n),
        lambda n: np.round(rng.normal(size=n) * 4) / 4,
        lambda n: np.round(rng.normal(size=n) * 1.5),
        lambda n: np.concatenate([rng.normal(-2, 1, n // 2),
                                  rng.normal(2, 1, n - n // 2)]),
    )
    samples = [np.sort(kind(int(rng.integers(4, 301))))
               for _ in range(400) for kind in kinds]
    samples += [np.sort(rng.normal(size=5000)) for _ in range(2)]
    samples += [np.arange(n, dtype=np.float64) / 4 for n in (4, 5, 17, 300)]
    return [x for x in samples if x[0] != x[-1]]


class TestDipStatistic:
    def test_two_points_quarter(self):
        assert dip_statistic([0.0, 1.0]).dip == pytest.approx(0.25, abs=1e-9)

    def test_two_points_matches_grid_oracle(self):
        oracle = dip_two_point_oracle()
        assert dip_statistic([0.0, 1.0]).dip == pytest.approx(oracle, abs=2e-3)

    def test_three_points(self):
        assert dip_statistic([0.0, 1.0, 5.0]).dip == pytest.approx(1 / 6, abs=1e-9)

    def test_normal_small_dip(self):
        rng = SeededRng(100)
        hits = sum(
            dip_statistic(rng.normal(size=1000)).dip < 0.02 for _ in range(20)
        )
        assert hits >= 19

    def test_bimodal_large_dip(self):
        rng = SeededRng(101)
        hits = 0
        for _ in range(20):
            sample = np.concatenate(
                [rng.normal(-3, 1, size=500), rng.normal(3, 1, size=500)]
            )
            hits += dip_statistic(sample).dip > 0.05
        assert hits >= 19

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-2048, 2048), min_size=2, max_size=120),
           st.integers(-2, 3), st.integers(-64, 64))
    def test_affine_invariance_exact(self, quantized, log_scale, offset):
        x = np.array(quantized, dtype=np.float64) / 256.0
        a = 2.0**log_scale
        assert dip_statistic(a * x + offset).dip == dip_statistic(x).dip

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2,
                    max_size=200))
    def test_theoretical_bounds(self, samples):
        result = dip_statistic(samples)
        n = result.n
        assert 0.5 / n - 1e-12 <= result.dip <= 0.25 + 1e-12

    def test_duplication_stability(self):
        rng = SeededRng(102)
        x = rng.normal(size=300)
        d1 = dip_statistic(x).dip
        d3 = dip_statistic(np.tile(x, 3)).dip
        assert abs(d3 - d1) < 2 / 300

    def test_needs_two_samples(self):
        with pytest.raises(ContractError):
            dip_statistic([1.0])

    def test_all_equal_lower_bound(self):
        result = dip_statistic(np.full(40, 7.0))
        assert result.dip == pytest.approx(0.5 / 40)

    @pytest.mark.parametrize("sample, expected", [
        (lambda: SeededRng(110).normal(size=4), 0.23792638705913124),
        (lambda: SeededRng(117).normal(size=5), 0.15433889086243355),
        (lambda: SeededRng(112).normal(size=200), 0.015976207357614833),
        (lambda: np.round(SeededRng(113).normal(size=150) * 3) / 3,
         0.06888888888888887),
        (lambda: np.concatenate([SeededRng(114).normal(-2, 1, size=120),
                                 SeededRng(114).substream(1).normal(
                                     2, 1, size=80)]),
         0.05337011797617961),
    ], ids=["n4", "n5", "n200", "ties", "bimodal"])
    def test_pinned_values(self, sample, expected):
        # Values of the reference hull iteration on fixed samples: any
        # rewrite of the hull loops must reproduce them bit for bit.
        assert dip_statistic(sample()).dip == expected

    def test_equals_the_reference_hull_iteration(self):
        samples = dip_oracle_samples()
        assert len(samples) >= 2000
        for x in samples:
            assert _dip_sorted(x) == reference_dip_sorted(x), (len(x), x[:4])

    def test_reflection_leaves_the_dip(self):
        rng = SeededRng(118)
        gaps = []
        for i in range(3000):
            x = rng.normal(size=4 + i % 297)
            if i % 3 == 1:
                x = np.round(x * 3)
            gaps.append(abs(dip_statistic(x).dip - dip_statistic(-x).dip))
        assert max(gaps) <= 1e-15
