import numpy as np
import pytest

from oversmooth.core import ContractError, SeededRng
from oversmooth.probloss import (
    BETA_FLOOR,
    LaplaceMixtureField,
    LmWorkspace,
    UnconstrainedMixtureParams,
    _softmax,
    fit_lm,
    laplace_inverse_cdf,
    lm_log_density,
    lm_nll,
    lm_nll_grad,
    lm_sample_stack,
)


def lm_nll_naive(field, target) -> float:
    """Direct-probability evaluation, the oracle for the stabilized path."""
    y = np.asarray(target, dtype=np.float64)[..., None]
    dens = field.pi * np.exp(-np.abs(y - field.mu) / field.beta) / (2.0 * field.beta)
    return float(-np.mean(np.log(dens.sum(axis=-1))))


def field_of(pi, mu, beta, t=1, f=1):
    k = len(pi)
    shape = (t, f, k)
    return LaplaceMixtureField(
        np.broadcast_to(np.asarray(pi, float), shape).copy(),
        np.broadcast_to(np.asarray(mu, float), shape).copy(),
        np.broadcast_to(np.asarray(beta, float), shape).copy(),
    )


class TestLmNll:
    def test_centered_unit_mass(self):
        # K=1, mu = y, beta = 0.5: density = 1/(2*0.5) = 1, NLL = 0.
        field = field_of([1.0], [2.0], [0.5])
        assert lm_nll(field, np.array([[2.0]])) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_weight_matches_single(self):
        two = field_of([1.0, 0.0], [0.3, 9.9], [0.7, 0.2])
        one = field_of([1.0], [0.3], [0.7])
        y = np.array([[1.1]])
        assert lm_nll(two, y) == pytest.approx(lm_nll(one, y), abs=1e-12)

    def test_far_component_negligible(self):
        field = field_of([0.5, 0.5], [-1.0, 1.0], [0.01, 0.01])
        value = lm_nll(field, np.array([[1.0]]))
        expected = np.log(2.0) + np.log(0.02)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(lm_nll_naive(field, np.array([[1.0]])),
                                      abs=1e-9)

    def test_stable_vs_naive_path(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            pi = rng.dirichlet(np.ones(k))
            field = field_of(pi, rng.normal(size=k), 0.1 + rng.uniform(size=k),
                             t=2, f=3)
            y = rng.normal(size=(2, 3))
            a, b = lm_nll(field, y), lm_nll_naive(field, y)
            assert a == pytest.approx(b, rel=1e-10)

    def test_shape_mismatch(self):
        field = field_of([1.0], [0.0], [1.0], t=2, f=2)
        with pytest.raises(ContractError):
            lm_nll(field, np.zeros((3, 2)))

    def test_beta_floor_enforced(self):
        with pytest.raises(ContractError):
            field_of([1.0], [0.0], [1e-5])

    def test_weights_must_normalize(self):
        with pytest.raises(ContractError):
            field_of([0.6, 0.6], [0.0, 1.0], [1.0, 1.0])

    def test_single_component_is_scaled_mae(self):
        # K=1 with fixed beta: NLL = log(2*beta) + MAE / beta exactly.
        rng = np.random.default_rng(6)
        data = rng.normal(size=(30, 2, 2))
        mu, beta = 0.4, 0.8
        field = field_of([1.0], [mu], [beta], t=2, f=2)
        expected = np.log(2 * beta) + np.mean(np.abs(data - mu)) / beta
        assert lm_nll(field, data) == pytest.approx(expected, rel=1e-12)

    def test_single_component_argmin_is_median(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(41, 1, 1))
        median = float(np.median(data))
        beta = 0.5

        def nll_at(mu):
            return lm_nll(field_of([1.0], [mu], [beta]), data)

        at_median = nll_at(median)
        for offset in (-0.5, -0.05, 0.05, 0.5):
            assert nll_at(median + offset) > at_median


def random_params(rng, t=2, f=3, k=2):
    return UnconstrainedMixtureParams(
        rng.normal(size=(t, f, k)),
        rng.normal(size=(t, f, k)),
        rng.normal(size=(t, f, k)),
    )


class TestLmNllGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            params = random_params(rng)
            target = rng.normal(size=(2, 3))
            _, grads = lm_nll_grad(params, target)
            for name in ("logits", "mu", "raw_scale"):
                arr = getattr(params, name)
                analytic = getattr(grads, name)
                idx = tuple(rng.integers(0, s) for s in arr.shape)
                step = 1e-4
                orig = arr[idx]
                arr[idx] = orig + step
                up, _ = lm_nll_grad(params, target)
                arr[idx] = orig - step
                down, _ = lm_nll_grad(params, target)
                arr[idx] = orig
                fd = (up - down) / (2 * step)
                denom = max(1e-8, abs(fd) + abs(analytic[idx]))
                worst = max(worst, abs(analytic[idx] - fd) / denom)
        assert worst < 1e-3

    def test_single_component_location_subgradient(self):
        # K=1: dNLL/dmu = -sign(y - mu) / beta away from the kink.
        params = UnconstrainedMixtureParams(
            np.zeros((1, 1, 1)), np.array([[[0.5]]]), np.array([[[0.2]]])
        )
        beta = np.logaddexp(0.0, 0.2) + BETA_FLOOR
        _, grads = lm_nll_grad(params, np.array([[2.0]]))
        assert grads.mu[0, 0, 0] == pytest.approx(-1.0 / beta, rel=1e-12)
        _, grads = lm_nll_grad(params, np.array([[-2.0]]))
        assert grads.mu[0, 0, 0] == pytest.approx(1.0 / beta, rel=1e-12)

    def test_nll_value_matches_field(self):
        rng = np.random.default_rng(5)
        params = random_params(rng)
        target = rng.normal(size=(2, 3))
        nll, _ = lm_nll_grad(params, target)
        assert nll == pytest.approx(lm_nll(params.constrain(), target), rel=1e-12)


class TestLmWorkspace:
    """K = 3 on a 5 x 7 grid, shapes the canonical 8 x 8 grid with K = 2
    would let a mix-up of T, F, K or n pass."""

    NAMES = ("logits", "mu", "raw_scale")

    def stack_and_params(self):
        rng = np.random.default_rng(50)
        return (rng.normal(size=(30, 5, 7)),
                [random_params(rng, t=5, f=7, k=3) for _ in range(2)])

    def test_equals_the_call_without(self):
        targets, params = self.stack_and_params()
        ws = LmWorkspace(targets, 3)
        for p in params + params:  # the reused workspace stays exact
            nll, grads = lm_nll_grad(p, targets)
            ws_nll, ws_grads = lm_nll_grad(p, targets, workspace=ws)
            assert ws_nll == nll
            for name in self.NAMES:
                assert np.array_equal(getattr(ws_grads, name), getattr(grads, name))
            assert ws_grads is ws.grads  # the workspace's buffer

    def test_gradient_without_workspace_is_not_overwritten(self):
        targets, (first, second) = self.stack_and_params()
        _, grads = lm_nll_grad(first, targets)
        kept = {name: getattr(grads, name).copy() for name in self.NAMES}
        lm_nll_grad(second, targets)
        for name in self.NAMES:
            assert np.array_equal(getattr(grads, name), kept[name])

    def test_rejects_another_stack_or_k(self):
        targets, (params, _) = self.stack_and_params()
        with pytest.raises(ContractError, match="workspace"):
            lm_nll_grad(params, targets.copy(), workspace=LmWorkspace(targets, 3))
        with pytest.raises(ContractError, match="workspace"):
            lm_nll_grad(params, targets, workspace=LmWorkspace(targets, 2))


def reduction_softmax(a):
    e = np.exp(a - np.max(a, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def reduction_terms(pi, mu, beta, targets):
    """Component terms on an (n, T, F, K) array, samples moved next to K."""
    y = np.moveaxis(targets, 0, -1)[..., None]  # (T, F, n, 1)
    with np.errstate(divide="ignore"):
        offset = (np.log(pi) - np.log(2.0 * beta))[:, :, None, :]
    mu, beta = mu[:, :, None, :], beta[:, :, None, :]
    diff = y - mu
    return offset - np.abs(diff) / beta, diff


def reduction_lse(comp):
    top = np.max(comp, axis=-1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    shifted = np.exp(comp - top)
    total = np.sum(shifted, axis=-1, keepdims=True)
    lse = top[..., 0] + np.log(total[..., 0])
    return np.ascontiguousarray(lse), shifted / total


def sample_sums(x):
    """Per-component sums over samples, in the implementation's order (a
    contiguous sum per component): only the reductions over K differ."""
    return np.stack([np.ascontiguousarray(x[..., j]).sum(axis=-1)
                     for j in range(x.shape[-1])], axis=-1)


class TestComponentLoop:
    """The loops over K give exactly what max/sum reductions over a trailing
    K axis give; numpy reduces fewer than 8 terms left to right."""

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_softmax(self, k):
        a = np.random.default_rng(k).normal(size=(3, 4, k)) * 5
        assert np.array_equal(_softmax(a), reduction_softmax(a))

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_log_density(self, k):
        rng = np.random.default_rng(10 + k)
        field = LaplaceMixtureField(
            reduction_softmax(rng.normal(size=(3, 4, k))),
            rng.normal(size=(3, 4, k)),
            BETA_FLOOR + rng.exponential(size=(3, 4, k)),
        )
        targets = rng.normal(size=(40, 3, 4))
        comp, _ = reduction_terms(field.pi, field.mu, field.beta, targets)
        expected = np.moveaxis(reduction_lse(comp)[0], -1, 0)
        assert np.array_equal(lm_log_density(field, targets), expected)

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_nll_grad(self, k):
        rng = np.random.default_rng(20 + k)
        params = UnconstrainedMixtureParams(
            rng.normal(size=(3, 4, k)), rng.normal(size=(3, 4, k)),
            rng.normal(size=(3, 4, k)),
        )
        targets = rng.normal(size=(40, 3, 4))
        n = len(targets)
        count = targets.size
        pi = reduction_softmax(params.logits)
        beta = np.logaddexp(0.0, params.raw_scale) + BETA_FLOOR
        sig = 1.0 / (1.0 + np.exp(-params.raw_scale))
        comp, diff = reduction_terms(pi, params.mu, beta, targets)
        lse, resp = reduction_lse(comp)
        resp_sum = sample_sums(resp)
        sign_sum = sample_sums(np.sign(diff) * resp)
        abs_sum = sample_sums(np.abs(diff) * resp)

        nll, grads = lm_nll_grad(params, targets)
        assert nll == float(-np.mean(lse))
        assert np.array_equal(grads.logits, (n * pi - resp_sum) / count)
        assert np.array_equal(grads.mu, -sign_sum / beta / count)
        assert np.array_equal(
            grads.raw_scale,
            (resp_sum / beta - abs_sum / beta**2) * sig / count,
        )


class TestSignTies:
    """sign(y - mu) * r is formed as copysign(r, y - mu) with exact ties set
    to 0; the np.sign formula is the reference, at locations set exactly on
    sample values and at y - mu = -0.0."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nll_grad_equals_the_sign_formula(self, k):
        rng = np.random.default_rng(70 + k)
        targets = np.round(rng.normal(size=(30, 5, 7)), 1)  # repeated values
        targets[::4] = -0.0
        targets[1::4, 0] = 0.0
        idx_t, idx_f = np.meshgrid(np.arange(5), np.arange(7), indexing="ij")
        mu = targets[rng.integers(0, 30, size=(5, 7, k)), idx_t[..., None],
                     idx_f[..., None]]
        mu[..., 0] = 0.0  # -0.0 - 0.0 is -0.0
        params = UnconstrainedMixtureParams(rng.normal(size=(5, 7, k)), mu,
                                            rng.normal(size=(5, 7, k)))
        n, count = len(targets), targets.size
        pi = reduction_softmax(params.logits)
        beta = np.logaddexp(0.0, params.raw_scale) + BETA_FLOOR
        sig = 1.0 / (1.0 + np.exp(-params.raw_scale))
        comp, diff = reduction_terms(pi, params.mu, beta, targets)
        assert np.any(diff == 0) and np.any(np.signbit(diff[diff == 0]))
        lse, resp = reduction_lse(comp)
        resp_sum = sample_sums(resp)
        expected = np.stack([
            (n * pi - resp_sum) / count,
            -sample_sums(np.sign(diff) * resp) / beta / count,
            (resp_sum / beta - sample_sums(np.abs(diff) * resp) / beta**2) * sig
            / count,
        ])

        ws = LmWorkspace(targets, k)
        nll, grads = lm_nll_grad(params, targets, workspace=ws)
        assert np.array_equal(np.array(nll), np.array(float(-np.mean(lse))))
        assert np.array_equal(ws.grad, expected)
        assert ws.grad.tobytes() == expected.tobytes()


def mixture_cdf(x, pi, mu, beta):
    total = np.zeros_like(np.asarray(x, dtype=float))
    for p, m, b in zip(pi, mu, beta):
        z = (x - m) / b
        total = total + p * np.where(z < 0, 0.5 * np.exp(z), 1 - 0.5 * np.exp(-z))
    return total


class TestLmSample:
    def test_median_draw(self):
        assert laplace_inverse_cdf(0.5, 3.0, 0.7) == 3.0

    def test_floor_scale_concentration(self):
        field = field_of([1.0, 0.0], [4.0, -4.0], [BETA_FLOOR, BETA_FLOOR])
        draws = lm_sample_stack(field, SeededRng(6), 10_000)[:, 0, 0]
        assert draws.std() < 3 * BETA_FLOOR

    def test_component_frequencies(self):
        field = field_of([0.8, 0.2], [-1.0, 1.0], [0.05, 0.05])
        draws = lm_sample_stack(field, SeededRng(7), 10_000)[:, 0, 0]
        near_minus = np.mean(np.abs(draws + 1) < np.abs(draws - 1))
        assert near_minus == pytest.approx(0.8, abs=0.02)

    def test_ks_distance_to_mixture_cdf(self):
        pi, mu, beta = [0.3, 0.7], [-2.0, 1.0], [0.5, 0.25]
        field = field_of(pi, mu, beta)
        draws = np.sort(lm_sample_stack(field, SeededRng(8), 100_000)[:, 0, 0])
        n = len(draws)
        cdf = mixture_cdf(draws, pi, mu, beta)
        ks = max(np.max(np.abs(cdf - np.arange(1, n + 1) / n)),
                 np.max(np.abs(cdf - np.arange(n) / n)))
        assert ks < 0.01

    def test_single_sample_deterministic(self):
        field = field_of([0.5, 0.5], [-1.0, 1.0], [0.1, 0.1], t=3, f=2)
        a = lm_sample_stack(field, SeededRng(9), 1)[0]
        b = lm_sample_stack(field, SeededRng(9), 1)[0]
        assert np.array_equal(a, b)


class TestFitLm:
    def test_constant_data_reaches_floor_optimum(self):
        data = np.full((40, 2, 2), -1.25)
        field = fit_lm(data, k=1, steps=400, seed=0, restarts=2)
        assert np.all(np.abs(field.mu - (-1.25)) < 1e-3)
        nll = lm_nll(field, data)
        assert nll == pytest.approx(np.log(2 * BETA_FLOOR), abs=1e-3)

    def test_balanced_bimodal_recovery(self):
        rng = SeededRng(10)
        n = 500
        hi = rng.uniform(size=n) < 0.5
        data = np.where(hi, 1.0, -1.0)[:, None, None] + 0.05 * rng.normal(
            size=(n, 1, 1)
        )
        field = fit_lm(data, k=2, steps=250, seed=3)
        mus = np.sort(field.mu[0, 0])
        em_mu, em_pi = em_oracle(data[:, 0, 0], seed=1)
        assert np.all(np.abs(mus - em_mu) < 0.1)
        assert np.all(np.abs(np.sort(field.pi[0, 0]) - np.sort(em_pi)) < 0.1)
        assert np.all(np.abs(mus - np.array([-1.0, 1.0])) < 0.1)

    def test_mixture_beats_single_component(self):
        rng = SeededRng(11)
        n = 400
        hi = rng.uniform(size=n) < 0.5
        data = np.where(hi, 1.0, -1.0)[:, None, None] + 0.05 * rng.normal(
            size=(n, 1, 1)
        )
        two = fit_lm(data, k=2, steps=250, seed=4)
        one = fit_lm(data, k=1, steps=250, seed=4)
        assert lm_nll(two, data) <= lm_nll(one, data) - 0.3

    def test_stationary_gradient_at_optimum(self):
        # Even per-cluster counts put the location optimum strictly between
        # two data points, where the objective is differentiable; an optimum
        # sitting exactly on a data point has a jumping subgradient instead.
        rng = SeededRng(12)
        data = np.concatenate([
            -1.0 + 0.05 * rng.normal(size=200),
            1.0 + 0.05 * rng.normal(size=200),
        ])[:, None, None]
        field = fit_lm(data, k=2, steps=2500, seed=5)
        params = UnconstrainedMixtureParams(
            np.log(field.pi),
            field.mu.copy(),
            np.log(np.expm1(np.maximum(field.beta - BETA_FLOOR, 1e-12))),
        )
        _, grads = lm_nll_grad(params, data)
        worst = max(np.abs(grads.logits).max(), np.abs(grads.mu).max(),
                    np.abs(grads.raw_scale).max())
        assert worst < 1e-4

    def test_too_few_samples(self):
        with pytest.raises(ContractError):
            fit_lm(np.zeros((1, 2, 2)), k=2)


def em_oracle(samples, k=2, iters=400, seed=0):
    """Laplace-mixture EM, run to convergence; the independent reference
    fit for checking the gradient-descent fitter."""
    rng = np.random.default_rng(seed)
    mu = np.quantile(samples, (np.arange(k) + 0.5) / k) + 1e-3 * rng.normal(size=k)
    beta = np.full(k, max(samples.std(), 0.05))
    pi = np.full(k, 1.0 / k)
    x = samples[:, None]
    for _ in range(iters):
        logp = np.log(pi) - np.log(2 * beta) - np.abs(x - mu) / beta
        logp -= logp.max(axis=1, keepdims=True)
        r = np.exp(logp)
        r /= r.sum(axis=1, keepdims=True)
        pi = r.mean(axis=0)
        for j in range(k):
            order = np.argsort(samples)
            w = r[order, j]
            cw = np.cumsum(w) / w.sum()
            mu[j] = samples[order][np.searchsorted(cw, 0.5)]
        beta = (r * np.abs(x - mu)).sum(axis=0) / r.sum(axis=0)
        beta = np.maximum(beta, BETA_FLOOR)
    order = np.argsort(mu)
    return mu[order], pi[order]

