import json
import re

import numpy as np
import pytest

from conftest import random_sign_prototypes
from oversmooth import flow, gan, probloss, toylab
from oversmooth.core import ContractError, SeededRng, read_mel
from oversmooth.density import dip_statistic
from oversmooth.toylab import (
    ArStrategy,
    CondLmStrategy,
    ConditionSpec,
    ConditionedStrategy,
    FlowStrategy,
    GanDemoStrategy,
    LmStrategy,
    PointwiseStrategy,
    ToyCorpusSpec,
    canonical_spec,
    corpus_to_files,
    default_coherence_tol,
    make_corpus,
    mode_coherence,
    _generator_grad,
    run_experiment,
    stripes_horizontal,
    stripes_vertical,
)


def scalar_spec(weights=(0.5, 0.5), noise=0.05, n=500, seed=0):
    cond = ConditionSpec((np.array([[-1.0]]), np.array([[1.0]])), weights)
    return ToyCorpusSpec((cond,), noise, n, seed)


def per_sample_corpus(spec):
    """Each condition's (stack, modes) built one sample at a time, as
    ``prototypes[mode] + noise[i]``, from the same substreams as
    ``make_corpus``."""
    rng = SeededRng(spec.seed, toylab._STREAM_CORPUS)
    out = []
    for ci, cond in enumerate(spec.conditions):
        sub = rng.substream(ci)
        n = spec.samples_per_condition
        modes = sub.categorical(cond.weights, n)
        noise = sub.normal(size=(n,) + spec.grid_shape) * spec.noise
        grids = [cond.prototypes[modes[i]] + noise[i] for i in range(n)]
        out.append((np.stack(grids), np.array([int(m) for m in modes])))
    return out


def three_mode_spec():
    """Two conditions of 5x7 grids; three modes with uneven weights, then
    two."""
    rng = np.random.default_rng(4)
    protos = tuple(np.sign(rng.normal(size=(5, 7))) for _ in range(3))
    return ToyCorpusSpec((ConditionSpec(protos, (0.6, 0.3, 0.1)),
                          ConditionSpec(protos[1:], (0.25, 0.75))), 0.1, 37, 9)


def uneven_spec(weights, seed=0):
    """One condition of random +-1 10x8 prototypes with uneven ``weights``
    and noise 0.05. At 1,000 samples the drawn mode shares stay near the
    weights, which the default tolerance is computed from."""
    rng = np.random.default_rng(seed)
    protos = tuple(np.sign(rng.normal(size=(10, 8))) for _ in weights)
    return ToyCorpusSpec((ConditionSpec(protos, weights),), 0.05, 1000, seed)


class TestMakeCorpus:
    def test_deterministic(self):
        a = make_corpus(scalar_spec(seed=3))
        b = make_corpus(scalar_spec(seed=3))
        assert np.array_equal(a.stack(0), b.stack(0))
        assert np.array_equal(a.modes(0), b.modes(0))

    @pytest.mark.parametrize("spec", [canonical_spec(seed=17), three_mode_spec()],
                             ids=["canonical", "three_modes"])
    def test_equals_the_per_sample_construction(self, spec):
        corpus = make_corpus(spec)
        assert len(corpus.stacks) == len(spec.conditions)
        for ci, (stack, modes) in enumerate(per_sample_corpus(spec)):
            assert corpus.stack(ci).shape == (spec.samples_per_condition,
                                              *spec.grid_shape)
            assert np.array_equal(corpus.stack(ci), stack)
            assert np.array_equal(corpus.modes(ci), modes)
            assert corpus.modes(ci).dtype == modes.dtype

    def test_arrays_are_read_only_and_not_copied(self):
        corpus = make_corpus(scalar_spec(n=10))
        assert corpus.stack(0) is corpus.stack(0)
        with pytest.raises(ValueError, match="read-only"):
            corpus.stack(0)[0, 0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            corpus.modes(0)[0] = 1

    def test_degenerate_single_mode(self):
        proto = np.array([[2.0, -1.0], [0.5, 0.0]])
        spec = ToyCorpusSpec(
            (ConditionSpec((proto,), (1.0,)),), 0.0, 20, 0
        )
        corpus = make_corpus(spec)
        assert np.array_equal(corpus.stack(0), np.broadcast_to(proto, (20, 2, 2)))
        assert np.array_equal(corpus.modes(0), np.zeros(20))

    def test_mode_frequencies_within_3_sigma(self):
        spec = scalar_spec(weights=(0.8, 0.2), n=1000, seed=5)
        corpus = make_corpus(spec)
        count_0 = int((corpus.modes(0) == 0).sum())
        sigma = np.sqrt(1000 * 0.8 * 0.2)
        assert abs(count_0 - 800) <= 3 * sigma

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.1])
    def test_bad_noise_rejected(self, noise):
        with pytest.raises(ContractError, match="noise must be finite and >= 0"):
            scalar_spec(noise=noise)

    @pytest.mark.parametrize("cell", [1e300, -1e151, float("nan"), float("inf")])
    def test_prototypes_too_large_to_square_rejected(self, cell):
        proto = np.zeros((4, 4))
        proto[1, 2] = cell
        with pytest.raises(ContractError, match="prototypes must be finite.*1e150"):
            ConditionSpec((np.zeros((4, 4)), proto), (0.5, 0.5))
        ConditionSpec((np.full((4, 4), -1e150),), (1.0,))  # the bound itself

    def test_noise_scale(self):
        corpus = make_corpus(scalar_spec(noise=0.05, n=2000, seed=7))
        stack = corpus.stack(0)[:, 0, 0]
        modes = corpus.modes(0)
        residuals = stack - np.where(modes == 0, -1.0, 1.0)
        assert abs(residuals.std() - 0.05) < 0.01


class TestCanonicalSpec:
    def test_prototypes_differ_in_every_row(self):
        a, b = stripes_horizontal(), stripes_vertical()
        for r in range(8):
            assert not np.array_equal(a[r], b[r])


class TestPointwise:
    def test_mse_fit_is_cell_mean(self):
        corpus = make_corpus(canonical_spec(seed=1, samples_per_condition=50))
        strategy = PointwiseStrategy(corpus, "mse")
        stack = corpus.stack(0)
        assert np.allclose(strategy.models[(0, 0)], stack.mean(axis=0), atol=1e-9)

    def test_mae_fit_is_cell_median(self):
        corpus = make_corpus(canonical_spec(seed=2, samples_per_condition=51))
        strategy = PointwiseStrategy(corpus, "mae")
        stack = corpus.stack(0)
        assert np.allclose(strategy.models[(0, 0)], np.median(stack, axis=0),
                           atol=1e-9)

    def test_balanced_scalar_mse_averages_modes(self):
        corpus = make_corpus(scalar_spec(n=200_000, seed=11))
        strategy = PointwiseStrategy(corpus, "mse")
        assert abs(strategy.models[(0, 0)][0, 0]) < 0.01

    def test_skewed_scalar_mae_tracks_heavy_mode(self):
        corpus = make_corpus(scalar_spec(weights=(0.8, 0.2), n=2000, seed=12))
        strategy = PointwiseStrategy(corpus, "mae")
        assert abs(strategy.models[(0, 0)][0, 0] + 1.0) < 0.05

    def test_single_mode_recovers_prototype(self):
        proto = np.array([[0.7]])
        spec = ToyCorpusSpec(
            (ConditionSpec((proto,), (1.0,)),), 0.05, 400, 13
        )
        strategy = PointwiseStrategy(make_corpus(spec), "mse")
        assert abs(strategy.models[(0, 0)][0, 0] - 0.7) <= 3 * 0.05 / np.sqrt(400)


class TestConditioned:
    def test_recovers_each_prototype(self):
        spec = canonical_spec(seed=3)
        corpus = make_corpus(spec)
        strategy = ConditionedStrategy(corpus)
        n = len(corpus.stack(0))
        bound = 3 * 0.05 / np.sqrt(n / 4)
        for v, proto in enumerate(spec.conditions[0].prototypes):
            assert np.max(np.abs(strategy.models[(0, v)] - proto)) < 10 * bound

    def test_more_multimodal_than_pointwise(self):
        corpus = make_corpus(scalar_spec(n=600, seed=4))
        conditioned = ConditionedStrategy(corpus)
        pointwise = PointwiseStrategy(corpus, "mse")
        rng = SeededRng(5)
        gen_c = conditioned.generate(0, 300, rng.substream(0))[:, 0, 0]
        gen_p = pointwise.generate(0, 300, rng.substream(1))[:, 0, 0]
        assert dip_statistic(gen_c).dip > dip_statistic(gen_p).dip

    def test_mode_frequencies_match_weights(self):
        spec = scalar_spec(weights=(0.7, 0.3), n=1500, seed=6)
        strategy = ConditionedStrategy(make_corpus(spec))
        sigma = np.sqrt(0.7 * 0.3 / 1500)
        assert abs(strategy.weights[0][0] - 0.7) <= 3 * sigma

    # A mean needs one grid per mode and a k = 2 mixture two; the flow is one
    # model over every mode, so an empty mode leaves nothing unfitted.
    @pytest.mark.parametrize("name,needs", [("conditioned", 1), ("cond_lm", 2)])
    def test_empty_mode_refused_with_the_fit_s_minimum(self, name, needs):
        corpus = make_corpus(scalar_spec(weights=(1.0, 0.0), n=50, seed=2))
        with pytest.raises(ContractError, match=re.escape(
                f"(condition 0, mode 1) has 0 samples, needs {needs}")):
            toylab._BUILDERS[name](corpus, 0)

    def test_empty_mode_accepted_by_the_flow(self):
        spec = canonical_spec(seed=2, samples_per_condition=40, n_conditions=1)
        spec = ToyCorpusSpec((ConditionSpec(spec.conditions[0].prototypes,
                                            (1.0, 0.0)),), 0.05, 40, 2)
        strategy = FlowStrategy(make_corpus(spec), train_steps=2, restarts=1,
                                by_mode=True)
        assert np.array_equal(strategy.weights[0], [1.0, 0.0])
        assert strategy.generate(0, 5, SeededRng(1)).shape == (5, 8, 8)


def random_sign_spec(n_modes, seed, noise=0.05):
    return ToyCorpusSpec(tuple(ConditionSpec(tuple(protos), (1 / n_modes,) * n_modes)
                               for protos in random_sign_prototypes(n_modes, seed)),
                         noise, 500, seed)


class TestArStrategy:
    def test_mode_coherent_generation(self):
        hits = 0
        for seed in range(3):
            spec = canonical_spec(seed=20 + seed)
            corpus = make_corpus(spec)
            strategy = ArStrategy(corpus)
            gen = strategy.generate(0, 100, SeededRng(seed))
            tol = default_coherence_tol(spec.conditions[0])
            coherence = mode_coherence(gen, spec.conditions[0].prototypes, tol)
            hits += coherence >= 0.9
        assert hits == 3

    @pytest.mark.parametrize("n_modes", [2, 4])
    def test_maps_reproduce_noiseless_prototypes(self, n_modes):
        spec = random_sign_spec(n_modes, seed=21, noise=0.0)
        strategy = ArStrategy(make_corpus(spec))
        for ci, cond in enumerate(spec.conditions):
            _, maps, deviations = strategy.models[(ci, 0)]
            assert np.max(deviations) < 1e-4
            for proto in cond.prototypes:
                predicted = proto[:-1, None] @ maps[:, :-1] + maps[:, -1:]
                assert np.max(np.abs(predicted[:, 0] - proto[1:])) < 1e-4

    @pytest.mark.parametrize("n_modes", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_prototypes_are_mode_coherent(self, n_modes, seed):
        report = run_experiment(random_sign_spec(n_modes, seed), ["ar"], seed)
        assert report.rows["ar"].coherence >= 0.9

    def test_pointwise_blur_is_incoherent(self):
        spec = canonical_spec(seed=22)
        corpus = make_corpus(spec)
        blur = PointwiseStrategy(corpus, "mse")
        gen = blur.generate(0, 50, SeededRng(0))
        tol = default_coherence_tol(spec.conditions[0])
        assert mode_coherence(gen, spec.conditions[0].prototypes, tol) <= 0.1


class TestModeCoherence:
    def test_exact_prototypes(self):
        protos = (stripes_horizontal(), stripes_vertical())
        samples = np.stack(protos)
        assert mode_coherence(samples, protos, tol=0.2) == 1.0

    def test_midpoint_fails(self):
        protos = (stripes_horizontal(), stripes_vertical())
        blur = (protos[0] + protos[1]) / 2.0
        gap = np.sqrt(np.mean((protos[0] - protos[1]) ** 2))
        assert mode_coherence(blur[None], protos, tol=0.45 * gap) == 0.0

    def test_half_and_half(self):
        protos = (np.zeros((2, 2)), np.ones((2, 2)))
        samples = np.stack([protos[0], protos[0], protos[1], protos[1] + 0.01])
        assert mode_coherence(samples, protos, tol=0.1) == 1.0
        mixed = np.stack([protos[0], np.full((2, 2), 0.5)])
        assert mode_coherence(mixed, protos, tol=0.1) == 0.5

    def test_default_tol_needs_two_prototypes(self):
        with pytest.raises(ContractError):
            default_coherence_tol(ConditionSpec((np.ones((2, 2)),), (1.0,)))

    def test_default_tol_of_balanced_modes_is_the_gap_rule(self):
        cond = canonical_spec(seed=0).conditions[0]
        a, b = cond.prototypes
        gap = np.sqrt(np.mean((a - b) ** 2))
        assert default_coherence_tol(cond) == 0.4 * float(gap) == 0.5656854249492381

    @pytest.mark.parametrize("weights", [(0.6, 0.3, 0.1), (0.25, 0.75),
                                         (0.9, 0.1)])
    def test_mean_grid_of_uneven_modes_is_incoherent(self, weights):
        spec = uneven_spec(weights)
        cond = spec.conditions[0]
        protos = np.stack(cond.prototypes)
        rms = np.sqrt(np.mean((protos[:, None] - protos[None]) ** 2, axis=(2, 3)))
        mean = np.tensordot(cond.weights, protos, axes=1)
        to_mean = np.sqrt(np.mean((protos - mean) ** 2, axis=(1, 2)))
        smallest_gap = rms[np.triu_indices(len(protos), 1)].min()
        tol = default_coherence_tol(cond)
        assert tol == pytest.approx(0.8 * to_mean.min(), rel=1e-12)
        assert tol < 0.4 * smallest_gap
        report = run_experiment(spec, ["mse", "conditioned"], 3,
                                n_generate=50, n_heldout=50)
        assert report.rows["mse"].coherence == 0.0
        assert report.rows["gt"].coherence == 1.0
        assert report.rows["conditioned"].coherence == 1.0


class TestLmStrategy:
    def test_scalar_bimodal_dip(self):
        corpus = make_corpus(scalar_spec(n=600, seed=8))
        strategy = LmStrategy(corpus, seed=1)
        gen = strategy.generate(0, 400, SeededRng(9))[:, 0, 0]
        assert dip_statistic(gen).dip > 0.05

    def test_pattern_corpus_bimodal_but_incoherent(self):
        spec = canonical_spec(seed=9)
        corpus = make_corpus(spec)
        strategy = LmStrategy(corpus, seed=2)
        gen = strategy.generate(0, 200, SeededRng(10))
        tol = default_coherence_tol(spec.conditions[0])
        coherence = mode_coherence(gen, spec.conditions[0].prototypes, tol)
        assert coherence <= 0.2
        # cells where the prototypes disagree stay bimodal
        a, b = spec.conditions[0].prototypes
        r, c = np.argwhere(a != b)[0]
        assert dip_statistic(gen[:, r, c]).dip > 0.05

    def test_heldout_nll_is_the_mean_grid_nll(self):
        corpus = make_corpus(canonical_spec(seed=9, samples_per_condition=60,
                                            n_conditions=2))
        heldout = make_corpus(canonical_spec(seed=19, samples_per_condition=30,
                                             n_conditions=2))
        strategy = LmStrategy(corpus, seed=3)
        oracle = np.mean([
            -probloss.lm_log_density(strategy.models[(ci, 0)], heldout.stack(ci))
            .sum(axis=(1, 2)).mean()
            for ci in range(2)
        ])
        assert strategy.heldout_nll(heldout) == float(oracle)


class TestFlowStrategy:
    def test_pattern_corpus_coherent(self):
        spec = canonical_spec(seed=10)
        corpus = make_corpus(spec)
        strategy = FlowStrategy(corpus, seed=3)
        gen = strategy.generate(0, 100, SeededRng(11))
        tol = default_coherence_tol(spec.conditions[0])
        assert mode_coherence(gen, spec.conditions[0].prototypes, tol) >= 0.7

    def test_heldout_nll_finite(self):
        spec = canonical_spec(seed=10, samples_per_condition=200)
        corpus = make_corpus(spec)
        strategy = FlowStrategy(corpus, train_steps=200, restarts=1, seed=4)
        value = strategy.heldout_nll(corpus)
        assert np.isfinite(value)

    def test_mode_conditioned_heldout_nll_is_the_mode_mixture(self):
        spec = canonical_spec(seed=20, samples_per_condition=40,
                              n_conditions=2)
        corpus = make_corpus(spec)
        heldout = make_corpus(canonical_spec(seed=21, samples_per_condition=25,
                                             n_conditions=2))
        strategy = FlowStrategy(corpus, train_steps=20, restarts=1, seed=6,
                                by_mode=True)
        totals = []
        for ci in range(2):
            modes = corpus.modes(ci)
            freqs = np.bincount(modes, minlength=2) / len(modes)
            targets = np.transpose(heldout.stack(ci), (0, 2, 1))
            per_mode = []
            for v in range(2):
                vec = np.zeros(4)
                vec[ci] = vec[2 + v] = 1.0
                conds = np.tile(vec, (len(targets), targets.shape[1], 1))
                ll = flow.log_likelihood(strategy.model,
                                         flow.ConditionedBatch(targets, conds))
                per_mode.append(np.log(freqs[v]) + ll)
            totals.append(-np.mean(np.logaddexp(*per_mode)))
        assert strategy.heldout_nll(heldout) == pytest.approx(np.mean(totals),
                                                             rel=1e-12)

    @pytest.mark.parametrize("on_mode", [False, True])
    def test_one_hot_conditions_equal_the_tiled_vectors(self, on_mode):
        spec = three_mode_spec()
        strategy = FlowStrategy(make_corpus(spec), n_steps=1, hidden=2,
                                train_steps=0, restarts=1,
                                by_mode=on_mode)
        assert strategy.cond_dim == 2 + 3 * on_mode
        modes = np.array([2, 0, 1, 1])
        for ci in range(2):
            tiled = []
            for v in modes:
                vec = np.zeros(strategy.cond_dim)
                vec[ci] = 1.0
                if on_mode:
                    vec[2 + v] = 1.0
                tiled.append(np.tile(vec, (7, 1)))  # 7 frames (columns)
            assert np.array_equal(strategy._conds(ci, modes), np.stack(tiled))

    def test_mode_conditioned_generation_repeats(self):
        spec = canonical_spec(seed=22, samples_per_condition=40,
                              n_conditions=1)
        strategy = FlowStrategy(make_corpus(spec), train_steps=20, restarts=1,
                                seed=7, by_mode=True)
        gen = strategy.generate(0, 12, SeededRng(23))
        assert gen.shape == (12, 8, 8) and np.all(np.isfinite(gen))
        assert np.array_equal(gen, strategy.generate(0, 12, SeededRng(23)))


class TestGanDemo:
    def test_runs_deterministically(self):
        spec = canonical_spec(seed=12, samples_per_condition=60)
        corpus = make_corpus(spec)
        a = GanDemoStrategy(corpus, seed=5)
        b = GanDemoStrategy(corpus, seed=5)
        for key in a.models:
            assert np.array_equal(a.models[key], b.models[key])
        assert all(np.isfinite(d) and np.isfinite(g) for _, d, g in a.history)

    def test_generator_gradient_on_a_tall_grid(self):
        # 40 rows: the 32-frame window starts at a random offset, so each
        # clip's gradient must land at its own offset in the table.
        rng = SeededRng(14)
        discs = [gan.TinyDiscriminator.random(rng.substream(i))
                 for i in range(3)]
        for disc in discs:
            disc.params *= 3.0
        table = rng.normal(size=(40, 8))
        clips, offsets = gan.random_windows(table, rng.substream(7))
        assert offsets[0] > 0 and [len(c) for c in clips] == [32, 40, 40]

        def loss(grid):
            scores = [gan.discriminator_score(d, grid[o : o + len(c)])
                      for d, c, o in zip(discs, clips, offsets)]
            return gan.lsgan_g_loss([[s] for s in scores])

        _, grad = _generator_grad(discs, clips, offsets, table.shape)
        eps = 1e-6
        numeric = np.zeros_like(table)
        for idx in np.ndindex(table.shape):
            up, down = table.copy(), table.copy()
            up[idx] += eps
            down[idx] -= eps
            numeric[idx] = (loss(up) - loss(down)) / (2 * eps)
        assert np.allclose(grad, numeric, rtol=1e-5, atol=1e-9)


class TestRunExperiment:
    def test_unknown_strategy_listed(self):
        spec = canonical_spec(seed=0, samples_per_condition=20)
        with pytest.raises(ContractError, match="mse"):
            run_experiment(spec, ["warp"], seed=0)

    @pytest.mark.parametrize("name,count", [("n_generate", 1),
                                            ("n_heldout", 0)])
    def test_sample_count_below_two_rejected(self, name, count):
        spec = canonical_spec(seed=0, samples_per_condition=20)
        with pytest.raises(ContractError, match=f"{name} must be at least 2"):
            run_experiment(spec, ["mse"], 0, **{name: count})

    def test_byte_identical_reports(self):
        spec = canonical_spec(seed=4, samples_per_condition=60,
                              n_conditions=2)
        kwargs = dict(n_generate=40, n_heldout=40)
        a = run_experiment(spec, ["mse", "conditioned", "ar"], 5, **kwargs)
        b = run_experiment(spec, ["mse", "conditioned", "ar"], 5, **kwargs)
        assert a.to_json() == b.to_json()
        assert a.to_json().encode() == b.to_json().encode()

    def test_byte_identical_through_stochastic_strategies(self):
        # lm fitting and the adversarial demo draw heavily from the seeded
        # streams; reruns must still agree bit for bit
        spec = canonical_spec(seed=5, samples_per_condition=80,
                              n_conditions=1)
        kwargs = dict(n_generate=30, n_heldout=30)
        a = run_experiment(spec, ["lm", "gan"], 13, **kwargs)
        b = run_experiment(spec, ["lm", "gan"], 13, **kwargs)
        assert a.to_json() == b.to_json()

    def test_ordering_on_one_seed(self):
        spec = canonical_spec(seed=6)
        report = run_experiment(spec, ["mse", "ar", "conditioned"], 6)
        rows = report.rows
        assert rows["mse"].var_l < rows["ar"].var_l
        assert rows["mse"].var_l < rows["conditioned"].var_l
        gt = rows["gt"].var_l
        assert abs(rows["ar"].var_l - gt) < abs(rows["mse"].var_l - gt)

    def test_generated_values_within_corpus_range(self):
        spec = canonical_spec(seed=7, samples_per_condition=80)
        corpus = make_corpus(spec)
        all_values = np.concatenate([corpus.stack(ci).ravel() for ci in range(4)])
        lo = all_values.min() - 6 * spec.noise
        hi = all_values.max() + 6 * spec.noise
        for strategy in (PointwiseStrategy(corpus, "mse"),
                         PointwiseStrategy(corpus, "mae"),
                         ConditionedStrategy(corpus), ArStrategy(corpus)):
            gen = strategy.generate(0, 30, SeededRng(1))
            assert np.all(gen >= lo) and np.all(gen <= hi)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 8), (8, 2), (6, 1)])
    def test_grid_below_3x3_rejected(self, shape):
        cond = ConditionSpec((np.zeros(shape), np.ones(shape)), (0.5, 0.5))
        spec = ToyCorpusSpec((cond,), 0.05, 20, 14)
        with pytest.raises(ContractError, match="below 3x3") as err:
            run_experiment(spec, ["mse"], 3, n_generate=10, n_heldout=10)
        assert str(shape) in str(err.value) and "Var_L" in str(err.value)

    def test_markdown_has_header_note(self):
        spec = canonical_spec(seed=15, samples_per_condition=20, n_conditions=1)
        report = run_experiment(spec, ["mse"], 1, n_generate=20, n_heldout=20)
        md = report.to_markdown()
        assert "objective proxies" in md
        assert "| strategy |" in md
        assert f"| mse | {report.rows['mse'].var_l:.5f} | n/a |" in md


class TestCondLm:
    def test_combination_at_least_as_coherent(self):
        spec = canonical_spec(seed=16)
        corpus = make_corpus(spec)
        lm = LmStrategy(corpus, seed=6)
        cond = ConditionedStrategy(corpus)
        combo = CondLmStrategy(corpus, seed=6)
        rng = SeededRng(17)
        tol = default_coherence_tol(spec.conditions[0])
        protos = spec.conditions[0].prototypes

        def coh(strategy, stream):
            gen = strategy.generate(0, 150, rng.substream(stream))
            return mode_coherence(gen, protos, tol)

        assert coh(combo, 2) >= max(coh(lm, 0), coh(cond, 1)) - 0.05


class TestCorpusFiles:
    def test_manifest_and_mels(self, tmp_path):
        spec = three_mode_spec()
        corpus = make_corpus(spec)
        manifest_path = corpus_to_files(corpus, tmp_path / "corpus")
        doc = json.loads(manifest_path.read_text())
        assert doc["seed"] == 9 and doc["noise"] == 0.1
        entries = iter(doc["samples"])
        for ci in range(2):
            for grid, mode in zip(corpus.stack(ci), corpus.modes(ci)):
                entry = next(entries)
                assert entry["condition"] == ci and entry["mode"] == int(mode)
                mel = read_mel(manifest_path.parent / entry["mel"])
                assert np.array_equal(mel.values, grid.astype(np.float32))
        assert next(entries, None) is None
        assert doc["samples"][-1]["mel"] == "sample_00073.mel"


# ---------------------------------------------------------------------------
# Reference strategies: each class's own fit and generate, as they were
# before one fitted-strategy base held every model. The shared base must
# reproduce them bit for bit.
# ---------------------------------------------------------------------------


class RefStrategy:
    log_likelihood = None

    def heldout_nll(self, corpus):
        if self.log_likelihood is None:
            return None
        totals = []
        for ci, weights in self.weights.items():
            terms = [np.log(w) + self.log_likelihood(ci, v, corpus.stack(ci))
                     for v, w in enumerate(weights) if w > 0]
            totals.append(-probloss.log_sum_exp(terms)[0].mean())
        return float(np.mean(totals))


class RefPointwise(RefStrategy):
    def __init__(self, corpus, loss):
        self.table = {ci: np.mean(stack, axis=0) if loss == "mse"
                      else np.median(stack, axis=0)
                      for ci, stack in enumerate(corpus.stacks)}

    def generate(self, condition, count, rng):
        return np.repeat(self.table[condition][None], count, axis=0)


def ref_mode_split(corpus, ci):
    """The samples of condition ``ci`` split by mode id, and each mode's share."""
    stack, modes = corpus.stack(ci), corpus.modes(ci)
    parts = [stack[modes == v]
             for v in range(len(corpus.spec.conditions[ci].prototypes))]
    counts = np.array([len(part) for part in parts], dtype=float)
    return parts, counts / counts.sum()


class RefPerMode(RefStrategy):
    def __init__(self, corpus, fit):
        self.models, self.weights = {}, {}
        for ci in range(len(corpus.spec.conditions)):
            parts, self.weights[ci] = ref_mode_split(corpus, ci)
            for v, part in enumerate(parts):
                self.models[(ci, v)] = fit(ci, v, part)

    def generate(self, condition, count, rng):
        picks = rng.categorical(self.weights[condition], count)
        draws = np.stack([
            self._draw(self.models[(condition, v)], rng.substream(v), count)
            for v in range(len(self.weights[condition]))
        ])
        return draws[picks, np.arange(count)]


class RefConditioned(RefPerMode):
    def __init__(self, corpus):
        super().__init__(corpus, lambda ci, v, part: part.mean(axis=0))

    @staticmethod
    def _draw(mean, rng, count):
        return np.repeat(mean[None], count, axis=0)


class RefAr(RefStrategy):
    def __init__(self, corpus):
        self.chains = {}
        for ci, stack in enumerate(corpus.stacks):
            n, h, w = stack.shape
            maps, deviations = [], []
            for r in range(1, h):
                x = np.concatenate([stack[:, r - 1], np.ones((n, 1))], axis=1)
                a = np.linalg.solve(x.T @ x + 1e-3 * np.eye(w + 1),
                                    x.T @ stack[:, r])
                maps.append(a)
                deviations.append((stack[:, r] - x @ a).std(axis=0))
            self.chains[ci] = (stack[:, 0], maps, deviations)

    def generate(self, condition, count, rng):
        first, maps, deviations = self.chains[condition]
        rows = [first[rng.integers(0, len(first), count)]]
        for a, sd in zip(maps, deviations):
            rows.append(rows[-1] @ a[:-1] + a[-1]
                        + rng.normal(0.0, sd, (count, len(sd))))
        return np.stack(rows, axis=1)


class RefLm(RefStrategy):
    def __init__(self, corpus, seed):
        self.fields, self.weights = {}, {}
        for ci in range(len(corpus.spec.conditions)):
            self.fields[ci] = probloss.fit_lm(corpus.stack(ci), k=2, steps=150,
                                              restarts=1, seed=seed + ci)
            self.weights[ci] = np.ones(1)

    def generate(self, condition, count, rng):
        return probloss.lm_sample_stack(self.fields[condition], rng, count)

    def log_likelihood(self, condition, mode, stack):
        return probloss.lm_log_density(self.fields[condition], stack).sum(axis=(1, 2))


class RefCondLm(RefPerMode):
    def __init__(self, corpus, seed):
        super().__init__(
            corpus,
            lambda ci, v, part: probloss.fit_lm(part, k=2, steps=100, restarts=1,
                                                seed=seed + 31 * ci + v),
        )

    @staticmethod
    def _draw(field, rng, count):
        return probloss.lm_sample_stack(field, rng, count)

    def log_likelihood(self, condition, mode, stack):
        field = self.models[(condition, mode)]
        return probloss.lm_log_density(field, stack).sum(axis=(1, 2))


def three_mode_10x8_spec(seed):
    """Two conditions of 10x8 grids: three modes with uneven weights, whose
    starting rows differ in their halves' signs, then two of them."""
    rng = np.random.default_rng(40)
    protos = []
    for first in ([1, 1], [1, -1], [-1, 1]):
        proto = np.sign(rng.normal(size=(10, 8)))
        proto[0, :4], proto[0, 4:] = first
        protos.append(proto)
    return ToyCorpusSpec((ConditionSpec(tuple(protos), (0.6, 0.3, 0.1)),
                          ConditionSpec(tuple(protos[1:]), (0.25, 0.75))),
                         0.08, 150, seed)


REFERENCES = {  # preset row name -> its reference, built from (corpus, seed)
    "mse": lambda c, s: RefPointwise(c, "mse"),
    "mae": lambda c, s: RefPointwise(c, "mae"),
    "conditioned": lambda c, s: RefConditioned(c),
    "ar": lambda c, s: RefAr(c),
    "lm": RefLm,
    "cond_lm": RefCondLm,
}


class TestAgainstReferenceStrategies:
    @pytest.mark.parametrize("name", list(REFERENCES))
    @pytest.mark.parametrize("spec", [canonical_spec(seed=3),
                                      three_mode_10x8_spec(11)],
                             ids=["canonical", "three_modes_10x8"])
    def test_generate_and_heldout_nll_are_bit_identical(self, spec, name):
        build, reference = toylab._BUILDERS[name], REFERENCES[name]
        corpus = make_corpus(spec)
        heldout = make_corpus(ToyCorpusSpec(spec.conditions, spec.noise, 60,
                                            spec.seed + 1))
        new, ref = build(corpus, 5), reference(corpus, 5)
        for ci in range(len(spec.conditions)):
            assert np.array_equal(new.generate(ci, 50, SeededRng(7).substream(ci)),
                                  ref.generate(ci, 50, SeededRng(7).substream(ci)))
        assert new.heldout_nll(heldout) == ref.heldout_nll(heldout)


class RefFlow(RefStrategy):
    """FlowStrategy's generate and scoring, as they were before one base drew
    every strategy's modes, on a trained FlowStrategy's model."""

    def __init__(self, corpus, model, condition_on_mode):
        self.model, self.condition_on_mode = model, condition_on_mode
        self.n_conditions = len(corpus.spec.conditions)
        self.frames = corpus.spec.grid_shape[1]
        n_modes = max(len(c.prototypes) for c in corpus.spec.conditions)
        self.cond_dim = self.n_conditions + (n_modes if condition_on_mode else 0)
        self.weights = {ci: ref_mode_split(corpus, ci)[1] if condition_on_mode
                        else np.ones(1) for ci in range(self.n_conditions)}

    def _conds(self, condition, modes):
        conds = np.zeros((len(modes), self.frames, self.cond_dim))
        conds[:, :, condition] = 1.0
        if self.condition_on_mode:
            conds[np.arange(len(modes)), :, self.n_conditions + modes] = 1.0
        return conds

    def generate(self, condition, count, rng):
        if self.condition_on_mode:
            picks = rng.categorical(self.weights[condition], count)
        else:
            picks = np.zeros(count, dtype=int)
        grids = flow.sample_batch(self.model, self._conds(condition, picks), rng)
        return np.transpose(grids, (0, 2, 1))

    def log_likelihood(self, condition, mode, stack):
        batch = flow.ConditionedBatch(
            np.transpose(stack, (0, 2, 1)),
            self._conds(condition, np.full(len(stack), mode)))
        return flow.log_likelihood(self.model, batch)


class RefGan(RefStrategy):
    """GanDemoStrategy's generate, as it was before the demo became a fitted
    strategy, on a trained demo's tables."""

    def __init__(self, table):
        self.table = table

    def generate(self, condition, count, rng):
        return np.repeat(self.table[condition][None], count, axis=0)


TRAINED_REFERENCES = {  # name -> (strategy from (corpus, seed), its reference
    # from (corpus, the built strategy))
    "flow": (lambda c, s: FlowStrategy(c, train_steps=4, restarts=1, seed=s),
             lambda c, new: RefFlow(c, new.model, False)),
    "cond_flow": (lambda c, s: FlowStrategy(c, train_steps=4, restarts=1, seed=s,
                                            by_mode=True),
                  lambda c, new: RefFlow(c, new.model, True)),
    "gan": (lambda c, s: GanDemoStrategy(c, seed=s),
            lambda c, new: RefGan({ci: new.models[(ci, 0)]
                                   for ci in range(len(c.spec.conditions))})),
}


class TestAgainstReferenceTrainedStrategies:
    @pytest.mark.parametrize("name", list(TRAINED_REFERENCES))
    @pytest.mark.parametrize("spec", [canonical_spec(seed=3),
                                      three_mode_10x8_spec(11)],
                             ids=["canonical", "three_modes_10x8"])
    def test_generate_and_heldout_nll_are_bit_identical(self, spec, name):
        build, reference = TRAINED_REFERENCES[name]
        corpus = make_corpus(spec)
        heldout = make_corpus(ToyCorpusSpec(spec.conditions, spec.noise, 60,
                                            spec.seed + 1))
        new = build(corpus, 5)
        ref = reference(corpus, new)
        for ci in range(len(spec.conditions)):
            assert np.array_equal(new.generate(ci, 50, SeededRng(7).substream(ci)),
                                  ref.generate(ci, 50, SeededRng(7).substream(ci)))
        assert new.heldout_nll(heldout) == ref.heldout_nll(heldout)


def test_every_built_strategy_class_defines_its_own_init(monkeypatch):
    # Tracing tools time a strategy's fit by wrapping the __init__ found in
    # the class's own namespace, so an inherited __init__ cannot be traced.
    built, base = [], toylab._Strategy
    for attr, value in list(vars(toylab).items()):
        if isinstance(value, type) and issubclass(value, base):
            monkeypatch.setattr(toylab, attr,
                                lambda *a, cls=value, **kw: built.append(cls))
    for build in toylab._BUILDERS.values():
        build(None, 0)
    assert len(built) == len(toylab._BUILDERS)
    for cls in built:
        assert "__init__" in vars(cls), cls.__name__


def test_one_base_draws_and_weighs_every_mode_conditioned_strategy():
    # Mode conditioning is one switch, ``by_mode``: only the base class
    # generates, and each mode-conditioned strategy weighs the modes alike.
    owners = [name for name, value in vars(toylab).items()
              if isinstance(value, type) and "generate" in vars(value)]
    assert owners == ["_Strategy"]
    corpus = make_corpus(canonical_spec(seed=24, samples_per_condition=30,
                                        n_conditions=2))
    built = [ConditionedStrategy(corpus), CondLmStrategy(corpus, seed=1),
             FlowStrategy(corpus, train_steps=0, restarts=1, by_mode=True)]
    for strategy in built:
        assert strategy.by_mode
        assert strategy.weights.keys() == built[0].weights.keys()
        for ci, weights in built[0].weights.items():
            assert np.array_equal(strategy.weights[ci], weights)
