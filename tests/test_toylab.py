import json

import numpy as np
import pytest

from oversmooth import flow, gan, probloss
from oversmooth.core import ContractError, SeededRng, read_mel
from oversmooth.density import dip_statistic
from oversmooth.toylab import (
    ArStrategy,
    CondLmStrategy,
    ConditionSpec,
    ConditionedStrategy,
    FlowStrategy,
    GanDemoStrategy,
    IndistinguishableModes,
    LmStrategy,
    PointwiseStrategy,
    ToyCorpusSpec,
    canonical_spec,
    corpus_to_files,
    default_coherence_tol,
    make_corpus,
    mode_coherence,
    _generator_grad,
    _row_context,
    run_experiment,
    stripes_horizontal,
    stripes_vertical,
)


def scalar_spec(weights=(0.5, 0.5), noise=0.05, n=500, seed=0):
    cond = ConditionSpec((np.array([[-1.0]]), np.array([[1.0]])), weights)
    return ToyCorpusSpec((cond,), noise, n, seed)


class TestMakeCorpus:
    def test_deterministic(self):
        a = make_corpus(scalar_spec(seed=3))
        b = make_corpus(scalar_spec(seed=3))
        assert all(
            np.array_equal(x.values, y.values) and x.mode == y.mode
            for x, y in zip(a.samples, b.samples)
        )

    def test_degenerate_single_mode(self):
        proto = np.array([[2.0, -1.0], [0.5, 0.0]])
        spec = ToyCorpusSpec(
            (ConditionSpec((proto,), (1.0,)),), 0.0, 20, 0
        )
        corpus = make_corpus(spec)
        for sample in corpus.samples:
            assert np.array_equal(sample.values, proto)

    def test_mode_frequencies_within_3_sigma(self):
        spec = scalar_spec(weights=(0.8, 0.2), n=1000, seed=5)
        corpus = make_corpus(spec)
        count_0 = int((corpus.modes(0) == 0).sum())
        sigma = np.sqrt(1000 * 0.8 * 0.2)
        assert abs(count_0 - 800) <= 3 * sigma

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

    def test_row_contexts_separate_prototypes(self):
        from oversmooth.toylab import _row_context

        a, b = stripes_horizontal(), stripes_vertical()
        a_contexts = {_row_context(row) for row in a}
        b_contexts = {_row_context(row) for row in b}
        assert a_contexts.isdisjoint(b_contexts)


class TestPointwise:
    def test_mse_fit_is_cell_mean(self):
        corpus = make_corpus(canonical_spec(seed=1, samples_per_condition=50))
        strategy = PointwiseStrategy(corpus, "mse")
        stack = corpus.stack(0)
        assert np.allclose(strategy.table[0], stack.mean(axis=0), atol=1e-9)

    def test_mae_fit_is_cell_median(self):
        corpus = make_corpus(canonical_spec(seed=2, samples_per_condition=51))
        strategy = PointwiseStrategy(corpus, "mae")
        stack = corpus.stack(0)
        assert np.allclose(strategy.table[0], np.median(stack, axis=0), atol=1e-9)

    def test_balanced_scalar_mse_averages_modes(self):
        corpus = make_corpus(scalar_spec(n=200_000, seed=11))
        strategy = PointwiseStrategy(corpus, "mse")
        assert abs(strategy.table[0][0, 0]) < 0.01

    def test_skewed_scalar_mae_tracks_heavy_mode(self):
        corpus = make_corpus(scalar_spec(weights=(0.8, 0.2), n=2000, seed=12))
        strategy = PointwiseStrategy(corpus, "mae")
        assert abs(strategy.table[0][0, 0] + 1.0) < 0.05

    def test_single_mode_recovers_prototype(self):
        proto = np.array([[0.7]])
        spec = ToyCorpusSpec(
            (ConditionSpec((proto,), (1.0,)),), 0.05, 400, 13
        )
        strategy = PointwiseStrategy(make_corpus(spec), "mse")
        assert abs(strategy.table[0][0, 0] - 0.7) <= 3 * 0.05 / np.sqrt(400)


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

    @pytest.mark.parametrize("build", [ConditionedStrategy, CondLmStrategy])
    def test_empty_mode_named(self, build):
        corpus = make_corpus(scalar_spec(weights=(1.0, 0.0), n=50, seed=2))
        with pytest.raises(ContractError, match=r"\(condition 0, mode 1\)"):
            build(corpus)


def teacher_forced_mse(strategy: ArStrategy, corpus) -> float:
    """Mean per-cell one-step error of ``strategy``'s table on held-in data."""
    errs = []
    for ci in range(len(corpus.spec.conditions)):
        for g in corpus.stack(ci):
            for r in range(1, strategy.rows):
                pred = strategy.table.get((ci, _row_context(g[r - 1])), g[r - 1])
                errs.append(np.mean((pred - g[r]) ** 2))
    return float(np.mean(errs))


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

    def test_teacher_forced_error_near_noise_floor(self):
        spec = canonical_spec(seed=21)
        corpus = make_corpus(spec)
        strategy = ArStrategy(corpus)
        assert teacher_forced_mse(strategy, corpus) <= 1.2 * 0.05**2

    def test_pointwise_blur_is_incoherent(self):
        spec = canonical_spec(seed=22)
        corpus = make_corpus(spec)
        blur = PointwiseStrategy(corpus, "mse")
        gen = blur.generate(0, 50, SeededRng(0))
        tol = default_coherence_tol(spec.conditions[0])
        assert mode_coherence(gen, spec.conditions[0].prototypes, tol) <= 0.1

    def test_indistinguishable_row0_rejected(self):
        shared = np.ones((4, 4))
        proto_a = shared.copy()
        proto_b = shared.copy()
        proto_b[1:] = -1.0
        spec = ToyCorpusSpec(
            (ConditionSpec((proto_a, proto_b), (0.5, 0.5)),), 0.01, 100, 30
        )
        with pytest.raises(IndistinguishableModes):
            ArStrategy(make_corpus(spec))


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
            -probloss.lm_log_density(strategy.fields[ci], heldout.stack(ci))
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
                                condition_on_mode=True)
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

    def test_mode_conditioned_generation_repeats(self):
        spec = canonical_spec(seed=22, samples_per_condition=40,
                              n_conditions=1)
        strategy = FlowStrategy(make_corpus(spec), train_steps=20, restarts=1,
                                seed=7, condition_on_mode=True)
        gen = strategy.generate(0, 12, SeededRng(23))
        assert gen.shape == (12, 8, 8) and np.all(np.isfinite(gen))
        assert np.array_equal(gen, strategy.generate(0, 12, SeededRng(23)))


class TestGanDemo:
    def test_runs_deterministically(self):
        spec = canonical_spec(seed=12, samples_per_condition=60)
        corpus = make_corpus(spec)
        a = GanDemoStrategy(corpus, steps=30, seed=5)
        b = GanDemoStrategy(corpus, steps=30, seed=5)
        for ci in a.table:
            assert np.array_equal(a.table[ci], b.table[ci])
        assert all(np.isfinite(d) and np.isfinite(g) for _, d, g in a.history)

    def test_generator_gradient_on_a_tall_grid(self):
        # 40 rows: the 32-frame window starts at a random offset, so each
        # clip's gradient must land at its own offset in the table.
        rng = SeededRng(14)
        discs = [gan.TinyDiscriminator.random(rng.substream(i), 0.3)
                 for i in range(3)]
        table = rng.normal(size=(40, 8))
        windows = gan.WindowSpec()
        clips, offsets = gan.random_windows(table, windows, rng.substream(7))
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

    def test_scalar_corpus_skips_var_l(self):
        spec = scalar_spec(n=200, seed=14)
        report = run_experiment(spec, ["mse", "conditioned"], 3,
                                n_generate=50, n_heldout=50)
        assert report.rows["mse"].var_l is None
        assert report.rows["mse"].dip >= 0.0
        assert "n/a" in report.to_markdown()

    def test_markdown_has_header_note(self):
        spec = scalar_spec(n=100, seed=15)
        report = run_experiment(spec, ["mse"], 1, n_generate=20, n_heldout=20)
        md = report.to_markdown()
        assert "objective proxies" in md
        assert "| strategy |" in md


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
        spec = canonical_spec(seed=18, samples_per_condition=5)
        corpus = make_corpus(spec)
        manifest_path = corpus_to_files(corpus, tmp_path / "corpus")
        doc = json.loads(manifest_path.read_text())
        assert doc["seed"] == 18
        assert len(doc["samples"]) == 20
        first = doc["samples"][0]
        mel = read_mel(manifest_path.parent / first["mel"])
        assert mel.values.shape == (8, 8)
        assert first["condition"] == corpus.samples[0].condition
