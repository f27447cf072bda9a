"""Synthetic one-to-many generation experiments at desk scale.

Each corpus condition owns a few mode prototypes; a sample is one prototype
plus Gaussian noise, so a strategy that averages across modes produces a
recognizably blurred output. Strategies differ in what they can express:

* ``mse`` / ``mae``: one grid per condition (mean / median) - blurred.
* ``conditioned``: one grid per (condition, mode id); the mode id plays the
  role of auxiliary "variance" information that collapses the multimodality.
* ``ar``: rows generated left-to-right from a quantized previous-row context,
  a chain-rule factorization of the joint.
* ``lm``: an independent per-cell Laplace mixture - multimodal marginals but
  no coordination between cells.
* ``flow`` / ``cond_flow``: a conditional normalizing flow over whole grids.
* ``cond_lm``: per-(condition, mode) mixtures - both simplification and a
  multimodal model.
* ``gan``: an adversarial demo with random-window critics; it runs and is
  reported, but no convergence claim is attached to it.

The experiment report replaces listener scores with objective proxies
(sharpness via the Laplacian-response variance, held-out NLL where a model
defines one, per-cell dip, and mode coherence) and says so in its header.
A mode-conditioned density (``cond_lm``, ``cond_flow``) scores held-out
grids, whose mode ids it is not given, under the mixture over the
condition's modes weighted by their shares of the training samples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import flow as flowmod
from . import gan as ganmod
from . import probloss
from .core import Adam, ContractError, SeededRng, Spectrogram, write_mel
from .density import dip_statistic
from .metrics import var_laplacian

STRATEGY_NAMES = (
    "mse", "mae", "conditioned", "ar", "lm", "flow", "cond_lm", "cond_flow", "gan",
)

_STREAM_CORPUS = 0x544F59
_STREAM_HELDOUT = 0x484F4C44


class IndistinguishableModes(ContractError):
    """Two modes of one condition share the same starting-row context."""


@dataclass(frozen=True)
class ConditionSpec:
    prototypes: tuple
    weights: tuple

    def __post_init__(self):
        protos = tuple(np.atleast_2d(np.asarray(p, dtype=np.float64))
                       for p in self.prototypes)
        if len(protos) < 1:
            raise ContractError("each condition needs at least one prototype")
        shape = protos[0].shape
        if any(p.shape != shape for p in protos):
            raise ContractError("prototypes of one condition must share a shape")
        weights = tuple(float(w) for w in self.weights)
        if len(weights) != len(protos):
            raise ContractError("one weight per prototype required")
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ContractError("weights must be a probability vector")
        object.__setattr__(self, "prototypes", protos)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class ToyCorpusSpec:
    conditions: tuple
    noise: float
    samples_per_condition: int
    seed: int

    def __post_init__(self):
        if self.noise < 0:
            raise ContractError("noise scale must be >= 0")
        if self.samples_per_condition < 1:
            raise ContractError("need at least one sample per condition")
        conditions = tuple(self.conditions)
        if not conditions:
            raise ContractError("need at least one condition")
        shape = conditions[0].prototypes[0].shape
        if any(c.prototypes[0].shape != shape for c in conditions):
            raise ContractError("all conditions must share the grid shape")
        object.__setattr__(self, "conditions", conditions)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.conditions[0].prototypes[0].shape


@dataclass(frozen=True)
class ToySample:
    condition: int
    mode: int
    values: np.ndarray


@dataclass
class ToyCorpus:
    spec: ToyCorpusSpec
    samples: list

    def stack(self, condition: int) -> np.ndarray:
        picked = [s.values for s in self.samples if s.condition == condition]
        return np.stack(picked) if picked else np.empty((0,) + self.spec.grid_shape)

    def modes(self, condition: int) -> np.ndarray:
        return np.array([s.mode for s in self.samples if s.condition == condition])


def stripes_horizontal(side: int = 8) -> np.ndarray:
    """Rows alternating +1 / -1."""
    return np.tile(np.where(np.arange(side) % 2 == 0, 1.0, -1.0)[:, None], (1, side))


def stripes_vertical(side: int = 8) -> np.ndarray:
    """Left half +1, right half -1 - two wide vertical stripes."""
    return np.tile(np.where(np.arange(side) < side // 2, 1.0, -1.0)[None, :], (side, 1))


def canonical_spec(seed: int = 0, samples_per_condition: int = 500,
                   n_conditions: int = 4, noise: float = 0.05) -> ToyCorpusSpec:
    """The canonical 8x8 two-pattern corpus.

    Prototype A alternates rows of +-1; prototype B splits columns into a +1
    and a -1 half. They differ in every row, the 2-bit row context used by
    the autoregressive strategy separates them deterministically, and their
    mixture mean matches neither.
    """
    cond = ConditionSpec((stripes_horizontal(), stripes_vertical()), (0.5, 0.5))
    return ToyCorpusSpec((cond,) * n_conditions, noise, samples_per_condition, seed)


def _sample_corpus(spec: ToyCorpusSpec, rng: SeededRng,
                   samples_per_condition: int | None = None) -> ToyCorpus:
    n = (spec.samples_per_condition if samples_per_condition is None
         else samples_per_condition)
    samples = []
    for ci, cond in enumerate(spec.conditions):
        sub = rng.substream(ci)
        modes = sub.categorical(cond.weights, n)
        noise = sub.normal(size=(n,) + spec.grid_shape) * spec.noise
        for i in range(n):
            samples.append(
                ToySample(ci, int(modes[i]), cond.prototypes[modes[i]] + noise[i])
            )
    return ToyCorpus(spec, samples)


def make_corpus(spec: ToyCorpusSpec) -> ToyCorpus:
    """Deterministic corpus draw controlled by ``spec.seed``."""
    return _sample_corpus(spec, SeededRng(spec.seed, _STREAM_CORPUS))


def mode_coherence(samples, prototypes, tol: float) -> float:
    """Fraction of samples whose RMS distance to the nearest prototype < tol."""
    stack = np.asarray(samples, dtype=np.float64)
    if stack.ndim == 2:
        stack = stack[None]
    if len(stack) < 1:
        raise ContractError("need at least one sample")
    dists = np.stack(
        [np.sqrt(np.mean((stack - p) ** 2, axis=(1, 2))) for p in prototypes]
    )
    return float(np.mean(dists.min(axis=0) < tol))


def default_coherence_tol(cond: ConditionSpec) -> float:
    """0.4 x the smallest pairwise prototype RMS gap of the condition."""
    protos = cond.prototypes
    if len(protos) < 2:
        raise ContractError(
            "coherence tolerance is underdetermined for a single prototype; "
            "pass tol explicitly"
        )
    gaps = [
        np.sqrt(np.mean((protos[i] - protos[j]) ** 2))
        for i in range(len(protos))
        for j in range(i + 1, len(protos))
    ]
    return 0.4 * float(min(gaps))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _mode_split(corpus: ToyCorpus, condition: int, min_count: int = 0):
    """The samples of ``condition`` split by mode id, and each mode's share
    of them; a mode with fewer than ``min_count`` samples is an error."""
    stack, modes = corpus.stack(condition), corpus.modes(condition)
    parts = [stack[modes == v]
             for v in range(len(corpus.spec.conditions[condition].prototypes))]
    for v, part in enumerate(parts):
        if len(part) < min_count:
            raise ContractError(f"(condition {condition}, mode {v}) has "
                                f"{len(part)} samples, needs {min_count}")
    counts = np.array([len(part) for part in parts], dtype=float)
    return parts, counts / counts.sum()


class _Strategy:
    """A fitted strategy. One with a density sets ``weights`` (condition ->
    the weight of each of its mode models) and defines ``log_likelihood``:
    (condition, mode, stack) -> the log-density of each grid of ``stack``."""

    log_likelihood = None

    def heldout_nll(self, corpus: ToyCorpus):
        """Mean over conditions of the per-grid NLL under the condition's
        mixture of its mode models; None for a strategy without a density."""
        if self.log_likelihood is None:
            return None
        totals = []
        for ci, weights in self.weights.items():
            stack = corpus.stack(ci)
            if len(stack) == 0:
                continue
            terms = [np.log(w) + self.log_likelihood(ci, v, stack)
                     for v, w in enumerate(weights) if w > 0]
            totals.append(-probloss.log_sum_exp(terms)[0].mean())
        return float(np.mean(totals))


class PointwiseStrategy(_Strategy):
    """Per-condition, per-cell minimizer of MAE (median) or MSE (mean)."""

    def __init__(self, corpus: ToyCorpus, loss: str = "mse"):
        if loss not in ("mse", "mae"):
            raise ContractError(f"unknown pointwise loss {loss!r}")
        self.loss = loss
        self.table = {}
        for ci in range(len(corpus.spec.conditions)):
            stack = corpus.stack(ci)
            if len(stack) == 0:
                raise ContractError(f"condition {ci} has no samples")
            self.table[ci] = (np.mean(stack, axis=0) if loss == "mse"
                              else np.median(stack, axis=0))

    def generate(self, condition: int, count: int, rng: SeededRng) -> np.ndarray:
        return np.repeat(self.table[condition][None], count, axis=0)


class _PerModeStrategy(_Strategy):
    """One model per (condition, mode id), fitted by ``fit(condition, mode,
    samples)``; generation picks each grid's mode by its training share and
    takes the grid from the subclass's ``_draw(model, rng, count)``. The mode
    id is the extra condition input that removes the one-to-many ambiguity."""

    def __init__(self, corpus: ToyCorpus, fit, min_count: int):
        self.models, self.weights = {}, {}
        for ci in range(len(corpus.spec.conditions)):
            parts, self.weights[ci] = _mode_split(corpus, ci, min_count)
            for v, part in enumerate(parts):
                self.models[(ci, v)] = fit(ci, v, part)

    def generate(self, condition: int, count: int, rng: SeededRng) -> np.ndarray:
        picks = rng.categorical(self.weights[condition], count)
        draws = np.stack([
            self._draw(self.models[(condition, v)], rng.substream(v), count)
            for v in range(len(self.weights[condition]))
        ])
        return draws[picks, np.arange(count)]


class ConditionedStrategy(_PerModeStrategy):
    """MSE fit per (condition, mode id): the mode's mean grid."""

    def __init__(self, corpus: ToyCorpus):
        super().__init__(corpus, lambda ci, v, part: part.mean(axis=0),
                         min_count=1)

    @staticmethod
    def _draw(mean, rng, count):
        return np.repeat(mean[None], count, axis=0)


def _row_context(rows: np.ndarray):
    """2-bit context of each row (last axis): signs of the means of the
    row's two halves."""
    half = rows.shape[-1] // 2
    first = rows[..., :half].mean(axis=-1) >= 0
    second = rows[..., half:].mean(axis=-1) >= 0
    return first * 2 + second


class ArStrategy(_Strategy):
    """Row-autoregressive table predictor (time-axis chain rule analog).

    Teacher-forced fit: the mean next row per (condition, previous-row
    context). Generation samples a starting-row cluster by its empirical
    frequency, then rolls the table forward deterministically.
    """

    def __init__(self, corpus: ToyCorpus):
        self.rows = corpus.spec.grid_shape[0]
        self.start = {}  # (condition, ctx) -> (mean row0, freq)
        self.table = {}  # (condition, ctx) -> mean next row
        for ci, cond in enumerate(corpus.spec.conditions):
            stack = corpus.stack(ci)
            modes = corpus.modes(ci)
            ctx = _row_context(stack)  # (n, rows)
            self._check_distinguishable(cond, ctx[:, 0], modes, ci)
            starts = {}
            for c in np.unique(ctx[:, 0]):
                sel = stack[ctx[:, 0] == c]
                starts[int(c)] = (sel[:, 0].mean(axis=0), len(sel) / len(stack))
            self.start[ci] = starts
            prev, nxt = ctx[:, :-1], stack[:, 1:]
            for c in np.unique(prev):
                self.table[(ci, int(c))] = nxt[prev == c].mean(axis=0)

    @staticmethod
    def _check_distinguishable(cond, ctx0, modes, ci):
        majority = {}
        for v in range(len(cond.prototypes)):
            ctxs = ctx0[modes == v]
            if len(ctxs) == 0:
                continue
            majority[v] = int(np.bincount(ctxs).argmax())
        if len(set(majority.values())) < len(majority):
            raise IndistinguishableModes(
                f"condition {ci}: modes share a starting-row context"
            )

    def generate(self, condition: int, count: int, rng: SeededRng) -> np.ndarray:
        starts = self.start[condition]
        ctxs = sorted(starts)
        freqs = np.array([starts[c][1] for c in ctxs])
        picks = rng.categorical(freqs / freqs.sum(), count)
        first = np.stack([starts[c][0] for c in ctxs])[picks]
        grids = np.empty((count, self.rows, first.shape[1]))
        grids[:, 0] = first
        for r in range(1, self.rows):
            grids[:, r] = grids[:, r - 1]  # unseen context: hold the row
            ctx = _row_context(grids[:, r - 1])
            for c in np.unique(ctx):
                key = (condition, int(c))
                if key in self.table:
                    grids[ctx == c, r] = self.table[key]
        return grids


class LmStrategy(_Strategy):
    """Independent per-cell Laplace mixture per condition."""

    def __init__(self, corpus: ToyCorpus, seed: int = 0):
        self.fields, self.weights = {}, {}
        for ci in range(len(corpus.spec.conditions)):
            self.fields[ci] = probloss.fit_lm(corpus.stack(ci), k=2, steps=150,
                                              restarts=1, seed=seed + ci)
            self.weights[ci] = np.ones(1)

    def generate(self, condition: int, count: int, rng: SeededRng) -> np.ndarray:
        return probloss.lm_sample_stack(self.fields[condition], rng, count)

    def log_likelihood(self, condition, mode, stack):
        return probloss.lm_log_density(self.fields[condition], stack).sum(axis=(1, 2))


class CondLmStrategy(_PerModeStrategy):
    """Laplace mixture per (condition, mode id): both categories combined."""

    def __init__(self, corpus: ToyCorpus, seed: int = 0):
        super().__init__(
            corpus,
            lambda ci, v, part: probloss.fit_lm(part, k=2, steps=100, restarts=1,
                                                seed=seed + 31 * ci + v),
            min_count=2,
        )

    @staticmethod
    def _draw(field, rng, count):
        return probloss.lm_sample_stack(field, rng, count)

    def log_likelihood(self, condition, mode, stack):
        field = self.models[(condition, mode)]
        return probloss.lm_log_density(field, stack).sum(axis=(1, 2))


class FlowStrategy(_Strategy):
    """Conditional flow over whole grids (rows as channels, columns as frames).

    One model is trained across all conditions with a one-hot condition
    vector; the best of a few restarts by final NLL is kept.
    """

    def __init__(self, corpus: ToyCorpus, n_steps: int = 6, hidden: int = 16,
                 train_steps: int = 450, step_size: float = 4e-3,
                 restarts: int = 3, seed: int = 0, condition_on_mode: bool = False):
        self.n_conditions = len(corpus.spec.conditions)
        self.condition_on_mode = condition_on_mode
        h, w = corpus.spec.grid_shape
        self.frames, self.channels = w, h
        n_modes = max(len(c.prototypes) for c in corpus.spec.conditions)
        self.cond_dim = self.n_conditions + (n_modes if condition_on_mode else 0)

        targets, conds = [], []
        self.weights = {}
        for ci in range(self.n_conditions):
            self.weights[ci] = (_mode_split(corpus, ci)[1] if condition_on_mode
                                else np.ones(1))
            for g, v in zip(corpus.stack(ci), corpus.modes(ci)):
                targets.append(g.T)  # (frames, channels)
                conds.append(self._cond_vec(ci, int(v)))
        batch = flowmod.ConditionedBatch(np.stack(targets), np.stack(conds))

        best, best_nll, best_curve = None, np.inf, None
        for r in range(restarts):
            rng = SeededRng(seed, stream=0x464C4F57).substream(r)
            model = flowmod.FlowModel.random(
                rng, self.channels, self.cond_dim, n_steps=n_steps,
                hidden=hidden, context="grid", frames=self.frames,
            )
            flowmod.actnorm_init(model, batch)
            result = flowmod.train_flow(
                model, batch, steps=train_steps, step_size=step_size,
                seed=seed + 1000 + r,
            )
            final = result.curve[-1][1]
            if final < best_nll:
                best, best_nll, best_curve = result.model, final, result.curve
        self.model = best
        self.curve = best_curve

    def _cond_vec(self, condition: int, mode: int) -> np.ndarray:
        vec = np.zeros(self.cond_dim)
        vec[condition] = 1.0
        if self.condition_on_mode:
            vec[self.n_conditions + mode] = 1.0
        return np.tile(vec, (self.frames, 1))

    def generate(self, condition: int, count: int, rng: SeededRng) -> np.ndarray:
        if self.condition_on_mode:
            picks = rng.categorical(self.weights[condition], count)
        else:
            picks = np.zeros(count, dtype=int)
        conds = np.stack([self._cond_vec(condition, int(v)) for v in picks])
        grids = flowmod.sample_batch(self.model, conds, rng)
        return np.transpose(grids, (0, 2, 1))  # back to (rows, cols)

    def log_likelihood(self, condition, mode, stack):
        targets = np.stack([g.T for g in stack])
        conds = np.stack([self._cond_vec(condition, mode)] * len(stack))
        return flowmod.log_likelihood(self.model,
                                      flowmod.ConditionedBatch(targets, conds))


class GanDemoStrategy(_Strategy):
    """Adversarial demo: a per-condition table generator against three
    random-window critics. Runs deterministically; no convergence is claimed
    or gated, which is exactly the point the loss surface makes."""

    def __init__(self, corpus: ToyCorpus, steps: int = 150,
                 step_size: float = 5e-3, seed: int = 0):
        rng = SeededRng(seed, stream=0x47414E)
        self.windows = ganmod.WindowSpec()
        self.discs = [ganmod.TinyDiscriminator.random(rng.substream(i))
                      for i in range(3)]
        stacks = {ci: corpus.stack(ci) for ci in range(len(corpus.spec.conditions))}
        self.table = {ci: stack.mean(axis=0) for ci, stack in stacks.items()}
        self.history = []

        # Alternating sign-free Adam on critics and table entries.
        adam_d = [Adam(d.params.size, step_size) for d in self.discs]
        adam_g = {ci: Adam(self.table[ci].shape, step_size) for ci in self.table}
        for it in range(steps):
            ci = int(rng.integers(0, len(self.table)))
            real = stacks[ci][int(rng.integers(0, len(stacks[ci])))]
            fake = self.table[ci]
            real_clips, _ = ganmod.random_windows(real, self.windows,
                                                  rng.substream(2 * it))
            fake_clips, offsets = ganmod.random_windows(fake, self.windows,
                                                        rng.substream(2 * it + 1))
            d_scores_r, d_scores_f = [], []
            for di, disc in enumerate(self.discs):
                s_r, g_r = ganmod.discriminator_score_and_grads(disc, real_clips[di])
                s_f, g_f = ganmod.discriminator_score_and_grads(disc, fake_clips[di])
                d_scores_r.append(s_r)
                d_scores_f.append(s_f)
                # d(D loss)/d params = 2(s_r - 1) dD(real) + 2 s_f dD(fake)
                adam_d[di].step(disc.params, 2.0 * (s_r - 1.0) * g_r["params"]
                                + 2.0 * s_f * g_f["params"])
            # Generator step against refreshed critics.
            g_scores, g_grad = _generator_grad(self.discs, fake_clips, offsets,
                                               fake.shape)
            adam_g[ci].step(self.table[ci], g_grad)
            self.history.append(
                (it, ganmod.lsgan_d_loss([[s] for s in d_scores_r],
                                         [[s] for s in d_scores_f]),
                 ganmod.lsgan_g_loss([[s] for s in g_scores]))
            )

    def generate(self, condition: int, count: int, rng: SeededRng) -> np.ndarray:
        return np.repeat(self.table[condition][None], count, axis=0)


def _generator_grad(discs, clips, offsets, shape):
    """Critic scores of a table's clips and the gradient of the LSGAN
    generator loss with respect to the table of ``shape``; clip i starts at
    frame ``offsets[i]`` of the table."""
    scores, grad = [], np.zeros(shape)
    for disc, clip, offset in zip(discs, clips, offsets):
        s_f, g_f = ganmod.discriminator_score_and_grads(disc, clip)
        scores.append(s_f)
        grad[offset : offset + len(clip)] += (2.0 / 3.0) * (s_f - 1.0) * g_f["clip"]
    return scores, grad


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


_BUILDERS = {
    "mse": lambda corpus, seed: PointwiseStrategy(corpus, "mse"),
    "mae": lambda corpus, seed: PointwiseStrategy(corpus, "mae"),
    "conditioned": lambda corpus, seed: ConditionedStrategy(corpus),
    "ar": lambda corpus, seed: ArStrategy(corpus),
    "lm": lambda corpus, seed: LmStrategy(corpus, seed=seed),
    "flow": lambda corpus, seed: FlowStrategy(corpus, seed=seed),
    "cond_lm": lambda corpus, seed: CondLmStrategy(corpus, seed=seed),
    "cond_flow": lambda corpus, seed: FlowStrategy(corpus, seed=seed,
                                                   condition_on_mode=True),
    "gan": lambda corpus, seed: GanDemoStrategy(corpus, seed=seed),
}


@dataclass(frozen=True)
class StrategyMetrics:
    var_l: float | None  # None for grids too small for the Laplacian mask
    nll: float | None
    dip: float
    coherence: float


@dataclass
class ExperimentReport:
    note: str
    seed: int
    n_generate: int
    rows: dict  # name -> StrategyMetrics, plus the "gt" reference row

    def to_dict(self) -> dict:
        return {
            "note": self.note,
            "seed": self.seed,
            "n_generate": self.n_generate,
            "rows": {
                name: {
                    "var_l": m.var_l,
                    "nll": m.nll,
                    "dip": m.dip,
                    "mode_coherence": m.coherence,
                }
                for name, m in self.rows.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_markdown(self) -> str:
        lines = [
            f"<!-- {self.note} -->",
            "| strategy | Var_L | held-out NLL | mean dip | mode coherence |",
            "|---|---|---|---|---|",
        ]
        for name in sorted(self.rows):
            m = self.rows[name]
            nll = "n/a" if m.nll is None else f"{m.nll:.3f}"
            var_l = "n/a" if m.var_l is None else f"{m.var_l:.5f}"
            lines.append(
                f"| {name} | {var_l} | {nll} | {m.dip:.4f} | "
                f"{m.coherence:.3f} |"
            )
        return "\n".join(lines) + "\n"


def _per_cell_dip(stack: np.ndarray) -> float:
    h, w = stack.shape[1:]
    dips = [dip_statistic(stack[:, r, c]).dip for r in range(h) for c in range(w)]
    return float(np.mean(dips))


def _metrics_for(stack: np.ndarray, spec: ToyCorpusSpec, tol_by_cond,
                 by_condition: dict, nll) -> StrategyMetrics:
    h, w = spec.grid_shape
    if h >= 3 and w >= 3:
        var_l = float(np.mean([var_laplacian(g) for g in stack]))
    else:
        var_l = None
    dip = float(np.mean([_per_cell_dip(by_condition[ci])
                         for ci in sorted(by_condition)]))
    coh = float(np.mean([
        mode_coherence(by_condition[ci], spec.conditions[ci].prototypes,
                       tol_by_cond[ci])
        for ci in sorted(by_condition)
    ]))
    return StrategyMetrics(var_l, nll, dip, coh)


def run_experiment(spec: ToyCorpusSpec, strategies, seed: int,
                   n_generate: int = 200, n_heldout: int = 200,
                   tol: float | None = None) -> ExperimentReport:
    """Train every strategy on one corpus and score generated samples.

    Reported per strategy: mean sharpness (Var_L) of generated grids,
    held-out NLL in nats per grid where the strategy defines a density
    (for a mode-conditioned one, under the mixture over modes weighted by
    their training shares), the mean per-cell dip of generated values, and
    mode coherence. The ``gt`` row scores held-out real samples as the
    reference. Identical inputs and seed reproduce the report byte for byte.
    """
    for name, count in (("n_generate", n_generate), ("n_heldout", n_heldout)):
        if count < 2:  # the per-cell dip needs two samples
            raise ContractError(f"{name} must be at least 2, got {count}")
    strategies = list(strategies)
    unknown = [s for s in strategies if s not in _BUILDERS]
    if unknown:
        raise ContractError(
            f"unknown strategies {unknown}; valid: {sorted(_BUILDERS)}"
        )
    corpus = make_corpus(spec)
    root = SeededRng(seed, stream=0x455850)
    heldout = _sample_corpus(spec, root.substream(_STREAM_HELDOUT), n_heldout)
    tol_by_cond = {
        ci: (tol if tol is not None else default_coherence_tol(cond))
        for ci, cond in enumerate(spec.conditions)
    }

    rows = {}
    gt_by_cond = {ci: heldout.stack(ci) for ci in range(len(spec.conditions))}
    gt_stack = np.concatenate(list(gt_by_cond.values()))
    rows["gt"] = _metrics_for(gt_stack, spec, tol_by_cond, gt_by_cond, None)

    for si, name in enumerate(strategies):
        fit_seed = int(root.substream(1000 + si).integers(0, 2**62))
        strategy = _BUILDERS[name](corpus, fit_seed)
        gen_rng = root.substream(2000 + si)
        by_cond = {
            ci: strategy.generate(ci, n_generate, gen_rng.substream(ci))
            for ci in range(len(spec.conditions))
        }
        stack = np.concatenate(list(by_cond.values()))
        if not np.all(np.isfinite(stack)):
            raise ContractError(f"strategy {name} generated non-finite values")
        rows[name] = _metrics_for(stack, spec, tol_by_cond, by_cond,
                                  strategy.heldout_nll(heldout))

    note = ("listener scores have no desk-scale analog; this report uses "
            "objective proxies (Var_L, held-out NLL, per-cell dip, mode "
            "coherence) instead")
    return ExperimentReport(note, seed, n_generate, rows)


def corpus_to_files(corpus: ToyCorpus, out_dir) -> Path:
    """Write each sample as a MEL1 file plus a JSON manifest; returns the
    manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, sample in enumerate(corpus.samples):
        name = f"sample_{i:05d}.mel"
        write_mel(Spectrogram(sample.values), out / name)
        entries.append({"mel": name, "condition": sample.condition,
                        "mode": sample.mode})
    manifest = {
        "noise": corpus.spec.noise,
        "seed": corpus.spec.seed,
        "samples": entries,
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path
