"""Synthetic one-to-many generation experiments at desk scale.

Each corpus condition owns a few mode prototypes; a sample is one prototype
plus Gaussian noise, so a strategy that averages across modes produces a
recognizably blurred output. Strategies differ in what they can express:

* ``mse`` / ``mae``: one grid per condition (mean / median) - blurred.
* ``ar``: a linear chain rule along time (rows): each row an affine map of
  the row before it plus Gaussian noise.
* ``lm``: an independent per-cell Laplace mixture - multimodal marginals but
  no coordination between cells.
* ``flow``: a conditional normalizing flow over whole grids.
* ``gan``: an adversarial demo with random-window critics; it runs and is
  reported, but no convergence claim is attached to it.

Three come in pairs without and with mode conditioning: ``mse`` /
``conditioned``, ``lm`` / ``cond_lm`` and ``flow`` / ``cond_flow``. The
second of each pair sets ``by_mode``, the one switch of mode conditioning
for every pair: it also takes each training grid's mode id, auxiliary
"variance" information that collapses the multimodality, and draws a grid's
mode by its training share. It scores held-out grids, whose mode ids it is
not given, under the mixture over the condition's modes weighted by those
shares.

The experiment report replaces listener scores with objective proxies
(sharpness via the Laplacian-response variance, held-out NLL where a model
defines one, per-cell dip, and mode coherence) and says so in its header.
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

_STREAM_CORPUS = 0x544F59
_STREAM_HELDOUT = 0x484F4C44


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
        # Squared differences of cells up to 1e150 stay finite.
        if not all(np.all(np.abs(p) <= 1e150) for p in protos):
            raise ContractError("prototypes must be finite with cells of magnitude "
                                "at most 1e150")
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
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise ContractError(f"noise must be finite and >= 0, got {self.noise}")
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
class ToyCorpus:
    """Per condition, a read-only (n, h, w) stack of grids and the (n,) mode
    id of each grid."""

    spec: ToyCorpusSpec
    stacks: tuple
    mode_ids: tuple

    def stack(self, condition: int) -> np.ndarray:
        return self.stacks[condition]

    def modes(self, condition: int) -> np.ndarray:
        return self.mode_ids[condition]


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
    and a -1 half. They differ in every row, and their mixture mean matches
    neither.
    """
    cond = ConditionSpec((stripes_horizontal(), stripes_vertical()), (0.5, 0.5))
    return ToyCorpusSpec((cond,) * n_conditions, noise, samples_per_condition, seed)


def _sample_corpus(spec: ToyCorpusSpec, rng: SeededRng,
                   samples_per_condition: int | None = None) -> ToyCorpus:
    n = (spec.samples_per_condition if samples_per_condition is None
         else samples_per_condition)
    stacks, mode_ids = [], []
    for ci, cond in enumerate(spec.conditions):
        sub = rng.substream(ci)
        modes = sub.categorical(cond.weights, n)
        noise = sub.normal(size=(n,) + spec.grid_shape) * spec.noise
        stacks.append(np.stack(cond.prototypes)[modes] + noise)
        mode_ids.append(modes)
    for arr in stacks + mode_ids:
        arr.flags.writeable = False
    return ToyCorpus(spec, tuple(stacks), tuple(mode_ids))


def make_corpus(spec: ToyCorpusSpec) -> ToyCorpus:
    """Deterministic corpus draw controlled by ``spec.seed``."""
    return _sample_corpus(spec, SeededRng(spec.seed, _STREAM_CORPUS))


def mode_coherence(samples, prototypes, tol: float) -> float:
    """Fraction of an (n, h, w) stack's grids at RMS distance < tol from a prototype."""
    stack = np.asarray(samples, dtype=np.float64)
    if len(stack) < 1:
        raise ContractError("need at least one sample")
    dists = np.stack(
        [np.sqrt(np.mean((stack - p) ** 2, axis=(1, 2))) for p in prototypes]
    )
    return float(np.mean(dists.min(axis=0) < tol))


def default_coherence_tol(cond: ConditionSpec) -> float:
    """0.4 x min(the smallest pairwise prototype RMS gap, 2 x the RMS distance
    from the weighted mean grid sum_v w_v p_v to its nearest prototype).

    A prototype that lies within noise of the weighted mean, the grid a
    pointwise-loss model generates, cannot be told apart from the mean.
    """
    protos = cond.prototypes
    if len(protos) < 2:
        raise ContractError("mode coherence needs at least two prototypes")
    mean = sum(w * p for w, p in zip(cond.weights, protos))
    gaps = [np.sqrt(np.mean((p - q) ** 2))
            for i, p in enumerate(protos) for q in protos[i + 1:]]
    to_mean = [np.sqrt(np.mean((mean - p) ** 2)) for p in protos]
    return 0.4 * float(min(min(gaps), 2.0 * min(to_mean)))


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
    """A fitted strategy. ``weights`` maps each condition to the weights of its
    mode models: one, mode 0, without ``by_mode``; with it, one per mode id,
    picked for each generated grid by its training share. A family draws by
    ``_sample(condition, picks, count, rng)``; one with a density defines
    ``log_likelihood``: (condition, mode, stack) -> the log-density of each
    grid of ``stack``."""

    log_likelihood = None

    def _mode_parts(self, corpus: ToyCorpus, by_mode: bool, min_count: int = 0):
        """Set ``by_mode`` and ``weights``; return, per condition, the
        samples of each of its models."""
        self.by_mode, self.weights, parts = by_mode, {}, []
        for ci in range(len(corpus.spec.conditions)):
            split, self.weights[ci] = (_mode_split(corpus, ci, min_count) if by_mode
                                       else ([corpus.stack(ci)], np.ones(1)))
            parts.append(split)
        return parts

    def generate(self, condition: int, count: int, rng: SeededRng) -> np.ndarray:
        picks = (rng.categorical(self.weights[condition], count) if self.by_mode
                 else None)
        return self._sample(condition, picks, count, rng)

    def heldout_nll(self, corpus: ToyCorpus):
        """Mean over conditions of the per-grid NLL under the condition's
        mixture of its mode models; None for a strategy without a density."""
        if self.log_likelihood is None:
            return None
        totals = []
        for ci, weights in self.weights.items():
            terms = [np.log(w) + self.log_likelihood(ci, v, corpus.stack(ci))
                     for v, w in enumerate(weights) if w > 0]
            totals.append(-probloss.log_sum_exp(terms)[0].mean())
        return float(np.mean(totals))


class _FittedStrategy(_Strategy):
    """One model per (condition, mode id), fitted by ``fit(condition, mode,
    samples)`` and drawn by ``_draw(model, rng, count)``; with ``by_mode``,
    mode v's model draws from ``rng.substream(v)``."""

    def __init__(self, corpus: ToyCorpus, fit, by_mode: bool = False,
                 min_count: int = 0):
        self.models = {(ci, v): fit(ci, v, part) for ci, parts
                       in enumerate(self._mode_parts(corpus, by_mode, min_count))
                       for v, part in enumerate(parts)}

    def _sample(self, condition, picks, count, rng):
        if picks is None:
            return self._draw(self.models[(condition, 0)], rng, count)
        draws = np.stack([
            self._draw(self.models[(condition, v)], rng.substream(v), count)
            for v in range(len(self.weights[condition]))
        ])
        return draws[picks, np.arange(count)]

    @staticmethod
    def _draw(grid, rng, count):
        """The draw of a table model: ``count`` copies of its grid."""
        return np.repeat(grid[None], count, axis=0)


class PointwiseStrategy(_FittedStrategy):
    """Per-condition, per-cell minimizer of MAE (median) or MSE (mean)."""

    def __init__(self, corpus: ToyCorpus, loss: str = "mse"):
        if loss not in ("mse", "mae"):
            raise ContractError(f"unknown pointwise loss {loss!r}")
        average = np.mean if loss == "mse" else np.median
        super().__init__(corpus, lambda ci, v, stack: average(stack, axis=0))


class ConditionedStrategy(_FittedStrategy):
    """MSE fit per (condition, mode id): the mode's mean grid."""

    def __init__(self, corpus: ToyCorpus):
        super().__init__(corpus, lambda ci, v, part: part.mean(axis=0),
                         by_mode=True, min_count=1)


class ArStrategy(_FittedStrategy):
    """Linear chain rule along time: rows are frames, as in MEL1 and ``flow
    train`` (``FlowStrategy`` takes columns as frames). Row 0 is drawn from
    the condition's training first rows. Each later row is an affine map of
    the row before it (one per row position, fitted by ridge least squares
    with ridge 1e-3) plus Gaussian noise at the per-cell deviation of that
    map's residual. An empirical row 0 has no density, so there is no NLL."""

    def __init__(self, corpus: ToyCorpus):
        def fit(ci, v, stack):
            rows = np.swapaxes(stack, 0, 1)  # (h, n, w): row position first
            x = np.concatenate([rows[:-1], np.ones_like(rows[:-1, :, :1])], axis=2)
            xt = np.swapaxes(x, 1, 2)
            maps = np.linalg.solve(xt @ x + 1e-3 * np.eye(x.shape[2]), xt @ rows[1:])
            return rows[0], maps, (rows[1:] - x @ maps).std(axis=1)

        super().__init__(corpus, fit)

    def _draw(self, model, rng, count):
        first_rows, maps, deviations = model
        grids = np.empty((count, len(maps) + 1, first_rows.shape[1]))
        grids[:, 0] = first_rows[rng.integers(0, len(first_rows), count)]
        for r, (a, sd) in enumerate(zip(maps, deviations)):
            grids[:, r + 1] = (grids[:, r] @ a[:-1] + a[-1]
                               + rng.normal(0.0, sd, (count, len(sd))))
        return grids


class _MixtureStrategy(_FittedStrategy):
    """Per-cell Laplace mixture models, drawn and scored by ``probloss``."""

    @staticmethod
    def _draw(field, rng, count):
        return probloss.lm_sample_stack(field, rng, count)

    def log_likelihood(self, condition, mode, stack):
        field = self.models[(condition, mode)]
        return probloss.lm_log_density(field, stack).sum(axis=(1, 2))


class LmStrategy(_MixtureStrategy):
    """Independent per-cell Laplace mixture per condition."""

    def __init__(self, corpus: ToyCorpus, seed: int = 0):
        super().__init__(corpus, lambda ci, v, stack: probloss.fit_lm(
            stack, k=2, steps=150, restarts=1, seed=seed + ci))


class CondLmStrategy(_MixtureStrategy):
    """Laplace mixture per (condition, mode id): both categories combined."""

    def __init__(self, corpus: ToyCorpus, seed: int = 0):
        super().__init__(
            corpus,
            lambda ci, v, part: probloss.fit_lm(part, k=2, steps=100, restarts=1,
                                                seed=seed + 31 * ci + v),
            by_mode=True, min_count=2,
        )


class FlowStrategy(_Strategy):
    """Conditional flow over whole grids (rows as channels, columns as frames).

    One model is trained across all conditions with a one-hot condition
    vector; the best of a few restarts by final NLL is kept.
    """

    def __init__(self, corpus: ToyCorpus, n_steps: int = 6, hidden: int = 16,
                 train_steps: int = 450, restarts: int = 3, seed: int = 0,
                 by_mode: bool = False):
        self.n_conditions = len(corpus.spec.conditions)
        self._mode_parts(corpus, by_mode)
        h, w = corpus.spec.grid_shape
        self.frames, self.channels = w, h
        n_modes = max(len(c.prototypes) for c in corpus.spec.conditions)
        self.cond_dim = self.n_conditions + (n_modes if by_mode else 0)

        batch = flowmod.ConditionedBatch(
            np.concatenate([np.transpose(stack, (0, 2, 1))  # (n, frames, channels)
                            for stack in corpus.stacks]),
            np.concatenate([self._conds(ci, modes)
                            for ci, modes in enumerate(corpus.mode_ids)]),
        )

        best, best_nll = None, np.inf
        for r in range(restarts):
            rng = SeededRng(seed, stream=0x464C4F57).substream(r)
            model = flowmod.FlowModel.random(
                rng, self.channels, self.cond_dim, n_steps=n_steps,
                hidden=hidden, frames=self.frames,
            )
            flowmod.actnorm_init(model, batch)
            result = flowmod.train_flow(
                model, batch, steps=train_steps, step_size=4e-3,
                seed=seed + 1000 + r,
            )
            final = result.curve[-1][1]
            if final < best_nll:
                best, best_nll = result.model, final
        self.model = best

    def _conds(self, condition: int, modes: np.ndarray) -> np.ndarray:
        """One-hot condition inputs, (len(modes), frames, cond_dim): the
        condition and, with mode conditioning, each grid's mode."""
        conds = np.zeros((len(modes), self.frames, self.cond_dim))
        conds[:, :, condition] = 1.0
        if self.by_mode:
            conds[np.arange(len(modes)), :, self.n_conditions + modes] = 1.0
        return conds

    def _sample(self, condition, picks, count, rng):
        modes = np.zeros(count, dtype=int) if picks is None else picks
        grids = flowmod.sample_batch(self.model, self._conds(condition, modes), rng)
        return np.transpose(grids, (0, 2, 1))  # back to (rows, cols)

    def log_likelihood(self, condition, mode, stack):
        batch = flowmod.ConditionedBatch(
            np.transpose(stack, (0, 2, 1)),
            self._conds(condition, np.full(len(stack), mode)))
        return flowmod.log_likelihood(self.model, batch)


class GanDemoStrategy(_FittedStrategy):
    """Adversarial demo: mean grids refined as table generators against three
    random-window critics. Runs deterministically; no convergence is claimed
    or gated, which is exactly the point the loss surface makes."""

    def __init__(self, corpus: ToyCorpus, seed: int = 0):
        rng = SeededRng(seed, stream=0x47414E)
        self.discs = [ganmod.TinyDiscriminator.random(rng.substream(i))
                      for i in range(3)]
        super().__init__(corpus, lambda ci, v, stack: stack.mean(axis=0))
        self.history = []

        # Alternating sign-free Adam on critics and mean grids.
        adam_d = [Adam(d.params.size, 5e-3) for d in self.discs]
        adam_g = {key: Adam(grid.shape, 5e-3) for key, grid in self.models.items()}
        for it in range(150):
            ci = int(rng.integers(0, len(corpus.stacks)))
            real = corpus.stack(ci)[int(rng.integers(0, len(corpus.stack(ci))))]
            fake = self.models[(ci, 0)]
            real_clips, _ = ganmod.random_windows(real, rng.substream(2 * it))
            fake_clips, offsets = ganmod.random_windows(fake, rng.substream(2 * it + 1))
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
            adam_g[(ci, 0)].step(fake, g_grad)
            self.history.append(
                (it, ganmod.lsgan_d_loss([[s] for s in d_scores_r],
                                         [[s] for s in d_scores_f]),
                 ganmod.lsgan_g_loss([[s] for s in g_scores]))
            )


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
                                                   by_mode=True),
    "gan": lambda corpus, seed: GanDemoStrategy(corpus, seed=seed),
}


@dataclass(frozen=True)
class StrategyMetrics:
    var_l: float
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
            lines.append(
                f"| {name} | {m.var_l:.5f} | {nll} | {m.dip:.4f} | "
                f"{m.coherence:.3f} |"
            )
        return "\n".join(lines) + "\n"


def _per_cell_dip(stack: np.ndarray) -> float:
    h, w = stack.shape[1:]
    dips = [dip_statistic(stack[:, r, c]).dip for r in range(h) for c in range(w)]
    return float(np.mean(dips))


def _metrics_for(stacks, spec: ToyCorpusSpec, tol_by_cond, nll) -> StrategyMetrics:
    """Metrics of one (n, h, w) stack of grids per condition."""
    var_l = float(np.mean([var_laplacian(g) for stack in stacks for g in stack]))
    dip = float(np.mean([_per_cell_dip(stack) for stack in stacks]))
    coh = float(np.mean([
        mode_coherence(stack, cond.prototypes, tol)
        for stack, cond, tol in zip(stacks, spec.conditions, tol_by_cond)
    ]))
    return StrategyMetrics(var_l, nll, dip, coh)


def run_experiment(spec: ToyCorpusSpec, strategies, seed: int,
                   n_generate: int = 200, n_heldout: int = 200) -> ExperimentReport:
    """Train every strategy on one corpus and score generated samples.

    Reported per strategy: mean sharpness (Var_L) of generated grids,
    held-out NLL in nats per grid where the strategy defines a density
    (for a mode-conditioned one, under the mixture over modes weighted by
    their training shares), the mean per-cell dip of generated values, and
    mode coherence. The ``gt`` row scores held-out real samples as the
    reference. Identical inputs and seed reproduce the report byte for byte.
    """
    if min(spec.grid_shape) < 3:
        raise ContractError(f"grid shape {spec.grid_shape} is below 3x3, the "
                            "size Var_L's Laplacian mask needs")
    for name, count in (("n_generate", n_generate), ("n_heldout", n_heldout)):
        if count < 2:  # the per-cell dip needs two samples
            raise ContractError(f"{name} must be at least 2, got {count}")
    strategies = list(strategies)
    unknown = [s for s in strategies if s not in _BUILDERS]
    if unknown:
        raise ContractError(
            f"unknown strategies {unknown}; valid: {sorted(_BUILDERS)}"
        )
    repeated = sorted({s for s in strategies if strategies.count(s) > 1})
    if repeated:
        raise ContractError(f"strategies named more than once: {repeated}")
    for ci, cond in enumerate(spec.conditions):
        if len(cond.prototypes) < 2:
            raise ContractError(f"condition {ci} has one prototype; mode "
                                "coherence needs at least two")
    corpus = make_corpus(spec)
    root = SeededRng(seed, stream=0x455850)
    heldout = _sample_corpus(spec, root.substream(_STREAM_HELDOUT), n_heldout)
    tol_by_cond = [default_coherence_tol(cond) for cond in spec.conditions]

    rows = {"gt": _metrics_for(heldout.stacks, spec, tol_by_cond, None)}
    for si, name in enumerate(strategies):
        fit_seed = int(root.substream(1000 + si).integers(0, 2**62))
        strategy = _BUILDERS[name](corpus, fit_seed)
        gen_rng = root.substream(2000 + si)
        stacks = [strategy.generate(ci, n_generate, gen_rng.substream(ci))
                  for ci in range(len(spec.conditions))]
        if not all(np.all(np.isfinite(stack)) for stack in stacks):
            raise ContractError(f"strategy {name} generated non-finite values")
        rows[name] = _metrics_for(stacks, spec, tol_by_cond,
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
    for ci, (stack, modes) in enumerate(zip(corpus.stacks, corpus.mode_ids)):
        for grid, mode in zip(stack, modes.tolist()):
            name = f"sample_{len(entries):05d}.mel"
            write_mel(Spectrogram(grid), out / name)
            entries.append({"mel": name, "condition": ci, "mode": mode})
    manifest = {
        "noise": corpus.spec.noise,
        "seed": corpus.spec.seed,
        "samples": entries,
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path
