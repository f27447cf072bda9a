"""The three benchmark workloads: ``study``, ``corpus`` and ``train``.

Each workload builds its inputs from the workload seed in ``setup`` (input
generation plus a warm-up that touches the same code paths on tiny inputs),
then runs rounds of a fixed list of program calls. ``run_round`` times
every program call and returns the timings; ``check`` verifies the round's
outputs afterwards, outside the timed calls. Failed calls and failed checks
are counted by a :class:`Tally`.

Every call goes through a module attribute (``toylab.run_experiment``,
``cli.main``), so the outside-in trace wrappers see it.

Calls are timed on the thread CPU clock. The program is single-threaded
and BLAS is pinned to one thread, so this is the program's own time; on a
shared virtual machine wall time also holds the time the host took the CPU
away, which varies from run to run by more than the bounds allow. Given a
``hostclock.Probe``, a :class:`Tally` rescales each call's time to the
reference host speed.
"""

from __future__ import annotations

import json
import struct
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oversmooth import cli, density, probloss, toylab
from oversmooth.core import SeededRng

RATE = 22050
HOP = 256
BINS = 80


class Tally:
    """Program calls and output checks attempted, and those that failed."""

    def __init__(self, probe=None):
        self.attempted = 0
        self.failed = 0
        self.probe = probe  # a hostclock.Probe that rescales call times
        self.raw_s = 0.0  # thread CPU seconds of all calls, not rescaled

    def call(self, fn, *args, **kwargs):
        """Time one program call; returns (result or None, seconds)."""
        self.attempted += 1
        start = time.thread_time()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = None
            self.failed += 1
            print(f"# failed call {getattr(fn, '__name__', fn)}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
        end = time.thread_time()
        self.raw_s += end - start
        if self.probe is None:
            return result, end - start
        return result, self.probe.normalise(start, end)

    def cli(self, argv):
        """Run one ``oversmooth`` command in-process; a non-zero exit fails."""
        code, elapsed = self.call(cli.main, [str(a) for a in argv])
        if code not in (0, None):  # None: the call raised and was counted
            self.failed += 1
            print(f"# exit {code}: oversmooth {' '.join(map(str, argv))}",
                  file=sys.stderr)
        return code == 0, elapsed

    def check(self, what: str, predicate, *args) -> None:
        """Count one output check; a predicate that cannot read its output
        fails the check."""
        self.attempted += 1
        try:
            ok = bool(predicate(*args))
        except (OSError, ValueError, KeyError, struct.error) as exc:
            ok = False
            what += f" ({type(exc).__name__}: {exc})"
        if not ok:
            self.failed += 1
            print(f"# check failed: {what}", file=sys.stderr)


@dataclass
class RoundTimes:
    total: float = 0.0  # sum of the round's program-call times
    stage: float = 0.0  # the workload's main stage
    ops: list = field(default_factory=list)  # per-request latencies

    def add(self, *seconds: float) -> float:
        self.total += sum(seconds)
        return sum(seconds)


# ---------------------------------------------------------------------------
# Output checks shared by the workloads
# ---------------------------------------------------------------------------


def canonical_json(path) -> bool:
    text = Path(path).read_text(encoding="utf-8")
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


def svg_parses(path) -> bool:
    try:
        ET.parse(path)
    except (ET.ParseError, OSError):
        return False
    return True


def read_mel_values(path) -> np.ndarray:
    data = Path(path).read_bytes()
    t, f = struct.unpack("<II", data[4:12])
    return np.frombuffer(data, dtype="<f4", offset=12).reshape(t, f)


def write_mel_values(path, values) -> None:
    values = np.ascontiguousarray(values, dtype="<f4")
    Path(path).write_bytes(b"MEL1" + struct.pack("<II", *values.shape)
                           + values.tobytes())


def wav_bytes(samples_i16, rate: int = RATE) -> bytes:
    body = np.asarray(samples_i16, dtype="<i2").tobytes()
    return (b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVEfmt "
            + struct.pack("<IHHIIHH", 16, 1, 1, rate, 2 * rate, 2, 16)
            + b"data" + struct.pack("<I", len(body)) + body)


def integrates_to_one(path, tol: float = 0.02) -> bool:
    """Trapezoid integral of a ``dist`` density CSV (1-D or 2-D grid)."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] == 2:
        total = np.trapezoid(rows[:, 1], rows[:, 0])
    else:
        xs, ys = np.unique(rows[:, 0]), np.unique(rows[:, 1])
        dens = rows[:, 2].reshape(len(xs), len(ys))
        total = np.trapezoid(np.trapezoid(dens, ys, axis=1), xs)
    return abs(total - 1.0) <= tol


# ---------------------------------------------------------------------------
# study: one seed of the criterion-6 unit
# ---------------------------------------------------------------------------


class Study:
    """One seed of the 20-seed acceptance study, run as its fixture runs it."""

    name = "study"
    STRATEGIES = ["mse", "lm", "ar", "conditioned", "flow", "cond_lm"]
    N_GENERATE = 200

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.first_report = None  # canonical JSON of the first round's report
        self.orderings = {}

    def setup(self) -> None:
        self.spec = toylab.canonical_spec(seed=self.seed)
        # The fixture's unimodal dip null at the generation sample size.
        null_rng = SeededRng(9000)
        null = np.sort([density.dip_statistic(null_rng.normal(size=200)).dip
                        for _ in range(200)])
        self.q95 = null[int(0.95 * len(null))]
        tiny = toylab.canonical_spec(seed=self.seed, samples_per_condition=40,
                                     n_conditions=2)
        toylab.run_experiment(tiny, ["mse", "lm", "ar", "conditioned",
                                     "cond_lm"], self.seed, n_generate=20,
                              n_heldout=20)
        flow_warm = toylab.FlowStrategy(toylab.make_corpus(tiny), train_steps=2,
                                        restarts=1, seed=self.seed)
        flow_warm.generate(0, 4, SeededRng(self.seed))

    def run_round(self, tally: Tally) -> RoundTimes:
        times = RoundTimes()
        seed = self.seed
        self._round = None
        report, t = tally.call(toylab.run_experiment, self.spec,
                               self.STRATEGIES, seed, n_generate=self.N_GENERATE)
        times.stage = times.add(t)
        corpus, t = tally.call(toylab.make_corpus, self.spec)
        times.add(t)
        if report is None or corpus is None:
            return times
        field_, t = tally.call(probloss.fit_lm, corpus.stack(0), k=2, steps=150,
                               restarts=1, seed=seed)
        times.add(t)
        gen, t = tally.call(probloss.lm_sample_stack, field_,
                            SeededRng(seed, stream=0xD1D), self.N_GENERATE)
        times.add(t)
        a, b = self.spec.conditions[0].prototypes
        dips = []
        for r, c in np.argwhere(a != b):
            result, t = tally.call(density.dip_statistic, gen[:, r, c])
            times.add(t)
            dips.append(result.dip)
        times.ops.append(times.total)
        self._round = (report, np.array(dips))
        return times

    def check(self, tally: Tally) -> None:
        if self._round is None:  # a failed call was already counted
            return
        report, cell_dips = self._round
        values = [v for m in report.rows.values()
                  for v in (m.var_l, m.nll, m.dip, m.coherence) if v is not None]
        tally.check("study report is finite", np.all, np.isfinite(values))
        text = report.to_json()
        if self.first_report is None:
            self.first_report = text
        else:
            tally.check(f"study report of seed {self.seed} repeats byte for "
                        "byte", lambda: text == self.first_report)
        rows = report.rows
        mse, gt = rows["mse"].var_l, rows["gt"].var_l
        self.orderings = {
            "strict": all(mse < rows[k].var_l
                          for k in ("lm", "ar", "conditioned", "flow")),
            "ar_closer": abs(rows["ar"].var_l - gt) < abs(mse - gt),
            "lm_bimodal": float(np.mean(cell_dips > self.q95)) >= 0.8,
            "lm_incoherent": rows["lm"].coherence <= 0.2,
            "flow_coherent": rows["flow"].coherence >= 0.7,
            "combination": rows["cond_lm"].coherence >= max(
                rows["lm"].coherence, rows["conditioned"].coherence) - 0.05,
        }

    def summary(self, rounds) -> dict:
        return {"criterion_6_orderings": self.orderings}


# ---------------------------------------------------------------------------
# corpus: the analysis front end through the CLI
# ---------------------------------------------------------------------------


def _utterance(rng: SeededRng, seconds: float) -> np.ndarray:
    """A harmonic chirp with a syllable-rate envelope plus noise, PCM16."""
    n = int(seconds * RATE)
    t = np.arange(n) / RATE
    f0, f1 = rng.uniform(90.0, 220.0), rng.uniform(90.0, 220.0)
    phase = 2.0 * np.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * seconds))
    amps = rng.uniform(0.2, 1.0, size=6) / np.arange(1, 7)
    voiced = sum(a * np.sin((h + 1) * phase) for h, a in enumerate(amps))
    envelope = 0.6 + 0.4 * np.sin(2.0 * np.pi * rng.uniform(2.0, 5.0) * t
                                  + rng.uniform(0.0, 2.0 * np.pi))
    signal = envelope * voiced + 0.05 * rng.normal(size=n)
    return np.round(0.5 * 32767 * signal / np.max(np.abs(signal))).astype("<i2")


def _alignment(rng: SeededRng, frames: int) -> str:
    """Consecutive phoneme spans covering every frame; the second is R."""
    labels = ["AA", "R", "S", "IY", "N"]
    lines, start = [], 0
    while start < frames:
        label = "R" if len(lines) == 1 else labels[int(rng.integers(0, 5))]
        end = min(frames, start + int(rng.integers(4, 20)))
        lines.append(f"{label}\t{start}\t{end}")
        start = end
    return "\n".join(lines) + "\n"


def _blur(values: np.ndarray) -> np.ndarray:
    """5-frame by 3-bin box filter with edge padding: a predicted-like grid."""
    padded = np.pad(values, ((2, 2), (1, 1)), mode="edge")
    t, f = values.shape
    return sum(padded[i:i + t, j:j + f] for i in range(5) for j in range(3)) / 15


class Corpus:
    """mel, metrics and pair metrics per utterance, then one ``dist``."""

    name = "corpus"
    N_UTTERANCES = 24
    SVG_EVERY = 4  # every 4th utterance by length rank adds --svg

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def _write_inputs(self, out: Path, lengths, rng: SeededRng) -> list:
        out.mkdir(parents=True, exist_ok=True)
        utts = []
        for i, seconds in enumerate(lengths):
            pcm = _utterance(rng.substream(i), seconds)
            stem = out / f"utt{i:03d}"
            Path(f"{stem}.wav").write_bytes(wav_bytes(pcm))
            Path(f"{stem}.tsv").write_text(
                _alignment(rng.substream(1000 + i), -(-len(pcm) // HOP)),
                encoding="utf-8")
            utts.append({"stem": stem, "samples": len(pcm),
                         "svg": i % self.SVG_EVERY == 0})
        manifest = [{"mel": f"{u['stem'].name}.mel",
                     "align": f"{u['stem'].name}.tsv"} for u in utts]
        (out / "manifest.json").write_text(json.dumps(manifest),
                                           encoding="utf-8")
        return utts

    def setup(self) -> None:
        rng = SeededRng(self.seed, stream=0xC0)
        # A fixed set of lengths, so the work per round does not depend on
        # the seed; the seed orders them and draws their content.
        lengths = np.linspace(1.0, 6.0, self.N_UTTERANCES)
        utts = self._write_inputs(self.work / "in", lengths, rng)
        order = rng.permutation(len(utts))
        self.utts = [utts[i] for i in order]
        self.audio_s = sum(u["samples"] for u in utts) / RATE
        warm = Corpus(self.work / "warm", self.seed)
        warm.utts = warm._write_inputs(self.work / "warm", [0.5, 0.6],
                                       rng.substream(99))
        warm.run_round(Tally())

    def run_round(self, tally: Tally) -> RoundTimes:
        times = RoundTimes()
        for u in self.utts:
            stem = u["stem"]
            ok, t1 = tally.cli(["mel", f"{stem}.wav", f"{stem}.mel",
                                "--out", f"{stem}.mel.json"])
            _, t2 = tally.cli(["metrics", f"{stem}.mel",
                               "--out", f"{stem}.var.json"])
            if ok:
                write_mel_values(f"{stem}.blur.mel",
                                 _blur(read_mel_values(f"{stem}.mel")))
            svg = ["--svg", str(stem)] if u["svg"] else []
            _, t3 = tally.cli(["metrics", f"{stem}.mel", f"{stem}.blur.mel",
                               "--out", f"{stem}.pair.json"] + svg)
            times.ops.append(times.add(t1, t2, t3))
        base = self.utts[0]["stem"].parent
        _, t = tally.cli(["dist", "--manifest", base / "manifest.json",
                          "--ph", "R", "--bins", "10,20,40",
                          "--joint", "freq:10,11", "--out-prefix", base / "d",
                          "--out", base / "dist.json"])
        times.stage = times.add(t)
        return times

    def check(self, tally: Tally) -> None:
        for u in self.utts:
            stem = u["stem"]
            frames = -(-u["samples"] // HOP)
            tally.check(f"{stem}.mel has ceil(samples/hop) frames",
                        lambda: read_mel_values(f"{stem}.mel").shape
                        == (frames, BINS))
            for suffix in ("mel.json", "var.json", "pair.json"):
                tally.check(f"{stem}.{suffix} is canonical JSON",
                            canonical_json, f"{stem}.{suffix}")
            if u["svg"]:
                for kind in ("laplacian", "ssim"):
                    tally.check(f"{stem}_{kind}.svg parses", svg_parses,
                                f"{stem}_{kind}.svg")
        base = self.utts[0]["stem"].parent
        tally.check("dist report is canonical JSON", canonical_json,
                    base / "dist.json")
        for name in ("marginal_R_10", "marginal_R_20", "marginal_R_40",
                     "joint_R"):
            tally.check(f"d_{name}.csv integrates to 1 within 2%",
                        integrates_to_one, base / f"d_{name}.csv")
            tally.check(f"d_{name}.svg parses", svg_parses,
                        base / f"d_{name}.svg")

    def summary(self, rounds) -> dict:
        return {"audio_x_rt": self.audio_s / float(np.median(
                    [sum(r.ops) for r in rounds])),
                "utterances": sum(len(r.ops) for r in rounds)}


# ---------------------------------------------------------------------------
# train: the CLI write-then-read path
# ---------------------------------------------------------------------------


def _finite_8x8(path) -> bool:
    grid = read_mel_values(path)
    return grid.shape == (8, 8) and bool(np.all(np.isfinite(grid)))


class Train:
    """make-corpus, flow train, flow nll and toylab mae,gan, with a burst of
    flow sample calls after each command but make-corpus."""

    name = "train"
    BURST = 40  # flow sample calls after each command but make-corpus
    N_SAMPLES = 3 * BURST  # per round
    TRAIN_STEPS = 500  # the CLI default of ``flow train --steps``

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self._round(Tally(), ["--samples", 4], ["--steps", 3], toylab_run=False)

    def run_round(self, tally: Tally) -> RoundTimes:
        return self._round(tally, [], [], toylab_run=True)

    def _round(self, tally: Tally, corpus_args, train_args,
               toylab_run: bool) -> RoundTimes:
        w, seed = self.work, self.seed
        manifest, ckpt = w / "corpus" / "manifest.json", w / "model.flw"
        commands = [
            ["make-corpus", w / "corpus", "--seed", seed, *corpus_args],
            ["flow", "train", "--manifest", manifest, "--ckpt", ckpt,
             "--seed", seed, *train_args],
            ["flow", "nll", "--ckpt", ckpt, "--manifest", manifest],
        ]
        if toylab_run:
            commands.append(["toylab", "--strategies", "mae,gan", "--seed",
                             seed, "--out-prefix", w / "toy"])
        times = RoundTimes()
        samples = iter(range(self.N_SAMPLES))
        for argv, report in zip(commands, ("make", "train", "nll", "toy")):
            _, t = tally.cli(argv + ["--out", w / f"{report}.json"])
            times.add(t)
            if report == "train":
                times.stage = t
            for _ in range(self.BURST if report != "make" else 0):
                j = next(samples)
                _, t = tally.cli(["flow", "sample", "--ckpt", ckpt,
                                  "--condition", j % 4, "--frames", 8,
                                  "--seed", seed + j, "--out-mel", w / f"s{j}.mel",
                                  "--out", w / f"s{j}.json"])
                times.ops.append(times.add(t))
        return times

    def check(self, tally: Tally) -> None:
        w = self.work
        for name in ("make", "train", "nll", "toy"):
            tally.check(f"{name}.json is canonical JSON", canonical_json,
                        w / f"{name}.json")
        for j in range(self.N_SAMPLES):
            tally.check(f"s{j}.mel is a finite 8x8 grid", _finite_8x8,
                        w / f"s{j}.mel")

        def results(name):
            return json.loads((w / f"{name}.json").read_text())["results"]

        # Both are NLLs of the same model; the checkpoint stores float32.
        tally.check("flow nll agrees with the train report's final_nll",
                    lambda: abs(results("nll")["nll"]
                                - results("train")["final_nll"])
                    <= 1e-6 * abs(results("train")["final_nll"]))
        tally.check("toy_var_l.svg parses", svg_parses, w / "toy_var_l.svg")

    def summary(self, rounds) -> dict:
        return {"train_steps_per_s": self.TRAIN_STEPS / float(
                    np.median([r.stage for r in rounds])),
                "samples": sum(len(r.ops) for r in rounds)}


WORKLOADS = {w.name: w for w in (Study, Corpus, Train)}
