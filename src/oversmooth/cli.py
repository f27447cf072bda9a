"""Command-line surface.

Every command writes a canonical JSON report (sorted keys, stable float
repr) to stdout or ``--out``, so re-running with identical inputs and seeds
is byte-identical. Diagnostics go to stderr. Exit codes: 0 success, 2
usage/contract error, 1 internal error. ``OVERSMOOTH_SEED`` provides the
seed when a command's ``--seed`` flag is omitted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import density, dsp, flow, metrics, svgplot, toylab
from ._version import __version__
from .core import (
    ContractError,
    SeededRng,
    Spectrogram,
    read_alignment,
    read_mel,
    write_mel,
)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _report(command: str, inputs: dict, parameters: dict, results: dict) -> str:
    doc = {
        "command": command,
        "inputs": {
            name: {"path": str(p), "sha256": _digest(p)}
            for name, p in inputs.items()
            if p is not None
        },
        "parameters": parameters,
        "results": results,
        "version": __version__,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("OVERSMOOTH_SEED", "0"))


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ContractError(f"{path}: invalid JSON: {exc}") from None


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _grid(value) -> bool:
    """A non-empty list of equally long, non-empty lists of numbers."""
    return isinstance(value, list) and len(value) > 0 and all(
        isinstance(row, list) and len(row) == len(value[0]) > 0
        and all(map(_number, row)) for row in value)


_KINDS = {  # what each of these keys must hold, in any JSON input
    "noise": ("a number", _number),
    "seed": ("an integer", lambda v: type(v) is int),
    "samples_per_condition": ("a count", lambda v: type(v) is int and v >= 0),
    "condition": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    "weights": ("a list of numbers",
                lambda v: isinstance(v, list) and all(map(_number, v))),
    "prototypes": ("a list of non-empty, rectangular grids of numbers",
                   lambda v: isinstance(v, list) and all(map(_grid, v))),
    "mel": ("a path string", lambda v: isinstance(v, str)),
    "align": ("a path string", lambda v: isinstance(v, str)),
}


def _checked(value, where: str, keys=()):
    """``value`` if it is a JSON list (no ``keys``) or an object holding
    every key in ``keys`` and, under each key of ``_KINDS`` it has, a value
    of that kind; otherwise a ContractError naming ``where`` and the key."""
    kind, name = (dict, "an object") if keys else (list, "a list")
    if not isinstance(value, kind):
        raise ContractError(f"{where} must be {name}, got {json.dumps(value)[:60]}")
    missing = [k for k in keys if k not in value]
    if missing:
        raise ContractError(f"{where} is missing the key {missing[0]!r}")
    for key, (what, ok) in _KINDS.items():
        if keys and key in value and not ok(value[key]):
            raise ContractError(f"{where}: {key!r} must be {what}, got "
                                f"{json.dumps(value[key])[:60]}")
    return value


def _at_least(flag: str, value, floor) -> None:
    if not value >= floor:
        raise ContractError(f"{flag} must be at least {floor}, got {value}")


def _write_csv(path, header: str, rows) -> None:
    lines = [header] + [",".join(repr(v) if isinstance(v, float) else str(v)
                                 for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_mel(args) -> int:
    clip = dsp.read_wav(args.wav)
    if clip.sample_rate != dsp.DEFAULT_SAMPLE_RATE:
        raise ContractError(
            f"input rate is {clip.sample_rate} Hz; this front end requires "
            f"{dsp.DEFAULT_SAMPLE_RATE} Hz and does not resample"
        )
    fb = dsp.mel_filterbank(clip.sample_rate, args.frame, args.bins)
    values = dsp.mel_spectrogram(clip, fb, args.frame, args.hop, args.floor)
    spec = Spectrogram(values)
    write_mel(spec, args.out_mel)
    _emit(
        _report(
            "mel",
            {"wav": args.wav},
            {"frame": args.frame, "hop": args.hop, "bins": args.bins,
             "floor": args.floor},
            {"frames": spec.frames, "bins": spec.bins,
             "mel": str(args.out_mel)},
        ),
        args.out,
    )
    return 0


def cmd_metrics(args) -> int:
    spec_a = read_mel(args.mel_a)
    results: dict = {"var_l": metrics.var_laplacian(spec_a)}
    inputs = {"mel_a": args.mel_a}
    cfg = metrics.SsimConfig(window=args.window)
    if args.mel_b:
        spec_b = read_mel(args.mel_b)
        if spec_b.values.shape != spec_a.values.shape:
            raise ContractError(
                f"shape mismatch: {spec_a.values.shape} vs {spec_b.values.shape}"
            )
        ssim_cells = metrics.ssim_map(spec_a, spec_b, cfg)
        results["ssim"] = float(np.mean(ssim_cells))  # == metrics.ssim
        inputs["mel_b"] = args.mel_b
    if args.svg:
        response = np.abs(metrics.laplacian_response(spec_a))
        Path(f"{args.svg}_laplacian.svg").write_text(
            svgplot.heatmap(response, "absolute Laplacian response",
                            "bin", "frame"),
            encoding="utf-8",
        )
        if args.mel_b:
            Path(f"{args.svg}_ssim.svg").write_text(
                svgplot.heatmap(ssim_cells, "SSIM map", "bin", "frame"),
                encoding="utf-8",
            )
    _emit(_report("metrics", inputs, {"window": args.window}, results), args.out)
    return 0


def _load_corpus(manifest_path):
    doc = _checked(_read_json(manifest_path), f"manifest {manifest_path}")
    base = Path(manifest_path).parent
    corpus = []
    for i, entry in enumerate(doc):
        _checked(entry, f"manifest entry {i}", ("mel", "align"))
        corpus.append(
            (read_mel(base / entry["mel"]), read_alignment(base / entry["align"]))
        )
    return corpus


def cmd_dist(args) -> int:
    corpus = _load_corpus(args.manifest)
    prefix = args.out_prefix or "dist"
    results: dict = {"dip": {}}
    bins = [int(b) for b in args.bins.split(",")] if args.bins else []
    if args.bin is not None:
        bins.append(args.bin)
    for f in bins:
        d1 = density.phoneme_marginal(corpus, args.ph, f, args.bandwidth)
        _write_csv(f"{prefix}_marginal_{args.ph}_{f}.csv", "grid,density",
                   zip(d1.grid.tolist(), d1.values.tolist()))
        Path(f"{prefix}_marginal_{args.ph}_{f}.svg").write_text(
            svgplot.line_plot(
                [(f"{args.ph} bin {f}", d1.grid, d1.values)],
                f"marginal density, phoneme {args.ph}, bin {f}",
                "log-mel value", "density",
            ),
            encoding="utf-8",
        )
        values = density.pooled_phoneme_values(corpus, args.ph, f)
        results["dip"][f"{args.ph}:{f}"] = density.dip_statistic(values).dip
    if args.joint:
        kind, _, rest = args.joint.partition(":")
        try:
            first, second = (int(v) for v in rest.split(","))
        except ValueError:
            raise ContractError(
                f"--joint expects freq:f1,f2 or time:f,lag, got {args.joint!r}"
            ) from None
        if kind == "freq":
            axis = density.FreqPair(first, second)
        elif kind == "time":
            axis = density.TimePair(first, second)
        else:
            raise ContractError(f"unknown joint kind {kind!r}")
        d2 = density.phoneme_joint(corpus, args.ph, axis)
        rows = [
            (float(d2.grid_x[i]), float(d2.grid_y[j]), float(d2.values[i, j]))
            for i in range(len(d2.grid_x))
            for j in range(len(d2.grid_y))
        ]
        _write_csv(f"{prefix}_joint_{args.ph}.csv", "x,y,density", rows)
        Path(f"{prefix}_joint_{args.ph}.svg").write_text(
            svgplot.heatmap(d2.values, f"joint density, phoneme {args.ph}",
                            "second value", "first value"),
            encoding="utf-8",
        )
        results["joint"] = {"kind": kind, "first": first, "second": second,
                            "csv": f"{prefix}_joint_{args.ph}.csv"}
    _emit(
        _report(
            "dist",
            {"manifest": args.manifest},
            {"ph": args.ph, "bins": bins, "joint": args.joint,
             "bandwidth": args.bandwidth},
            results,
        ),
        args.out,
    )
    return 0


def cmd_toylab(args) -> int:
    _at_least("--generate", args.generate, 2)
    _at_least("--heldout", args.heldout, 2)
    seed = _seed_of(args)
    if args.spec:
        doc = _checked(_read_json(args.spec), f"spec {args.spec}",
                       ("conditions", "noise", "samples_per_condition"))
        conditions = []
        for i, c in enumerate(_checked(doc["conditions"], "spec conditions")):
            _checked(c, f"spec condition {i}", ("prototypes", "weights"))
            conditions.append(toylab.ConditionSpec(
                tuple(np.asarray(p, dtype=np.float64) for p in c["prototypes"]),
                tuple(c["weights"]),
            ))
        spec = toylab.ToyCorpusSpec(
            tuple(conditions), doc["noise"], doc["samples_per_condition"],
            doc.get("seed", seed),
        )
    else:
        spec = toylab.canonical_spec(seed=seed)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    report = toylab.run_experiment(
        spec, strategies, seed, n_generate=args.generate,
        n_heldout=args.heldout,
    )
    if args.out_prefix:
        Path(f"{args.out_prefix}.md").write_text(report.to_markdown(),
                                                 encoding="utf-8")
        names = sorted(report.rows)
        Path(f"{args.out_prefix}_var_l.svg").write_text(
            svgplot.bar_chart(names, [report.rows[n].var_l for n in names],
                              "sharpness by strategy", "Var_L"),
            encoding="utf-8",
        )
    _emit(report.to_json(), args.out)
    return 0


def _load_flow_corpus(manifest_path):
    doc = _checked(_read_json(manifest_path), f"manifest {manifest_path}",
                   ("samples",))
    base = Path(manifest_path).parent
    grids, cond_ids = [], []
    for i, entry in enumerate(_checked(doc["samples"], "manifest samples")):
        _checked(entry, f"manifest sample {i}", ("mel", "condition"))
        grids.append(read_mel(base / entry["mel"]).values)
        cond_ids.append(entry["condition"])
    shapes = {g.shape for g in grids}
    if len(shapes) != 1:
        raise ContractError(f"corpus grids must share one shape, got {shapes}")
    n_cond = max(cond_ids) + 1
    targets = np.stack(grids)
    t = targets.shape[1]
    conds = np.zeros((len(grids), t, n_cond))
    for i, ci in enumerate(cond_ids):
        conds[i, :, ci] = 1.0
    return flow.ConditionedBatch(targets, conds), n_cond


def cmd_flow(args) -> int:
    seed = _seed_of(args)
    if args.action == "train":
        _at_least("--flow-steps", args.flow_steps, 1)
        _at_least("--steps", args.steps, 0)
        _at_least("--hidden", args.hidden, 0)
        if not args.step_size > 0:
            raise ContractError(f"--step-size must be positive, got {args.step_size}")
        batch, n_cond = _load_flow_corpus(args.manifest)
        rng = SeededRng(seed, stream=0x434C49)
        model = flow.FlowModel.random(
            rng, batch.targets.shape[2], n_cond,
            n_steps=args.flow_steps, hidden=args.hidden,
        )
        flow.actnorm_init(model, batch)
        result = flow.train_flow(model, batch, steps=args.steps,
                                 step_size=args.step_size, seed=seed)
        first, final = result.curve[0][1], result.curve[-1][1]
        if not final <= first:  # also when final is NaN
            raise ContractError(f"training diverged: final NLL {final!r} is above "
                                f"the step-0 NLL {first!r}; nothing was saved")
        flow.save_model(result.model, args.ckpt)
        flow.curve_to_csv(result.curve, f"{args.ckpt}.curve.csv")
        _emit(
            _report(
                "flow-train",
                {"manifest": args.manifest},
                {"steps": args.steps, "step_size": args.step_size,
                 "flow_steps": args.flow_steps, "hidden": args.hidden,
                 "seed": seed},
                {"final_nll": result.curve[-1][1], "ckpt": str(args.ckpt),
                 "conditions": n_cond},
            ),
            args.out,
        )
    elif args.action == "sample":
        _at_least("--frames", args.frames, 1)
        model = flow.load_model(args.ckpt)
        if not 0 <= args.condition < model.cond_dim:
            raise ContractError(f"--condition {args.condition} is out of range "
                                f"[0, {model.cond_dim})")
        cond = np.zeros((args.frames, model.cond_dim))
        cond[:, args.condition] = 1.0
        rng = SeededRng(seed, stream=0x53414D50)
        grid = flow.sample(model, cond, rng, args.temperature)
        write_mel(Spectrogram(grid), args.out_mel)
        _emit(
            _report(
                "flow-sample",
                {"ckpt": args.ckpt},
                {"condition": args.condition, "frames": args.frames,
                 "temperature": args.temperature, "seed": seed},
                {"mel": str(args.out_mel)},
            ),
            args.out,
        )
    else:  # nll
        model = flow.load_model(args.ckpt)
        batch, n_cond = _load_flow_corpus(args.manifest)
        if batch.targets.shape[2] != model.channels:
            raise ContractError(
                f"corpus has {batch.targets.shape[2]} channels, model expects "
                f"{model.channels}"
            )
        if n_cond != model.cond_dim:
            raise ContractError(
                f"corpus has {n_cond} conditions, model expects "
                f"{model.cond_dim}"
            )
        value = flow.nll(model, batch)
        _emit(
            _report("flow-nll", {"ckpt": args.ckpt, "manifest": args.manifest},
                    {}, {"nll": value}),
            args.out,
        )
    return 0


def cmd_make_corpus(args) -> int:
    seed = _seed_of(args)
    spec = toylab.canonical_spec(seed=seed,
                                 samples_per_condition=args.samples)
    corpus = toylab.make_corpus(spec)
    manifest = toylab.corpus_to_files(corpus, args.out_dir)
    _emit(
        _report("make-corpus", {}, {"seed": seed, "samples": args.samples},
                {"manifest": str(manifest),
                 "n_samples": len(corpus.samples)}),
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oversmooth",
        description="over-smoothness metrics, density diagnostics, and toy "
                    "generation experiments for spectrograms",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mel", help="WAV -> MEL1 log-mel spectrogram")
    p.add_argument("wav")
    p.add_argument("out_mel")
    p.add_argument("--frame", type=int, default=dsp.DEFAULT_FRAME)
    p.add_argument("--hop", type=int, default=dsp.DEFAULT_HOP)
    p.add_argument("--bins", type=int, default=dsp.DEFAULT_BINS)
    p.add_argument("--floor", type=float, default=dsp.DEFAULT_FLOOR)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mel)

    p = sub.add_parser("metrics", help="Var_L (and SSIM given two files)")
    p.add_argument("mel_a")
    p.add_argument("mel_b", nargs="?")
    p.add_argument("--window", type=int, default=11)
    p.add_argument("--svg", help="prefix for heatmap SVGs")
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("dist", help="per-phoneme marginal/joint densities")
    p.add_argument("--manifest", required=True,
                   help="JSON list of {mel, align} path pairs")
    p.add_argument("--ph", required=True)
    p.add_argument("--bin", type=int)
    p.add_argument("--bins", help="comma-separated bin indices")
    p.add_argument("--joint", help="freq:f1,f2 or time:f,lag")
    p.add_argument("--bandwidth", type=float)
    p.add_argument("--out-prefix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("toylab", help="synthetic over-smoothing experiment")
    p.add_argument("--spec", help="JSON corpus spec (default: the canonical "
                                  "8x8 two-pattern corpus)")
    p.add_argument("--strategies", default="mse,lm,ar,conditioned,flow")
    p.add_argument("--seed", type=int)
    p.add_argument("--generate", type=int, default=200)
    p.add_argument("--heldout", type=int, default=200)
    p.add_argument("--out-prefix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_toylab)

    p = sub.add_parser("flow", help="train / sample / score a flow model")
    p.add_argument("action", choices=["train", "sample", "nll"])
    p.add_argument("--manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--step-size", type=float, default=2e-3)
    p.add_argument("--flow-steps", type=int, default=6)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--condition", type=int, default=0)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--out-mel")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("make-corpus", help="write the canonical toy corpus "
                                           "as MEL1 files plus a manifest")
    p.add_argument("out_dir")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_make_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "flow":
            if args.action in ("train", "nll") and not args.manifest:
                raise ContractError(f"flow {args.action} requires --manifest")
            if args.action == "sample" and not args.out_mel:
                raise ContractError("flow sample requires --out-mel")
        return args.func(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal errors keep a distinct exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
