"""Command-line surface.

Every command returns a canonical JSON report (sorted keys, stable float
repr) and its side files: the text of each SVG, CSV and markdown file, or
the writer of a checkpoint. Re-running with identical inputs and seeds is
byte-identical. :func:`main` parses a command's arguments with that command's
own parser and hands help, ``--version``, an unknown word or a left-over
argument to the full parser, so every message reads as the full parser's. It
checks every output flag before the command runs and every side file's path
after it, then writes the side files and the report (to ``--out`` or stdout);
MEL1 files and corpus directories are written by their own writers inside the
command. Diagnostics go to stderr. Exit codes: 0 success, 2 usage/contract
error (a bad flag, input or output path), 1 internal error.
``OVERSMOOTH_SEED`` provides the seed when a command's ``--seed`` flag is
omitted.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import shutil
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


def _report(command: str, inputs: dict, parameters: dict, results: dict) -> str:
    doc = {
        "command": command,
        "inputs": {
            name: {"path": str(p),
                   "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
            for name, p in inputs.items()
            if p is not None
        },
        "parameters": parameters,
        "results": results,
        "version": __version__,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    value = os.environ.get("OVERSMOOTH_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ContractError(
            f"OVERSMOOTH_SEED must be an integer, got {value!r}") from None


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
    "samples": ("a non-empty list", lambda v: isinstance(v, list) and len(v) > 0),
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


def _check_output(name: str, path: str, kind: str) -> None:
    """A ContractError naming ``name`` unless ``path`` can be written as
    ``kind``: a "file" or the "prefix" of file names, whose directory must
    exist, or a "dir", made with its parents, whose nearest existing
    ancestor must be a directory."""
    parent = Path(os.path.dirname(path))
    if kind == "dir":
        parent = next(a for a in (Path(path), *Path(path).parents) if a.exists())
    if not parent.exists():
        raise ContractError(f"{name} {path}: directory {parent} does not exist")
    if not parent.is_dir():
        raise ContractError(f"{name} {path}: {parent} is not a directory")
    if kind == "file" and Path(path).is_dir():
        raise ContractError(f"{name} {path} is a directory")


def _reprs(values) -> list:
    """``repr`` of each number of ``values``, flattened in C order."""
    return list(map(repr, np.asarray(values).ravel().tolist()))


def _csv(header: str, *columns) -> str:
    """``header``, then line i: the i-th string of each column, comma-joined."""
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_mel(args):
    _at_least("--bins", args.bins, 1)
    _at_least("--hop", args.hop, 1)
    if args.frame < 1 or args.frame & (args.frame - 1):
        raise ContractError(f"--frame must be a positive power of two, got {args.frame}")
    clip = dsp.read_wav(args.wav)
    fb = dsp.mel_filterbank(dsp.DEFAULT_SAMPLE_RATE, args.frame, args.bins)
    spec = Spectrogram(dsp.mel_spectrogram(clip, fb, args.frame, args.hop, args.floor))
    write_mel(spec, args.out_mel)
    return _report(
        "mel",
        {"wav": args.wav},
        {"frame": args.frame, "hop": args.hop, "bins": args.bins,
         "floor": args.floor},
        {"frames": spec.frames, "bins": spec.bins, "mel": str(args.out_mel)},
    ), {}


def cmd_metrics(args):
    spec_a = read_mel(args.mel_a)
    results: dict = {"var_l": metrics.var_laplacian(spec_a)}
    inputs = {"mel_a": args.mel_a}
    files, config = {}, metrics.SsimConfig(window=args.window)
    if args.mel_b:
        ssim_cells = metrics.ssim_map(spec_a, read_mel(args.mel_b), config)
        results["ssim"] = float(np.mean(ssim_cells))  # == metrics.ssim
        inputs["mel_b"] = args.mel_b
    if args.svg:
        files[f"{args.svg}_laplacian.svg"] = svgplot.heatmap(
            np.abs(metrics.laplacian_response(spec_a)),
            "absolute Laplacian response", "bin", "frame")
        if args.mel_b:
            files[f"{args.svg}_ssim.svg"] = svgplot.heatmap(
                ssim_cells, "SSIM map", "bin", "frame")
    return _report("metrics", inputs, {"window": args.window}, results), files


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


def cmd_dist(args):
    corpus = _load_corpus(args.manifest)
    prefix = args.out_prefix or "dist"
    results: dict = {"dip": {}}
    try:
        bins = [int(b) for b in args.bins.split(",")] if args.bins else []
    except ValueError:
        raise ContractError(f"--bins takes integers, got {args.bins!r}") from None
    files = {}
    for f in bins:
        values = density.pooled_phoneme_values(corpus, args.ph, f)
        d1 = density.kde1d(values, args.bandwidth)
        files[f"{prefix}_marginal_{args.ph}_{f}.csv"] = _csv(
            "grid,density", _reprs(d1.grid), _reprs(d1.values))
        files[f"{prefix}_marginal_{args.ph}_{f}.svg"] = svgplot.line_plot(
            (f"{args.ph} bin {f}", d1.grid, d1.values),
            f"marginal density, phoneme {args.ph}, bin {f}",
            "log-mel value", "density",
        )
        results["dip"][f"{args.ph}:{f}"] = density.dip_statistic(values).dip
    if args.joint:
        kind, _, rest = args.joint.partition(":")
        try:
            first, second = (int(v) for v in rest.split(","))
        except ValueError:
            raise ContractError(
                f"--joint expects freq:f1,f2 or time:f,lag, got {args.joint!r}"
            ) from None
        d2 = density.phoneme_joint(
            corpus, args.ph, kind, first, second,
            None if args.bandwidth is None else (args.bandwidth,) * 2)
        xs, ys = _reprs(d2.grid_x), _reprs(d2.grid_y)
        csv = f"{prefix}_joint_{args.ph}.csv"  # long form, x outer
        files[csv] = _csv("x,y,density", [x for x in xs for _ in ys],
                          ys * len(xs), _reprs(d2.values))
        files[f"{prefix}_joint_{args.ph}.svg"] = svgplot.heatmap(
            d2.values, f"joint density, phoneme {args.ph}",
            "second value", "first value")
        results["joint"] = {"kind": kind, "first": first, "second": second,
                            "csv": csv}
    return _report(
        "dist",
        {"manifest": args.manifest},
        {"ph": args.ph, "bins": bins, "joint": args.joint,
         "bandwidth": args.bandwidth},
        results,
    ), files


def cmd_toylab(args):
    _at_least("--generate", args.generate, 2)
    _at_least("--heldout", args.heldout, 2)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise ContractError(f"--strategies names no strategy, got {args.strategies!r}")
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
    report = toylab.run_experiment(
        spec, strategies, seed, n_generate=args.generate,
        n_heldout=args.heldout,
    )
    files = {}
    if args.out_prefix:
        names = sorted(report.rows)
        files[f"{args.out_prefix}.md"] = report.to_markdown()
        files[f"{args.out_prefix}_var_l.svg"] = svgplot.bar_chart(
            names, [report.rows[n].var_l for n in names],
            "sharpness by strategy", "Var_L")
    return report.to_json(), files


def _load_flow_corpus(manifest_path, n_cond=None):
    """The manifest's grids with one-hot condition inputs of width ``n_cond``
    (by default one more than the largest condition id in the manifest)."""
    doc = _checked(_read_json(manifest_path), f"manifest {manifest_path}",
                   ("samples",))
    base = Path(manifest_path).parent
    grids, cond_ids = [], []
    for i, entry in enumerate(doc["samples"]):
        _checked(entry, f"manifest sample {i}", ("mel", "condition"))
        if n_cond is not None and entry["condition"] >= n_cond:
            raise ContractError(f"manifest sample {i}: condition "
                                f"{entry['condition']} is out of the model's "
                                f"range [0, {n_cond})")
        grids.append(read_mel(base / entry["mel"]).values)
        cond_ids.append(entry["condition"])
    shapes = {g.shape for g in grids}
    if len(shapes) != 1:
        raise ContractError(f"corpus grids must share one shape, got {shapes}")
    n_cond = max(cond_ids) + 1 if n_cond is None else n_cond
    targets = np.stack(grids)
    t = targets.shape[1]
    conds = np.zeros((len(grids), t, n_cond))
    conds[np.arange(len(grids)), :, cond_ids] = 1.0
    return flow.ConditionedBatch(targets, conds), n_cond


_FLOW_ACTIONS = {  # action -> ({flag it takes: its default, or ... if the
    # action requires it}, {output flag: kind}); other flow flags are errors
    "train": ({"--manifest": ..., "--ckpt": ..., "--steps": 500, "--step-size": 2e-3,
               "--flow-steps": 6, "--hidden": 16, "--seed": None}, {"--ckpt": "file"}),
    "sample": ({"--ckpt": ..., "--condition": 0, "--frames": 8, "--temperature": 1.0,
                "--out-mel": ..., "--seed": None}, {"--out-mel": "file"}),
    "nll": ({"--ckpt": ..., "--manifest": ...}, {}),
}
_FLOW_TYPES = {"--manifest": str, "--ckpt": str, "--steps": int, "--step-size": float,
               "--flow-steps": int, "--hidden": int, "--condition": int, "--frames": int,
               "--temperature": float, "--out-mel": str, "--seed": int}
_COMMANDS = ("mel", "metrics", "dist", "toylab", "flow", "make-corpus")


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _flow_flags(args) -> dict:
    """Check the flow flags against the action's row of ``_FLOW_ACTIONS``,
    fill in its defaults and return its output kinds."""
    takes, outputs = _FLOW_ACTIONS[args.action]
    for flag in _FLOW_TYPES:
        if getattr(args, _dest(flag)) is None:
            if takes.get(flag) is ...:
                raise ContractError(f"flow {args.action} requires {flag}")
            setattr(args, _dest(flag), takes.get(flag))
        elif flag not in takes:
            raise ContractError(f"flow {args.action} does not take {flag}")
    return outputs


def cmd_flow(args):
    if args.action == "train":
        seed = _seed_of(args)
        _at_least("--flow-steps", args.flow_steps, 1)
        _at_least("--steps", args.steps, 0)
        _at_least("--hidden", args.hidden, 0)
        if not args.step_size > 0:
            raise ContractError(f"--step-size must be positive, got {args.step_size}")
        if args.step_size == np.inf:
            raise ContractError("--step-size must be finite, got inf")
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
        steps, nlls = zip(*result.curve)
        return _report(
            "flow-train",
            {"manifest": args.manifest},
            {"steps": args.steps, "step_size": args.step_size,
             "flow_steps": args.flow_steps, "hidden": args.hidden, "seed": seed},
            {"final_nll": final, "ckpt": str(args.ckpt), "conditions": n_cond},
        ), {args.ckpt: functools.partial(flow.save_model, result.model),
            f"{args.ckpt}.curve.csv": _csv("step,nll", _reprs(steps),
                                           _reprs(nlls))}
    if args.action == "sample":
        seed = _seed_of(args)
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
        return _report(
            "flow-sample",
            {"ckpt": args.ckpt},
            {"condition": args.condition, "frames": args.frames,
             "temperature": args.temperature, "seed": seed},
            {"mel": str(args.out_mel)},
        ), {}
    model = flow.load_model(args.ckpt)  # nll
    batch, _ = _load_flow_corpus(args.manifest, model.cond_dim)
    return _report("flow-nll", {"ckpt": args.ckpt, "manifest": args.manifest},
                   {}, {"nll": flow.nll(model, batch)}), {}


def cmd_make_corpus(args):
    _at_least("--samples", args.samples, 1)
    seed = _seed_of(args)
    spec = toylab.canonical_spec(seed=seed,
                                 samples_per_condition=args.samples)
    corpus = toylab.make_corpus(spec)
    manifest = toylab.corpus_to_files(corpus, args.out_dir)
    return _report("make-corpus", {}, {"seed": seed, "samples": args.samples},
                   {"manifest": str(manifest),
                    "n_samples": sum(map(len, corpus.stacks))}), {}


def build_parser(command=None) -> argparse.ArgumentParser:
    """:func:`main`'s parser: ``command``'s own if it names one, else the full
    one. A build asks the terminal for argparse's help width once."""
    fmt = functools.partial(argparse.HelpFormatter,
                            width=shutil.get_terminal_size().columns - 2)
    one = command in _COMMANDS  # usage, help and errors as the full one's subparser
    parser = argparse.ArgumentParser(
        prog=f"oversmooth {command}" if one else "oversmooth", formatter_class=fmt,
        description=None if one else "over-smoothness metrics, density "
        "diagnostics, and toy generation experiments for spectrograms")
    if one:
        parser.set_defaults(command=command)
    else:
        parser.add_argument("--version", action="version", version=__version__)
        sub = parser.add_subparsers(dest="command", required=True)

    def add(word, about):  # None for the other commands of a one-command parser
        if not one:
            return sub.add_parser(word, help=about, formatter_class=fmt)
        return parser if word == command else None

    if p := add("mel", "WAV -> MEL1 log-mel spectrogram"):
        p.add_argument("wav")
        p.add_argument("out_mel")
        p.add_argument("--frame", type=int, default=dsp.DEFAULT_FRAME)
        p.add_argument("--hop", type=int, default=dsp.DEFAULT_HOP)
        p.add_argument("--bins", type=int, default=dsp.DEFAULT_BINS)
        p.add_argument("--floor", type=float, default=dsp.DEFAULT_FLOOR)
        p.add_argument("--out")
        p.set_defaults(func=cmd_mel, outputs={"out_mel": "file"})

    if p := add("metrics", "Var_L (and SSIM given two files)"):
        p.add_argument("mel_a")
        p.add_argument("mel_b", nargs="?")
        p.add_argument("--window", type=int, default=11)
        p.add_argument("--svg", help="prefix for heatmap SVGs")
        p.add_argument("--out")
        p.set_defaults(func=cmd_metrics, outputs={"--svg": "prefix"})

    if p := add("dist", "per-phoneme marginal/joint densities"):
        # "--bins -1,3" and "--bins -x" are values for cmd_dist to check, not options.
        p._negative_number_matcher = re.compile(r"-[^-]")
        p.add_argument("--manifest", required=True,
                       help="JSON list of {mel, align} path pairs")
        p.add_argument("--ph", required=True)
        p.add_argument("--bins", help="comma-separated bin indices in [0, F)")
        p.add_argument("--joint", help="freq:f1,f2 or time:f,lag")
        p.add_argument("--bandwidth", type=float)
        p.add_argument("--out-prefix")
        p.add_argument("--out")
        p.set_defaults(func=cmd_dist, outputs={"--out-prefix": "prefix"})

    if p := add("toylab", "synthetic over-smoothing experiment"):
        p.add_argument("--spec", help="JSON corpus spec (default: the canonical "
                                      "8x8 two-pattern corpus)")
        p.add_argument("--strategies", default="mse,lm,ar,conditioned,flow")
        p.add_argument("--seed", type=int)
        p.add_argument("--generate", type=int, default=200)
        p.add_argument("--heldout", type=int, default=200)
        p.add_argument("--out-prefix")
        p.add_argument("--out")
        p.set_defaults(func=cmd_toylab, outputs={"--out-prefix": "prefix"})

    if p := add("flow", "train / sample / score a flow model"):
        p.add_argument("action", choices=list(_FLOW_ACTIONS))
        for flag, kind in _FLOW_TYPES.items():
            p.add_argument(flag, type=kind)  # defaults: see _FLOW_ACTIONS
        p.add_argument("--out")
        p.set_defaults(func=cmd_flow)

    if p := add("make-corpus", "write the canonical toy corpus as MEL1 files "
                               "plus a manifest"):
        p.add_argument("out_dir")
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.set_defaults(func=cmd_make_corpus, outputs={"out_dir": "dir"})
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    word = argv[0] if argv and argv[0] in _COMMANDS else None
    args, rest = build_parser(word).parse_known_args(argv[1:] if word else argv)
    if rest:  # the full parser words the error, as a known word's parser cannot
        args = build_parser().parse_args(argv)
    try:
        # Output flags are checked before any work and every side file's path
        # before the first write, so that no run fails on a flag after its
        # work or leaves part of its output.
        if args.command == "flow":
            args.outputs = _flow_flags(args)
        for name, kind in {"--out": "file", **args.outputs}.items():
            path = getattr(args, _dest(name))
            if path:
                _check_output(name, path, kind)
        report, files = args.func(args)
        for path in files:
            _check_output("output", path, "file")
        for path, content in files.items():
            if callable(content):
                content(path)
            else:
                Path(path).write_text(content, encoding="utf-8")
        if args.out:
            Path(args.out).write_text(report, encoding="utf-8")
        else:
            sys.stdout.write(report)
        return 0
    except (ContractError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal errors keep a distinct exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
