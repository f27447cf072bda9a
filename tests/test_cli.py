import argparse
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import (heatmap_pixels, random_sign_prototypes, wav_bytes,
                      write_alignment)
from oversmooth import cli, density, flow, toylab
from oversmooth.core import (
    Alignment,
    AlignmentEntry,
    SeededRng,
    Spectrogram,
    read_mel,
    write_mel,
)


def run(args):
    return cli.main(args)


def make_wav(path, n=4096, rate=22050, freq=440.0):
    t = np.arange(n) / rate
    samples = np.round(8000 * np.sin(2 * np.pi * freq * t)).astype(np.int16)
    path.write_bytes(wav_bytes(samples, rate=rate))


class TestCmdMel:
    def test_defaults_produce_80_bins(self, tmp_path):
        wav = tmp_path / "a.wav"
        make_wav(wav)
        mel = tmp_path / "a.mel"
        out = tmp_path / "report.json"
        assert run(["mel", str(wav), str(mel), "--out", str(out)]) == 0
        spec = read_mel(mel)
        assert spec.bins == 80
        report = json.loads(out.read_text())
        assert report["results"]["bins"] == 80
        assert report["version"] == cli.__version__

    def test_bins_flag(self, tmp_path):
        wav = tmp_path / "a.wav"
        make_wav(wav)
        mel = tmp_path / "a.mel"
        assert run(["mel", str(wav), str(mel), "--bins", "40",
                    "--out", str(tmp_path / "r.json")]) == 0
        assert read_mel(mel).bins == 40

    def test_wrong_rate_exits_2(self, tmp_path, capsys):
        wav = tmp_path / "b.wav"
        make_wav(wav, rate=44100)
        code = run(["mel", str(wav), str(tmp_path / "b.mel")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "44100" in lines[0] and "22050" in lines[0]
        assert not (tmp_path / "b.mel").exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["mel", str(tmp_path / "none.wav"),
                    str(tmp_path / "x.mel")]) == 2

    @pytest.mark.parametrize("floor", ["nan", "inf", "0", "-1e-5"])
    def test_bad_floor_exits_2_naming_floor(self, tmp_path, capsys, floor):
        wav = tmp_path / "a.wav"
        make_wav(wav)
        mel = tmp_path / "a.mel"
        assert run(["mel", str(wav), str(mel), f"--floor={floor}"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, lines
        assert lines[0].startswith("error: floor must be finite and above 0")
        assert not mel.exists()

    @pytest.mark.parametrize("frame", ["0", "3", "-4"])
    def test_bad_frame_exits_2_naming_frame_size(self, tmp_path, capsys, frame):
        wav = tmp_path / "a.wav"
        make_wav(wav)
        mel = tmp_path / "a.mel"
        assert run(["mel", str(wav), str(mel), f"--frame={frame}"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, lines
        assert lines[0] == f"error: --frame must be a positive power of two, got {frame}"
        assert not mel.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--bins", "0", "--bins must be at least 1, got 0"),
        ("--hop", "0", "--hop must be at least 1, got 0"),
        ("--hop", "-3", "--hop must be at least 1, got -3"),
        ("--frame", "1000", "--frame must be a positive power of two, got 1000"),
    ])
    def test_bad_size_flag_exits_2_naming_the_flag(self, tmp_path, capsys, flag,
                                                   value, message):
        wav = tmp_path / "a.wav"
        make_wav(wav)
        mel = tmp_path / "a.mel"
        assert run(["mel", str(wav), str(mel), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not mel.exists()


class TestCmdMetrics:
    def test_single_input_var_l_only(self, tmp_path, capsys):
        mel = tmp_path / "a.mel"
        rng = np.random.default_rng(0)
        write_mel(Spectrogram(rng.normal(size=(20, 10))), mel)
        assert run(["metrics", str(mel)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "var_l" in report["results"]
        assert "ssim" not in report["results"]

    def test_identical_pair_ssim_one(self, tmp_path, capsys):
        mel = tmp_path / "a.mel"
        rng = np.random.default_rng(1)
        write_mel(Spectrogram(rng.normal(size=(16, 12)).astype(np.float32)), mel)
        assert run(["metrics", str(mel), str(mel)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["ssim"] == 1.0

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.mel", tmp_path / "b.mel"
        write_mel(Spectrogram(np.zeros((8, 8))), a)
        write_mel(Spectrogram(np.zeros((8, 9))), b)
        assert run(["metrics", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, lines
        assert "(8, 8)" in lines[0] and "(8, 9)" in lines[0]

    def test_window_wider_than_the_grid_allows_exits_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.mel", tmp_path / "b.mel"
        rng = np.random.default_rng(4)
        for path in a, b:
            write_mel(Spectrogram(rng.normal(size=(16, 80))), path)
        assert run(["metrics", str(a), str(b), "--window", "1001"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, lines
        assert "window 1001" in lines[0] and "16x80" in lines[0], lines

    @pytest.mark.parametrize("window", ["4", "1"])
    def test_bad_window_exits_2_without_a_second_file(self, tmp_path, capsys,
                                                      window):
        a = tmp_path / "a.mel"
        write_mel(Spectrogram(np.random.default_rng(5).normal(size=(16, 80))), a)
        report = tmp_path / "r.json"
        assert run(["metrics", str(a), "--window", window,
                    "--out", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not report.exists()
        assert captured.err == "error: window side must be odd and >= 3\n"

    def test_svg_outputs_valid_xml(self, tmp_path, capsys):
        a = tmp_path / "a.mel"
        rng = np.random.default_rng(2)
        write_mel(Spectrogram(rng.normal(size=(15, 12))), a)
        prefix = str(tmp_path / "fig")
        assert run(["metrics", str(a), str(a), "--svg", prefix]) == 0
        capsys.readouterr()
        # one <image>, one pixel per (frame, bin) cell of each map; the
        # Laplacian response is the valid part, two frames and bins smaller
        for suffix, shape in (("_laplacian.svg", (13, 10)),
                              ("_ssim.svg", (15, 12))):
            text = (tmp_path / f"fig{suffix}").read_text()
            root = ET.fromstring(text)
            assert root.tag.endswith("svg")
            assert f"oversmooth {cli.__version__}" in text
            assert "frame" in text and "bin" in text
            assert heatmap_pixels(text).shape == shape + (3,)


def build_dist_fixture(tmp_path):
    rng = np.random.default_rng(3)
    entries = []
    for i in range(2):
        frames = 40
        values = rng.normal(size=(frames, 8))
        values[:20, 3] += -2.0
        values[20:, 3] += 2.0
        mel = tmp_path / f"utt{i}.mel"
        write_mel(Spectrogram(values), mel)
        align = tmp_path / f"utt{i}.tsv"
        write_alignment(
            Alignment((AlignmentEntry("AE2", 0, 20), AlignmentEntry("R", 20, 40))),
            align,
        )
        entries.append({"mel": mel.name, "align": align.name})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


def csv_by_rows(header, rows):
    """The lines of a CSV as ``dist`` wrote it row by row: floats by
    ``repr``, other cells by ``str``. Split at every newline, so a trailing
    newline shows as a last empty line and a mismatch reports the first
    differing line instead of a diff of two whole files."""
    lines = [header] + [",".join(repr(v) if isinstance(v, float) else str(v)
                                 for v in row) for row in rows]
    return ("\n".join(lines) + "\n").split("\n")


def joint_csv_by_rows(d2):
    return csv_by_rows("x,y,density", [
        (float(d2.grid_x[i]), float(d2.grid_y[j]), float(d2.values[i, j]))
        for i in range(len(d2.grid_x)) for j in range(len(d2.grid_y))])


def read_lines(path):
    return path.read_text().split("\n")


class TestCmdDist:
    def test_marginal_csv_and_dip(self, tmp_path, capsys):
        manifest = build_dist_fixture(tmp_path)
        prefix = str(tmp_path / "dist")
        assert run(["dist", "--manifest", str(manifest), "--ph", "R",
                    "--bins", "3", "--out-prefix", prefix]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "R:3" in report["results"]["dip"]
        csv_lines = (tmp_path / "dist_marginal_R_3.csv").read_text().splitlines()
        assert csv_lines[0] == "grid,density"
        assert len(csv_lines) == 513
        ET.fromstring((tmp_path / "dist_marginal_R_3.svg").read_text())

    def test_joint_long_form_csv(self, tmp_path, capsys):
        manifest = build_dist_fixture(tmp_path)
        prefix = str(tmp_path / "dist")
        assert run(["dist", "--manifest", str(manifest), "--ph", "R",
                    "--joint", "freq:3,4", "--out-prefix", prefix]) == 0
        capsys.readouterr()
        lines = (tmp_path / "dist_joint_R.csv").read_text().splitlines()
        assert lines[0] == "x,y,density"
        assert len(lines) == 1 + 128 * 128
        svg = (tmp_path / "dist_joint_R.svg").read_text()
        # one <image>, one pixel per (grid_x, grid_y) point
        assert heatmap_pixels(svg).shape == (128, 128, 3)

    def test_bandwidth_below_half_the_grid_step_exits_2(self, tmp_path, capsys):
        manifest = build_dist_fixture(tmp_path)
        before = tree(tmp_path)
        assert run(["dist", "--manifest", str(manifest), "--ph", "R", "--bins", "3",
                    "--bandwidth", "1e-3", "--out-prefix", str(tmp_path / "d")]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, lines
        # bin 3's grid step is about 0.011 here
        assert lines[0].startswith("error: bandwidth 0.001 is too small: below half "
                                   "the grid step 0.01")
        assert tree(tmp_path) == before

    def test_joint_bandwidth_below_half_its_grid_step_exits_2(self, tmp_path,
                                                               capsys):
        manifest = build_dist_fixture(tmp_path)
        before = tree(tmp_path)
        assert run(["dist", "--manifest", str(manifest), "--ph", "R", "--joint",
                    "freq:3,4", "--bandwidth", "0.01",
                    "--out-prefix", str(tmp_path / "d")]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, lines
        # the joint's 128-point grid of bin 3 steps about 0.044 here
        assert lines[0].startswith("error: bandwidth 0.01 is too small: below half "
                                   "the grid step 0.04")
        assert tree(tmp_path) == before

    # 0.023 is the narrowest bandwidth, to three decimals, that the fixture's
    # joints accept: their 128-point grids step about 0.0447 on bin 3.
    @pytest.mark.parametrize("bandwidth", [None, 0.023], ids=["rule", "narrow"])
    def test_csvs_equal_the_row_formula(self, tmp_path, capsys, bandwidth):
        manifest = build_dist_fixture(tmp_path)
        flags = [] if bandwidth is None else ["--bandwidth", str(bandwidth)]
        assert run(["dist", "--manifest", str(manifest), "--ph", "R",
                    "--bins", "3,4", "--joint", "time:3,1",
                    "--out-prefix", str(tmp_path / "d")] + flags) == 0
        capsys.readouterr()
        corpus = cli._load_corpus(manifest)
        for f in (3, 4):
            d1 = density.kde1d(density.pooled_phoneme_values(corpus, "R", f),
                               bandwidth)
            assert read_lines(tmp_path / f"d_marginal_R_{f}.csv") == csv_by_rows(
                "grid,density", zip(d1.grid.tolist(), d1.values.tolist()))
        d2 = density.phoneme_joint(corpus, "R", "time", 3, 1,
                                   None if bandwidth is None else (bandwidth,) * 2)
        lines = read_lines(tmp_path / "d_joint_R.csv")
        assert lines == joint_csv_by_rows(d2)
        if bandwidth is not None:  # far cells underflow to exactly 0.0
            assert (d2.values == 0.0).any()
            assert any(line.endswith(",0.0") for line in lines)

    def test_bandwidth_sets_both_joint_bandwidths(self, tmp_path, capsys):
        manifest = build_dist_fixture(tmp_path)
        joints = []
        for name, flags in (("rule", []), ("narrow", ["--bandwidth", "0.023"])):
            assert run(["dist", "--manifest", str(manifest), "--ph", "R",
                        "--joint", "freq:3,4", "--out-prefix",
                        str(tmp_path / name)] + flags) == 0
            joints.append(read_lines(tmp_path / f"{name}_joint_R.csv"))
        capsys.readouterr()
        assert joints[0] != joints[1]
        d2 = density.phoneme_joint(cli._load_corpus(manifest), "R", "freq", 3, 4,
                                   bandwidths=(0.023, 0.023))
        assert joints[1] == joint_csv_by_rows(d2)

    def test_absent_phoneme_exits_2(self, tmp_path):
        manifest = build_dist_fixture(tmp_path)
        assert run(["dist", "--manifest", str(manifest), "--ph", "QQ",
                    "--bins", "3"]) == 2

    def test_bin_out_of_range_exits_2(self, tmp_path):
        manifest = build_dist_fixture(tmp_path)
        assert run(["dist", "--manifest", str(manifest), "--ph", "R",
                    "--bins", "123"]) == 2

    @pytest.mark.parametrize("flags,named", [
        (["--bins", "x"], "--bins"),
        (["--bins", "3,x"], "--bins"),
        (["--bins", "-1"], "bin -1"),
        (["--joint", "freq:-1,2"], "bin -1"),
        (["--joint", "time:-2,1"], "bin -2"),
        (["--bins", "3", "--bandwidth", "nan"], "bandwidth"),
        (["--bins", "3", "--bandwidth", "inf"], "bandwidth"),
        # below half the marginal's grid step, or so small that the kernel
        # normalisation or the joint density overflows
        (["--bins", "3", "--bandwidth", "1e-310"], "bandwidth 1e-310 is too small"),
        (["--joint", "freq:3,4", "--bandwidth", "1e-310"],
         "bandwidth (1e-310, 1e-310) is too small"),
        (["--joint", "freq:3,4", "--bandwidth", "1e-160"],
         "bandwidth (1e-160, 1e-160) is too small"),
        # a later bin or the joint fails after bin 3 is computed
        (["--bins", "3,123"], "bin 123"),
        (["--bins", "3", "--joint", "freq:3,x"], "--joint"),
        (["--bins", "3", "--joint", "bogus:1,2"], "unknown joint kind 'bogus'"),
        # the report's directory is missing; checked before any file is written
        (["--bins", "3", "--joint", "freq:3,4", "--out", "{tmp}/missing/r.json"],
         "--out"),
        (["--bins", "3", "--out", "{tmp}"], "is a directory"),
        # argparse reads a value such as -1,3 as an option unless told not to
        (["--bins", "-1,3"], "bin -1"),
        (["--bins", "-x"], "--bins takes integers"),
    ])
    def test_malformed_input_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                          flags, named):
        manifest = build_dist_fixture(tmp_path)
        flags = [flag.replace("{tmp}", str(tmp_path)) for flag in flags]
        assert run(["dist", "--manifest", str(manifest), "--ph", "R",
                    "--out-prefix", str(tmp_path / "d")] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: ") and named in lines[0]
        assert not list(tmp_path.glob("d_*"))

    def test_manifest_of_strings_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(["utt0.mel", "utt0.tsv"]))
        assert run(["dist", "--manifest", str(manifest), "--ph", "R",
                    "--bins", "3"]) == 2
        err = capsys.readouterr().err
        assert "manifest entry 0" in err and "utt0.mel" in err

    def test_manifest_path_not_a_string_exits_2(self, tmp_path, capsys):
        manifest = build_dist_fixture(tmp_path)
        doc = json.loads(manifest.read_text())
        doc[1]["mel"] = 5
        manifest.write_text(json.dumps(doc))
        assert run(["dist", "--manifest", str(manifest), "--ph", "R",
                    "--bins", "3"]) == 2
        err = capsys.readouterr().err
        assert "manifest entry 1" in err and "'mel'" in err
        assert "internal error" not in err


class TestCmdToylab:
    def test_single_strategy_report(self, tmp_path, capsys):
        assert run(["toylab", "--strategies", "mse", "--seed", "3",
                    "--generate", "50", "--heldout", "50"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["rows"]) == {"gt", "mse"}

    @pytest.mark.parametrize("value", ["-3", "0", "1"])
    @pytest.mark.parametrize("flag", ["--generate", "--heldout"])
    def test_sample_count_below_two_exits_2(self, capsys, flag, value):
        assert run(["toylab", "--strategies", "mse", "--seed", "1",
                    flag, value]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag} must be at least 2, got {value}\n"

    def test_unknown_strategy_lists_valid_names(self, tmp_path, capsys):
        assert run(["toylab", "--strategies", "bogus", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "mse" in err and "flow" in err

    @pytest.mark.parametrize("strategies, named", [
        ("mse,mse", "['mse']"),
        ("lm,mse,lm,mse,ar", "['lm', 'mse']"),
    ])
    def test_strategy_named_twice_exits_2(self, capsys, strategies, named):
        assert run(["toylab", "--strategies", strategies, "--seed", "1",
                    "--generate", "10", "--heldout", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: strategies named more than once: {named}\n"

    @pytest.mark.parametrize("strategies", [",", "", " , "])
    def test_no_strategy_exits_2(self, tmp_path, capsys, monkeypatch,
                                 strategies):
        def no_work(*args, **kwargs):
            raise AssertionError("the work ran")

        monkeypatch.setattr(toylab, "run_experiment", no_work)
        assert run(["toylab", "--strategies", strategies, "--seed", "1",
                    "--generate", "2", "--heldout", "2",
                    "--out-prefix", str(tmp_path / "t")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --strategies names no strategy, got "
                                f"{strategies!r}\n")
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_reruns_with_artifacts(self, tmp_path):
        args = ["toylab", "--strategies", "mse,conditioned", "--seed", "9",
                "--generate", "40", "--heldout", "40"]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run(args + ["--out", str(out_a),
                           "--out-prefix", str(tmp_path / "run_a")]) == 0
        assert run(args + ["--out", str(out_b),
                           "--out-prefix", str(tmp_path / "run_b")]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "run_a.md").read_bytes() == \
            (tmp_path / "run_b.md").read_bytes()
        assert (tmp_path / "run_a_var_l.svg").read_bytes() == \
            (tmp_path / "run_b_var_l.svg").read_bytes()
        ET.fromstring((tmp_path / "run_a_var_l.svg").read_text())

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OVERSMOOTH_SEED", "21")
        assert run(["toylab", "--strategies", "mse", "--generate", "30",
                    "--heldout", "30"]) == 0
        with_env = capsys.readouterr().out
        monkeypatch.delenv("OVERSMOOTH_SEED")
        assert run(["toylab", "--strategies", "mse", "--seed", "21",
                    "--generate", "30", "--heldout", "30"]) == 0
        explicit = capsys.readouterr().out
        assert with_env == explicit

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_env_seed_not_an_integer_exits_2(self, tmp_path, capsys,
                                             monkeypatch, value):
        monkeypatch.setenv("OVERSMOOTH_SEED", value)
        assert run(["make-corpus", str(tmp_path / "c"), "--samples", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: OVERSMOOTH_SEED must be an integer, "
                                f"got {value!r}\n")
        assert not (tmp_path / "c").exists()

    def test_spec_condition_with_one_prototype_exits_2(self, tmp_path, capsys):
        doc = {
            "conditions": [
                {"prototypes": [[[-1.0] * 4] * 4, [[1.0] * 4] * 4],
                 "weights": [0.5, 0.5]},
                {"prototypes": [[[1.0] * 4] * 4], "weights": [1.0]},
            ],
            "noise": 0.05,
            "samples_per_condition": 20,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert run(["toylab", "--spec", str(spec_path), "--strategies", "mse",
                    "--seed", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: condition 1 has one prototype; mode "
                                "coherence needs at least two\n")

    def test_gan_on_grids_below_its_critics_footprint_exits_2_before_any_fit(
            self, tmp_path, capsys, monkeypatch):
        doc = {"conditions": [{"prototypes": [[[-1.0] * 10] * 6, [[1.0] * 10] * 6],
                               "weights": [0.5, 0.5]}],
               "noise": 0.05, "samples_per_condition": 20}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))

        def no_fit(*args, **kwargs):
            raise AssertionError("flow fitted before the spec was checked")

        monkeypatch.setattr(toylab, "FlowStrategy", no_fit)
        assert run(["toylab", "--spec", str(spec_path), "--strategies", "flow,gan",
                    "--seed", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: strategy gan needs grids of at least 8 "
                                "cells a side, got (6, 10)\n")

    def test_random_prototype_spec_runs_ar(self, tmp_path, capsys):
        doc = {"conditions": [{"prototypes": [p.tolist() for p in protos],
                               "weights": [0.25] * 4}
                              for protos in random_sign_prototypes(4, seed=0)],
               "noise": 0.05, "samples_per_condition": 500}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert run(["toylab", "--spec", str(spec_path), "--strategies", "mse,ar",
                    "--seed", "0"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows["ar"]["mode_coherence"] >= 0.9 > rows["mse"]["mode_coherence"]

    def test_custom_spec_json(self, tmp_path, capsys):
        doc = {
            "conditions": [
                {"prototypes": [[[-1.0] * 4] * 4, [[1.0] * 4] * 4],
                 "weights": [0.5, 0.5]}
            ],
            "noise": 0.05,
            "samples_per_condition": 80,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert run(["toylab", "--spec", str(spec_path), "--strategies", "mse",
                    "--seed", "2", "--generate", "30", "--heldout", "30"]) == 0
        report = json.loads(capsys.readouterr().out)
        # the per-cell mean of two constant grids is flat; held-out data is noisy
        assert 0.0 <= report["rows"]["mse"]["var_l"] < report["rows"]["gt"]["var_l"]

    @pytest.mark.parametrize("rows,cols", [(1, 1), (6, 1)])
    def test_spec_grid_below_3x3_exits_2(self, tmp_path, capsys, rows, cols):
        doc = {
            "conditions": [{"prototypes": [[[0.0] * cols] * rows,
                                           [[1.0] * cols] * rows],
                            "weights": [0.5, 0.5]}],
            "noise": 0.05,
            "samples_per_condition": 20,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert run(["toylab", "--spec", str(spec_path), "--strategies", "mse",
                    "--seed", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert f"({rows}, {cols})" in lines[0] and "3x3" in lines[0]
        assert "Var_L" in lines[0]

    def test_spec_prototypes_too_large_to_square_exit_2(self, tmp_path, capsys):
        doc = {
            "conditions": [{"prototypes": [[[1e300] * 4] * 4, [[-1e300] * 4] * 4],
                            "weights": [0.5, 0.5]}],
            "noise": 0.05,
            "samples_per_condition": 20,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert run(["toylab", "--spec", str(spec_path), "--strategies",
                    "mse,flow", "--seed", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: ")
        assert "prototypes" in lines[0] and "1e150" in lines[0]

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_spec_non_finite_noise_exits_2(self, tmp_path, capsys, noise):
        doc = {
            "conditions": [{"prototypes": [[[0.0] * 3] * 3], "weights": [1.0]}],
            "noise": noise,
            "samples_per_condition": 20,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert run(["toylab", "--spec", str(spec_path), "--strategies", "mse",
                    "--seed", "2"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "noise" in lines[0] and "finite" in lines[0]

    def test_spec_without_noise_exits_2(self, tmp_path, capsys):
        doc = {
            "conditions": [
                {"prototypes": [[[-1.0]], [[1.0]]], "weights": [0.5, 0.5]}
            ],
            "samples_per_condition": 80,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert run(["toylab", "--spec", str(spec_path), "--strategies", "mse",
                    "--seed", "2"]) == 2
        err = capsys.readouterr().err
        assert "'noise'" in err and "internal error" not in err

    @pytest.mark.parametrize("key,value", [
        ("noise", "x"),
        ("samples_per_condition", "5"),
        ("weights", ["a"]),
    ])
    def test_spec_value_of_wrong_type_exits_2(self, tmp_path, capsys, key,
                                              value):
        doc = {
            "conditions": [{"prototypes": [[[1.0]]], "weights": [1.0]}],
            "noise": 0.05,
            "samples_per_condition": 5,
        }
        if key == "weights":
            doc["conditions"][0]["weights"] = value
        else:
            doc[key] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert run(["toylab", "--spec", str(spec_path), "--strategies", "mse",
                    "--seed", "2"]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and "internal error" not in err

    @pytest.mark.parametrize("prototype", [[[1.0], [2.0, 3.0]], [["a"]]])
    def test_spec_prototype_not_a_grid_exits_2(self, tmp_path, capsys,
                                               prototype):
        doc = {
            "conditions": [{"prototypes": [prototype], "weights": [1.0]}],
            "noise": 0.05,
            "samples_per_condition": 5,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert run(["toylab", "--spec", str(spec_path), "--strategies", "mse",
                    "--seed", "2"]) == 2
        err = capsys.readouterr().err
        assert "spec condition 0" in err and "'prototypes'" in err
        assert "internal error" not in err


class TestCmdFlow:
    def build_corpus(self, tmp_path, samples=30):
        assert run(["make-corpus", str(tmp_path / "corpus"),
                    "--samples", str(samples), "--seed", "4",
                    "--out", str(tmp_path / "mk.json")]) == 0
        return tmp_path / "corpus" / "manifest.json"

    def test_train_sample_nll_cycle(self, tmp_path, capsys):
        manifest = self.build_corpus(tmp_path)
        ckpt = tmp_path / "model.flw"
        out = tmp_path / "train.json"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "60", "--seed", "5",
                    "--out", str(out)]) == 0
        train_report = json.loads(out.read_text())
        final_nll = train_report["results"]["final_nll"]
        assert np.isfinite(final_nll)
        assert (tmp_path / "model.flw.curve.csv").exists()

        nll_out = tmp_path / "nll.json"
        assert run(["flow", "nll", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--out", str(nll_out)]) == 0
        scored = json.loads(nll_out.read_text())["results"]["nll"]
        assert scored == pytest.approx(final_nll, abs=1e-6)

        mel_a = tmp_path / "s1.mel"
        mel_b = tmp_path / "s2.mel"
        for mel in (mel_a, mel_b):
            assert run(["flow", "sample", "--ckpt", str(ckpt),
                        "--condition", "1", "--frames", "8", "--seed", "6",
                        "--out-mel", str(mel),
                        "--out", str(tmp_path / "s.json")]) == 0
        assert mel_a.read_bytes() == mel_b.read_bytes()

    def test_zero_width_coupling_net_cycle(self, tmp_path):
        manifest = self.build_corpus(tmp_path, samples=8)
        ckpt = tmp_path / "model.flw"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "20", "--hidden", "0",
                    "--seed", "5", "--out", str(tmp_path / "train.json")]) == 0
        assert run(["flow", "sample", "--ckpt", str(ckpt), "--seed", "6",
                    "--out-mel", str(tmp_path / "s.mel"),
                    "--out", str(tmp_path / "s.json")]) == 0
        assert read_mel(tmp_path / "s.mel").values.shape == (8, 8)
        assert run(["flow", "nll", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--out", str(tmp_path / "n.json")]) == 0

    def test_train_writes_the_curve_csv(self, tmp_path):
        manifest = self.build_corpus(tmp_path, samples=8)
        ckpt = tmp_path / "model.flw"
        out = tmp_path / "train.json"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "250", "--seed", "5",
                    "--out", str(out)]) == 0
        final_nll = json.loads(out.read_text())["results"]["final_nll"]
        lines = (tmp_path / "model.flw.curve.csv").read_text().splitlines()
        assert lines[0] == "step,nll"
        rows = [line.split(",") for line in lines[1:]]
        # step 0, every 100 steps and the last step; NLLs by repr
        assert [step for step, _ in rows] == ["0", "100", "200", "250"]
        assert all(repr(float(v)) == v and np.isfinite(float(v)) for _, v in rows)
        assert rows[-1][1] == repr(final_nll)

    def test_channel_mismatch_exits_2(self, tmp_path, capsys):
        manifest = self.build_corpus(tmp_path)
        ckpt = tmp_path / "model.flw"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "30", "--seed", "5",
                    "--out", str(tmp_path / "t.json")]) == 0
        other_dir = tmp_path / "other"
        other_dir.mkdir()
        rng = np.random.default_rng(0)
        entries = []
        for i in range(2):
            mel = other_dir / f"m{i}.mel"
            write_mel(Spectrogram(rng.normal(size=(8, 6))), mel)
            entries.append({"mel": mel.name, "condition": 0, "mode": 0})
        bad_manifest = other_dir / "manifest.json"
        bad_manifest.write_text(json.dumps({"samples": entries}))
        capsys.readouterr()
        assert run(["flow", "nll", "--manifest", str(bad_manifest),
                    "--ckpt", str(ckpt)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, lines
        assert "6 channels" in lines[0] and "expects 8" in lines[0]

    def test_nll_of_a_manifest_holding_some_conditions(self, tmp_path, capsys):
        manifest = self.build_corpus(tmp_path, samples=6)
        ckpt = tmp_path / "model.flw"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "20", "--seed", "5",
                    "--out", str(tmp_path / "t.json")]) == 0
        model = flow.load_model(ckpt)
        assert model.cond_dim == 4
        entries = [e for e in json.loads(manifest.read_text())["samples"]
                   if e["condition"] < 3]
        subset = manifest.parent / "subset.json"
        subset.write_text(json.dumps({"samples": entries}))
        assert run(["flow", "nll", "--manifest", str(subset),
                    "--ckpt", str(ckpt), "--out", str(tmp_path / "n.json")]) == 0
        scored = json.loads((tmp_path / "n.json").read_text())["results"]["nll"]
        targets = np.stack([read_mel(manifest.parent / e["mel"]).values
                            for e in entries])
        conds = np.zeros(targets.shape[:2] + (4,))
        conds[np.arange(len(entries)), :, [e["condition"] for e in entries]] = 1.0
        assert scored == flow.nll(model, flow.ConditionedBatch(targets, conds))

        entries[1]["condition"] = 4
        subset.write_text(json.dumps({"samples": entries}))
        assert run(["flow", "nll", "--manifest", str(subset),
                    "--ckpt", str(ckpt)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: manifest sample 1: condition 4 is out "
                                "of the model's range [0, 4)\n")

    def test_condition_out_of_range_exits_2(self, tmp_path):
        manifest = self.build_corpus(tmp_path)
        ckpt = tmp_path / "model.flw"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "30", "--seed", "5",
                    "--out", str(tmp_path / "t.json")]) == 0
        assert run(["flow", "sample", "--ckpt", str(ckpt),
                    "--condition", "11", "--frames", "8",
                    "--out-mel", str(tmp_path / "x.mel")]) == 2

    def test_manifest_entry_without_condition_exits_2(self, tmp_path, capsys):
        manifest = self.build_corpus(tmp_path, samples=4)
        doc = json.loads(manifest.read_text())
        del doc["samples"][2]["condition"]
        manifest.write_text(json.dumps(doc))
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(tmp_path / "m.flw"), "--steps", "2"]) == 2
        err = capsys.readouterr().err
        assert "manifest sample 2" in err and "'condition'" in err
        assert not (tmp_path / "m.flw").exists()

    def test_manifest_without_samples_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "m.flw"
        assert run(["flow", "train", "--manifest",
                    str(self.build_corpus(tmp_path, samples=4)), "--ckpt",
                    str(ckpt), "--steps", "2", "--out", str(tmp_path / "t.json")]) == 0
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"samples": []}))
        capsys.readouterr()
        for action, model in (("train", tmp_path / "new.flw"), ("nll", ckpt)):
            assert run(["flow", action, "--manifest", str(empty), "--ckpt",
                        str(model), "--out", str(tmp_path / f"{action}.json")]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1, lines
            assert "'samples' must be a non-empty list, got []" in lines[0]
            assert not (tmp_path / f"{action}.json").exists()
        assert not list(tmp_path.glob("new.flw*"))

    def test_sample_requires_out_mel(self, tmp_path):
        assert run(["flow", "sample", "--ckpt", str(tmp_path / "x.flw")]) == 2

    @pytest.mark.parametrize("condition", ["x", -1])
    def test_manifest_condition_not_a_count_exits_2(self, tmp_path, capsys,
                                                    condition):
        manifest = self.build_corpus(tmp_path, samples=4)
        doc = json.loads(manifest.read_text())
        doc["samples"][2]["condition"] = condition
        manifest.write_text(json.dumps(doc))
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(tmp_path / "m.flw"), "--steps", "2"]) == 2
        err = capsys.readouterr().err
        assert "manifest sample 2" in err and "'condition'" in err

    def test_manifest_mel_not_a_string_exits_2(self, tmp_path, capsys):
        manifest = self.build_corpus(tmp_path, samples=4)
        doc = json.loads(manifest.read_text())
        doc["samples"][1]["mel"] = 5
        manifest.write_text(json.dumps(doc))
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(tmp_path / "m.flw"), "--steps", "2"]) == 2
        err = capsys.readouterr().err
        assert "manifest sample 1" in err and "'mel'" in err
        assert "internal error" not in err

    def test_nll_ignores_the_seed_variable(self, tmp_path, capsys, monkeypatch):
        manifest = self.build_corpus(tmp_path, samples=4)
        ckpt = tmp_path / "m.flw"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "2", "--seed", "1"]) == 0
        capsys.readouterr()
        argv = ["flow", "nll", "--manifest", str(manifest), "--ckpt", str(ckpt)]
        assert run(argv) == 0
        without = capsys.readouterr().out
        monkeypatch.setenv("OVERSMOOTH_SEED", "abc")
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out == without

    def test_size_too_large_for_memory_exits_2(self, tmp_path, capsys):
        manifest = self.build_corpus(tmp_path, samples=4)
        ckpt, report = tmp_path / "m.flw", tmp_path / "t.json"
        capsys.readouterr()
        # about 2**58 bytes of parameters: more than any 64-bit host maps,
        # so the allocation is refused at once
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "2", "--flow-steps",
                    "100000000000000", "--out", str(report)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, lines
        assert lines[0].startswith("error: Unable to allocate")
        assert not ckpt.exists() and not report.exists()
        assert not (tmp_path / "m.flw.curve.csv").exists()

    @pytest.mark.parametrize("action", ["nll", "sample"])
    @pytest.mark.parametrize("damage", ["nan", "inf", "zero steps",
                                        "frames without grid word"])
    def test_unusable_checkpoint_exits_2(self, tmp_path, capsys, action,
                                         damage):
        manifest = self.build_corpus(tmp_path, samples=4)
        ckpt = tmp_path / "m.flw"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "2", "--seed", "1"]) == 0
        data = bytearray(ckpt.read_bytes())
        if damage == "zero steps":
            data[4:8] = bytes(4)
        elif damage == "frames without grid word":  # header words 5 and 6
            data[24:32] = (0).to_bytes(4, "little") + (5).to_bytes(4, "little")
        else:
            data[-4:] = np.float32(damage).tobytes()
        ckpt.write_bytes(bytes(data))
        capsys.readouterr()
        args = {"nll": ["--manifest", str(manifest)],
                "sample": ["--out-mel", str(tmp_path / "x.mel")]}[action]
        assert run(["flow", action, "--ckpt", str(ckpt)] + args) == 2
        captured = capsys.readouterr()
        assert str(ckpt) in captured.err and "internal error" not in captured.err
        assert captured.out == "" and not (tmp_path / "x.mel").exists()

    @pytest.mark.parametrize("action", ["nll", "sample"])
    def test_zero_actnorm_scale_exits_2(self, tmp_path, capsys, action):
        manifest = self.build_corpus(tmp_path, samples=4)
        ckpt = tmp_path / "m.flw"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "2", "--seed", "1"]) == 0
        data = bytearray(ckpt.read_bytes())
        data[4 + 4 * 7 : 4 + 4 * 8] = bytes(4)  # step 0's first actnorm scale
        ckpt.write_bytes(bytes(data))
        capsys.readouterr()
        args = {"nll": ["--manifest", str(manifest)],
                "sample": ["--out-mel", str(tmp_path / "x.mel")]}[action]
        report = tmp_path / "r.json"
        assert run(["flow", action, "--ckpt", str(ckpt), "--out", str(report)]
                   + args) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, lines
        assert lines[0].startswith("error: actnorm scale of step 0")
        assert not report.exists() and not (tmp_path / "x.mel").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--flow-steps", "0"),
        ("--steps", "-1"),
        ("--step-size", "-1"),
        ("--hidden", "-1"),
    ])
    def test_bad_train_number_exits_2(self, tmp_path, capsys, flag, value):
        manifest = self.build_corpus(tmp_path, samples=4)
        ckpt = tmp_path / "m.flw"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "2", flag, value]) == 2
        assert flag in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("value,why", [("inf", "finite"), ("-inf", "positive"),
                                           ("nan", "positive")])
    def test_non_finite_step_size_exits_2_before_any_work(self, tmp_path, capsys,
                                                          value, why):
        # The manifest does not exist: the step size is rejected before it is read.
        ckpt = tmp_path / "m.flw"
        assert run(["flow", "train", "--manifest", str(tmp_path / "none.json"),
                    "--ckpt", str(ckpt), f"--step-size={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --step-size must be {why}, got {value}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value", [
        ("--condition", "-1"),
        ("--frames", "-1"),
    ])
    def test_bad_sample_number_exits_2(self, tmp_path, capsys, flag, value):
        manifest = self.build_corpus(tmp_path, samples=4)
        ckpt = tmp_path / "m.flw"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "2", "--seed", "1"]) == 0
        capsys.readouterr()
        assert run(["flow", "sample", "--ckpt", str(ckpt), flag, value,
                    "--out-mel", str(tmp_path / "x.mel")]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x.mel").exists()

    @pytest.mark.parametrize("temperature,named", [
        ("nan", "temperature"),
        ("inf", "temperature"),
        ("1e308", "temperature"),  # finite, but its draws overflow
        ("1e200", "finite in float32"),  # its grid overflows the MEL1 file
    ])
    def test_unusable_temperature_exits_2(self, tmp_path, capsys, temperature,
                                          named):
        manifest = self.build_corpus(tmp_path, samples=4)
        ckpt = tmp_path / "m.flw"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "2", "--seed", "1"]) == 0
        capsys.readouterr()
        assert run(["flow", "sample", "--ckpt", str(ckpt), "--temperature",
                    temperature, "--out-mel", str(tmp_path / "x.mel")]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, lines
        assert lines[0].startswith("error: ") and named in lines[0]
        assert not (tmp_path / "x.mel").exists()

    @pytest.mark.parametrize("step_size", ["1e9", "1e300"])
    def test_diverged_training_saves_nothing(self, tmp_path, capsys,
                                             step_size):
        manifest = self.build_corpus(tmp_path, samples=4)
        ckpt = tmp_path / "m.flw"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "3", "--seed", "1",
                    "--step-size", step_size]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*NLL[^\n]*\n", err), err
        assert not ckpt.exists()
        assert not (tmp_path / "m.flw.curve.csv").exists()


class TestDeterminismAcrossCommands:
    def test_mel_and_metrics_reports_stable(self, tmp_path):
        wav = tmp_path / "a.wav"
        make_wav(wav)
        mel = tmp_path / "a.mel"
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(["mel", str(wav), str(mel), "--out", str(r1)]) == 0
        mel_bytes_1 = mel.read_bytes()
        assert run(["mel", str(wav), str(mel), "--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        assert mel.read_bytes() == mel_bytes_1

        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert run(["metrics", str(mel), "--out", str(m1)]) == 0
        assert run(["metrics", str(mel), "--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_reports_have_sorted_keys(self, tmp_path, capsys):
        mel = tmp_path / "a.mel"
        write_mel(Spectrogram(np.random.default_rng(5).normal(size=(10, 10))),
                  mel)
        assert run(["metrics", str(mel)]) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  indent=2) + "\n"


@pytest.mark.parametrize("out,named", [("missing/r.json", "does not exist"),
                                       (".", "is a directory")])
def test_unwritable_report_exits_2_before_any_work(tmp_path, capsys, out,
                                                   named):
    assert run(["make-corpus", str(tmp_path / "corpus"), "--samples", "2",
                "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, lines
    assert lines[0].startswith("error: --out ") and named in lines[0]
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_make_corpus_without_samples_exits_2_naming_the_flag(tmp_path, capsys,
                                                             samples):
    out_dir = tmp_path / "corpus"
    assert run(["make-corpus", str(out_dir), "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --samples must be at least 1, got {samples}\n"
    assert not out_dir.exists()


@pytest.fixture
def cli_inputs(tmp_path, capsys):
    """One valid input of each kind under ``tmp_path/in``, with a file
    ``F`` and a directory ``D`` beside it; maps names to path strings."""
    base = tmp_path / "in"
    base.mkdir()
    make_wav(base / "a.wav")
    write_mel(Spectrogram(np.random.default_rng(0).normal(size=(12, 10))),
              base / "a.mel")
    assert run(["make-corpus", str(base / "corpus"), "--samples", "2"]) == 0
    ckpt = base / "m.flw"
    flow.save_model(flow.FlowModel.random(SeededRng(0), 8, 4, n_steps=1), ckpt)
    (tmp_path / "F").write_text("")
    (tmp_path / "D").mkdir()
    capsys.readouterr()
    return {"wav": base / "a.wav", "mel": base / "a.mel", "ckpt": ckpt,
            "dist": build_dist_fixture(base),
            "corpus": base / "corpus" / "manifest.json",
            "F": tmp_path / "F", "D": tmp_path / "D"}


def tree(path):
    return sorted(p.relative_to(path) for p in path.rglob("*"))


OUTPUTS = [  # (name, its kind, the command with "{}" for the output path)
    ("--out", "file", ["metrics", "{mel}", "--out", "{}"]),
    ("out_mel", "file", ["mel", "{wav}", "{}"]),
    ("--out-mel", "file", ["flow", "sample", "--ckpt", "{ckpt}",
                           "--out-mel", "{}"]),
    ("--ckpt", "file", ["flow", "train", "--manifest", "{corpus}",
                        "--ckpt", "{}"]),
    ("--svg", "prefix", ["metrics", "{mel}", "{mel}", "--svg", "{}"]),
    ("--out-prefix", "prefix", ["dist", "--manifest", "{dist}", "--ph", "R",
                                "--bins", "3", "--out-prefix", "{}"]),
    ("--out-prefix", "prefix", ["toylab", "--strategies", "mse",
                                "--out-prefix", "{}"]),
    ("out_dir", "dir", ["make-corpus", "{}", "--samples", "2"]),
]
CASES = {  # what an output path of each kind must not be, and an example
    "file": {"in a missing directory": "missing/x", "under a file": "F/x",
             "a directory": "D"},
    "prefix": {"in a missing directory": "missing/x", "under a file": "F/x"},
    "dir": {"under a file": "F/x", "a file": "F"},
}


@pytest.mark.parametrize("name,argv,case,where", [
    pytest.param(name, argv, case, where, id=f"{argv[0]} {name} {case}")
    for name, kind, argv in OUTPUTS for case, where in CASES[kind].items()])
def test_unwritable_output_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                   cli_inputs, name, argv,
                                                   case, where):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(toylab, "run_experiment", no_work)
    monkeypatch.setattr(flow, "train_flow", no_work)
    path = str(tmp_path / where)
    before = tree(tmp_path)
    assert run([a.format(path, **cli_inputs) for a in argv]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, lines
    assert lines[0].startswith(f"error: {name} {path}")
    assert tree(tmp_path) == before


DERIVED = [  # (the command with "{}" for the output flag, the derived name)
    (["metrics", "{mel}", "{mel}", "--svg", "{}"], "{}_ssim.svg"),
    (["toylab", "--strategies", "mse", "--generate", "2", "--heldout", "2",
      "--out-prefix", "{}"], "{}_var_l.svg"),
    (["dist", "--manifest", "{dist}", "--ph", "R", "--bins", "3",
      "--out-prefix", "{}"], "{}_marginal_R_3.svg"),
    (["flow", "train", "--manifest", "{corpus}", "--ckpt", "{}", "--steps",
      "2"], "{}.curve.csv"),
]


@pytest.mark.parametrize("argv,derived", [
    pytest.param(argv, derived, id=argv[0]) for argv, derived in DERIVED])
def test_derived_output_name_that_is_a_directory_writes_nothing(
        tmp_path, capsys, cli_inputs, argv, derived):
    # Each command writes several files under one output flag; the derived
    # name that is a directory is written last, or after the checkpoint.
    prefix = str(tmp_path / "p")
    Path(derived.format(prefix)).mkdir()
    before = tree(tmp_path)
    argv = [a.format(prefix, **cli_inputs) for a in argv]
    assert run(argv + ["--out", str(tmp_path / "r.json")]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, lines
    assert lines[0] == f"error: output {derived.format(prefix)} is a directory"
    assert tree(tmp_path) == before


@pytest.mark.parametrize("argv,named", [
    pytest.param(argv, named, id=" ".join(argv)) for argv, named in [
        (["metrics", "{D}"], "{D}"),
        (["metrics", "{F}/x.mel"], "{F}/x.mel"),
        (["mel", "{D}", "{F}.mel"], "{D}"),
        (["dist", "--manifest", "{D}", "--ph", "R"], "{D}"),
        (["flow", "sample", "--ckpt", "{D}", "--out-mel", "{F}.mel"], "{D}"),
    ]])
def test_unreadable_input_exits_2(capsys, cli_inputs, argv, named):
    assert run([a.format(**cli_inputs) for a in argv]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, lines
    assert lines[0].startswith("error: ") and named.format(**cli_inputs) in lines[0]


@pytest.mark.parametrize("argv,foreign", [
    (["flow", "train", "--manifest", "{corpus}", "--ckpt", "{new}.flw",
      "--steps", "2"], ["--temperature", "9"]),
    (["flow", "sample", "--ckpt", "{trained}", "--out-mel", "{new}.mel"],
     ["--steps", "9"]),
    (["flow", "nll", "--ckpt", "{trained}", "--manifest", "{corpus}"],
     ["--hidden", "3"]),
], ids=["train", "sample", "nll"])
def test_flow_flag_the_action_does_not_take_exits_2(tmp_path, capsys, cli_inputs,
                                                    argv, foreign):
    trained = tmp_path / "in" / "trained.flw"
    assert run(["flow", "train", "--manifest", str(cli_inputs["corpus"]), "--ckpt",
                str(trained), "--steps", "2", "--out", str(trained) + ".json"]) == 0
    argv = [a.format(new=tmp_path / "new", trained=trained, **cli_inputs)
            for a in argv] + ["--out", str(tmp_path / "r.json")]
    before = tree(tmp_path)
    assert run(argv + foreign) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, lines
    assert lines[0] == f"error: flow {argv[1]} does not take {foreign[0]}"
    assert tree(tmp_path) == before
    assert run(argv) == 0  # the same command without the flag runs


TYPICAL = {  # one argv each command parses
    "mel": ["mel", "a.wav", "a.mel", "--bins", "40", "--floor", "1e-4"],
    "metrics": ["metrics", "a.mel", "b.mel", "--svg", "p", "--window", "7"],
    "dist": ["dist", "--manifest", "m.json", "--ph", "R", "--bins", "-1,3",
             "--joint", "freq:1,2"],
    "toylab": ["toylab", "--strategies", "mse,ar", "--seed", "3", "--generate", "9"],
    "flow": ["flow", "sample", "--ckpt", "m.flw", "--out-mel", "x.mel",
             "--temperature", "0.5"],
    "make-corpus": ["make-corpus", "out", "--samples", "4", "--out", "r.json"],
}


def subparsers(parser):
    return next(a for a in parser._actions if a.dest == "command").choices


@pytest.mark.parametrize("command", list(TYPICAL))
def test_one_command_parser_matches_the_full_one(command):
    full, one = cli.build_parser(), cli.build_parser(command)
    assert list(subparsers(full)) == list(TYPICAL)
    sub = subparsers(full)[command]
    assert one.prog == sub.prog == f"oversmooth {command}"
    assert one.format_usage() == sub.format_usage()
    assert one.format_help() == sub.format_help()
    argv = TYPICAL[command]
    assert vars(one.parse_args(argv[1:])) == vars(full.parse_args(argv))


@pytest.mark.parametrize("command", [None, "flow"])
@pytest.mark.parametrize("columns", ["40", "200"])
def test_help_width_is_argparse_own(monkeypatch, command, columns):
    monkeypatch.setenv("COLUMNS", columns)
    ours = cli.build_parser(command)._get_formatter()
    default = argparse.HelpFormatter(ours._prog)
    assert (ours._width, ours._max_help_position) == (
        default._width, default._max_help_position)


ARGVS = [  # per command: a typical success with its report in a file, then
    # -h, a bad number, a missing positional or flag, an unknown flag,
    # --version after the command, an abbreviated long flag and "--"
    ["mel", "{wav}", "{new}.mel", "--bin", "40", "--out", "{new}.json"],
    ["mel", "-h"], ["mel", "{wav}", "{new}.mel", "--hop", "x"], ["mel", "{wav}"],
    ["mel", "{wav}", "{new}.mel", "--bogus"], ["mel", "{wav}", "{new}.mel", "--version"],
    ["mel", "{wav}", "{new}.mel", "--fr", "1.5"], ["mel", "--", "{wav}", "{new}.mel", "--hop"],
    ["metrics", "{mel}", "{mel}", "--win", "7", "--out", "{new}.json"],
    ["metrics", "--help"], ["metrics", "{mel}", "--window", "x"], ["metrics"],
    ["metrics", "{mel}", "--bogus", "1"], ["metrics", "{mel}", "--version"],
    ["metrics", "{mel}", "--wi", "7.0"], ["metrics", "--", "{mel}", "{mel}", "-x"],
    ["dist", "--manifest", "{dist}", "--ph", "R", "--bins", "3", "--out-pre", "{new}",
     "--out", "{new}.json"],
    ["dist", "-h"], ["dist", "--manifest", "{dist}", "--ph", "R", "--bandwidth", "x"],
    ["dist", "--ph", "R"], ["dist", "--manifest", "{dist}", "--ph", "R", "--bogus"],
    ["dist", "--manifest", "{dist}", "--ph", "R", "--version"],
    ["dist", "--man", "{dist}", "--ph", "R", "--band", "y"],
    ["dist", "--manifest", "{dist}", "--ph", "R", "--", "x"],
    ["toylab", "--strategies", "mse", "--gen", "2", "--heldout", "2", "--out", "{new}.json"],
    ["toylab", "-h"], ["toylab", "--seed", "x"], ["toylab", "--spec"],
    ["toylab", "--bogus"], ["toylab", "--seed", "1", "--version"],
    ["toylab", "--se", "1.5"], ["toylab", "--", "mse"],
    ["flow", "train", "--manifest", "{corpus}", "--ckpt", "{new}.flw", "--steps", "2",
     "--hid", "4", "--out", "{new}.json"],
    ["flow", "-h"], ["flow", "sample", "--frames", "x"], ["flow"], ["flow", "nll", "--bogus"],
    ["flow", "nll", "--version"], ["flow", "train", "--ste", "1"],
    ["flow", "--", "nll", "--ckpt"],
    ["make-corpus", "{new}", "--sam", "2", "--out", "{new}.json"],
    ["make-corpus", "-h"], ["make-corpus", "{new}", "--samples", "x"], ["make-corpus"],
    ["make-corpus", "{new}", "--bogus"], ["make-corpus", "{new}", "--version"],
    ["make-corpus", "{new}", "--se", "x"], ["make-corpus", "--", "{new}", "--samples"],
    [], ["-h"], ["--version"], ["mels"], ["--", "mel"],  # the full parser's own
]


def outcome(capsys, call, argv):
    """Exit code, stdout and stderr of ``call(argv)``; a namespace is exit 0."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return (0 if isinstance(code, argparse.Namespace) else code,
            captured.out, captured.err)


@pytest.mark.parametrize("argv", [pytest.param(a, id=" ".join(a) or "no argv")
                                  for a in ARGVS])
def test_main_parses_as_the_full_parser(tmp_path, capsys, cli_inputs, argv):
    argv = [a.format(new=tmp_path / "new", **cli_inputs) for a in argv]
    assert (outcome(capsys, cli.main, argv)
            == outcome(capsys, cli.build_parser().parse_args, argv))


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as info:
        run(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out == cli.build_parser().format_help()
    for command in TYPICAL:
        assert re.search(rf"^    {command} ", out, re.MULTILINE), command


def test_unknown_command_lists_every_choice(capsys):
    with pytest.raises(SystemExit) as info:
        run(["mels", "a.wav"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(cli.build_parser().format_usage())
    assert "argument command: invalid choice: 'mels'" in err
    assert re.findall(r"[\w-]+", err.split("choose from")[1]) == list(TYPICAL)


def test_unknown_flag_after_a_command_prints_the_full_usage(capsys):
    with pytest.raises(SystemExit) as info:
        run(["mel", "a.wav", "b.mel", "--bogus"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err == (cli.build_parser().format_usage()
                   + "oversmooth: error: unrecognized arguments: --bogus\n")


def test_import_loads_no_network_stack():
    # Run fresh, so that only the modules this import adds are counted and a
    # site hook that preloads any of them does not count against it.
    code = ("import json, sys; before = set(sys.modules); import oversmooth.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = set(json.loads(out))
    assert "oversmooth.cli" in added
    assert not added & {"http.client", "ssl", "email.parser", "urllib.request",
                        "socket"}
