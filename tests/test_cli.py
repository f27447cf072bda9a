import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import wav_bytes, write_alignment
from oversmooth import cli
from oversmooth.core import (
    Alignment,
    AlignmentEntry,
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
        assert "44100" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["mel", str(tmp_path / "none.wav"),
                    str(tmp_path / "x.mel")]) == 2


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

    def test_shape_mismatch_exits_2(self, tmp_path):
        a, b = tmp_path / "a.mel", tmp_path / "b.mel"
        write_mel(Spectrogram(np.zeros((8, 8))), a)
        write_mel(Spectrogram(np.zeros((8, 9))), b)
        assert run(["metrics", str(a), str(b)]) == 2

    def test_svg_outputs_valid_xml(self, tmp_path, capsys):
        a = tmp_path / "a.mel"
        rng = np.random.default_rng(2)
        write_mel(Spectrogram(rng.normal(size=(14, 14))), a)
        prefix = str(tmp_path / "fig")
        assert run(["metrics", str(a), str(a), "--svg", prefix]) == 0
        capsys.readouterr()
        for suffix in ("_laplacian.svg", "_ssim.svg"):
            text = (tmp_path / f"fig{suffix}").read_text()
            root = ET.fromstring(text)
            assert root.tag.endswith("svg")
            assert f"oversmooth {cli.__version__}" in text
            assert "frame" in text and "bin" in text


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


class TestCmdDist:
    def test_marginal_csv_and_dip(self, tmp_path, capsys):
        manifest = build_dist_fixture(tmp_path)
        prefix = str(tmp_path / "dist")
        assert run(["dist", "--manifest", str(manifest), "--ph", "R",
                    "--bin", "3", "--out-prefix", prefix]) == 0
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

    def test_absent_phoneme_exits_2(self, tmp_path):
        manifest = build_dist_fixture(tmp_path)
        assert run(["dist", "--manifest", str(manifest), "--ph", "QQ",
                    "--bin", "3"]) == 2

    def test_bin_out_of_range_exits_2(self, tmp_path):
        manifest = build_dist_fixture(tmp_path)
        assert run(["dist", "--manifest", str(manifest), "--ph", "R",
                    "--bin", "123"]) == 2

    def test_manifest_of_strings_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(["utt0.mel", "utt0.tsv"]))
        assert run(["dist", "--manifest", str(manifest), "--ph", "R",
                    "--bin", "3"]) == 2
        err = capsys.readouterr().err
        assert "manifest entry 0" in err and "utt0.mel" in err

    def test_manifest_path_not_a_string_exits_2(self, tmp_path, capsys):
        manifest = build_dist_fixture(tmp_path)
        doc = json.loads(manifest.read_text())
        doc[1]["mel"] = 5
        manifest.write_text(json.dumps(doc))
        assert run(["dist", "--manifest", str(manifest), "--ph", "R",
                    "--bin", "3"]) == 2
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

    def test_custom_spec_json(self, tmp_path, capsys):
        doc = {
            "conditions": [
                {"prototypes": [[[-1.0]], [[1.0]]], "weights": [0.5, 0.5]}
            ],
            "noise": 0.05,
            "samples_per_condition": 80,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert run(["toylab", "--spec", str(spec_path), "--strategies", "mse",
                    "--seed", "2", "--generate", "30", "--heldout", "30"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rows"]["mse"]["var_l"] is None

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

    def test_channel_mismatch_exits_2(self, tmp_path):
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
        assert run(["flow", "nll", "--manifest", str(bad_manifest),
                    "--ckpt", str(ckpt)]) == 2

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

    @pytest.mark.parametrize("action", ["nll", "sample"])
    @pytest.mark.parametrize("damage", ["nan", "inf", "zero steps"])
    def test_unusable_checkpoint_exits_2(self, tmp_path, capsys, action,
                                         damage):
        manifest = self.build_corpus(tmp_path, samples=4)
        ckpt = tmp_path / "m.flw"
        assert run(["flow", "train", "--manifest", str(manifest),
                    "--ckpt", str(ckpt), "--steps", "2", "--seed", "1"]) == 0
        data = bytearray(ckpt.read_bytes())
        if damage == "zero steps":
            data[4:8] = bytes(4)
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
