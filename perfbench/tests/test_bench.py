"""Tests of the benchmark itself.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests

The study test runs two traced rounds of one study seed (about a minute).
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import hostclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oversmooth import cli, density, toylab  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    tree = [
        ["density.kde1d", 0.0, 10.0, -1, 0],     # children cover 3 + 4
        ["density.dip_statistic", 1.0, 4.0, 0, 200],  # child covers 1
        ["density.dip_statistic", 2.0, 3.0, 1, 50],
        ["toylab.FlowStrategy", 5.0, 9.0, 0, 0],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    metrics = spans.layer_metrics(tree)
    assert metrics["density.kde1d.calls"] == 1
    assert metrics["density.kde1d.self_s"] == 3.0
    assert metrics["density.dip_statistic.calls"] == 2
    assert metrics["density.dip_statistic.self_s"] == 3.0
    assert metrics["density.dip_statistic.n_total"] == 250
    assert metrics["toylab.FlowStrategy.s"] == 4.0  # inclusive, not self
    assert metrics["flow.train_flow.calls"] == 0


def test_normalise_rescales_by_the_probes_of_the_call():
    probe = hostclock.Probe()
    ref = hostclock.REFERENCE_S
    # 20 probes at twice the reference time during [1, 2], 20 before it at
    # the reference time.
    probe.at = [0.5 + 0.025 * i for i in range(20)] + [
        1.0 + 0.05 * i for i in range(20)]
    probe.took = [ref] * 20 + [2 * ref] * 20
    probe.cost = [3 * t for t in probe.took]  # untimed warm run included
    assert probe.level(1.0, 2.0) == pytest.approx(2 * ref)
    assert probe.spent(1.0, 2.0) == pytest.approx(20 * 6 * ref)
    assert probe.normalise(1.0, 2.0) == pytest.approx((1.0 - 120 * ref) / 2)
    # A short call rests on the last MIN_PROBES probes before its end.
    assert probe.level(0.96, 0.97) == pytest.approx(ref)
    # The slowest tenth is dropped: one interrupted probe does not count.
    probe.took[-1] = 100 * ref
    assert probe.level(1.0, 2.0) == pytest.approx(2 * ref)


def test_probe_samples_while_installed_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.Probe() as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(probe.took) > 10
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _bindings():
    """Every attribute of every oversmooth namespace, plus strategy inits."""
    found = {(ns.__name__, attr): value for ns in spans._namespaces()
             for attr, value in vars(ns).items()}
    for name in spans.STRATEGIES:
        found[(name, "__init__")] = getattr(toylab, name).__dict__["__init__"]
    return found


def test_wrappers_cover_by_name_imports_and_are_removed(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert toylab.dip_statistic is density.dip_statistic
        assert toylab.dip_statistic is not before[("oversmooth.density",
                                                   "dip_statistic")]
        density.dip_statistic([0.0, 1.0, 2.0, 5.0])
    assert [s[0] for s in tracer.spans] == ["density.dip_statistic"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    # A later untraced run records nothing.
    assert cli.main(["make-corpus", str(tmp_path / "c"), "--samples", "2",
                     "--out", str(tmp_path / "mk.json")]) == 0
    assert len(tracer.spans) == 1


def test_wrappers_are_removed_when_the_block_raises():
    before = _bindings()
    try:
        with spans.installed(spans.Tracer()):
            raise KeyError("boom")
    except KeyError:
        pass
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_study_calls_repeat_and_match_the_code(tmp_path):
    study = workloads.Study(tmp_path, 3)
    study.setup()
    calls = []
    for _ in range(2):
        tracer = spans.Tracer()
        tally = workloads.Tally()
        with spans.installed(tracer):
            study.run_round(tally)
        study.check(tally)
        assert tally.attempted > 0 and tally.failed == 0
        calls.append({k: v for k, v in tracer.layer_metrics().items()
                      if k.endswith((".calls", "kept_ratio"))})
    assert calls[0] == calls[1]

    conditions, cells, n_generate = 4, 8 * 8, study.N_GENERATE
    rows = len(study.STRATEGIES) + 1  # plus the held-out "gt" row
    restarts, flow_steps, eval_every = 3, 450, 100
    expected = {
        # per-cell dips of every row, plus the fixture's differing cells
        "density.dip_statistic.calls": rows * conditions * cells + 32,
        # fit_lm: one gradient per step plus one final NLL per fit
        "probloss.lm_nll_grad.calls": conditions * (150 + 1)
        + conditions * 2 * (100 + 1) + (150 + 1),
        "flow.nll_and_grads.calls": restarts * flow_steps,
        "metrics.var_laplacian.calls": rows * conditions * n_generate,
        # curve points (step 0, every 100, final) plus held-out scoring
        "flow.log_likelihood.calls":
            restarts * (1 + flow_steps // eval_every + 1) + conditions,
        "flow.train_flow.calls": restarts,
        "flow.train_flow.kept_ratio": 1 / restarts,
    }
    assert {k: calls[0][k] for k in expected} == expected
    assert expected["density.dip_statistic.calls"] == 1824
    assert expected["probloss.lm_nll_grad.calls"] == 1563
    assert expected["flow.nll_and_grads.calls"] == 1350
    assert expected["metrics.var_laplacian.calls"] == 5600
    assert expected["flow.log_likelihood.calls"] == 22


def test_benchmark_json_names_what_the_runs_print():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.UNITS)
    assert [m["unit"] for m in doc["end_to_end"]] == list(run.UNITS.values())
    names = spans.layer_metric_names() + ["trace.overhead_s", "trace.spans"]
    assert [m["name"] for m in doc["per_layer"]] == names
    assert [m["unit"] for m in doc["per_layer"]] == [spans.unit_of(n)
                                                     for n in names]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(
        workloads.WORKLOADS)


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "train", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
