"""Tests of the benchmark itself: tiny-size smoke runs of every workload, the
self-time arithmetic, metric names, and failure counting.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import os
import re
import types

import numpy as np
import pytest

import run

WSML = run.import_package()

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_TRAIN = workloads.TrainShape(n=200, dim=5, classes=4, epochs=3, batch=16, hidden=8)
TINY = {
    "train-b16": TINY_TRAIN,
    "corpus-pipeline": workloads.CorpusShape(n=300, dim=5, classes=4, epochs=3, batch=64, groups=2),
    "sweep-2w": workloads.SweepShape(train=TINY_TRAIN, values=(0.1, 0.5), workers=2),
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, str(tmp_path / "files"), TINY[name])


def emitted(result):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.emit(result) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload(name, trace, tmp_path):
    result = run.run_workload(WSML, tiny(name, tmp_path), 0, trace, tmp_path)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    line = emitted(result)
    kind = "per_layer" if trace else "end_to_end"
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.declared_units(kind))
    for name_, metric in line["metrics"].items():
        assert np.isfinite(metric["value"]), name_
        if not trace:
            assert metric["value"] > 0, name_
    if trace:
        assert (tmp_path / "spans.npz").is_file()


def test_traced_pipeline_reaches_every_module(tmp_path):
    metrics = run.run_workload(WSML, tiny("corpus-pipeline", tmp_path), 0, 1)["metrics"]
    for module in spans.MODULES:
        assert metrics[f"{module}.self_s"] > 0, module


def test_tracer_restores_the_modules():
    before = (WSML.model.forward, WSML.trainer.MemorizationTracker.update, WSML.dataset.PartialDataset.take)
    tracer = spans.Tracer()
    tracer.install(WSML)
    assert WSML.model.forward is not before[0]
    tracer.uninstall()
    assert (WSML.model.forward, WSML.trainer.MemorizationTracker.update,
            WSML.dataset.PartialDataset.take) == before


def test_self_time_of_nested_and_overlapping_spans():
    #    0: [0, 10]  root
    #    1: [1, 4]   child of 0, its own child 2: [2, 3]
    #    3: [3, 6]   child of 0, overlapping 1
    #    4: [9, 12]  child of 0, running past its parent's end
    #    5: [20, 21] a second root
    starts = [0.0, 1.0, 2.0, 3.0, 9.0, 20.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0, 21.0]
    parents = [-1, 0, 1, 0, 0, -1]
    got = spans.self_times(starts, ends, parents)
    # root: 10 - union([1,4], [3,6], [9,10]) = 10 - 6
    assert got.tolist() == [4.0, 2.0, 1.0, 3.0, 3.0, 1.0]


def test_layer_metrics_weights_passes_and_ratios():
    tracer = spans.Tracer()
    # one set-up span, then two passes (ops 0 and 1) of the same work
    for op in (spans.SETUP_OP, 0, 1):
        base = 10.0 * (op + 1)
        root = len(tracer.names)
        for name, start, end, parent in (("trainer.run", 0, 4, -1), ("model.forward", 1, 2, root),
                                         ("trainer.MemorizationTracker.update", 2, 3, root)):
            tracer.names.append(name)
            tracer.starts.append(base + start)
            tracer.ends.append(base + end)
            tracer.parents.append(parent)
            tracer.ops.append(op)
    m = spans.layer_metrics(tracer, {0: 2, 1: 2}, layer_wall_s=8.0)
    # set-up once plus the mean of the two passes: twice each span
    assert m["model.forward.calls"] == 2.0
    assert m["trainer.run.self_s"] == 4.0
    assert m["trainer.self_s"] == 6.0
    assert m["model.share"] == 2.0 / 8.0
    assert m["schemes.bce_elementwise.calls_per_batch"] == 0.0


def test_metric_names_are_well_formed():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in bench[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    emitted_names = set(spans.layer_metrics(spans.Tracer(), {}, 1.0))
    emitted_names |= {"cli.sweep.dataset_loads", "cli.sweep.parallel_efficiency", "trace.overhead"}
    assert emitted_names == {m["name"] for m in bench["per_layer"]}


def test_tampered_state_change_counts_as_failed(tmp_path):
    w = tiny("train-b16", tmp_path)
    honest = w.run

    def tampered(key, step):
        report = honest(key, step)
        if key == "naive-an":
            r, c = np.argwhere(report.final_states == WSML.LabelState.UNKNOWN)[0]
            report.final_states[r, c] = WSML.LabelState.OBS_POS
        return report

    w.run = tampered
    result = run.run_workload(WSML, w, 0, 0)
    # naive-an runs twice in the minimum loop of one pass plus one op
    assert result["failed"] == 2 and not result["correct"]
    assert result["error_rate"] == 2 / result["attempted"]
    assert all("UNKNOWN -> CORRECTED_POS" in p for p in result["problems"])
    assert emitted(result)["failed"] == 2


def _shift_eval_map(path):
    with open(path, encoding="utf-8") as fh:
        out = json.load(fh)
    out["map"] += 1e-9
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


@pytest.mark.parametrize("tamper, message", [(_shift_eval_map, "eval mAP"),
                                             (os.remove, "checking the output raised")])
def test_tampered_eval_output_counts_as_failed(tamper, message, tmp_path):
    w = tiny("corpus-pipeline", tmp_path)
    honest = w.run

    def tampered(key, step):
        codes = honest(key, step)
        tamper(w.eval_test)
        return codes

    w.run = tampered
    result = run.run_workload(WSML, w, 0, 0)
    assert result["failed"] == result["attempted"] == 2
    assert all(message in p for p in result["problems"])


def test_nondeterministic_repeat_counts_as_failed(tmp_path):
    w = tiny("sweep-2w", tmp_path)
    honest = w.run
    calls = []

    def drifting(key, step, workers=None):
        code, workers = honest(key, step, workers)
        calls.append(key)
        if len(calls) > 1:
            with open(w.csv_path(workers), "a", encoding="utf-8") as fh:
                fh.write("0.9,1,50.0,1,50.0\n")
        return code, workers

    w.run = drifting
    result = run.run_workload(WSML, w, 0, 0)
    assert result["failed"] == 1
    assert any("differs from the first run" in p for p in result["problems"])


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(40))) == (29, 75.0, 10)
    value, pct, _ = run.tail([3.0, 1.0, 2.0])
    assert (value, pct) == (2.0, 50.0)


def test_host_clock_scales_each_segment_by_the_kernel_at_its_ends(monkeypatch):
    nominal = reference.NOMINAL_S
    kernel = iter([nominal, nominal, 3 * nominal])
    ticks = iter([0.0, 1.0, 1.0, 3.0, 3.0])
    monkeypatch.setattr(reference, "seconds", lambda: next(kernel))
    monkeypatch.setattr(reference, "perf_counter", lambda: next(ticks))
    clock = reference.HostClock()
    clock.start()
    clock.step()  # 1 s at the nominal speed
    clock.step()  # 2 s while the host slowed to half the nominal speed
    assert clock.wall == 3.0
    assert clock.normalized == 2.0


def test_normalized_metrics_come_from_the_clock():
    runner = run.Runner(workload=None)
    out = workloads.Outcome("a", "", sample_epochs=100, runs=1, test_map=50.0)
    runner.ops = [("a", 2.0, False, out), ("a", 4.0, False, out)]
    # the same work; the host ran at half the nominal speed during the second op
    runner.normalized = {0: 2.0, 1: 2.0}
    runner.clock = types.SimpleNamespace(kernel_s=[reference.NOMINAL_S])
    metrics, notes = run.end_to_end(runner, [1.0])
    assert metrics["norm_wall_s"] == metrics["norm_op_s.p50"] == 2.0
    assert metrics["norm_train_samples_per_s"] == 50.0
    assert notes["raw_wall_s"] == 3.0


def test_the_clock_checks_the_host_at_every_pipeline_step(tmp_path):
    runner = run.Runner(tiny("corpus-pipeline", tmp_path))
    setups = run.measure(runner, 0)
    assert sorted(runner.normalized) == list(range(len(runner.ops)))
    # one kernel run at the start, one after each set-up repeat, and six per
    # pass: five between its steps and one after it
    assert len(runner.clock.kernel_s) == 1 + (len(setups) - 1) + 6 * len(runner.ops)
