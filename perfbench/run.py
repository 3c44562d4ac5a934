#!/usr/bin/env python3
"""wsml benchmark: one workload, measured closed-loop from a single process.

    python3 perfbench/run.py --workload train-b16 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Each op starts when the previous one ends. With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it alternates untraced and
traced passes, checks that both give identical outputs, and reports the
per-layer metrics from the spans. Human-readable lines (machine facts, every
metric with its unit, the error rate) come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Spans and the full result are written under `.bench_work/`.

The timing metrics other than `setup_s` are in normalized seconds: each op's
wall time is scaled, step by step, by the time of a fixed reference kernel
run before, inside and after it (see `reference.py`), which takes the shared
host's speed drift out. The wall-clock figures are printed as `# raw_...`
lines.
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy loads, so that the sweep's
# worker processes do not oversubscribe the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import reference  # noqa: E402
from spans import SETUP_OP, Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7


def declared_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def import_package():
    """Import wsml from this checkout's src/, never from anywhere else."""
    if not (SRC / "wsml" / "__init__.py").is_file():
        raise ImportError(f"no wsml package under {SRC}")
    sys.path.insert(0, str(SRC))
    import wsml

    if Path(wsml.__file__).resolve().parent != SRC / "wsml":
        raise ImportError(f"imported wsml from {wsml.__file__}, not from {SRC}")
    return wsml


def machine_facts(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "seed": seed}


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the median when that would lie below it
    (a run with fewer than 20 ops)."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return statistics.median(xs), 50.0, n // 2
    return xs[n - 11], 100.0 * (n - 10) / n, 10


class Runner:
    """Runs one workload's ops, checks each and keeps the timings."""

    def __init__(self, workload, tracer=None, package=None):
        self.workload = workload
        self.tracer = tracer
        self.package = package
        self.ops = []  # (key, seconds, traced, outcome or None)
        self.clock = None  # times the untraced ops when set
        self.normalized = {}  # op index -> normalized seconds
        self.first = {}  # identity -> fingerprint of its first run
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, key, traced=False, **kwargs):
        """Time one op; check its output; returns its duration."""
        self.attempted += 1
        if traced:
            self.tracer.op = len(self.ops)
            self.tracer.install(self.package)
        outcome = None
        clock = None if traced else self.clock
        t0 = perf_counter()
        if clock is not None:
            clock.start()
        try:
            raw = self.workload.run(key, step=_no_step if clock is None else clock.step, **kwargs)
        except Exception:  # any failure of the program counts against the op
            raw = None
            problems = ["raised:\n" + traceback.format_exc()]
        finally:
            dt = perf_counter() - t0
            if clock is not None:
                clock.step()
                dt = clock.wall
                self.normalized[len(self.ops)] = clock.normalized
            if traced:
                self.tracer.uninstall()
        if raw is not None:
            try:
                outcome = self.workload.inspect(key, raw)
            except Exception:  # unreadable or malformed output files
                problems = ["checking the output raised:\n" + traceback.format_exc()]
            else:
                problems = list(outcome.problems)
                ref = self.first.setdefault(outcome.identity, outcome.fingerprint)
                if outcome.fingerprint != ref:
                    problems.append(f"{outcome.identity}: output differs from the first run of the same seed"
                                    + (" (traced run)" if traced else ""))
        if problems:
            self.failed += 1
            self.problems += [f"op {len(self.ops)} ({key}): {p}" for p in problems]
        self.ops.append((key, dt, traced, outcome))
        return dt

    def run_pass(self, traced=False):
        return sum(self.op(key, traced) for key in self.workload.keys())

    def pass_wall(self, normalized=False):
        """Sum over the pass's keys of each key's median untraced op time."""
        by_key = {}
        for i, (key, dt, traced, out) in enumerate(self.ops):
            if not traced and out is not None and not out.problems:
                by_key.setdefault(key, []).append(self.normalized[i] if normalized else dt)
        return sum(statistics.median(v) for v in by_key.values())


def _no_step() -> None:
    pass


def timed_setup(workload, tracer=None, package=None) -> float:
    """Build the workload's inputs (traced when a tracer is given); returns seconds."""
    if tracer is not None:
        tracer.op = SETUP_OP
        tracer.install(package)
    t0 = perf_counter()
    try:
        workload.setup()
    finally:
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return dt


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(runner, seconds) -> list[float]:
    """Closed loop over the pass's keys while another op still fits into `seconds`.

    The set-up is timed again at even intervals through the run, rebuilding
    the same inputs, so that its median sees the same machine as the ops do.
    The ops are timed by a `reference.HostClock`. Returns the set-up times.
    """
    workload = runner.workload
    keys = workload.keys()
    min_ops = workload.min_passes * len(keys) + (1 if len(keys) > 1 else 0)
    t0 = perf_counter()
    setups = [timed_setup(workload)]
    runner.clock = reference.HostClock()
    rounds = []  # op plus its checks and the kernel runs
    while len(rounds) < min_ops or perf_counter() - t0 + statistics.median(rounds) <= seconds:
        if len(setups) < SETUP_REPEATS and perf_counter() - t0 >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(timed_setup(workload))
            runner.clock.recheck()
        start = perf_counter()
        runner.op(keys[len(rounds) % len(keys)])
        rounds.append(perf_counter() - start)
    return setups


def timing_metrics(runner, ok, normalized):
    """Pass, op and rate figures over the ops `ok`, in wall or normalized seconds."""
    times = [runner.normalized[i] if normalized else runner.ops[i][1] for i, _ in ok]
    tail_value, tail_pct, beyond = tail(times)
    # rates as medians over every op, which is steadier than over the few passes
    return {
        "wall_s": runner.pass_wall(normalized),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_value,
        "train_samples_per_s": statistics.median(out.sample_epochs / dt for (_, out), dt in zip(ok, times)),
        "runs_per_s": statistics.median(out.runs / dt for (_, out), dt in zip(ok, times)),
    }, (tail_pct, beyond)


def end_to_end(runner, setups):
    ok = [(i, out) for i, (_, _, _, out) in enumerate(runner.ops) if out is not None and not out.problems]
    if not ok:  # every op failed
        return {name: 0.0 for name in declared_units("end_to_end")}, {"ops": 0}
    first = {}
    for i, out in ok:
        first.setdefault(runner.ops[i][0], out)
    normalized, (tail_pct, beyond) = timing_metrics(runner, ok, normalized=True)
    metrics = {f"norm_{name}": value for name, value in normalized.items()}
    metrics.update({
        "setup_s": statistics.median(setups),
        "test_map": statistics.fmean(out.test_map for out in first.values()),
        "peak_rss_mb": peak_rss_mb(),
    })
    kernel_s = runner.clock.kernel_s
    notes = {"ops": len(ok), "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
             "setup_repeats": len(setups), "reference_s.p50": statistics.median(kernel_s),
             "reference_runs": len(kernel_s)}
    notes.update({f"raw_{name}": value for name, value in timing_metrics(runner, ok, normalized=False)[0].items()})
    return metrics, notes


def traced_run(runner, workload, seconds, tracer, package):
    """Alternate untraced and traced passes; per-layer metrics from the spans."""
    traced_setup_s = timed_setup(workload, tracer, package)
    t0 = perf_counter()
    walls = {False: [], True: []}
    layer_ops = []
    # pairs of passes while another pair still fits into `seconds`
    order = (False, True)
    while not walls[True] or perf_counter() - t0 + walls[False][-1] + walls[True][-1] <= seconds:
        for traced in order:
            start = len(runner.ops)
            walls[traced].append(runner.run_pass(traced))
            if traced:
                layer_ops += range(start, len(runner.ops))
        order = order[::-1]  # ABBA, so that warm-up does not bias the overhead
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    pass_wall = statistics.median(walls[True])
    efficiency = 0.0
    sweep_loads = 0.0
    if workload.name == "sweep-2w":
        # layers come from a one-worker sweep, where every arm runs in this
        # process; its data rows must equal the two-worker sweep's
        one = len(runner.ops)
        t1 = runner.op("sweep", traced=True, workers=1)
        efficiency = t1 / (workload.shape.workers * pass_wall)
        layer_ops = [one]
        pass_wall = t1
        sweep_loads = sum(1 for i, name in enumerate(tracer.names)
                          if name == "dataset.load_dataset" and tracer.ops[i] == one)
    passes = len(layer_ops) // len(workload.keys())
    metrics = layer_metrics(tracer, {op: passes for op in layer_ops}, traced_setup_s + pass_wall)
    metrics["cli.sweep.dataset_loads"] = float(sweep_loads)
    metrics["cli.sweep.parallel_efficiency"] = efficiency
    metrics["trace.overhead"] = overhead
    # per op key, so that a scheme whose selection never flags shows by name
    selections = {}
    layer_set = set(layer_ops)
    for i, name in enumerate(tracer.names):
        if name == "schemes.select_large_losses" and tracer.ops[i] in layer_set:
            counts = selections.setdefault(runner.ops[tracer.ops[i]][0], [0, 0])
            counts[0] += tracer.notes[i][0]
            counts[1] += 1
    notes = {"untraced_pass_s": walls[False], "traced_pass_s": walls[True], "spans": len(tracer.names),
             "traced_passes": passes,
             "select_empty_ratio_by_op": {k: round(e / n, 6) for k, (e, n) in selections.items()}}
    return metrics, notes


def per_arm_table(runner):
    """One row per op key: median time, test mAP and the workload's own detail."""
    rows = {}
    for key, dt, _, out in runner.ops:
        if out is not None:
            rows.setdefault(key, {"times": [], "test_map": out.test_map, **out.detail})["times"].append(dt)
    return {k: {"median_s": statistics.median(v.pop("times")), **v} for k, v in rows.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        package = import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = run_workload(package, WORKLOADS[args.workload](args.seed, str(workdir / "files")),
                          args.seconds, args.trace, workdir)
    return emit(result, workdir)


def run_workload(package, workload, seconds, trace, out_dir=None):
    """Set up, measure and check one workload; returns the full result dict."""
    facts = machine_facts(workload.seed)
    tracer = Tracer() if trace else None
    runner = Runner(workload, tracer, package)
    try:
        if trace:
            metrics, notes = traced_run(runner, workload, seconds, tracer, package)
            if out_dir is not None:
                tracer.dump(Path(out_dir) / "spans.npz")
        else:
            metrics, notes = end_to_end(runner, measure(runner, seconds))
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup()
    return {
        "workload": workload.name, "trace": trace, "facts": facts,
        "correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        "metrics": metrics, "notes": notes, "ops": per_arm_table(runner), "problems": runner.problems,
        "op_log": [(key, dt, traced) for key, dt, traced, _ in runner.ops],
    }


def emit(result, out_dir=None) -> int:
    for name, value in result["facts"].items():
        print(f"# {name}: {value}")
    for key, row in result["ops"].items():
        print(f"# op {key}: " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                         for k, v in row.items()))
    for problem in result["problems"]:
        print(f"# FAILED {problem}", file=sys.stderr)
    print(f"# error_rate {result['error_rate']:.6g} ({result['failed']} of {result['attempted']} ops failed)")
    for name, value in result["notes"].items():
        print(f"# {name}: {value}")
    units = declared_units("per_layer" if result["trace"] else "end_to_end")
    metrics = {name: {"value": result["metrics"][name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if out_dir is not None:
        with open(Path(out_dir) / "result.json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, default=str)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
