"""Command-line interface: dataset generation, partialization, training,
evaluation, and hyperparameter sweeps.

Exit codes: 0 on success, 1 on usage errors (bad flags or flag values),
2 on runtime errors (unreadable or malformed files, missing truth,
divergence). Output files embed the resolved configuration; every piece of
randomness flows from the explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, fields

import numpy as np

from . import dataset as ds_mod
from . import evaluation, io
from . import model as model_mod
from . import schemes
from . import trainer

__all__ = ["main"]

TRACKER_HEADER = "WSMLTRACK/1"

SCHEME_TOKENS = [s.value for s in schemes.Scheme]

# the columns of the metrics CSV (EpochRecord fields) and of the sweep CSV (value, then RunReport fields)
METRICS_COLUMNS = ("epoch", "train_loss", "val_map", "flags", "flag_precision", "cum_corrections", "threshold_min")
SWEEP_COLUMNS = ("value", "effective_n", "best_val_map", "best_epoch", "test_map")

# each train flag's argparse dest and the TrainConfig field it sets (None: the CLI alone reads it), in echo order
TRAIN_FLAGS = (
    ("data", None), ("test_data", None), ("epochs", "epochs"), ("batch", "batch_size"), ("optimizer", "optimizer"),
    ("lr", "learning_rate"), ("arch", "arch"), ("hidden", "hidden"), ("frozen_epochs", "frozen_epochs"),
    ("val_frac", "val_fraction"), ("seed", "seed"), ("subsample", None), ("llcp_granularity", "llcp_granularity"),
)
# the SchemeConfig hyperparameters, each a flag that only some schemes read, with its help text
SCHEME_FLAGS = (
    ("delta_rel", "rate growth, percentage points per epoch"),
    ("r0", "initial absolute loss threshold"),
    ("delta_abs", "absolute threshold decrement per epoch"),
    ("eps_smooth", "label smoothing mass"),
)


# the errors a command reports with exit code 2; a sweep reports each arm's on its own
RUNTIME_ERRORS = (OSError, ValueError, ArithmeticError, trainer.TrainingDiverged)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _cfg_json(d: dict) -> str:
    return json.dumps(d, sort_keys=True)


def _echo(args, *leave_out: str) -> dict:
    """The subcommand as `cmd`, then its parsed flags by dest (`--in` as `in`), in flag order."""
    names = {"command": "cmd", "input": "in"}
    return {names.get(dest, dest): value for dest, value in vars(args).items() if dest not in leave_out}


def _build_parser() -> _Parser:
    parser = _Parser(prog="wsml", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a fully observed synthetic dataset")
    gen.add_argument("--n", type=int, required=True, help="number of samples")
    gen.add_argument("--dim", type=int, required=True, help="feature dimension")
    gen.add_argument("--classes", type=int, required=True, help="number of categories")
    gen.add_argument("--pos-rate", type=float, required=True, help="target positive rate in (0,1)")
    gen.add_argument("--temperature", type=float, default=1.0, help="logit temperature (default 1.0)")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="output dataset path")

    part = sub.add_parser("partialize", help="drop labels from a fully observed dataset")
    part.add_argument("--in", dest="input", required=True, help="input dataset path")
    part.add_argument("--mode", choices=["single-positive", "fraction"], required=True)
    part.add_argument("--fraction", type=float, help="observed fraction for fraction mode")
    part.add_argument("--seed", type=int, required=True)
    part.add_argument("--out", required=True)

    train = sub.add_parser("train", help="train one scheme and write metrics/report/model")
    _add_train_flags(train)
    train.add_argument("--out-prefix", required=True, help="prefix for .metrics.csv/.report.json/.model/.tracker")

    ev = sub.add_parser("eval", help="evaluate a model checkpoint on a dataset with truth")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--groups", type=int, help="report per-group mAP over this many groups")
    ev.add_argument(
        "--group-key",
        choices=["observed", "positives"],
        default="observed",
        help="per-category count used to order categories into groups",
    )
    ev.add_argument("--phase-table", action="store_true", help="report the highest-loss-epoch table")
    ev.add_argument("--tracker", help="tracker dump written by train (required for --phase-table)")
    ev.add_argument("--out", help="write the report here instead of stdout")

    sweep = sub.add_parser("sweep", help="run one training per value of a swept parameter")
    _add_train_flags(sweep)
    sweep.add_argument("--param", choices=["delta-rel", "subsample"], required=True)
    sweep.add_argument("--values", required=True, help="comma-separated list of values")
    sweep.add_argument("--out", required=True, help="aggregated CSV path")
    return parser


def _add_train_flags(p) -> None:
    p.add_argument("--data", required=True, help="training dataset path")
    p.add_argument("--test-data", help="held-out dataset with truth for the final test mAP")
    p.add_argument("--scheme", choices=SCHEME_TOKENS, required=True)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--optimizer", choices=model_mod.OPTIMIZERS, default="adam")
    p.add_argument("--seed", type=int, required=True)
    for dest, text in SCHEME_FLAGS:
        p.add_argument("--" + dest.replace("_", "-"), type=float, default=None, help=text)
    p.add_argument("--arch", choices=model_mod.ARCHS, default="mlp1")
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--frozen-epochs", type=int, default=0, help="epochs that train only the output layer")
    p.add_argument("--val-frac", type=float, default=0.2)
    p.add_argument("--subsample", type=float, default=None, help="train on this fraction of samples")
    p.add_argument(
        "--llcp-granularity",
        choices=["epoch", "batch"],
        default="epoch",
        help="when permanent corrections are selected and applied",
    )


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _train_settings(args) -> dict:
    """Plain-value settings dict shared by train and sweep (picklable).

    A scheme flag that the scheme does not read is warned about, ignored and
    cleared in `args`, so settings built again from a copy of them (a sweep's
    arms) do not warn again."""
    scheme = schemes.Scheme(args.scheme)
    for name, _ in SCHEME_FLAGS:
        if getattr(args, name) is not None and name not in schemes.SPECS[scheme].reads:
            _warn(f"ignoring --{name.replace('_', '-')} (not used by scheme {scheme.value})")
            setattr(args, name, None)
    scheme_cfg = schemes.SchemeConfig(scheme, **{name: getattr(args, name) for name, _ in SCHEME_FLAGS
                                                 if getattr(args, name) is not None})
    try:
        cfg = trainer.TrainConfig(scheme_cfg, **{field: getattr(args, dest) for dest, field in TRAIN_FLAGS if field})
        cfg.validate()
        if args.subsample is not None and not 0.0 < args.subsample <= 1.0:
            raise ValueError(f"subsample fraction must lie in (0, 1], got {args.subsample}")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    echo = {**{dest: getattr(args, dest) for dest, _ in TRAIN_FLAGS}, **asdict(scheme_cfg), "scheme": scheme.value}
    return {"config": cfg, "subsample": args.subsample, "echo": echo}


def _subsample(data, settings: dict):
    """(the training rows `settings` keep of `data`, their rows in the data file)."""
    file_rows = np.arange(data.n)
    if settings["subsample"] is not None:
        idx = ds_mod.subsample_indices(data.n, settings["subsample"], settings["config"].seed)
        data = data.take(idx)
        file_rows = file_rows[idx]
    return data, file_rows


def _load_test(path):
    """The held-out dataset at `path`, which must carry truth; None without a path."""
    if path is None:
        return None
    test = ds_mod.load_dataset(path)
    if test.truth is None:
        raise ValueError(f"{path}: test dataset has no TRUTH section")
    return test


def _sweep_value(value: float) -> str:
    """Sweep CSV value cell: the short %g form where it reads back as the same float, else repr."""
    return format(value, "g") if float(format(value, "g")) == value else repr(value)


def _fmt(value) -> str:
    """CSV cell: absent values and NaN thresholds become empty fields."""
    if value is None or isinstance(value, float) and math.isnan(value):
        return ""
    return str(value)  # for a float, the same shortest round-trip digits as repr


def _write_metrics_csv(path, report) -> None:
    # no config comment here: degenerate schemes must produce byte-identical
    # metrics files, and the scheme token would always differ
    io.save(path, ",".join(METRICS_COLUMNS), None, [
        ",".join(_fmt(getattr(r, column)) for column in METRICS_COLUMNS) for r in report.records
    ])


def _report_json(report, echo: dict, model_path: str) -> dict:
    return {
        "config": echo,
        "effective_n": report.effective_n,
        "best_epoch": report.best_epoch,
        "best_val_map": report.best_val_map,
        "test_map": report.test_map,
        "model_path": model_path,
        "epochs": [
            {**asdict(r), "threshold_min": None if math.isnan(r.threshold_min) else r.threshold_min}
            for r in report.records
        ],
    }


def _write_tracker(path, report, file_rows, cfg_comment: str) -> None:
    tracker = report.tracker
    io.save(path, TRACKER_HEADER, cfg_comment, [
        f"{tracker.max_loss.shape[0]} {tracker.max_loss.shape[1]} {tracker.epochs_tracked}",
        (file_rows[report.train_indices], io.INT),
        (tracker.max_loss, io.REAL),
        (tracker.argmax_epoch, io.INT),
    ])


def load_tracker(path):
    """Read a tracker dump; returns (file row indices, max_loss, argmax_epoch, epochs).

    A malformed dump raises FormatError naming the offending line.
    """
    with io.Reader(path, TRACKER_HEADER) as reader:
        n, k, epochs = reader.dims("N K epochs")
        rows = reader.block((n,), "row index", io.INT, bounds=(0, math.inf))
        max_loss = reader.block((n, k), "max-loss", io.REAL)
        argmax = reader.block((n, k), "argmax-epoch", io.INT, bounds=(1, epochs))
        reader.end()
    return rows, max_loss, argmax, epochs


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    try:
        spec = ds_mod.SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields(ds_mod.SyntheticSpec)})
        spec.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    data = ds_mod.generate_synthetic(spec)
    echo = {"cmd": "gen", **asdict(spec), "out": args.out}
    ds_mod.save_dataset(data, args.out, config_comment=_cfg_json(echo))
    return 0


def _cmd_partialize(args) -> int:
    if args.mode == "fraction" and args.fraction is None:
        raise UsageError("--mode fraction requires --fraction")
    if args.fraction is not None and not 0.0 < args.fraction <= 1.0:
        raise UsageError(f"--fraction must lie in (0, 1], got {args.fraction}")
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    data = ds_mod.load_dataset(args.input)
    if args.mode == "single-positive":
        if data.truth is None:
            raise ValueError(f"{args.input}: cannot locate positives, dataset has no TRUTH section")
        out = ds_mod.make_single_positive(data, args.seed)
    else:
        out = ds_mod.make_fraction_observed(data, args.fraction, args.seed)
    ds_mod.save_dataset(out, args.out, config_comment=_cfg_json(_echo(args)))
    return 0


def _warn_if_batches_never_flag(cfg, k: int, prefix: str = "") -> None:
    """Warn, after `prefix`, when every batch's relative quota rounds to zero in
    every epoch: the run is then plain AN."""
    scheme, spec = cfg.scheme.scheme, schemes.SPECS[cfg.scheme.scheme]
    per_batch = spec.schedule == "relative" and (spec.action != "permanent" or cfg.llcp_granularity == "batch")
    rate = schemes.rejection_rate(scheme, cfg.epochs, cfg.scheme)  # the schedule never falls
    if per_batch and schemes.quota(rate, cfg.batch_size * k) == 0:
        _warn(f"{prefix}{scheme.value} flags nothing: {rate:g}% of at most {cfg.batch_size}x{k} unknown entries "
              f"per batch rounds to 0 in every epoch, so the run is plain AN training")


def _cmd_train(args) -> int:
    settings = _train_settings(args)
    data, file_rows = _subsample(ds_mod.load_dataset(args.data), settings)
    _warn_if_batches_never_flag(settings["config"], data.k)
    report = trainer.run(settings["config"], data, _load_test(args.test_data))
    echo = {"cmd": "train", "out_prefix": args.out_prefix, **settings["echo"]}

    prefix = args.out_prefix
    model_path = prefix + ".model"
    _write_metrics_csv(prefix + ".metrics.csv", report)
    model_mod.save_model(report.best_model, model_path, config_comment=_cfg_json(echo))
    _write_tracker(prefix + ".tracker", report, file_rows, _cfg_json(echo))
    with io.atomic_write(prefix + ".report.json") as fh:
        json.dump(_report_json(report, echo, model_path), fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_eval(args) -> int:
    if args.phase_table and not args.tracker:
        raise UsageError("--phase-table requires --tracker")
    if args.groups is not None and args.groups < 1:
        raise UsageError(f"--groups must be >= 1, got {args.groups}")

    classifier = model_mod.load_model(args.model)
    data = ds_mod.load_dataset(args.data)
    if data.truth is None:
        raise ValueError(f"{args.data}: evaluation requires a TRUTH section")
    scores = model_mod.forward(classifier, data.features)
    result = evaluation.mean_average_precision(scores, data.truth)

    out: dict = {
        "config": _echo(args, "out"),
        "map": result.mean * 100.0,
        "per_category_ap": [None if v is None else v * 100.0 for v in result.per_category],
        "skipped_categories": result.skipped,
    }

    if args.groups is not None:
        if args.group_key == "observed":
            counts = (data.states != ds_mod.UNKNOWN).sum(axis=0)
        else:
            counts = data.truth.sum(axis=0)
        grouped = evaluation.grouped_map(result.per_category, counts, args.groups)
        out["group_map"] = [None if v is None else v * 100.0 for v in grouped]

    if args.phase_table:
        rows, _, argmax, epochs = load_tracker(args.tracker)
        if argmax.shape[1] != data.k:
            raise ValueError(f"{args.tracker}: tracker has K={argmax.shape[1]} categories, dataset has K={data.k}")
        if rows.max(initial=-1) >= data.n:
            raise ValueError(f"{args.tracker}: row indices exceed dataset size {data.n}")
        table = evaluation.phase_distribution(argmax, epochs, data.truth[rows], data.states[rows])
        out["phase_distribution"] = {name: None if b is None else asdict(b) for name, b in table.items()}

    text = json.dumps(out, indent=2)
    if args.out:
        with io.atomic_write(args.out) as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _sweep_stack(payloads: list[dict], data, test) -> list:
    """The arms of one stack, which share their training data: (value, its SWEEP_COLUMNS cells after
    the value, or the message of the error that stopped it) of each. Module-level so process pools
    can pickle it; a message, not the exception, because not every exception survives pickling."""
    reports = trainer.run_stack([p["settings"]["config"] for p in payloads],
                                _subsample(data, payloads[0]["settings"])[0], test)
    results = []
    for payload, report in zip(payloads, reports):
        if isinstance(report, Exception) and not isinstance(report, RUNTIME_ERRORS):
            raise report
        results.append((payload["value"], str(report) if isinstance(report, Exception) else
                        tuple(getattr(report, column) for column in SWEEP_COLUMNS[1:])))
    return results


def _pooled_stack(values: list[float], future) -> list:
    """A pooled stack's `_sweep_stack` results; each arm of a stack whose worker died fails with that."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        return [(value, str(exc)) for value in values]


def _arm_failed(value: float, message: str) -> None:
    print(f"error: sweep value {_sweep_value(value)}: {message}", file=sys.stderr)


def _pin_worker(started, cpus: list[int]) -> None:
    """A pool worker's initializer: the i-th worker to start runs on cpus[i % len(cpus)] alone, since a scheduler that
    does not balance load (a cpuset with sched_load_balance 0) may otherwise keep two workers on one CPU."""
    with started.get_lock():
        started.value += 1
        cpu = cpus[(started.value - 1) % len(cpus)]
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, [cpu])


def _worker_count(n_arms: int) -> int:
    raw = os.environ.get("WSML_THREADS")
    limit = 0
    if raw is not None:
        try:
            limit = int(raw)
        except ValueError:
            _warn(f"ignoring WSML_THREADS={raw!r} (not an integer)")
        else:
            if limit < 1:
                _warn(f"ignoring WSML_THREADS={limit} (must be >= 1)")
    if limit < 1:
        limit = len(io.usable_cpus())
    return max(1, min(limit, n_arms))


def _cmd_sweep(args) -> int:
    tokens = [t for t in args.values.split(",") if t.strip()]
    if not tokens:
        raise UsageError("--values must list at least one value")
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise UsageError(f"bad sweep value: {exc}") from exc
    dupes = sorted({v for v in values if values.count(v) > 1})
    if dupes:
        raise UsageError(f"duplicate sweep values: {', '.join(format(v, 'g') for v in dupes)}")
    if args.param == "delta-rel" and schemes.SPECS[schemes.Scheme(args.scheme)].schedule != "relative":
        raise UsageError(f"--param delta-rel requires a relative large-loss scheme, got {args.scheme}")

    base_echo = _train_settings(args)["echo"]  # validates shared flags up front
    swept = args.param.replace("-", "_")
    payloads = []
    for i, value in enumerate(sorted(values)):
        arm_args = argparse.Namespace(**vars(args))
        arm_args.seed = args.seed + i
        setattr(arm_args, swept, value)
        payloads.append({"value": value, "settings": _train_settings(arm_args)})

    data = ds_mod.load_dataset(args.data)  # once for every arm
    results = {}  # value -> its cells after the value, or the message of the error that stopped it
    for p in payloads:  # a subsample that keeps nothing is named before the test data loads
        try:  # its indices alone: the arm's worker takes its rows
            if p["settings"]["subsample"] is not None:
                ds_mod.subsample_indices(data.n, p["settings"]["subsample"], p["settings"]["config"].seed)
        except ValueError as exc:
            results[p["value"]] = str(exc)
            _arm_failed(p["value"], str(exc))
    runnable = [p for p in payloads if p["value"] not in results]
    for p in runnable:
        _warn_if_batches_never_flag(p["settings"]["config"], data.k, f"sweep value {_sweep_value(p['value'])}: ")
    test = _load_test(args.test_data)
    workers = _worker_count(len(runnable))
    # whole-file arms go as up to `workers` stacks, dealt round-robin by value; a subsampled arm goes alone
    stacks = [runnable[i::workers] for i in range(workers) if runnable[i:]] if all(
        p["settings"]["subsample"] is None for p in runnable) else [[p] for p in runnable]
    if workers > 1:
        pinning = (multiprocessing.Value("i", 0), io.usable_cpus())
        with ProcessPoolExecutor(max_workers=workers, initializer=_pin_worker, initargs=pinning) as pool:
            futures = [([p["value"] for p in stack], pool.submit(_sweep_stack, stack, data, test)) for stack in stacks]
            arms = [arm for values, future in futures for arm in _pooled_stack(values, future)]
    else:
        arms = [arm for stack in stacks for arm in _sweep_stack(stack, data, test)]
    for value, result in sorted(arms, key=lambda arm: arm[0]):  # by value
        results[value] = result
        if isinstance(result, str):
            _arm_failed(value, result)

    # the swept flag's base value is no arm's value
    echo = {"cmd": "sweep", "param": args.param, "values": sorted(values), "out": args.out, **base_echo, swept: None}
    empty = ("",) * (len(SWEEP_COLUMNS) - 1)
    # the #cfg line goes in as the header so that it stays on line 1, above the column names
    io.save(args.out, "#cfg " + _cfg_json(echo), None, [",".join(SWEEP_COLUMNS)] + [
        ",".join([_sweep_value(value), *(empty if isinstance(cells, str) else map(_fmt, cells))])
        for value, cells in sorted(results.items())
    ])
    return 2 if any(isinstance(cells, str) for cells in results.values()) else 0


_COMMANDS = {
    "gen": _cmd_gen,
    "partialize": _cmd_partialize,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
