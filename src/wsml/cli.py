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
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import dataset as ds_mod
from . import evaluation
from . import model as model_mod
from . import schemes
from . import trainer

__all__ = ["main"]

TRACKER_HEADER = "WSMLTRACK/1"

SCHEME_TOKENS = [s.value for s in schemes.Scheme]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _cfg_json(d: dict) -> str:
    return json.dumps(d, sort_keys=True)


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
    p.add_argument("--optimizer", choices=["sgd", "adam"], default="adam")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--delta-rel", type=float, default=None, help="rate growth, percentage points per epoch")
    p.add_argument("--r0", type=float, default=None, help="initial absolute loss threshold")
    p.add_argument("--delta-abs", type=float, default=None, help="absolute threshold decrement per epoch")
    p.add_argument("--eps-smooth", type=float, default=None, help="label smoothing mass")
    p.add_argument("--arch", choices=["linear", "mlp1"], default="mlp1")
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--frozen-epochs", type=int, default=0, help="epochs with the hidden layer frozen")
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


def _resolve_scheme_config(args) -> tuple[schemes.SchemeConfig, dict]:
    """Build the scheme config, warning about and ignoring irrelevant flags."""
    scheme = schemes.Scheme(args.scheme)
    passed = {
        "delta_rel": args.delta_rel,
        "r0": args.r0,
        "delta_abs": args.delta_abs,
        "eps_smooth": args.eps_smooth,
    }
    relevant = schemes.SPECS[scheme].reads
    resolved = {}
    for name, value in passed.items():
        if value is not None and name not in relevant:
            _warn(f"ignoring --{name.replace('_', '-')} (not used by scheme {scheme.value})")
            value = None
        if value is not None:
            resolved[name] = value
    cfg = schemes.SchemeConfig(scheme, **resolved)
    echo = {
        "scheme": scheme.value,
        "delta_rel": cfg.delta_rel,
        "r0": cfg.r0,
        "delta_abs": cfg.delta_abs,
        "eps_smooth": cfg.eps_smooth,
    }
    return cfg, echo


def _train_settings(args) -> dict:
    """Plain-value settings dict shared by train and sweep (picklable)."""
    scheme_cfg, scheme_echo = _resolve_scheme_config(args)
    try:
        cfg = trainer.TrainConfig(
            scheme=scheme_cfg,
            epochs=args.epochs,
            batch_size=args.batch,
            optimizer=args.optimizer,
            learning_rate=args.lr,
            arch=args.arch,
            hidden=args.hidden,
            frozen_epochs=args.frozen_epochs,
            val_fraction=args.val_frac,
            seed=args.seed,
            llcp_granularity=args.llcp_granularity,
        )
        cfg.validate()
        if args.subsample is not None and not 0.0 < args.subsample <= 1.0:
            raise ValueError(f"subsample fraction must lie in (0, 1], got {args.subsample}")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    echo = {
        "data": args.data,
        "test_data": args.test_data,
        "epochs": cfg.epochs,
        "batch": cfg.batch_size,
        "optimizer": cfg.optimizer,
        "lr": cfg.learning_rate,
        "arch": cfg.arch,
        "hidden": cfg.hidden,
        "frozen_epochs": cfg.frozen_epochs,
        "val_frac": cfg.val_fraction,
        "seed": cfg.seed,
        "subsample": args.subsample,
        "llcp_granularity": cfg.llcp_granularity,
        **scheme_echo,
    }
    return {"config": cfg, "subsample": args.subsample, "echo": echo,
            "data": args.data, "test_data": args.test_data}


def _execute_training(settings: dict):
    """Load data, run training, and return (report, file-row mapping)."""
    data = ds_mod.load_dataset(settings["data"])
    file_rows = np.arange(data.n)
    if settings["subsample"] is not None:
        idx = ds_mod.subsample_indices(data.n, settings["subsample"], settings["config"].seed)
        data = data.take(idx)
        file_rows = file_rows[idx]
    test = None
    if settings["test_data"] is not None:
        test = ds_mod.load_dataset(settings["test_data"])
        if test.truth is None:
            raise ValueError(f"{settings['test_data']}: test dataset has no TRUTH section")
    report = trainer.run(settings["config"], data, test)
    return report, file_rows


def _fmt(value) -> str:
    """CSV cell: absent values and NaN thresholds become empty fields."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _write_metrics_csv(path, report) -> None:
    # no config comment here: degenerate schemes must produce byte-identical
    # metrics files, and the scheme token would always differ
    lines = ["epoch,train_loss,val_map,flags,flag_precision,cum_corrections,threshold_min"]
    for r in report.records:
        lines.append(
            ",".join(
                [
                    str(r.epoch),
                    _fmt(r.train_loss),
                    _fmt(r.val_map),
                    str(r.flags),
                    _fmt(r.flag_precision),
                    str(r.cum_corrections),
                    _fmt(r.threshold_min),
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _report_json(report, echo: dict, model_path: str) -> dict:
    return {
        "config": echo,
        "effective_n": report.effective_n,
        "best_epoch": report.best_epoch,
        "best_val_map": report.best_val_map,
        "test_map": report.test_map,
        "model_path": model_path,
        "epochs": [
            {
                "epoch": r.epoch,
                "train_loss": r.train_loss,
                "val_map": r.val_map,
                "flags": r.flags,
                "flags_true_pos": r.flags_true_pos,
                "flag_precision": r.flag_precision,
                "cum_corrections": r.cum_corrections,
                "threshold_min": None if math.isnan(r.threshold_min) else r.threshold_min,
            }
            for r in report.records
        ],
    }


def _write_tracker(path, report, file_rows, cfg_comment: str) -> None:
    tracker = report.tracker
    rows = file_rows[report.train_indices]
    lines = [TRACKER_HEADER, "#cfg " + cfg_comment]
    lines.append(f"{tracker.max_loss.shape[0]} {tracker.max_loss.shape[1]} {tracker.epochs_tracked}")
    lines.append(" ".join(str(int(r)) for r in rows))
    for row in tracker.max_loss:
        lines.append(" ".join(format(v, ".17g") for v in row))
    for row in tracker.argmax_epoch:
        lines.append(" ".join(str(int(v)) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_tracker(path):
    """Read a tracker dump; returns (file row indices, max_loss, argmax_epoch, epochs).

    A malformed dump raises FormatError naming the offending line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        reader = ds_mod.LineReader(fh.read())
    lineno, header = reader.next("header")
    if header != TRACKER_HEADER:
        raise ds_mod.FormatError(lineno, f"bad header {header!r}, expected {TRACKER_HEADER!r}")
    lineno, dims = reader.next("dimension line")
    try:
        n, k, epochs = (int(p) for p in dims.split())
    except ValueError:
        raise ds_mod.FormatError(lineno, f"expected 'N K epochs', got {dims!r}") from None
    if min(n, k, epochs) < 1:
        raise ds_mod.FormatError(lineno, f"dimensions must be positive, got {dims!r}")
    rows = ds_mod.read_rows(reader, (1, n), "row indices", int, bounds=(0, math.inf))[0]
    max_loss = ds_mod.read_rows(reader, (n, k), "max-loss")
    argmax = ds_mod.read_rows(reader, (n, k), "argmax-epoch", int, bounds=(1, epochs))
    trailing = reader.peek()
    if trailing is not None:
        raise ds_mod.FormatError(trailing[0], f"unexpected trailing content {trailing[1]!r}")
    return rows, max_loss, argmax, epochs


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    try:
        spec = ds_mod.SyntheticSpec(
            n=args.n,
            dim=args.dim,
            classes=args.classes,
            pos_rate=args.pos_rate,
            temperature=args.temperature,
            seed=args.seed,
        )
        spec.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    data = ds_mod.generate_synthetic(spec)
    echo = {
        "cmd": "gen",
        "n": args.n,
        "dim": args.dim,
        "classes": args.classes,
        "pos_rate": args.pos_rate,
        "temperature": args.temperature,
        "seed": args.seed,
        "out": args.out,
    }
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
    echo = {
        "cmd": "partialize",
        "in": args.input,
        "mode": args.mode,
        "fraction": args.fraction,
        "seed": args.seed,
        "out": args.out,
    }
    ds_mod.save_dataset(out, args.out, config_comment=_cfg_json(echo))
    return 0


def _cmd_train(args) -> int:
    settings = _train_settings(args)
    report, file_rows = _execute_training(settings)
    echo = {"cmd": "train", "out_prefix": args.out_prefix, **settings["echo"]}

    prefix = args.out_prefix
    model_path = prefix + ".model"
    _write_metrics_csv(prefix + ".metrics.csv", report)
    model_mod.save_model(report.best_model, model_path, config_comment=_cfg_json(echo))
    _write_tracker(prefix + ".tracker", report, file_rows, _cfg_json(echo))
    with open(prefix + ".report.json", "w", encoding="utf-8") as fh:
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

    echo = {
        "cmd": "eval",
        "model": args.model,
        "data": args.data,
        "groups": args.groups,
        "group_key": args.group_key,
        "phase_table": args.phase_table,
        "tracker": args.tracker,
    }
    out: dict = {
        "config": echo,
        "map": result.mean * 100.0,
        "per_category_ap": [None if v is None else v * 100.0 for v in result.per_category],
        "skipped_categories": result.skipped,
    }

    if args.groups is not None:
        if args.group_key == "observed":
            counts = (data.states != ds_mod.LabelState.UNKNOWN).sum(axis=0)
        else:
            counts = data.truth.sum(axis=0)
        grouped = evaluation.grouped_map(scores, data.truth, counts, args.groups)
        out["group_map"] = [None if v is None else v * 100.0 for v in grouped]

    if args.phase_table:
        rows, _, argmax, epochs = load_tracker(args.tracker)
        if rows.max(initial=-1) >= data.n:
            raise ValueError(f"{args.tracker}: row indices exceed dataset size {data.n}")
        table = evaluation.phase_distribution(argmax, epochs, data.truth[rows], data.states[rows])
        out["phase_distribution"] = {
            name: None
            if bucket is None
            else {
                "warmup_pct": bucket.warmup_pct,
                "regular_pct": bucket.regular_pct,
                "count": bucket.count,
            }
            for name, bucket in table.items()
        }

    text = json.dumps(out, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _sweep_arm(payload: dict):
    """One sweep arm; module-level so process pools can pickle it."""
    settings = payload["settings"]
    report, _ = _execute_training(settings)
    return {
        "value": payload["value"],
        "effective_n": report.effective_n,
        "best_val_map": report.best_val_map,
        "best_epoch": report.best_epoch,
        "test_map": report.test_map,
    }


def _worker_count(n_arms: int) -> int:
    raw = os.environ.get("WSML_THREADS")
    if raw is None:
        limit = os.cpu_count() or 1
    else:
        try:
            limit = int(raw)
        except ValueError:
            _warn(f"ignoring WSML_THREADS={raw!r} (not an integer)")
            limit = os.cpu_count() or 1
        if limit < 1:
            _warn(f"ignoring WSML_THREADS={limit} (must be >= 1)")
            limit = os.cpu_count() or 1
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
    payloads = []
    for i, value in enumerate(sorted(values)):
        arm_args = argparse.Namespace(**vars(args))
        arm_args.seed = args.seed + i
        if args.param == "delta-rel":
            arm_args.delta_rel = value
        else:
            arm_args.subsample = value
        settings = _train_settings(arm_args)
        payloads.append({"value": value, "settings": settings})

    workers = _worker_count(len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_arm, payloads))
    else:
        rows = [_sweep_arm(p) for p in payloads]
    rows.sort(key=lambda r: r["value"])

    echo = {"cmd": "sweep", "param": args.param, "values": sorted(values), "out": args.out, **base_echo}
    lines = ["#cfg " + _cfg_json(echo), "value,effective_n,best_val_map,best_epoch,test_map"]
    for r in rows:
        lines.append(
            ",".join(
                [
                    format(r["value"], "g"),
                    str(r["effective_n"]),
                    _fmt(r["best_val_map"]),
                    str(r["best_epoch"]),
                    _fmt(r["test_map"]),
                ]
            )
        )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


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
    except (OSError, ValueError, ArithmeticError, trainer.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
