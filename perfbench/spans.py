"""Span tracing of the wsml modules from outside the package.

`Tracer.install` swaps every public function named in a module's `__all__`
(plus a few named methods and helpers) for a wrapper on the attribute that
callers look up, so a call through `model_mod.forward`, `schemes.decide_batch`
or a module global inside `schemes` lands in exactly one wrapper. Each call
records one span: name, start, end, parent span and the benchmark op it
belongs to. Spans stay in memory until `dump` writes them out at the end of
a run. `uninstall` puts the original functions back.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("dataset", "model", "schemes", "trainer", "evaluation", "cli")

# callables outside `__all__` that the per-layer metrics name
EXTRA_TARGETS = {
    "dataset": ("PartialDataset.take",),
    "trainer": ("MemorizationTracker.update",),
    "cli": ("load_tracker",),
}

SETUP_OP = -1


def _selection_note(args, kwargs, result):
    """(flagged nothing, flagged nothing although the rate asked for some)."""
    rate = kwargs.get("rate", args[2] if len(args) > 2 else None)
    empty = not result[0].any()
    return empty, bool(empty and rate is not None and rate > 0)


def _file_size_note(position):
    def note(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs["path"]
        return os.path.getsize(path)

    return note


NOTES = {
    "schemes.select_large_losses": _selection_note,
    "dataset.load_dataset": _file_size_note(0),
    "dataset.save_dataset": _file_size_note(1),
}


class Tracer:
    """In-memory span recorder with wrappers installed on the wsml modules."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.notes: dict[int, object] = {}
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self._stack)
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if note is not None:
                self.notes[i] = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self, package) -> None:
        """Wrap the public functions of every module in MODULES."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for short in MODULES:
            mod = importlib.import_module(f"{package.__name__}.{short}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._patch(mod, attr, f"{short}.{attr}")
            for dotted in EXTRA_TARGETS.get(short, ()):
                owner = mod
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                self._patch(owner, attr, f"{short}.{dotted}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self):
        return (np.array(self.starts), np.array(self.ends),
                np.array(self.parents, dtype=np.int64), np.array(self.ops, dtype=np.int64))

    def dump(self, path) -> None:
        """Write every span as parallel arrays (name ids index `names`)."""
        vocab = sorted(set(self.names))
        index = {n: i for i, n in enumerate(vocab)}
        starts, ends, parents, ops = self.arrays()
        np.savez(path, names=np.array(vocab), name=np.array([index[n] for n in self.names], dtype=np.int32),
                 start=starts, end=ends, parent=parents, op=ops)


def self_times(starts, ends, parents) -> np.ndarray:
    """Span duration minus the part of its interval that child spans cover.

    Children may overlap each other and stick out of the parent; only the
    union of their intervals clipped to the parent is subtracted.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[int(p)].append(i)
    out = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        intervals = sorted((max(starts[c], lo), min(ends[c], hi)) for c in kids)
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in intervals:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def layer_metrics(tracer: Tracer, layer_ops, layer_wall_s: float) -> dict[str, float]:
    """Per-layer metrics for one traced set-up plus the mean of `layer_ops` passes.

    `layer_ops` maps each op id whose spans count to the number of passes
    they are spread over; set-up spans count once. Times are seconds per
    pass, `<module>.share` is the module's self time over `layer_wall_s`.
    """
    starts, ends, parents, ops = tracer.arrays()
    selfs = self_times(starts, ends, parents)
    calls = defaultdict(float)
    total = defaultdict(float)
    self_s = defaultdict(float)
    empty = quota_zero = 0.0
    nbytes = defaultdict(float)
    per_module = defaultdict(float)
    for i, name in enumerate(tracer.names):
        op = int(ops[i])
        if op == SETUP_OP:
            w = 1.0
        elif op in layer_ops:
            w = 1.0 / layer_ops[op]
        else:
            continue
        calls[name] += w
        total[name] += w * (ends[i] - starts[i])
        self_s[name] += w * selfs[i]
        per_module[name.split(".", 1)[0]] += w * selfs[i]
        note = tracer.notes.get(i)
        if name == "schemes.select_large_losses":
            empty += w * note[0]
            quota_zero += w * note[1]
        elif note is not None:
            nbytes[name] += w * note

    def ratio(a, b):
        return a / b if b else 0.0

    batches = calls["trainer.MemorizationTracker.update"]
    selections = calls["schemes.select_large_losses"]
    m = {
        "model.forward.calls": calls["model.forward"],
        "model.forward.self_s": self_s["model.forward"],
        "model.backward.self_s": self_s["model.backward"],
        "model.step.self_s": self_s["model.step"],
        "model.save_model.self_s": self_s["model.save_model"],
        "model.load_model.self_s": self_s["model.load_model"],
        "schemes.bce_elementwise.calls_per_batch": ratio(calls["schemes.bce_elementwise"], batches),
        "schemes.decide_batch.self_s": self_s["schemes.decide_batch"],
        "schemes.select_large_losses.calls": selections,
        "schemes.select_large_losses.self_s": self_s["schemes.select_large_losses"],
        "schemes.select_large_losses.empty_ratio": ratio(empty, selections),
        "schemes.select_large_losses.quota_zero_ratio": ratio(quota_zero, selections),
        "schemes.apply_permanent_corrections.calls": calls["schemes.apply_permanent_corrections"],
        "trainer.run.self_s": self_s["trainer.run"],
        "trainer.MemorizationTracker.update.self_s": self_s["trainer.MemorizationTracker.update"],
        "trainer.batches": batches,
        "dataset.load_dataset.MBps": ratio(nbytes["dataset.load_dataset"] / 1e6, total["dataset.load_dataset"]),
        "dataset.save_dataset.MBps": ratio(nbytes["dataset.save_dataset"] / 1e6, total["dataset.save_dataset"]),
        "dataset.make_single_positive.self_s": self_s["dataset.make_single_positive"],
        "dataset.generate_synthetic.self_s": self_s["dataset.generate_synthetic"],
        "dataset.PartialDataset.take.calls": calls["dataset.PartialDataset.take"],
        "dataset.PartialDataset.take.self_s": self_s["dataset.PartialDataset.take"],
        "evaluation.mean_average_precision.calls": calls["evaluation.mean_average_precision"],
        "evaluation.mean_average_precision.self_s": self_s["evaluation.mean_average_precision"],
        "evaluation.average_precision.self_s": self_s["evaluation.average_precision"],
        "evaluation.grouped_map.self_s": self_s["evaluation.grouped_map"],
        "evaluation.phase_distribution.self_s": self_s["evaluation.phase_distribution"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.load_tracker.self_s": self_s["cli.load_tracker"],
    }
    for module in MODULES:
        m[f"{module}.self_s"] = per_module[module]
        m[f"{module}.share"] = ratio(per_module[module], layer_wall_s)
    return m
