"""The three benchmark workloads: their inputs, ops and output checks.

Each workload builds its inputs from the seed in `setup`, runs one op per
`run(key, step)` call (the timed part; it calls `step()` between the op's
own steps, where the benchmark checks the host's speed) and turns the op's raw result into an
`Outcome` in `inspect` (untimed): a fingerprint that a repeat of the same
seed, or a traced run, must reproduce exactly, the work done, and the list
of problems the output checks found. An op fails if it raises or if that
list is not empty.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import wsml
import wsml.cli
from wsml import LabelState

POS_RATE = 0.3
TEST_FRACTION = 0.2


@dataclass
class Outcome:
    identity: str  # ops with the same identity must give the same fingerprint
    fingerprint: str
    sample_epochs: int
    runs: int
    test_map: float
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def round_trip_problems(label, loaded, expected) -> list[str]:
    """Problems if a dataset read back from disk differs in any bit."""
    out = []
    for part in ("features", "states", "truth"):
        if not _same_bits(getattr(loaded, part), getattr(expected, part)):
            out.append(f"{label}: {part} did not round-trip bit for bit through save and load")
    return out


def state_problems(initial, final, cum_corrections) -> list[str]:
    """Only u -> c may change, and the corrections counter must match the c count."""
    out = []
    changed = initial != final
    if (initial[changed] != LabelState.UNKNOWN).any() or (final[changed] != LabelState.CORRECTED_POS).any():
        out.append("a label state changed other than UNKNOWN -> CORRECTED_POS")
    corrected = int((final == LabelState.CORRECTED_POS).sum()) - int((initial == LabelState.CORRECTED_POS).sum())
    if cum_corrections != corrected:
        out.append(f"cum_corrections {cum_corrections} != {corrected} corrected states")
    return out


def argmax_problems(argmax, epochs) -> list[str]:
    if argmax.size and (argmax.min() < 1 or argmax.max() > epochs):
        return [f"tracker argmax epoch outside 1..{epochs} (range {argmax.min()}..{argmax.max()})"]
    return []


def test_map_problems(test_map) -> list[str]:
    if test_map is None or not math.isfinite(test_map) or not 0.0 < test_map <= 100.0:
        return [f"test_map {test_map!r} is not a percentage in (0, 100]"]
    return []


def trained_samples(n: int) -> int:
    """Samples left for training after the trainer's validation split."""
    return n - int(math.floor(wsml.TrainConfig.val_fraction * n))


def _synthetic(n, dim, classes, seed):
    # through the module attribute, which is the one the tracer wraps
    return wsml.dataset.generate_synthetic(
        wsml.SyntheticSpec(n=n, dim=dim, classes=classes, pos_rate=POS_RATE, seed=seed))


# ---------------------------------------------------------------------------
# train-b16: in-process trainer.run, one op per arm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainShape:
    n: int = 2000
    dim: int = 20
    classes: int = 10
    epochs: int = 30
    batch: int = 16
    hidden: int = 64


def train_arms():
    """(arm name, scheme token, LL-Cp granularity, trains on full labels)."""
    arms = [(s.value, s.value, "epoch", False) for s in wsml.Scheme]
    arms.append(("full-label", "naive-an", "epoch", True))
    arms.append(("ll-cp-batch", "ll-cp", "batch", False))
    return arms


class TrainB16:
    name = "train-b16"
    min_passes = 1

    def __init__(self, seed: int, workdir: str, shape: TrainShape = TrainShape()):
        self.seed, self.workdir, self.shape = seed, workdir, shape
        self.arms = {name: rest for name, *rest in train_arms()}

    def setup(self) -> None:
        s = self.shape
        full = _synthetic(s.n, s.dim, s.classes, self.seed)
        # the test set comes from the same draw: a second draw has another
        # hidden label model
        self.pool, self.test = wsml.trainer.split(full, TEST_FRACTION, self.seed)
        self.partial = wsml.dataset.make_single_positive(self.pool, self.seed)

    def keys(self):
        return list(self.arms)

    def run(self, key, step):
        token, granularity, full_label = self.arms[key]
        s = self.shape
        cfg = wsml.TrainConfig(
            scheme=wsml.SchemeConfig(wsml.Scheme(token)),
            epochs=s.epochs, batch_size=s.batch, optimizer="adam", learning_rate=1e-3,
            arch="mlp1", hidden=s.hidden, seed=self.seed, llcp_granularity=granularity)
        return wsml.trainer.run(cfg, self.pool if full_label else self.partial, self.test)

    def inspect(self, key, report) -> Outcome:
        records = report.records
        problems = []
        if [r.epoch for r in records] != list(range(1, self.shape.epochs + 1)):
            problems.append("records do not cover every epoch once")
        cum = records[-1].cum_corrections if records else 0
        problems += state_problems(report.initial_states, report.final_states, cum)
        problems += argmax_problems(report.tracker.argmax_epoch, self.shape.epochs)
        problems += test_map_problems(report.test_map)
        tracker = report.tracker
        fingerprint = _digest(records, report.test_map, report.best_epoch, report.final_states.tobytes(),
                              tracker.max_loss.tobytes(), tracker.argmax_epoch.tobytes())
        flags = sum(r.flags for r in records)
        return Outcome(key, fingerprint, trained_samples(report.effective_n) * self.shape.epochs, 1,
                       report.test_map, problems, {"flags": flags})


# ---------------------------------------------------------------------------
# corpus-pipeline: cli gen -> partialize -> train -> eval, files on disk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusShape:
    n: int = 3000
    dim: int = 100
    classes: int = 20
    epochs: int = 5
    batch: int = 256
    # at 1e-3 five epochs of batch 256 leave the model near chance, and its
    # test mAP then swings with the seed
    lr: float = 1e-2
    groups: int = 5


def read_tracker_argmax(path):
    """(epochs, argmax matrix) parsed from a tracker dump, independently of wsml."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    n, k, epochs = (int(v) for v in lines[1].split())
    argmax = np.array(" ".join(lines[3 + n : 3 + 2 * n]).split(), dtype=np.int64)
    if argmax.size != n * k or len(lines) != 3 + 2 * n:
        raise ValueError(f"{path}: tracker does not hold {n} x {k} max-loss and argmax rows")
    return epochs, argmax.reshape(n, k)


class CorpusPipeline:
    name = "corpus-pipeline"
    min_passes = 2
    FILES = ("full", "partial", "train", "test")

    def __init__(self, seed: int, workdir: str, shape: CorpusShape = CorpusShape()):
        self.seed, self.workdir, self.shape = seed, workdir, shape
        self.path = {name: os.path.join(workdir, f"{name}.wsml") for name in self.FILES}
        self.prefix = os.path.join(workdir, "run")
        self.eval_test = os.path.join(workdir, "eval-test.json")
        self.eval_train = os.path.join(workdir, "eval-train.json")

    def setup(self) -> None:
        s = self.shape
        # in-memory references for the round-trip checks
        self.reference = _synthetic(s.n, s.dim, s.classes, self.seed)
        self.reference_partial = wsml.dataset.make_single_positive(self.reference, self.seed)
        os.makedirs(self.workdir, exist_ok=True)

    def keys(self):
        return ["pass"]

    def run(self, key, step):
        s, p, seed = self.shape, self.path, str(self.seed)
        main = wsml.cli.main
        steps = [
            lambda: main(["gen", "--n", str(s.n), "--dim", str(s.dim), "--classes", str(s.classes),
                          "--pos-rate", str(POS_RATE), "--seed", seed, "--out", p["full"]]),
            lambda: main(["partialize", "--in", p["full"], "--mode", "single-positive",
                          "--seed", seed, "--out", p["partial"]]),
            self._split,
            lambda: main(["train", "--data", p["train"], "--test-data", p["test"], "--scheme", "ll-cp",
                          "--llcp-granularity", "epoch", "--batch", str(s.batch), "--epochs", str(s.epochs),
                          "--lr", str(s.lr), "--seed", seed, "--out-prefix", self.prefix]),
            lambda: main(["eval", "--model", self.prefix + ".model", "--data", p["test"],
                          "--out", self.eval_test]),
            lambda: main(["eval", "--model", self.prefix + ".model", "--data", p["train"],
                          "--groups", str(s.groups), "--phase-table", "--tracker", self.prefix + ".tracker",
                          "--out", self.eval_train]),
        ]
        codes = []
        for i, run_step in enumerate(steps):
            if i:
                step()
            codes.append(run_step())
            if codes[-1] != 0:
                break
        return codes

    def _split(self) -> int:
        """Save train and test files split from the one partialized corpus."""
        data = wsml.dataset.load_dataset(self.path["partial"])
        keep, held = wsml.trainer.split_indices(data.n, TEST_FRACTION, self.seed)
        wsml.dataset.save_dataset(data.take(keep), self.path["train"])
        wsml.dataset.save_dataset(data.take(held), self.path["test"])
        return 0

    def outputs(self):
        return [*self.path.values(), *(self.prefix + ext for ext in (".metrics.csv", ".report.json",
                                                                     ".model", ".tracker")),
                self.eval_test, self.eval_train]

    def inspect(self, key, codes) -> Outcome:
        if codes != [0] * 6:
            return Outcome(key, "", 0, 0, float("nan"), [f"pipeline step exit codes {codes}"])
        s = self.shape
        problems = round_trip_problems("gen", wsml.dataset.load_dataset(self.path["full"]), self.reference)
        problems += round_trip_problems("partialize", wsml.dataset.load_dataset(self.path["partial"]),
                                        self.reference_partial)
        with open(self.prefix + ".report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        with open(self.eval_test, encoding="utf-8") as fh:
            eval_test = json.load(fh)
        with open(self.eval_train, encoding="utf-8") as fh:
            eval_train = json.load(fh)
        if eval_test["map"] != report["test_map"]:
            problems.append(f"eval mAP {eval_test['map']!r} != in-process test mAP {report['test_map']!r}")
        problems += test_map_problems(report["test_map"])
        epochs = report["epochs"]
        cum = np.cumsum([e["flags"] for e in epochs]).tolist()
        if [e["cum_corrections"] for e in epochs] != cum:
            problems.append("cum_corrections is not the running sum of per-epoch corrections")
        tracked, argmax = read_tracker_argmax(self.prefix + ".tracker")
        if tracked != s.epochs or len(epochs) != s.epochs:
            problems.append(f"expected {s.epochs} epochs, tracker has {tracked}, report has {len(epochs)}")
        problems += argmax_problems(argmax, s.epochs)
        if len(eval_train.get("group_map", [])) != s.groups or "phase_distribution" not in eval_train:
            problems.append("eval did not report the grouped mAP and the phase table")
        n_train = report["effective_n"]
        return Outcome(key, _file_digest(self.outputs()), trained_samples(n_train) * s.epochs, 1,
                       report["test_map"], problems, {"corrections": cum[-1]})

    def cleanup(self) -> None:
        for path in self.outputs():
            if os.path.exists(path):
                os.remove(path)


# ---------------------------------------------------------------------------
# sweep-2w: cli sweep over delta-rel with two worker processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepShape:
    train: TrainShape = TrainShape()
    values: tuple = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    workers: int = 2


class Sweep2W:
    name = "sweep-2w"
    min_passes = 2

    def __init__(self, seed: int, workdir: str, shape: SweepShape = SweepShape()):
        self.seed, self.workdir, self.shape = seed, workdir, shape
        self.data = os.path.join(workdir, "partial.wsml")
        self.test = os.path.join(workdir, "test.wsml")

    def setup(self) -> None:
        t = self.shape.train
        full = _synthetic(t.n, t.dim, t.classes, self.seed)
        pool, test = wsml.trainer.split(full, TEST_FRACTION, self.seed)
        partial = wsml.dataset.make_single_positive(pool, self.seed)
        os.makedirs(self.workdir, exist_ok=True)
        wsml.dataset.save_dataset(partial, self.data)
        wsml.dataset.save_dataset(test, self.test)
        for label, path, expected in (("sweep data", self.data, partial), ("sweep test", self.test, test)):
            problems = round_trip_problems(label, wsml.dataset.load_dataset(path), expected)
            if problems:
                raise RuntimeError("; ".join(problems))
        self.n_train_file = partial.n

    def keys(self):
        return ["sweep"]

    def csv_path(self, workers: int) -> str:
        return os.path.join(self.workdir, f"sweep-{workers}w.csv")

    def run(self, key, step, workers: int | None = None):
        workers = workers or self.shape.workers
        t = self.shape.train
        argv = ["sweep", "--param", "delta-rel", "--values", ",".join(str(v) for v in self.shape.values),
                "--data", self.data, "--test-data", self.test, "--scheme", "ll-ct",
                "--epochs", str(t.epochs), "--batch", str(t.batch), "--hidden", str(t.hidden),
                "--seed", str(self.seed), "--out", self.csv_path(workers)]
        saved = os.environ.get("WSML_THREADS")
        os.environ["WSML_THREADS"] = str(workers)
        try:
            return wsml.cli.main(argv), workers
        finally:
            if saved is None:
                del os.environ["WSML_THREADS"]
            else:
                os.environ["WSML_THREADS"] = saved

    def inspect(self, key, result) -> Outcome:
        code, workers = result
        if code != 0:
            return Outcome(key, "", 0, 0, float("nan"), [f"sweep exit code {code}"])
        with open(self.csv_path(workers), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        problems = []
        if not lines or not lines[0].startswith("#cfg "):
            problems.append("sweep CSV lacks its #cfg line")
        data_rows = lines[1:]
        rows = [r.split(",") for r in data_rows[1:]]
        epochs = self.shape.train.epochs
        if [float(r[0]) for r in rows] != sorted(self.shape.values):
            problems.append("sweep CSV does not hold one row per swept value")
        maps = []
        for r in rows:
            if int(r[1]) != self.n_train_file or not 1 <= int(r[3]) <= epochs:
                problems.append(f"sweep row {r} has a bad effective_n or best_epoch")
            maps.append(float(r[4]) if r[4] else None)
            problems += test_map_problems(maps[-1])
        mean_map = float(np.mean(maps)) if maps and None not in maps else float("nan")
        return Outcome(key, _digest(data_rows), trained_samples(self.n_train_file) * epochs * len(rows),
                       len(rows), mean_map, problems)


WORKLOADS = {w.name: w for w in (TrainB16, CorpusPipeline, Sweep2W)}
