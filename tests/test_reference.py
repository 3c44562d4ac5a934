"""`trainer.run` against the per-batch reference in `reference.py`, bit for bit.

Each scheme runs at every batch size: 1, 5, 16 and the whole training set
(86 rows, so 5 and 16 leave a ragged last batch). The optimizer, the
architecture, the frozen epochs and the dataset rotate with the scheme and
batch indices, so each scheme meets SGD and Adam, both architectures,
`frozen_epochs` 0 and 2, and both datasets. The data repeat 47 of their 107
rows, so equal losses meet in one selection and the tie-break decides.
"""

import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest

from wsml.dataset import SyntheticSpec, generate_synthetic, make_fraction_observed, make_single_positive
from wsml.schemes import SPECS, Scheme, SchemeConfig
from wsml.trainer import TrainConfig, run

# loaded by path: `import reference` would clash with perfbench's module of that name in one pytest run
_spec = importlib.util.spec_from_file_location("trainer_reference", pathlib.Path(__file__).with_name("reference.py"))
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

_FULL = generate_synthetic(SyntheticSpec(n=60, dim=6, classes=4, pos_rate=0.4, seed=3))
_FULL = _FULL.take(np.r_[0:60, 0:47])
DATA = {"single-positive": make_single_positive(_FULL, seed=3), "fraction": make_fraction_observed(_FULL, 0.3, seed=3)}

SCHEMES = [(s.value, "epoch") for s in SPECS] + [("ll-cp", "batch"), ("ll-cp-abs", "batch")]
BATCHES = (1, 5, 16, 1000)
CASES = [
    (token, granularity, batch, ("adam", "sgd")[(i + j) % 2], ("mlp1", "linear")[(i + j // 2) % 2],
     (0, 2)[(i // 2 + j) % 2], "fraction" if (i + j) % 3 == 0 else "single-positive")
    for i, (token, granularity) in enumerate(SCHEMES)
    for j, batch in enumerate(BATCHES)
]


def test_cases_cover_every_axis_for_every_scheme():
    for scheme in SCHEMES:
        mine = [case[2:] for case in CASES if case[:2] == scheme]
        for axis, values in enumerate([BATCHES, ("adam", "sgd"), ("mlp1", "linear"), (0, 2), tuple(DATA)]):
            assert {case[axis] for case in mine} == set(values), (scheme, axis)


@pytest.mark.parametrize("token,granularity,batch,optimizer,arch,frozen,data", CASES)
def test_trainer_matches_the_per_batch_reference(token, granularity, batch, optimizer, arch, frozen, data):
    cfg = TrainConfig(
        scheme=SchemeConfig(Scheme(token), delta_rel=20.0, r0=1.0, delta_abs=0.1),
        epochs=4,
        batch_size=batch,
        optimizer=optimizer,
        learning_rate=0.01 if optimizer == "adam" else 0.5,
        arch=arch,
        hidden=8,
        frozen_epochs=frozen,
        seed=9,
        llcp_granularity=granularity,
    )
    records, states, max_loss, argmax_epoch, best_epoch, best_model = reference.run(cfg, DATA[data])
    report = run(cfg, DATA[data])
    # repr writes each float's shortest round-trip digits, so equal text is equal bits (and NaN matches NaN)
    assert repr([dataclasses.astuple(r) for r in report.records]) == repr(records)
    assert report.final_states.dtype == states.dtype and np.array_equal(report.final_states, states)
    assert report.tracker.max_loss.tobytes() == max_loss.tobytes()
    assert np.array_equal(report.tracker.argmax_epoch, argmax_epoch)
    assert report.best_epoch == best_epoch
    assert report.best_model.arch == best_model.arch and report.best_model.flat.tobytes() == best_model.flat.tobytes()
