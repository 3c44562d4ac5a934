"""`trainer.run` against the per-batch reference in `reference.py` on drawn runs, bit for bit.

`test_reference.py` pins 48 cases that share one data draw and one set of
hyperparameters. Here hypothesis draws every axis a run has:
  - the data: N 5-90 rows, some of them repeats (so losses tie across rows),
    K 2-7, D 1-6, single-positive or 10-90% observed;
  - every scheme, and LL-Cp at both granularities, each with its own draws;
  - the schedule: `delta_rel` 0-250 (rates past 100%), `r0` down to 1e-9 and
    `delta_abs` up to 1 (thresholds near and below 0), `eps_smooth` 0-0.45;
  - 1-5 epochs, 0-9 frozen epochs (past the run's end), batch sizes 1 to 10^6
    (past N), a validation fraction of 0.2 or 0.5, SGD or Adam, both
    architectures and the seed.
The draws are derandomized, so every run of the suite checks the same cases.
"""

import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsml.dataset import SyntheticSpec, generate_synthetic, make_fraction_observed, make_single_positive
from wsml.schemes import SPECS, Scheme, SchemeConfig
from wsml.trainer import TrainConfig, run

# loaded by path: `import reference` would clash with perfbench's module of that name in one pytest run
_spec = importlib.util.spec_from_file_location("random_reference", pathlib.Path(__file__).with_name("reference.py"))
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


SCHEMES = [(s.value, "epoch") for s in SPECS] + [("ll-cp", "batch"), ("ll-cp-abs", "batch")]


@st.composite
def runs(draw, token, granularity):
    """(config, dataset) of one drawn run of the scheme `token` at LL-Cp granularity `granularity`."""
    n, k, d = draw(st.integers(5, 90)), draw(st.integers(2, 7)), draw(st.integers(1, 6))
    # repeated rows tie their losses, within a batch or across the epoch, and the tie-break decides
    distinct = draw(st.integers(max(1, n // 5), max(1, n // 2))) if draw(st.booleans()) else n
    full = generate_synthetic(SyntheticSpec(n=distinct, dim=d, classes=k, pos_rate=draw(st.floats(1.0 / k + 1e-9, 0.9)),
                                            seed=draw(st.integers(0, 2**16))))
    full = full.take(np.arange(n) % distinct)  # rows past `distinct` repeat the first ones
    fraction = draw(st.none() | st.floats(0.1, 0.9))
    data_seed = draw(st.integers(0, 2**16))
    ds = make_single_positive(full, data_seed) if fraction is None else make_fraction_observed(full, fraction, data_seed)

    optimizer = draw(st.sampled_from(["adam", "sgd"]))
    cfg = TrainConfig(
        scheme=SchemeConfig(
            Scheme(token),
            delta_rel=draw(st.floats(0.0, 40.0) | st.floats(0.0, 250.0)),  # mostly quotas short of every entry
            r0=draw(st.floats(1e-9, 3.0)),
            delta_abs=draw(st.floats(0.0, 1.0)),
            eps_smooth=draw(st.floats(0.0, 0.45)),
        ),
        epochs=draw(st.integers(1, 5)),
        batch_size=draw(st.integers(1, 16) | st.integers(1, 16) | st.integers(17, 10**6)),  # mostly several batches an epoch
        optimizer=optimizer,
        learning_rate=0.01 if optimizer == "adam" else 0.5,
        arch=draw(st.sampled_from(["mlp1", "linear"])),
        hidden=draw(st.integers(1, 8)),
        frozen_epochs=draw(st.just(0) | st.integers(0, 9)),
        val_fraction=draw(st.sampled_from([0.2, 0.5])),
        seed=draw(st.integers(0, 2**16)),
        llcp_granularity=granularity,
    )
    return cfg, ds


@pytest.mark.parametrize("token,granularity", SCHEMES)
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_trainer_matches_the_per_batch_reference_on_drawn_runs(token, granularity, data):
    cfg, ds = data.draw(runs(token, granularity))
    records, states, max_loss, argmax_epoch, best_epoch, best_model = reference.run(cfg, ds)
    report = run(cfg, ds)
    # the fields test_reference.py compares, in the same way
    assert repr([dataclasses.astuple(r) for r in report.records]) == repr(records)
    assert report.final_states.dtype == states.dtype and np.array_equal(report.final_states, states)
    assert report.tracker.max_loss.tobytes() == max_loss.tobytes()
    assert np.array_equal(report.tracker.argmax_epoch, argmax_epoch)
    assert report.best_epoch == best_epoch
    assert report.best_model.arch == best_model.arch and report.best_model.flat.tobytes() == best_model.flat.tobytes()
