"""Acceptance suite: one test per criterion, each printing a PASS line.

Mechanism criteria (1-5, 10) check exact contracts; phenomenon criteria
(6-9) run the synthetic benchmark: 2000 samples, 20 features, 10 categories,
positive rate 0.3; a held-out 20% test split; single-positive partialization
of the rest; mlp1 with 64 hidden units, Adam 1e-3, batch 16, 30 epochs.
Phenomenon criteria must hold for at least 4 of the 5 pipeline seeds 1..5.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import time

import numpy as np

from wsml import cli, evaluation, model, schemes, trainer
from wsml.dataset import (
    LabelState,
    PartialDataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    make_single_positive,
    save_dataset,
)
from test_schemes import decide_batch

SEEDS = (1, 2, 3, 4, 5)
NEEDED = 4


def report(criterion, name, detail):
    print(f"\n[criterion {criterion}] {name}: PASS  ({detail})")


@functools.lru_cache(maxsize=None)
def benchmark_data(seed):
    full = generate_synthetic(SyntheticSpec(n=2000, dim=20, classes=10, pos_rate=0.3, seed=seed))
    pool, test = trainer.split(full, 0.2, seed=seed)
    single_pos = make_single_positive(pool, seed=seed)
    return pool, test, single_pos


@functools.lru_cache(maxsize=None)
def benchmark_run(seed, token, delta_rel=0.2, epochs=30, full_labels=False, with_test=True):
    pool, test, single_pos = benchmark_data(seed)
    cfg = trainer.TrainConfig(
        scheme=schemes.SchemeConfig(schemes.Scheme(token), delta_rel=delta_rel),
        epochs=epochs,
        batch_size=16,
        learning_rate=1e-3,
        optimizer="adam",
        arch="mlp1",
        hidden=64,
        val_fraction=0.2,
        seed=seed,
    )
    data = pool if full_labels else single_pos
    return trainer.run(cfg, data, test if with_test else None)


def test_criterion_01_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        arch = "linear" if rng.random() < 0.5 else "mlp1"
        d = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        h = int(rng.integers(1, 9))
        b = int(rng.integers(1, 9))
        m = model.init_classifier(arch, d, k, h, seed=int(rng.integers(1_000_000)))
        for p in m.params.values():
            p += 0.3 * rng.standard_normal(p.shape)
        x = rng.standard_normal((b, d))
        if arch == "mlp1":
            # keep ReLU pre-activations away from the kink
            while np.abs(x @ m.params["W1"].T + m.params["b1"]).min() < 1e-3:
                x = rng.standard_normal((b, d))
        targets = rng.uniform(size=(b, k))
        weights = rng.uniform(size=(b, k)) * 2.0
        worst = max(worst, model.grad_check(m, x, targets, weights))
    elapsed = time.monotonic() - started
    assert worst < 1e-4, f"max relative gradient error {worst:.3e}"
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"
    report(1, "gradient correctness", f"max rel err {worst:.2e} over 100 configs in {elapsed:.1f}s")


def test_criterion_02_temporary_correction_identity():
    rng = np.random.default_rng(7)
    total = 0
    worst_direct = 0.0
    worst_weighted = 0.0
    while total < 10_000:
        b, k = 16, 10
        probs = np.clip(rng.uniform(size=(b, k)), model.PROB_EPS, 1.0 - model.PROB_EPS)
        states = np.full((b, k), LabelState.UNKNOWN, dtype=np.int8)
        cfg = schemes.SchemeConfig(schemes.Scheme.LL_CT, delta_rel=60.0)
        decision = decide_batch(schemes.Scheme.LL_CT, probs, states, epoch=3, cfg=cfg)
        flagged = decision.flags
        assert flagged.any()
        f = probs[flagged]
        effective = schemes.bce_elementwise(probs, decision.targets)[flagged]
        worst_direct = max(worst_direct, np.abs(effective - (-np.log(f))).max())
        original = schemes.bce_elementwise(probs, np.zeros_like(probs))[flagged]
        lam = np.log(f) / np.log(1.0 - f)
        worst_weighted = max(worst_weighted, np.abs(original * lam - effective).max())
        total += int(flagged.sum())
    assert worst_direct < 1e-9
    assert worst_weighted < 1e-9
    report(2, "temporary-correction identity", f"{total} flagged elements, max errs {worst_direct:.1e}/{worst_weighted:.1e}")


def test_criterion_03_flag_count_exactness():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(300):
        b = int(rng.integers(1, 9))
        k = int(rng.integers(2, 12))
        epoch = int(rng.integers(1, 51))
        delta = float(rng.choice([0.1, 0.2, 0.5, 1.0, 5.0, 40.0]))
        states = rng.choice(
            [int(LabelState.UNKNOWN), int(LabelState.OBS_POS), int(LabelState.OBS_NEG)],
            size=(b, k), p=[0.7, 0.15, 0.15],
        ).astype(np.int8)
        probs = np.clip(rng.uniform(size=(b, k)), model.PROB_EPS, 1.0 - model.PROB_EPS)
        m = int((states == LabelState.UNKNOWN).sum())
        for token in ("ll-r", "ll-ct"):
            cfg = schemes.SchemeConfig(schemes.Scheme(token), delta_rel=delta)
            decision = decide_batch(schemes.Scheme(token), probs, states, epoch, cfg)
            rate = min((epoch - 1) * delta, 100.0)
            expected = min(int((rate / 100.0) * m), m)
            assert int(decision.flags.sum()) == expected, (token, epoch, delta, m)
            if epoch == 1:
                assert expected == 0
        cfg = schemes.SchemeConfig(schemes.Scheme.LL_CP, delta_rel=delta)
        decision = decide_batch(schemes.Scheme.LL_CP, probs, states, epoch, cfg)
        rate = 0.0 if epoch == 1 else min(delta, 100.0)
        assert int(decision.flags.sum()) == min(int((rate / 100.0) * m), m)
        checked += 1
    assert schemes.rejection_rate(schemes.Scheme.LL_CP, 1, schemes.SchemeConfig(schemes.Scheme.LL_CP)) == 0.0
    for t in range(2, 51):
        assert schemes.rejection_rate(schemes.Scheme.LL_CP, t, schemes.SchemeConfig(schemes.Scheme.LL_CP, delta_rel=0.2)) == 0.2
    report(3, "flag-count exactness", f"{checked} random batches, epochs 1..50")


def test_criterion_04_degenerate_equivalences(tmp_path):
    data_path = tmp_path / "bench.wsml"
    full = generate_synthetic(SyntheticSpec(n=60, dim=5, classes=4, pos_rate=0.4, seed=8))
    save_dataset(make_single_positive(full, seed=8), data_path)

    def train(prefix, scheme, *extra):
        code = cli.main([
            "train", "--data", str(data_path), "--scheme", scheme, "--epochs", "3",
            "--batch", "8", "--seed", "11", "--arch", "linear",
            "--out-prefix", str(tmp_path / prefix), *extra,
        ])
        assert code == 0
        return (tmp_path / f"{prefix}.metrics.csv").read_bytes()

    naive = train("naive", "naive-an")
    llr0 = train("llr0", "ll-r", "--delta-rel", "0")
    lsan0 = train("lsan0", "lsan", "--eps-smooth", "0")
    assert llr0 == naive, "ll-r with delta 0 must reproduce naive metrics byte for byte"
    assert lsan0 == naive, "lsan with eps 0 must reproduce naive metrics byte for byte"
    report(4, "degenerate equivalences", "metrics CSVs byte-identical across 3 schemes")


def test_criterion_05_average_precision_oracle():
    def oracle(scores, labels):
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        hits, acc = 0, 0.0
        for rank, i in enumerate(order, start=1):
            if labels[i]:
                hits += 1
                acc += hits / rank
        return acc / hits

    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        scores = rng.normal(size=n)
        if rng.random() < 0.25:
            scores = np.round(scores, 1)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        got = evaluation.average_precision(scores, labels)
        worst = max(worst, abs(got - oracle(scores, labels)))
        assert got == evaluation.average_precision(scores * 3.5 + 2.0, labels)
        assert got == evaluation.average_precision(np.tanh(scores), labels)
    assert worst <= 1e-12
    report(5, "average-precision oracle", f"1000 instances, max deviation {worst:.1e}; monotone-invariant")


def test_criterion_06_memorization_phenomenon():
    started = time.monotonic()
    passes = 0
    details = []
    for seed in SEEDS:
        seed_start = time.monotonic()
        rep = benchmark_run(seed, "naive-an", with_test=False)
        _, _, single_pos = benchmark_data(seed)
        table = evaluation.phase_distribution(
            rep.tracker.argmax_epoch,
            rep.tracker.epochs_tracked,
            single_pos.truth[rep.train_indices],
            rep.initial_states,
        )
        fn_regular = table["FN"].regular_pct
        tn_regular = table["TN"].regular_pct
        tn_warmup = table["TN"].warmup_pct
        ok = (fn_regular - tn_regular >= 20.0) and (tn_warmup >= 60.0)
        passes += ok
        details.append(f"seed {seed}: FN reg {fn_regular:.1f} TN reg {tn_regular:.1f} TN warm {tn_warmup:.1f} {'ok' if ok else 'FAIL'}")
        assert time.monotonic() - seed_start < 120.0
    print("\n" + "\n".join("  " + d for d in details))
    assert passes >= NEEDED, f"memorization separation held for only {passes}/5 seeds"
    report(6, "memorization phenomenon", f"{passes}/5 seeds in {time.monotonic() - started:.0f}s")


def test_criterion_07_scheme_ordering():
    started = time.monotonic()
    passes = 0
    details = []
    for seed in SEEDS:
        naive = benchmark_run(seed, "naive-an").test_map
        llr = benchmark_run(seed, "ll-r").test_map
        llct = benchmark_run(seed, "ll-ct").test_map
        llcp = benchmark_run(seed, "ll-cp").test_map
        full = benchmark_run(seed, "naive-an", full_labels=True).test_map
        arms = {"ll-r": llr, "ll-ct": llct, "ll-cp": llcp}
        gained = all(v >= naive + 1.0 for v in arms.values())
        dominated = all(full >= v for v in (naive, *arms.values()))
        ok = gained and dominated
        passes += ok
        details.append(
            f"seed {seed}: naive {naive:.2f} ll-r {llr:.2f} ll-ct {llct:.2f} "
            f"ll-cp {llcp:.2f} full {full:.2f} {'ok' if ok else 'FAIL'}"
        )
    elapsed = time.monotonic() - started
    print("\n" + "\n".join("  " + d for d in details))
    assert passes >= NEEDED, f"scheme ordering held for only {passes}/5 seeds"
    assert elapsed < 900.0, f"benchmark arms took {elapsed:.0f}s"
    report(7, "scheme ordering", f"{passes}/5 seeds, all arms trained in {elapsed:.0f}s")


def test_criterion_08_modification_precision():
    # delta_rel 0.2 selects floor(0.002 * 144) = 0 entries per batch at epoch
    # 2, so the smallest rate whose epoch-2 selection is nonempty is used;
    # see the decisions ledger
    passes = 0
    details = []
    for seed in SEEDS:
        rep = benchmark_run(seed, "ll-ct", delta_rel=0.7, epochs=2, with_test=False)
        record = rep.records[1]
        assert record.epoch == 2
        assert record.flags > 0, "epoch 2 must flag at least one entry"
        _, _, single_pos = benchmark_data(seed)
        train_split = single_pos.take(rep.train_indices)
        unknown = train_split.unknown_mask()
        base_rate = float((unknown & (train_split.truth == 1)).sum() / unknown.sum())
        ok = record.flag_precision is not None and record.flag_precision >= 2.0 * base_rate
        passes += ok
        details.append(
            f"seed {seed}: precision {record.flag_precision:.3f} vs base {base_rate:.3f} "
            f"({record.flags} flags) {'ok' if ok else 'FAIL'}"
        )
    print("\n" + "\n".join("  " + d for d in details))
    assert passes >= NEEDED, f"flag precision beat 2x base rate for only {passes}/5 seeds"
    report(8, "modification precision", f"{passes}/5 seeds at epoch 2")


def test_criterion_09_permanent_correction_monotonicity():
    checked_runs = 0
    for seed in SEEDS:
        rep = benchmark_run(seed, "ll-cp")
        cums = [r.cum_corrections for r in rep.records]
        assert all(b >= a for a, b in zip(cums, cums[1:])), f"seed {seed}: corrections decreased"
        changed = rep.initial_states != rep.final_states
        # every change is UNKNOWN -> CORRECTED_POS, and nothing ever reverted
        assert (rep.initial_states[changed] == LabelState.UNKNOWN).all()
        assert (rep.final_states[changed] == LabelState.CORRECTED_POS).all()
        assert int(changed.sum()) == cums[-1]
        corrected_total = int((rep.final_states == LabelState.CORRECTED_POS).sum())
        assert corrected_total == cums[-1]
        checked_runs += 1
    report(9, "permanent-correction monotonicity", f"{checked_runs} seeded runs, no reversions or re-flags")


def test_criterion_10_serialization_round_trips(tmp_path):
    rng = np.random.default_rng(31)
    U, P, N, C = (int(LabelState.UNKNOWN), int(LabelState.OBS_POS), int(LabelState.OBS_NEG), int(LabelState.CORRECTED_POS))
    for i in range(100):
        n, d, k = int(rng.integers(1, 12)), int(rng.integers(1, 6)), int(rng.integers(2, 7))
        truth = rng.integers(0, 2, size=(n, k)).astype(np.int8)
        pick = rng.integers(0, 3, size=(n, k))
        states = np.where(pick == 0, np.where(truth == 1, P, N), np.where(pick == 1, U, C)).astype(np.int8)
        features = rng.standard_normal((n, d)) * (10.0 ** rng.integers(-12, 12))
        ds = PartialDataset(features, states, truth if rng.random() < 0.7 else None)
        path = tmp_path / f"ds{i}.wsml"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.states, ds.states)
        assert np.array_equal(back.features, ds.features)
        assert (back.truth is None) == (ds.truth is None)
        if ds.truth is not None:
            assert np.array_equal(back.truth, ds.truth)

        arch = "linear" if rng.random() < 0.5 else "mlp1"
        m = model.init_classifier(arch, d, k, int(rng.integers(1, 9)), seed=int(rng.integers(1_000_000)))
        for p in m.params.values():
            p *= 10.0 ** rng.integers(-6, 6)
        mpath = tmp_path / f"m{i}.model"
        model.save_model(m, mpath)
        back_m = model.load_model(mpath)
        assert back_m.arch == m.arch
        for name in m.params:
            assert np.array_equal(back_m.params[name], m.params[name])
    report(10, "serialization round trips", "100 datasets and 100 models, values exact")
