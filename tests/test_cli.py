import dataclasses
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

import wsml.io as wsml_io
from wsml import dataset as ds_mod
from wsml import trainer as trainer_mod
from wsml.cli import TRAIN_FLAGS, load_tracker, main
from wsml.dataset import FormatError, LabelState, load_dataset
from wsml.model import init_classifier, make_optimizer
from wsml.schemes import Scheme, SchemeConfig
from wsml.trainer import TrainConfig

# the tuning flags each scheme reads, stated independently of the scheme table
READS = {
    "naive-an": set(),
    "ignore-unobserved": set(),
    "wan": set(),
    "lsan": {"eps_smooth"},
    "ll-r": {"delta_rel"},
    "ll-ct": {"delta_rel"},
    "ll-cp": {"delta_rel"},
    "ll-r-abs": {"r0", "delta_abs"},
    "ll-ct-abs": {"r0", "delta_abs"},
    "ll-cp-abs": {"r0", "delta_abs"},
}
# a valid value for each flag that differs from its default
FLAG_VALUES = {"delta_rel": 1.0, "r0": 2.5, "delta_abs": 0.05, "eps_smooth": 0.2}


def run_cli(*args):
    return main(list(args))


@pytest.fixture()
def gen_file(tmp_path):
    path = tmp_path / "full.wsml"
    code = run_cli(
        "gen", "--n", "60", "--dim", "4", "--classes", "5",
        "--pos-rate", "0.4", "--seed", "3", "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture()
def sp_file(tmp_path, gen_file):
    path = tmp_path / "sp.wsml"
    assert run_cli(
        "partialize", "--in", str(gen_file), "--mode", "single-positive",
        "--seed", "3", "--out", str(path),
    ) == 0
    return path


def train_args(data, prefix, scheme="naive-an", **extra):
    args = [
        "train", "--data", str(data), "--scheme", scheme, "--epochs", "3",
        "--batch", "8", "--seed", "5", "--arch", "linear", "--out-prefix", str(prefix),
    ]
    for flag, value in extra.items():
        args += [flag, str(value)]
    return args


class TestGen:
    def test_writes_header_and_dims(self, gen_file):
        lines = gen_file.read_text().splitlines()
        assert lines[0] == "WSML/1"
        assert lines[1].startswith("#cfg ")
        assert lines[2] == "60 4 5"
        assert "TRUTH" in lines

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.wsml", tmp_path / "b.wsml"
        flags = ["gen", "--n", "20", "--dim", "3", "--classes", "4", "--pos-rate", "0.5", "--seed", "9"]
        assert run_cli(*flags, "--out", str(a)) == 0
        assert run_cli(*flags, "--out", str(b)) == 0
        assert a.read_bytes().replace(str(a).encode(), b"") == b.read_bytes().replace(str(b).encode(), b"")

    def test_missing_out_is_usage_error(self, capsys):
        code = run_cli("gen", "--n", "10", "--dim", "2", "--classes", "3", "--pos-rate", "0.5", "--seed", "1")
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_flag_value_is_usage_error(self, tmp_path):
        code = run_cli(
            "gen", "--n", "10", "--dim", "2", "--classes", "3",
            "--pos-rate", "1.5", "--seed", "1", "--out", str(tmp_path / "x.wsml"),
        )
        assert code == 1
        for flag, value in [("--temperature", "nan"), ("--temperature", "inf"), ("--temperature", "-inf"),
                            ("--pos-rate", "nan"), ("--pos-rate", "inf")]:
            flags = {"--pos-rate": "0.5", "--temperature": "1.0", flag: value}
            code = run_cli(
                "gen", "--n", "10", "--dim", "2", "--classes", "3", "--seed", "1",
                *[token for item in flags.items() for token in item], "--out", str(tmp_path / "x.wsml"),
            )
            assert code == 1, (flag, value)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_rejected(self, tmp_path):
        code = run_cli(
            "gen", "--n", "10", "--dim", "2", "--classes", "3", "--pos-rate", "0.5",
            "--seed", "1", "--out", str(tmp_path / "x.wsml"), "--bogus", "1",
        )
        assert code == 1


class TestPartialize:
    def test_single_positive_counts(self, sp_file):
        ds = load_dataset(sp_file)
        assert int((ds.states == LabelState.OBS_POS).sum()) == ds.n
        assert int((ds.states != LabelState.UNKNOWN).sum()) == ds.n
        assert ds.truth is not None

    def test_fraction_counts(self, tmp_path, gen_file):
        out = tmp_path / "frac.wsml"
        assert run_cli(
            "partialize", "--in", str(gen_file), "--mode", "fraction",
            "--fraction", "0.25", "--seed", "2", "--out", str(out),
        ) == 0
        ds = load_dataset(out)
        assert int((ds.states != LabelState.UNKNOWN).sum()) == int(0.25 * 60 * 5)

    def test_fraction_mode_requires_fraction_flag(self, tmp_path, gen_file, capsys):
        code = run_cli(
            "partialize", "--in", str(gen_file), "--mode", "fraction",
            "--seed", "2", "--out", str(tmp_path / "x.wsml"),
        )
        assert code == 1
        assert "fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--fraction", "1.5", "--seed", "2"], "--fraction must lie in (0, 1], got 1.5"),
        (["--fraction", "0.5", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    ])
    def test_bad_fraction_or_seed_is_usage_error(self, tmp_path, gen_file, capsys, flags, message):
        out = tmp_path / "x.wsml"
        assert run_cli("partialize", "--in", str(gen_file), "--mode", "fraction", *flags, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_fraction_mode_on_a_partial_set_is_runtime_error(self, tmp_path, sp_file, capsys):
        out = tmp_path / "x.wsml"
        code = run_cli(
            "partialize", "--in", str(sp_file), "--mode", "fraction", "--fraction", "0.5",
            "--seed", "2", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == "error: fraction partialization requires a fully observed dataset\n"
        assert not out.exists()

    def test_missing_truth_is_runtime_error(self, tmp_path, capsys):
        bare = tmp_path / "bare.wsml"
        bare.write_text("WSML/1\n2 2 2\n0 0\n1 1\n1 0\n0 1\n")
        code = run_cli(
            "partialize", "--in", str(bare), "--mode", "single-positive",
            "--seed", "1", "--out", str(tmp_path / "x.wsml"),
        )
        assert code == 2
        assert "TRUTH" in capsys.readouterr().err

    def test_unreadable_input_is_runtime_error(self, tmp_path):
        code = run_cli(
            "partialize", "--in", str(tmp_path / "missing.wsml"), "--mode", "single-positive",
            "--seed", "1", "--out", str(tmp_path / "x.wsml"),
        )
        assert code == 2


class TestTrain:
    def test_writes_all_outputs(self, tmp_path, sp_file):
        prefix = tmp_path / "runA"
        assert run_cli(*train_args(sp_file, prefix)) == 0
        assert (tmp_path / "runA.metrics.csv").exists()
        assert (tmp_path / "runA.report.json").exists()
        assert (tmp_path / "runA.model").exists()
        assert (tmp_path / "runA.tracker").exists()

    def test_metrics_csv_columns(self, tmp_path, sp_file):
        prefix = tmp_path / "runB"
        run_cli(*train_args(sp_file, prefix))
        lines = (tmp_path / "runB.metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_map,flags,flag_precision,cum_corrections,threshold_min"
        assert len(lines) == 1 + 3

    def test_report_selects_best_epoch(self, tmp_path, sp_file):
        prefix = tmp_path / "runC"
        run_cli(*train_args(sp_file, prefix, scheme="ll-ct", **{"--delta-rel": 2.0}))
        report = json.loads((tmp_path / "runC.report.json").read_text())
        maps = [e["val_map"] for e in report["epochs"]]
        assert report["best_val_map"] == max(maps)
        assert report["best_epoch"] == maps.index(max(maps)) + 1
        assert report["config"]["scheme"] == "ll-ct"

    def test_degenerate_schemes_produce_identical_metrics(self, tmp_path, sp_file):
        pa, pb, pc = tmp_path / "na", tmp_path / "llr0", tmp_path / "lsan0"
        run_cli(*train_args(sp_file, pa, scheme="naive-an"))
        run_cli(*train_args(sp_file, pb, scheme="ll-r", **{"--delta-rel": 0.0}))
        run_cli(*train_args(sp_file, pc, scheme="lsan", **{"--eps-smooth": 0.0}))
        naive = (tmp_path / "na.metrics.csv").read_bytes()
        assert (tmp_path / "llr0.metrics.csv").read_bytes() == naive
        assert (tmp_path / "lsan0.metrics.csv").read_bytes() == naive

    @pytest.mark.parametrize(
        "scheme,extra,warned",
        [("ll-cp", {"--llcp-granularity": "batch", "--delta-rel": 0.2}, True),
         ("ll-cp", {"--llcp-granularity": "epoch", "--delta-rel": 0.2}, False),
         ("ll-cp", {"--llcp-granularity": "batch", "--delta-rel": 5.0}, False),
         ("ll-r", {"--delta-rel": 0.0}, True),
         ("ll-ct", {"--delta-rel": 0.2}, True),  # 0.4% of 16x4 entries at epoch 3
         ("ll-ct", {"--delta-rel": 1.0}, False),  # 2% of 16x4 entries at epoch 3
         ("ll-r-abs", {}, False),
         ("naive-an", {}, False)],
    )
    def test_warns_once_when_every_batch_quota_is_zero(self, tmp_path, capsys, scheme, extra, warned):
        full, data = tmp_path / "full.wsml", tmp_path / "sp.wsml"
        assert run_cli("gen", "--n", "200", "--dim", "5", "--classes", "4", "--pos-rate", "0.4",
                       "--seed", "2", "--out", str(full)) == 0
        assert run_cli("partialize", "--in", str(full), "--mode", "single-positive", "--seed", "2",
                       "--out", str(data)) == 0
        capsys.readouterr()
        args = train_args(data, tmp_path / "run", scheme=scheme, **{"--batch": 16, **extra})  # the later --batch wins
        assert run_cli(*args) == 0
        assert capsys.readouterr().err.count("per batch rounds to 0 in every epoch") == int(warned)
        if warned:  # the run it warns about flags nothing and trains as plain AN
            assert run_cli(*train_args(data, tmp_path / "naive", **{"--batch": 16})) == 0
            assert (tmp_path / "run.metrics.csv").read_bytes() == (tmp_path / "naive.metrics.csv").read_bytes()

    def test_subsample_echoes_effective_n(self, tmp_path, sp_file):
        prefix = tmp_path / "runD"
        run_cli(*train_args(sp_file, prefix, **{"--subsample": 0.5}))
        report = json.loads((tmp_path / "runD.report.json").read_text())
        assert report["effective_n"] == 30

    def test_irrelevant_hyperparameter_warns_and_is_ignored(self, tmp_path, sp_file, capsys):
        prefix = tmp_path / "runE"
        assert run_cli(*train_args(sp_file, prefix, scheme="ll-r", **{"--delta-rel": 1.0, "--r0": 9.9})) == 0
        assert "ignoring --r0" in capsys.readouterr().err
        report = json.loads((tmp_path / "runE.report.json").read_text())
        assert report["config"]["r0"] == 1.5  # default, not the ignored value

    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    @pytest.mark.parametrize("token", [s.value for s in Scheme])
    def test_warns_exactly_for_flags_the_scheme_does_not_read(self, tmp_path, sp_file, capsys, token, flag):
        prefix = tmp_path / "run"
        option = "--" + flag.replace("_", "-")
        args = train_args(sp_file, prefix, scheme=token, **{option: FLAG_VALUES[flag]})
        args[args.index("--epochs") + 1] = "1"
        assert run_cli(*args) == 0
        warned = f"ignoring {option} " in capsys.readouterr().err
        assert warned == (flag not in READS[token])
        echoed = json.loads((tmp_path / "run.report.json").read_text())["config"][flag]
        assert (echoed == FLAG_VALUES[flag]) == (flag in READS[token])

    def test_invalid_scheme_token_is_usage_error(self, tmp_path, sp_file):
        assert run_cli(*train_args(sp_file, tmp_path / "x", scheme="ll-q")) == 1

    @pytest.mark.parametrize("scheme,flag,value", [
        ("ll-r", "--delta-rel", "nan"), ("ll-r", "--delta-rel", "inf"),
        ("naive-an", "--lr", "nan"), ("naive-an", "--lr", "inf"),
        ("ll-ct-abs", "--r0", "nan"), ("ll-ct-abs", "--r0", "inf"),
        ("ll-ct-abs", "--delta-abs", "nan"), ("ll-ct-abs", "--delta-abs", "inf"),
        ("naive-an", "--hidden", "0"),
    ])
    def test_non_finite_flag_value_is_usage_error(self, tmp_path, sp_file, capsys, scheme, flag, value):
        (tmp_path / "out").mkdir()
        # mlp1: a linear model has no hidden layer, so --hidden 0 is valid for it
        argv = train_args(sp_file, tmp_path / "out" / "run", scheme=scheme, **{"--arch": "mlp1", flag: value})
        assert run_cli(*argv) == 1
        assert "usage error" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("flag,value,message", [
        ("--subsample", "1.5", "subsample fraction must lie in (0, 1], got 1.5"),
        ("--epochs", "0", "need epochs >= 1, got 0"),
        ("--batch", "0", "need batch_size >= 1, got 0"),
        ("--val-frac", "1", "val_fraction must lie in (0, 1), got 1.0"),
        ("--frozen-epochs", "-1", "frozen_epochs must be nonnegative, got -1"),
        ("--seed", "-1", "seed must be nonnegative, got -1"),
    ])
    def test_each_config_rule_is_usage_error(self, tmp_path, sp_file, capsys, flag, value, message):
        (tmp_path / "out").mkdir()
        assert run_cli(*train_args(sp_file, tmp_path / "out" / "run", **{flag: value})) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_test_data_without_truth_is_runtime_error(self, tmp_path, sp_file, capsys):
        bare = tmp_path / "bare.wsml"
        bare.write_text("WSML/1\n2 4 5\n" + "0 0 0 0\n" * 2 + "u u u u u\n" * 2)
        (tmp_path / "out").mkdir()
        assert run_cli(*train_args(sp_file, tmp_path / "out" / "run", **{"--test-data": str(bare)})) == 2
        assert capsys.readouterr().err == f"error: {bare}: test dataset has no TRUTH section\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_test_data_of_another_shape_is_runtime_error(self, tmp_path, sp_file, capsys):
        other = tmp_path / "other.wsml"
        assert run_cli("gen", "--n", "30", "--dim", "3", "--classes", "5", "--pos-rate", "0.4",
                       "--seed", "1", "--out", str(other)) == 0
        prefix = tmp_path / "run"
        assert run_cli(*train_args(sp_file, prefix, **{"--test-data": str(other)})) == 2
        assert "(D, K) = (3, 5), training data (4, 5)" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["full.wsml", "other.wsml", "sp.wsml"]

    def test_test_data_flag_produces_test_map(self, tmp_path, gen_file, sp_file):
        prefix = tmp_path / "runF"
        assert run_cli(*train_args(sp_file, prefix, **{"--test-data": str(gen_file)})) == 0
        report = json.loads((tmp_path / "runF.report.json").read_text())
        assert report["test_map"] is not None


class TestEval:
    @pytest.fixture()
    def trained(self, tmp_path, sp_file):
        prefix = tmp_path / "trained"
        run_cli(*train_args(sp_file, prefix))
        return prefix

    def test_eval_reports_map(self, tmp_path, gen_file, trained, capsys):
        assert run_cli("eval", "--model", f"{trained}.model", "--data", str(gen_file)) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 <= out["map"] <= 100.0
        assert len(out["per_category_ap"]) == 5

    def test_groups_partition_categories(self, tmp_path, gen_file, trained, capsys):
        assert run_cli(
            "eval", "--model", f"{trained}.model", "--data", str(gen_file),
            "--groups", "5", "--group-key", "positives",
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["group_map"]) == 5

    def test_single_group_equals_overall(self, tmp_path, gen_file, trained, capsys):
        run_cli("eval", "--model", f"{trained}.model", "--data", str(gen_file), "--groups", "1")
        out = json.loads(capsys.readouterr().out)
        assert out["group_map"][0] == pytest.approx(out["map"], abs=1e-9)

    def test_phase_table_requires_tracker(self, trained, gen_file):
        assert run_cli(
            "eval", "--model", f"{trained}.model", "--data", str(gen_file), "--phase-table",
        ) == 1

    def test_phase_table_from_tracker(self, tmp_path, sp_file, trained, capsys):
        assert run_cli(
            "eval", "--model", f"{trained}.model", "--data", str(sp_file),
            "--phase-table", "--tracker", f"{trained}.tracker",
        ) == 0
        out = json.loads(capsys.readouterr().out)
        table = out["phase_distribution"]
        assert set(table) == {"TP", "TN", "FN"}
        tp = table["TP"]
        assert tp["warmup_pct"] + tp["regular_pct"] == pytest.approx(100.0)

    def test_zero_groups_is_usage_error(self, gen_file, trained, capsys):
        assert run_cli("eval", "--model", f"{trained}.model", "--data", str(gen_file), "--groups", "0") == 1
        assert capsys.readouterr().err == "usage error: --groups must be >= 1, got 0\n"

    def test_tracker_rows_beyond_the_dataset_are_runtime_error(self, tmp_path, trained, capsys):
        # the tracker names rows of the 60-row training file; this file has 10
        small = tmp_path / "small.wsml"
        assert run_cli("gen", "--n", "10", "--dim", "4", "--classes", "5", "--pos-rate", "0.4",
                       "--seed", "1", "--out", str(small)) == 0
        assert load_tracker(f"{trained}.tracker")[0].max() >= 10
        out = tmp_path / "eval.json"
        code = run_cli("eval", "--model", f"{trained}.model", "--data", str(small), "--phase-table",
                       "--tracker", f"{trained}.tracker", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"error: {trained}.tracker: row indices exceed dataset size 10\n"
        assert not out.exists()

    def test_missing_truth_is_runtime_error(self, tmp_path, trained):
        bare = tmp_path / "bare.wsml"
        bare.write_text("WSML/1\n2 4 5\n" + "0 0 0 0\n" * 2 + "u u u u u\n" * 2)
        assert run_cli("eval", "--model", f"{trained}.model", "--data", str(bare)) == 2

    def test_tracker_round_trip(self, trained, sp_file):
        rows, max_loss, argmax, epochs = load_tracker(f"{trained}.tracker")
        ds = load_dataset(sp_file)
        assert epochs == 3
        assert rows.size == max_loss.shape[0]
        assert rows.max() < ds.n
        assert (argmax >= 1).all() and (argmax <= 3).all()


class TestLoadTracker:
    """A malformed tracker fails with FormatError at its line, and eval exits 2."""

    @pytest.fixture()
    def dump(self, tmp_path, sp_file):
        assert run_cli(*train_args(sp_file, tmp_path / "t")) == 0
        lines = (tmp_path / "t.tracker").read_text().splitlines()
        return lines, int(lines[2].split()[0])  # dump lines, N

    def assert_rejected_at(self, tmp_path, sp_file, capsys, lines, line):
        path = tmp_path / "bad.tracker"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            load_tracker(path)
        assert err.value.line == line
        capsys.readouterr()
        code = run_cli(
            "eval", "--model", str(tmp_path / "t.model"), "--data", str(sp_file),
            "--phase-table", "--tracker", str(path),
        )
        assert code == 2
        assert f"line {line}:" in capsys.readouterr().err

    def test_wrong_token_count(self, tmp_path, sp_file, capsys, dump):
        lines, _ = dump
        lines[4] = " ".join(lines[4].split()[:-1])  # first max-loss row, one value short
        self.assert_rejected_at(tmp_path, sp_file, capsys, lines, 5)

    def test_non_numeric_token(self, tmp_path, sp_file, capsys, dump):
        lines, n = dump
        row = lines[4 + n + 1].split()  # second argmax row
        lines[4 + n + 1] = " ".join(["x"] + row[1:])
        self.assert_rejected_at(tmp_path, sp_file, capsys, lines, 6 + n)

    def test_negative_row_index(self, tmp_path, sp_file, capsys, dump):
        lines, _ = dump
        lines[3] = " ".join(["-1"] + lines[3].split()[1:])
        self.assert_rejected_at(tmp_path, sp_file, capsys, lines, 4)

    @pytest.mark.parametrize("dims", ["48 5", "48 5 3 1", "48 five 3", "48 5 0"])
    def test_bad_dimension_line(self, tmp_path, sp_file, capsys, dump, dims):
        lines, _ = dump
        lines[2] = dims
        self.assert_rejected_at(tmp_path, sp_file, capsys, lines, 3)

    @pytest.mark.parametrize("epoch", ["0", "4", "99"])
    def test_argmax_outside_epochs(self, tmp_path, sp_file, capsys, dump, epoch):
        lines, n = dump
        row = lines[4 + n + 2].split()  # third argmax row of a 3-epoch run
        lines[4 + n + 2] = " ".join(row[:-1] + [epoch])
        self.assert_rejected_at(tmp_path, sp_file, capsys, lines, 7 + n)

    def test_trailing_content(self, tmp_path, sp_file, capsys, dump):
        lines, _ = dump
        self.assert_rejected_at(tmp_path, sp_file, capsys, lines + ["garbage"], len(lines) + 1)


class TestSweep:
    @pytest.mark.parametrize("token", [s.value for s in Scheme])
    def test_delta_rel_sweep_accepted_exactly_for_relative_schemes(self, tmp_path, sp_file, monkeypatch, token):
        monkeypatch.setenv("WSML_THREADS", "1")
        code = run_cli(
            "sweep", "--param", "delta-rel", "--values", "0.1",
            "--data", str(sp_file), "--scheme", token, "--epochs", "1", "--batch", "8",
            "--seed", "1", "--arch", "linear", "--out", str(tmp_path / "x.csv"),
        )
        assert code == (0 if token in ("ll-r", "ll-ct", "ll-cp") else 1)

    def test_delta_rel_sweep_rows(self, tmp_path, gen_file, sp_file, monkeypatch):
        monkeypatch.setenv("WSML_THREADS", "1")
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--param", "delta-rel", "--values", "0.3,0.1,0.5,0.2,0.4",
            "--data", str(sp_file), "--test-data", str(gen_file),
            "--scheme", "ll-ct", "--epochs", "2", "--batch", "8",
            "--seed", "5", "--arch", "linear", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#cfg ")
        assert lines[1] == "value,effective_n,best_val_map,best_epoch,test_map"
        assert len(lines) == 2 + 5
        values = [float(line.split(",")[0]) for line in lines[2:]]
        assert values == sorted(values)  # rows ordered by value, not input order
        assert all(line.split(",")[4] for line in lines[2:])  # test_map populated

    def test_values_alike_in_six_digits_keep_their_own_cells(self, tmp_path, sp_file, monkeypatch):
        monkeypatch.setenv("WSML_THREADS", "1")
        out = tmp_path / "close.csv"
        code = run_cli(
            "sweep", "--param", "delta-rel", "--values", "0.1234568,0.5,0.1234567",
            "--data", str(sp_file), "--scheme", "ll-r", "--epochs", "1", "--batch", "8",
            "--seed", "5", "--arch", "linear", "--out", str(out),
        )
        assert code == 0
        cells = [line.split(",")[0] for line in out.read_text().splitlines()[2:]]
        assert cells == ["0.1234567", "0.1234568", "0.5"]  # %g would write 0.123457 twice

    def test_subsample_sweep_reports_effective_n(self, tmp_path, sp_file, monkeypatch):
        monkeypatch.setenv("WSML_THREADS", "2")
        out = tmp_path / "sub.csv"
        code = run_cli(
            "sweep", "--param", "subsample", "--values", "0.5,1.0",
            "--data", str(sp_file), "--scheme", "naive-an", "--epochs", "2", "--batch", "8",
            "--seed", "5", "--arch", "linear", "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()[2:]
        assert [int(r.split(",")[1]) for r in rows] == [30, 60]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_each_data_file_loads_once_per_sweep(self, tmp_path, gen_file, sp_file, monkeypatch, threads):
        log = tmp_path / "loads.log"
        load = ds_mod.load_dataset

        def logged(path):  # a file, so that loads in forked workers count too
            with open(log, "a") as fh:
                fh.write(os.path.basename(path) + "\n")
            return load(path)

        monkeypatch.setattr(ds_mod, "load_dataset", logged)
        monkeypatch.setenv("WSML_THREADS", threads)
        code = run_cli(
            "sweep", "--param", "delta-rel", "--values", "0.1,0.2,0.3",
            "--data", str(sp_file), "--test-data", str(gen_file), "--scheme", "ll-r", "--epochs", "1",
            "--batch", "8", "--seed", "5", "--arch", "linear", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        assert sorted(log.read_text().split()) == sorted([sp_file.name, gen_file.name])

    @pytest.mark.parametrize("values,message", [("0.001,1", "keeps nothing"), ("0.5,1", "No such file")])
    def test_first_arm_subsample_error_precedes_test_data_error(self, tmp_path, sp_file, capsys, values, message):
        code = run_cli(
            "sweep", "--param", "subsample", "--values", values, "--data", str(sp_file),
            "--test-data", str(tmp_path / "missing.wsml"), "--scheme", "naive-an", "--epochs", "1",
            "--seed", "5", "--arch", "linear", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2 and message in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_duplicate_values_named(self, tmp_path, sp_file, capsys):
        code = run_cli(
            "sweep", "--param", "delta-rel", "--values", "0.1,0.2,0.1",
            "--data", str(sp_file), "--scheme", "ll-r", "--epochs", "1", "--batch", "8",
            "--seed", "1", "--arch", "linear", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "0.1" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["0.5,nan", "0.5,inf"])
    def test_non_finite_value_is_usage_error(self, tmp_path, sp_file, capsys, values):
        code = run_cli(
            "sweep", "--param", "delta-rel", "--values", values,
            "--data", str(sp_file), "--scheme", "ll-r", "--epochs", "1", "--batch", "8",
            "--seed", "1", "--arch", "linear", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_non_numeric_value_is_usage_error(self, tmp_path, sp_file, capsys):
        code = run_cli(
            "sweep", "--param", "delta-rel", "--values", "1,x",
            "--data", str(sp_file), "--scheme", "ll-r", "--epochs", "1", "--batch", "8",
            "--seed", "1", "--arch", "linear", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert capsys.readouterr().err == "usage error: bad sweep value: could not convert string to float: 'x'\n"
        assert not (tmp_path / "x.csv").exists()

    def test_empty_values_rejected(self, tmp_path, sp_file):
        code = run_cli(
            "sweep", "--param", "delta-rel", "--values", ",",
            "--data", str(sp_file), "--scheme", "ll-r", "--epochs", "1", "--batch", "8",
            "--seed", "1", "--arch", "linear", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    def test_ignored_flag_warns_once_per_sweep(self, tmp_path, sp_file, capsys, monkeypatch):
        monkeypatch.setenv("WSML_THREADS", "1")
        assert run_cli(
            "sweep", "--param", "delta-rel", "--values", "1,2", "--r0", "9",
            "--data", str(sp_file), "--scheme", "ll-r", "--epochs", "1", "--batch", "8",
            "--seed", "1", "--arch", "linear", "--out", str(tmp_path / "x.csv"),
        ) == 0
        assert capsys.readouterr().err.count("ignoring --r0") == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_warns_once_for_each_arm_whose_batches_never_flag(self, tmp_path, capsys, monkeypatch, threads):
        full, data = tmp_path / "full.wsml", tmp_path / "sp.wsml"
        assert run_cli("gen", "--n", "200", "--dim", "5", "--classes", "4", "--pos-rate", "0.4",
                       "--seed", "2", "--out", str(full)) == 0
        assert run_cli("partialize", "--in", str(full), "--mode", "single-positive", "--seed", "2",
                       "--out", str(data)) == 0
        capsys.readouterr()
        monkeypatch.setenv("WSML_THREADS", threads)
        # at epoch 3 the rate is 2 * value percent of at most 16x4 unknown entries a batch
        assert run_cli(
            "sweep", "--param", "delta-rel", "--values", "5,0.2,0.1", "--data", str(data), "--scheme", "ll-r",
            "--epochs", "3", "--batch", "16", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        ) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if "rounds to 0 in every epoch" in line]
        assert [line.split(":")[1] for line in warnings] == [" sweep value 0.1", " sweep value 0.2"]

    @pytest.mark.parametrize("param,values,key,other", [
        ("delta-rel", "0.2,5", "delta_rel", ("subsample", 0.7)),
        ("subsample", "0.5,1", "subsample", ("delta_rel", 3.0)),
    ])
    def test_cfg_line_nulls_the_swept_key(self, tmp_path, sp_file, monkeypatch, param, values, key, other):
        """The base value of the swept flag is no arm's value, so the echo names none."""
        monkeypatch.setenv("WSML_THREADS", "1")
        out = tmp_path / "s.csv"
        assert run_cli(
            "sweep", "--param", param, "--values", values, "--delta-rel", "3", "--subsample", "0.7",
            "--data", str(sp_file), "--scheme", "ll-r", "--epochs", "1", "--batch", "8", "--seed", "1",
            "--arch", "linear", "--out", str(out),
        ) == 0
        text = out.read_text().splitlines()[0]
        cfg = json.loads(text[len("#cfg "):])
        assert cfg[key] is None and cfg[other[0]] == other[1]
        assert cfg["values"] == sorted(map(float, values.split(",")))
        assert list(cfg) == sorted(cfg)  # the keys keep their order
        assert set(cfg) == {"cmd", "param", "values", "out", *TestOutputLayout.TRAIN_CONFIG[2:]}

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_an_arm_whose_subsample_keeps_nothing_loses_no_other_row(self, tmp_path, sp_file, capsys,
                                                                      monkeypatch, threads):
        monkeypatch.setenv("WSML_THREADS", threads)
        out = tmp_path / "s.csv"
        assert run_cli(
            "sweep", "--param", "subsample", "--values", "0.5,1,0.001", "--data", str(sp_file),
            "--scheme", "naive-an", "--epochs", "2", "--batch", "8", "--seed", "5", "--arch", "linear",
            "--out", str(out),
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: sweep value 0.001: subsample of 60 samples at fraction 0.001 keeps nothing"]
        lines = out.read_text().splitlines()
        assert lines[1] == "value,effective_n,best_val_map,best_epoch,test_map"
        cells = [line.split(",") for line in lines[2:]]
        assert cells[0] == ["0.001", "", "", "", ""]
        assert [c[:2] for c in cells[1:]] == [["0.5", "30"], ["1", "60"]]
        assert all(c[2] and c[3] for c in cells[1:])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_sweep_whose_every_subsample_keeps_nothing_writes_each_row(self, tmp_path, sp_file, capsys,
                                                                         monkeypatch, threads):
        monkeypatch.setenv("WSML_THREADS", threads)
        out = tmp_path / "s.csv"
        assert run_cli(
            "sweep", "--param", "subsample", "--values", "0.002,0.001", "--data", str(sp_file),
            "--scheme", "naive-an", "--epochs", "2", "--batch", "8", "--seed", "5", "--arch", "linear",
            "--out", str(out),
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: sweep value {v}: subsample of 60 samples at fraction {v} keeps nothing"
                       for v in ("0.001", "0.002")]
        lines = out.read_text().splitlines()
        assert lines[1] == "value,effective_n,best_val_map,best_epoch,test_map"
        assert [line.split(",") for line in lines[2:]] == [["0.001", "", "", "", ""], ["0.002", "", "", "", ""]]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched trainer reaches the workers only by fork")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_an_arm_that_fails_in_training_loses_no_other_row(self, tmp_path, sp_file, capsys, monkeypatch,
                                                              threads):
        end_epoch = trainer_mod._end_epoch

        def diverge_at_02(arm, epoch, probs, *args):  # arm 0.2's epoch-end loss alone is not finite
            if arm.cfg.scheme.delta_rel == 0.2:
                probs[0, 0] = np.nan
            return end_epoch(arm, epoch, probs, *args)

        monkeypatch.setattr(trainer_mod, "_end_epoch", diverge_at_02)
        rows = {}
        for n in ("1", threads):  # the single-process sweep is the reference
            monkeypatch.setenv("WSML_THREADS", n)
            out = tmp_path / f"s{n}.csv"
            assert run_cli(
                "sweep", "--param", "delta-rel", "--values", "0.3,0.2,0.1", "--data", str(sp_file),
                "--scheme", "ll-r", "--epochs", "2", "--batch", "8", "--seed", "5", "--arch", "linear",
                "--out", str(out),
            ) == 2
            errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
            assert errors == ["error: sweep value 0.2: training diverged at epoch 1: non-finite batch loss"]
            rows[n] = out.read_text().splitlines()[1:]
        assert rows["1"] == rows[threads]
        cells = [line.split(",") for line in rows[threads][1:]]
        assert [c[0] for c in cells] == ["0.1", "0.2", "0.3"]
        assert cells[1] == ["0.2", "", "", "", ""]
        assert all(c[1] == "60" and c[2] for c in (cells[0], cells[2]))

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork" or not hasattr(os, "sched_getaffinity")
                        or len(wsml_io.usable_cpus()) < 2,
                        reason="the patched trainer reaches the workers only by fork; pinning needs two CPUs")
    def test_each_pool_worker_runs_pinned_to_its_own_cpu(self, tmp_path, sp_file, monkeypatch):
        start, log, before = trainer_mod._start, tmp_path / "arms.log", os.sched_getaffinity(0)

        def logged(cfg, *args):  # each arm notes its process and the CPUs that process may run on
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {','.join(map(str, sorted(os.sched_getaffinity(0))))}\n")
            time.sleep(0.3)  # so that both workers take arms
            return start(cfg, *args)

        monkeypatch.setattr(trainer_mod, "_start", logged)
        rows = {}
        for n in ("1", "2"):  # the single-process sweep is the reference
            log.unlink(missing_ok=True)
            monkeypatch.setenv("WSML_THREADS", n)
            out = tmp_path / f"s{n}.csv"
            assert run_cli(
                "sweep", "--param", "delta-rel", "--values", "0.1,0.2,0.3,0.4", "--data", str(sp_file),
                "--scheme", "ll-r", "--epochs", "2", "--batch", "8", "--seed", "5", "--arch", "linear",
                "--out", str(out),
            ) == 0
            rows[n] = out.read_text().splitlines()[1:]
        assert rows["1"] == rows["2"]
        arms = [line.split() for line in log.read_text().splitlines()]
        assert len(arms) == 4 and all("," not in cpus for _, cpus in arms)  # each arm on one CPU
        cpus = dict(arms)  # by worker
        assert len(cpus) == 2 and len(set(cpus.values())) == 2
        assert os.sched_getaffinity(0) == before

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched trainer reaches the workers only by fork")
    def test_a_dead_worker_is_reported_for_each_arm_it_loses(self, tmp_path, sp_file, capsys, monkeypatch):
        start = trainer_mod._start

        def die_at_02(cfg, *args):
            if cfg.scheme.delta_rel == 0.2:
                os._exit(1)
            return start(cfg, *args)

        monkeypatch.setattr(trainer_mod, "_start", die_at_02)
        monkeypatch.setenv("WSML_THREADS", "2")
        out = tmp_path / "s.csv"
        assert run_cli(
            "sweep", "--param", "delta-rel", "--values", "0.1,0.2,0.3", "--data", str(sp_file),
            "--scheme", "ll-r", "--epochs", "2", "--batch", "8", "--seed", "5", "--arch", "linear",
            "--out", str(out),
        ) == 2
        err = capsys.readouterr().err
        cells = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [c[0] for c in cells] == ["0.1", "0.2", "0.3"]
        assert cells[1] == ["0.2", "", "", "", ""]
        # the arms the pool lost with the worker are named; the others keep their rows
        for c in cells:
            named = f"error: sweep value {c[0]}: A process in the process pool was terminated abruptly" in err
            assert named == (c[1] == ""), (c, err)

    def test_delta_rel_sweep_needs_relative_scheme(self, tmp_path, sp_file):
        code = run_cli(
            "sweep", "--param", "delta-rel", "--values", "0.1,0.2",
            "--data", str(sp_file), "--scheme", "naive-an", "--epochs", "1", "--batch", "8",
            "--seed", "1", "--arch", "linear", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1


class TestOutputLayout:
    """Key order and cell format of the text outputs, which their readers may rely on."""

    TRAIN_CONFIG = [
        "cmd", "out_prefix", "data", "test_data", "epochs", "batch", "optimizer", "lr", "arch", "hidden",
        "frozen_epochs", "val_frac", "seed", "subsample", "llcp_granularity",
        "scheme", "delta_rel", "r0", "delta_abs", "eps_smooth",
    ]
    EPOCH = ["epoch", "train_loss", "val_map", "flags", "flags_true_pos", "flag_precision",
             "cum_corrections", "threshold_min"]

    def test_report_json(self, tmp_path, sp_file):
        prefix = tmp_path / "run"
        assert run_cli(*train_args(sp_file, prefix, scheme="ll-r", **{"--delta-rel": 10.0})) == 0
        report = json.loads((tmp_path / "run.report.json").read_text())
        assert list(report) == ["config", "effective_n", "best_epoch", "best_val_map", "test_map",
                                "model_path", "epochs"]
        assert list(report["config"]) == self.TRAIN_CONFIG
        assert report["config"]["scheme"] == "ll-r" and report["config"]["delta_rel"] == 10.0
        assert [list(e) for e in report["epochs"]] == [self.EPOCH] * 3
        # epoch 1 selects nothing: a NaN threshold is written as null, not as the invalid JSON NaN
        assert report["epochs"][0]["threshold_min"] is None
        assert isinstance(report["epochs"][2]["threshold_min"], float)
        assert "NaN" not in (tmp_path / "run.report.json").read_text()

    def test_eval_json(self, tmp_path, gen_file, sp_file):
        prefix = tmp_path / "run"
        assert run_cli(*train_args(sp_file, prefix)) == 0
        out = tmp_path / "eval.json"
        # on the fully observed set no zero-target entry is a true positive, so FN is empty
        assert run_cli(
            "eval", "--model", f"{prefix}.model", "--data", str(gen_file), "--groups", "2",
            "--phase-table", "--tracker", f"{prefix}.tracker", "--out", str(out),
        ) == 0
        result = json.loads(out.read_text())
        assert list(result) == ["config", "map", "per_category_ap", "skipped_categories", "group_map",
                                "phase_distribution"]
        assert list(result["config"]) == ["cmd", "model", "data", "groups", "group_key", "phase_table", "tracker"]
        table = result["phase_distribution"]
        assert list(table) == ["TP", "TN", "FN"]
        assert list(table["TP"]) == list(table["TN"]) == ["warmup_pct", "regular_pct", "count"]
        assert table["FN"] is None

    def test_sweep_csv(self, tmp_path, sp_file, monkeypatch):
        monkeypatch.setenv("WSML_THREADS", "1")
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "--param", "delta-rel", "--values", "0.25,2",
            "--data", str(sp_file), "--scheme", "ll-r", "--epochs", "2", "--batch", "8",
            "--seed", "5", "--arch", "linear", "--out", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#cfg {")
        assert json.loads(lines[0][5:])["values"] == [0.25, 2.0]
        assert lines[1] == "value,effective_n,best_val_map,best_epoch,test_map"
        cells = [line.split(",") for line in lines[2:]]
        assert [c[0] for c in cells] == ["0.25", "2"]  # %g, not repr
        assert [c[4] for c in cells] == ["", ""]  # no --test-data: empty test_map
        for c in cells:
            assert len(c) == 5 and c[1] == "60" and c[2] == repr(float(c[2])) and c[3] in ("1", "2")


class TestWorkerCount:
    def test_env_caps_workers(self, monkeypatch):
        from wsml.cli import _worker_count

        monkeypatch.setenv("WSML_THREADS", "2")
        assert _worker_count(8) == 2
        assert _worker_count(1) == 1

    def test_bad_env_value_falls_back(self, monkeypatch, capsys):
        from wsml.cli import _worker_count

        monkeypatch.setenv("WSML_THREADS", "lots")
        assert _worker_count(1) == 1
        assert "WSML_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("env", [None, "0", "lots"])
    def test_default_is_the_cpus_this_process_may_run_on(self, monkeypatch, env):
        from wsml.cli import _worker_count

        if env is None:
            monkeypatch.delenv("WSML_THREADS", raising=False)
        else:
            monkeypatch.setenv("WSML_THREADS", env)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        assert _worker_count(8) == 3
        assert _worker_count(2) == 2
        # where the platform has no affinity mask, count every CPU
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _worker_count(8) == 8
        assert _worker_count(100) == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(8) == 1


class TestOneRule:
    """Each model rule reads the same from TrainConfig.validate, the model function and the CLI."""

    @pytest.mark.parametrize("field,value", [
        ("arch", "resnet"), ("hidden", 0), ("optimizer", "rmsprop"),
        ("learning_rate", 0.0), ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ])
    def test_same_message_everywhere(self, tmp_path, sp_file, capsys, field, value):
        cfg = TrainConfig(SchemeConfig(Scheme.NAIVE_AN), **{field: value})
        with pytest.raises(ValueError) as from_config:
            cfg.validate()
        with pytest.raises(ValueError) as from_model:
            if field in ("arch", "hidden"):
                init_classifier(cfg.arch, 4, 5, cfg.hidden)
            else:
                make_optimizer(cfg.optimizer, cfg.learning_rate, init_classifier("linear", 4, 5))
        assert str(from_model.value) == str(from_config.value)

        (tmp_path / "out").mkdir()
        flag = "--" + next(dest for dest, f in TRAIN_FLAGS if f == field).replace("_", "-")
        assert run_cli(*train_args(sp_file, tmp_path / "out" / "run", **{"--arch": "mlp1", flag: value})) == 1
        err = capsys.readouterr().err
        if field in ("arch", "optimizer"):  # argparse rejects these first, from the model's own lists
            assert err.startswith("usage error: argument ") and "invalid choice" in err
        else:
            assert err == f"usage error: {from_config.value}\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_flag_table_names_every_config_field_but_scheme_once(self):
        named = [field for _, field in TRAIN_FLAGS if field is not None]
        assert sorted(named) == sorted(f.name for f in dataclasses.fields(TrainConfig) if f.name != "scheme")
