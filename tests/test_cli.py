import json

import pytest

from wsml.cli import load_tracker, main
from wsml.dataset import FormatError, LabelState, load_dataset
from wsml.schemes import Scheme

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

    def test_duplicate_values_named(self, tmp_path, sp_file, capsys):
        code = run_cli(
            "sweep", "--param", "delta-rel", "--values", "0.1,0.2,0.1",
            "--data", str(sp_file), "--scheme", "ll-r", "--epochs", "1", "--batch", "8",
            "--seed", "1", "--arch", "linear", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "0.1" in capsys.readouterr().err

    def test_empty_values_rejected(self, tmp_path, sp_file):
        code = run_cli(
            "sweep", "--param", "delta-rel", "--values", ",",
            "--data", str(sp_file), "--scheme", "ll-r", "--epochs", "1", "--batch", "8",
            "--seed", "1", "--arch", "linear", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    def test_delta_rel_sweep_needs_relative_scheme(self, tmp_path, sp_file):
        code = run_cli(
            "sweep", "--param", "delta-rel", "--values", "0.1,0.2",
            "--data", str(sp_file), "--scheme", "naive-an", "--epochs", "1", "--batch", "8",
            "--seed", "1", "--arch", "linear", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1


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
