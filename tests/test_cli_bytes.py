import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_bytes", ROOT / "scripts" / "cli_bytes.py")
cli_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_bytes)

TINY = dict(n=60, dim=4, classes=5, epochs=2)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """The outputs of one pipeline run at the TINY shape."""
    path = tmp_path_factory.mktemp("cli_bytes") / "run"
    cli_bytes.run_side(ROOT / "src", path, **TINY)
    return path


def test_working_tree_against_itself_is_identical(tmp_path, capsys, tiny_run):
    a, b = tmp_path / "a", tiny_run
    cli_bytes.run_side(ROOT / "src", a, **TINY)
    assert cli_bytes.report(a, b) == 0
    assert capsys.readouterr().out.strip() == "identical"
    exits = {p.name.split("-", 1)[1]: p.read_text() for p in b.glob("*.exit")}
    assert len(exits) == 23
    assert sorted(name for name, code in exits.items() if code != "0\n") == ["notes-bad.exit", "sweep-fail.exit"]
    for name in ("full.wsml", "sp.wsml", "llcp-batch.report.json", "llr-linear-frozen.model", "eval.json",
                 "eval-linear.json", "sweep-2w.csv", "notes.wsml", "notes.model", "eval-notes.json"):
        assert (b / name).is_file(), name


def test_comment_lines_change_no_output_but_the_error_line(tiny_run):
    assert (tiny_run / "notes.wsml").read_text().splitlines()[7] == "# note"
    # the same flags on the same data, once with comment lines inside the blocks
    assert (tiny_run / "notes.metrics.csv").read_bytes() == (tiny_run / "llcp.metrics.csv").read_bytes()
    notes, plain = ({k: v for k, v in json.loads((tiny_run / name).read_text()).items() if k != "config"}
                    for name in ("eval-notes.json", "eval.json"))
    assert notes == plain and plain["map"] > 0
    # the failing train names state row 40's line: after the header, the dims line and n feature rows
    data_lines = [i for i, line in enumerate((tiny_run / "notes-bad.wsml").read_text().splitlines(), 1)
                  if not line.startswith("#")]
    stderr = next(tiny_run.glob("*-notes-bad.stderr")).read_text()
    assert stderr == f"error: line {data_lines[2 + TINY['n'] + 40]}: an observed state disagrees with the TRUTH section\n"


def test_one_byte_difference_is_named(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "same.txt").write_text("same\n")
    (a / "sub" / "x.csv").write_bytes(b"1,2\n")
    (b / "sub" / "x.csv").write_bytes(b"1,3\n")
    assert cli_bytes.report(a, b) == 1
    assert cli_bytes.differing_files(a, b) == ["sub/x.csv"]
    assert capsys.readouterr().out.splitlines() == ["differs: sub/x.csv", "1 file(s) differ"]
