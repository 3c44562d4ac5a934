import importlib.util
import json
import pathlib

import pytest

import wsml.io as wsml_io

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
    assert len(exits) == 47
    assert sorted(name for name, code in exits.items() if code != "0\n") == \
        ["notes-bad.exit", "part-wide-bad.exit", "sweep-fail.exit"]
    for name in ("full.wsml", "dense.wsml", "wide.wsml", "wide-sp.wsml", "wide-notes.model", "sp.wsml", "frac-all.wsml",
                 "llcp-batch.report.json", "llr-linear-frozen.model", "eval.json", "eval-linear.json", "sweep-2w.csv",
                 "sweep-stack-1w.csv", "sweep-stack-llr.csv", "sweep-stack-2w.csv",
                 "notes.wsml", "notes.model", "eval-notes.json", "bare.wsml", "bare.report.json"):
        assert (b / name).is_file(), name
    # the truth-less copy trains on observed-entry validation mAP and reports no flag precision
    assert "TRUTH" not in (b / "bare.wsml").read_text().splitlines()
    bare = json.loads((b / "bare.report.json").read_text())
    assert bare["best_val_map"] > 0 and all(e["flag_precision"] is None for e in bare["epochs"])


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


def test_the_wide_block_is_written_and_parsed_in_forked_processes():
    """The gen-wide feature block stays at or above both thresholds, so that a retune of either cannot silently stop
    this pipeline from writing and parsing a block in forked processes."""
    argv = next(argv for name, _, argv in cli_bytes.pipeline() if name == "gen-wide")
    entries = int(argv[argv.index("--n") + 1]) * int(argv[argv.index("--dim") + 1])
    assert entries == 132_000 >= max(wsml_io.PARALLEL_MIN, wsml_io.PARSE_MIN)


def test_wide_loads_parse_alike_with_comments_and_name_a_late_fault(tiny_run):
    """The wide feature block is at least io.PARSE_MIN reals, so on a host with more than one CPU these loads fork."""
    assert (tiny_run / "wide-notes.wsml").read_text().splitlines()[7] == "# note"
    assert json.loads((tiny_run / "wide-notes.report.json").read_text())["best_val_map"] > 0
    # row 1310's line: after the header, the #cfg line and the dims line
    assert next(tiny_run.glob("*-part-wide-bad.stderr")).read_text() == \
        "error: line 1314: invalid real number in feature\n"
    assert next(tiny_run.glob("*-part-wide-bad.exit")).read_text() == "2\n"
    assert not (tiny_run / "wide-bad-sp.wsml").exists()


def test_respelled_reals_change_no_output(tiny_run):
    """Every feature real spelled another way reads as the same double: through the parse kernel, through float() one
    by one, and through loadtxt."""
    plain, respelled = ((tiny_run / name).read_text().splitlines()[3] for name in ("wide.wsml", "wide-respelled.wsml"))
    assert plain != respelled and [float(w) for w in plain.split()] == [float(w) for w in respelled.split()]
    tail = (tiny_run / "wide-respelled.wsml").read_text()
    assert all(mark in tail for mark in ("\t", "  ", " +", " .", "E+", "000 "))
    partialized = ([line for line in (tiny_run / name).read_text().splitlines() if not line.startswith("#cfg")]
                   for name in ("wide-respelled-sp.wsml", "wide-sp.wsml"))
    assert next(partialized) == next(partialized)  # the #cfg line names the input file
    assert (tiny_run / "wide-respelled.metrics.csv").read_bytes() == (tiny_run / "wide-notes.metrics.csv").read_bytes()
