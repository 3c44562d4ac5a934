import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_bytes", ROOT / "scripts" / "cli_bytes.py")
cli_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_bytes)

TINY = dict(n=60, dim=4, classes=5, epochs=2)


def test_working_tree_against_itself_is_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    cli_bytes.run_side(ROOT / "src", a, **TINY)
    cli_bytes.run_side(ROOT / "src", b, **TINY)
    assert cli_bytes.report(a, b) == 0
    assert capsys.readouterr().out.strip() == "identical"
    exits = sorted(b.glob("*.exit"))
    assert len(exits) == 18
    assert [p.read_text() for p in exits].count("0\n") == 17  # all but the failing sweep
    for name in ("full.wsml", "sp.wsml", "llcp-batch.report.json", "llr-linear-frozen.model", "eval.json",
                 "eval-linear.json", "sweep-2w.csv"):
        assert (b / name).is_file(), name


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
