import csv
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
ARMS = ["naive-an", "wan", "lsan", "ll-r", "ll-ct", "ll-cp", "full-label"]


def test_smoke_writes_a_header_and_one_row_per_arm(tmp_path):
    out = tmp_path / "table.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, str(ROOT / "scripts" / "run_benchmark.py"), "--seeds", "1", "--n", "200",
            "--epochs", "2", "--out", str(out)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scheme", "seed1", "mean"]
    assert [row[0] for row in rows[1:]] == ARMS
    assert all(len(row) == 3 for row in rows[1:])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]  # no temp file left
