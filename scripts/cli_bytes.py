#!/usr/bin/env python3
"""Check that the CLI writes the same bytes as at a base revision.

Runs one fixed pipeline of `wsml` commands (gen, both partialize modes, eight
train arms, two of them linear and one of those frozen, evals of two mlp1
checkpoints and a linear one, one of them to stdout, a train and an eval on
a copy of the partialized corpus with comment lines inside its blocks, a
train on a copy whose state disagrees with its truth, a 2-worker, a 1-worker
and a failing sweep) once against the base revision's `src/` and once
against the working tree's, each in its own empty directory with relative
paths. Every output file and each command's stdout, stderr and exit code are
then compared byte for byte; the files that differ are printed, the outputs
are kept for inspection and the exit code is 1.

The base is extracted with `git archive` (only `src/`, no network). Example:
    python scripts/cli_bytes.py --base HEAD~1
"""

import argparse
import filecmp
import io
import os
import pathlib
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

# `python -c NOTES src dest [row]` copies dataset `src` (with its #cfg line) to `dest` with a comment
# line after every 7th line, inside every block; given a row, that state row first observes a
# positive its truth row denies, so loading `dest` fails at that row's line
NOTES = """
import sys
lines = open(sys.argv[1]).read().splitlines()
if len(sys.argv) > 3:
    n, row = int(lines[2].split()[0]), int(sys.argv[3])
    state, truth = lines[3 + n + row].split(), lines[4 + 2 * n + row].split()
    state[truth.index("0")] = "1"
    lines[3 + n + row] = " ".join(state)
with open(sys.argv[2], "w") as fh:
    for i, line in enumerate(lines, 1):
        fh.write(line + "\\n" + ("# note\\n" if i % 7 == 0 else ""))
"""


def pipeline(n=300, dim=8, classes=6, epochs=4):
    """(name, WSML_THREADS, argv) of each command, in run order: `wsml` arguments,
    or the arguments of a Python script when they start with -c.

    n, dim and classes shape the generated corpus; epochs is that of every
    training run.
    """
    gen = ["gen", "--n", str(n), "--dim", str(dim), "--classes", str(classes), "--pos-rate", "0.35"]

    def train(name, data, scheme, *extra):
        return (name, "1", ["train", "--data", data, "--scheme", scheme, "--epochs", str(epochs),
                            "--batch", "16", "--seed", "7", "--hidden", "8", *extra, "--out-prefix", name])

    def sweep(name, threads, param, values, scheme, *extra):
        return (name, threads, ["sweep", "--param", param, "--values", values, "--data", "sp.wsml",
                                "--scheme", scheme, "--epochs", str(epochs), "--batch", "16", "--seed", "3",
                                "--arch", "linear", *extra, "--out", name + ".csv"])

    return [
        ("gen-full", "1", [*gen, "--seed", "3", "--out", "full.wsml"]),
        ("gen-test", "1", [*gen, "--seed", "4", "--temperature", "0.7", "--out", "test.wsml"]),
        ("part-sp", "1", ["partialize", "--in", "full.wsml", "--mode", "single-positive", "--seed", "5",
                          "--out", "sp.wsml"]),
        ("part-frac", "1", ["partialize", "--in", "full.wsml", "--mode", "fraction", "--fraction", "0.3",
                            "--seed", "5", "--out", "frac.wsml"]),
        train("naive", "sp.wsml", "naive-an", "--test-data", "test.wsml"),
        train("llr", "sp.wsml", "ll-r", "--delta-rel", "5", "--r0", "9", "--eps-smooth", "0.2"),
        train("llct", "frac.wsml", "ll-ct", "--delta-rel", "4", "--optimizer", "sgd", "--lr", "0.05"),
        train("llcp", "sp.wsml", "ll-cp", "--delta-rel", "5", "--test-data", "test.wsml"),
        train("llcp-batch", "sp.wsml", "ll-cp", "--delta-rel", "5", "--llcp-granularity", "batch",
              "--arch", "linear"),
        train("lsan", "sp.wsml", "lsan", "--eps-smooth", "0.2", "--delta-rel", "1", "--frozen-epochs", "1"),
        train("llr-linear-frozen", "sp.wsml", "ll-r", "--delta-rel", "5", "--arch", "linear", "--frozen-epochs", "1"),
        train("llct-abs", "sp.wsml", "ll-ct-abs", "--r0", "2", "--delta-abs", "0.1", "--subsample", "0.5"),
        ("eval-file", "1", ["eval", "--model", "llcp.model", "--data", "sp.wsml", "--groups", "2",
                            "--phase-table", "--tracker", "llcp.tracker", "--out", "eval.json"]),
        ("eval-stdout", "1", ["eval", "--model", "naive.model", "--data", "test.wsml", "--groups", "3",
                              "--group-key", "positives"]),
        ("eval-linear", "1", ["eval", "--model", "llcp-batch.model", "--data", "test.wsml", "--out", "eval-linear.json"]),
        ("notes-copy", "1", ["-c", NOTES, "sp.wsml", "notes.wsml"]),
        train("notes", "notes.wsml", "ll-cp", "--delta-rel", "5", "--test-data", "test.wsml"),  # as llcp
        ("eval-notes", "1", ["eval", "--model", "notes.model", "--data", "notes.wsml", "--groups", "2",
                             "--phase-table", "--tracker", "notes.tracker", "--out", "eval-notes.json"]),
        ("notes-bad-copy", "1", ["-c", NOTES, "sp.wsml", "notes-bad.wsml", "40"]),
        train("notes-bad", "notes-bad.wsml", "naive-an"),  # fails at state row 40's line
        sweep("sweep-2w", "2", "delta-rel", "2,0.5,1", "ll-r", "--test-data", "test.wsml"),
        sweep("sweep-1w", "1", "subsample", "0.5,1", "naive-an"),
        sweep("sweep-fail", "1", "subsample", "0.001,1", "naive-an"),  # the 0.001 arm keeps no sample
    ]


def run_side(src, out_dir, **shape):
    """Run the pipeline with `src` on the import path, writing into `out_dir`.

    `shape` is passed to `pipeline`.
    """
    out_dir.mkdir(parents=True)
    for i, (name, threads, argv) in enumerate(pipeline(**shape)):
        env = dict(os.environ, PYTHONPATH=str(src), WSML_THREADS=threads, OPENBLAS_NUM_THREADS="1")
        command = argv if argv[0] == "-c" else ["-m", "wsml.cli", *argv]
        done = subprocess.run([sys.executable, *command], cwd=out_dir, env=env, capture_output=True, timeout=600)
        stem = f"{i:02d}-{name}"
        (out_dir / f"{stem}.stdout").write_bytes(done.stdout)
        (out_dir / f"{stem}.stderr").write_bytes(done.stderr)
        (out_dir / f"{stem}.exit").write_text(f"{done.returncode}\n")


def differing_files(a, b):
    """Relative paths of the files that differ between two trees, or exist in only one."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in pathlib.Path(root).rglob("*") if p.is_file()}

    fa, fb = files(a), files(b)
    both = sorted(fa & fb)
    return sorted((fa ^ fb) | {f for f in both if not filecmp.cmp(pathlib.Path(a, f), pathlib.Path(b, f), shallow=False)})


def extract_src(rev, dest):
    """The `src/` tree of git revision `rev`, extracted under `dest`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return pathlib.Path(dest, "src")


def report(a, b) -> int:
    diffs = differing_files(a, b)
    for name in diffs:
        print(f"differs: {name}")
    print(f"{len(diffs)} file(s) differ" if diffs else "identical")
    return 1 if diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision whose src/ is the baseline")
    args = parser.parse_args(argv)
    work = pathlib.Path(tempfile.mkdtemp(prefix="cli_bytes-"))
    run_side(extract_src(args.base, work), work / "base")
    run_side(ROOT / "src", work / "head")
    code = report(work / "base", work / "head")
    if code:
        print(f"outputs kept in {work}")
    else:
        shutil.rmtree(work)
    return code


if __name__ == "__main__":
    sys.exit(main())
