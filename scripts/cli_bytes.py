#!/usr/bin/env python3
"""Check that the CLI writes the same bytes as at a base revision.

Runs one fixed pipeline of `wsml` commands once against the base revision's
`src/` and once against the working tree's. The pipeline has four gens: one
of them at a positive rate of 0.9, whose bias bisection doubles the upper end
of its bracket, and one at a fixed 1320x100x3, whose 132,000-entry feature
block is formatted and parsed in forked processes on a host with more than one
CPU: `wsml.io`'s one dealer gives them the block's chunks in turn, takes their
answers in file order, and falls back to the processes it could start, or to
the serial path, when a fork fails. That wide set is partialized, a train runs on a copy
of the result with comment lines inside its blocks, and a partialize of a copy
with an invalid real in one of its last feature rows fails. Copies of the wide
set and of its partialized result with every feature real spelled another way,
half of them in plain decimals that the numpy parse kernel reads and half in
spellings only loadtxt reads, are partialized and trained on. Then come both
partialize modes, the fraction mode once more at fraction 1, which observes
every entry, fourteen train arms that run every scheme, two of them linear and
one of those frozen, one with a ragged last batch and one whose selection
quota is zero before its last epoch, evals of two mlp1 checkpoints and a
linear one, one of them to stdout, a train and an eval on a copy of the
partialized corpus with comment lines inside its blocks, a train on a copy
whose state disagrees with its truth, a train on a copy cut before its TRUTH
line, whose validation mAP ranks the observed entries alone, a 2-worker, a
1-worker and a failing sweep, and three delta-rel sweeps whose arms train as
stacks: four LL-Cp arms in one stack, with a frozen first epoch and a ragged
last batch, three LL-R arms in one stack, whose flagged entries train with
weight 0, with a ragged last batch, and five LL-Ct arms that two workers take
as stacks of three and two. Each side runs in its own empty directory with
relative paths. Every output file and each command's stdout, stderr and exit
code are then compared byte for byte; the files that differ are printed, the
outputs are kept for inspection and the exit code is 1.

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

# `python -c BAD_REAL src dest row` copies dataset `src` to `dest` with an "x" before the first real of feature row
# `row`, so loading `dest` fails at that row's line
BAD_REAL = """
import sys
lines = open(sys.argv[1]).read().splitlines(keepends=True)
lines[3 + int(sys.argv[3])] = "x" + lines[3 + int(sys.argv[3])]
open(sys.argv[2], "w").writelines(lines)
"""

# `python -c RESPELL src dest` copies dataset `src` to `dest` with every feature real spelled another way that reads
# as the same double. The first half of the rows keep to plain decimals ([-]digits[.digits][e(+|-)dd]): a trailing or
# leading zero, or an exponent, some of them too long for the numpy parse kernel, which reads those one by one. The
# other rows use spellings only loadtxt reads ('+', '.5', '1.', 'E'), and a few of them tabs or extra spaces.
RESPELL = """
import sys
lines = open(sys.argv[1]).read().splitlines()
n = int(lines[2].split()[0])
for row in range(n):
    words = []
    for col, word in enumerate(lines[3 + row].split()):
        sign, body, value = "-" * word.startswith("-"), word.lstrip("-"), float(word)
        plain = [word + "0" * ("." in word and "e" not in word), sign + "00" + body, "%.16e" % value,
                 word + "000" * ("." in word and "e" not in word)]
        other = ["+" * (not sign) + word, sign + body[1:] if body.startswith("0.") else word, "%.16E" % value,
                 word + "." * ("." not in word and "e" not in word)]
        words.append((plain if 2 * row < n else other)[(row + col) % 4])
    odd = 2 * row >= n and row % 25 == 0  # a few rows of the loadtxt half
    lines[3 + row] = ["  ", "\\t"][row % 2].join(words) + " " if odd else " ".join(words)
open(sys.argv[2], "w").write("\\n".join(lines) + "\\n")
"""

# `python -c BARE src dest` copies dataset `src` to `dest` up to the line before its TRUTH line
BARE = """
import sys
lines = open(sys.argv[1]).read().splitlines(keepends=True)
open(sys.argv[2], "w").writelines(lines[:lines.index("TRUTH\\n")])
"""


def pipeline(n=300, dim=8, classes=6, epochs=4):
    """(name, WSML_THREADS, argv) of each command, in run order: `wsml` arguments,
    or the arguments of a Python script when they start with -c.

    n, dim and classes shape the generated corpus; epochs is that of every
    training run.
    """
    gen = ["gen", "--n", str(n), "--dim", str(dim), "--classes", str(classes)]

    def train(name, data, scheme, *extra):
        return (name, "1", ["train", "--data", data, "--scheme", scheme, "--epochs", str(epochs),
                            "--batch", "16", "--seed", "7", "--hidden", "8", *extra, "--out-prefix", name])

    def sweep(name, threads, param, values, scheme, *extra, arch="linear", batch=16):
        return (name, threads, ["sweep", "--param", param, "--values", values, "--data", "sp.wsml",
                                "--scheme", scheme, "--epochs", str(epochs), "--batch", str(batch), "--seed", "3",
                                "--arch", arch, *extra, "--out", name + ".csv"])

    return [
        ("gen-full", "1", [*gen, "--pos-rate", "0.35", "--seed", "3", "--out", "full.wsml"]),
        ("gen-test", "1", [*gen, "--pos-rate", "0.35", "--seed", "4", "--temperature", "0.7", "--out", "test.wsml"]),
        # a dense corpus: at 300x8x6 the bias bisection doubles its upper bracket end three times
        ("gen-dense", "1", [*gen, "--pos-rate", "0.9", "--seed", "6", "--out", "dense.wsml"]),
        # a fixed shape at every pipeline size: its feature block is at least io.PARALLEL_MIN (40960) and
        # io.PARSE_MIN (2^17) reals
        ("gen-wide", "1", ["gen", "--n", "1320", "--dim", "100", "--classes", "3", "--pos-rate", "0.35", "--seed", "8",
                           "--out", "wide.wsml"]),
        # loads of the wide feature block, which parse it in forked processes on a host with more than one CPU
        ("part-wide", "1", ["partialize", "--in", "wide.wsml", "--mode", "single-positive", "--seed", "5",
                            "--out", "wide-sp.wsml"]),
        ("wide-notes-copy", "1", ["-c", NOTES, "wide-sp.wsml", "wide-notes.wsml"]),
        train("wide-notes", "wide-notes.wsml", "ll-ct", "--delta-rel", "5"),
        # row 1310 of 1320: its chunk of the file is the eleventh, which a forked parser takes on 2 to 4 CPUs
        ("wide-bad-copy", "1", ["-c", BAD_REAL, "wide.wsml", "wide-bad.wsml", "1310"]),
        ("part-wide-bad", "1", ["partialize", "--in", "wide-bad.wsml", "--mode", "single-positive", "--seed", "5",
                                "--out", "wide-bad-sp.wsml"]),
        # every feature real of the wide set spelled another way: the parse kernel's one-by-one and loadtxt paths
        ("wide-respelled-copy", "1", ["-c", RESPELL, "wide.wsml", "wide-respelled.wsml"]),
        ("part-wide-respelled", "1", ["partialize", "--in", "wide-respelled.wsml", "--mode", "single-positive",
                                      "--seed", "5", "--out", "wide-respelled-sp.wsml"]),
        ("wide-sp-respelled-copy", "1", ["-c", RESPELL, "wide-sp.wsml", "wide-sp-respelled.wsml"]),
        train("wide-respelled", "wide-sp-respelled.wsml", "ll-ct", "--delta-rel", "5"),
        ("part-sp", "1", ["partialize", "--in", "full.wsml", "--mode", "single-positive", "--seed", "5",
                          "--out", "sp.wsml"]),
        ("part-frac", "1", ["partialize", "--in", "full.wsml", "--mode", "fraction", "--fraction", "0.3",
                            "--seed", "5", "--out", "frac.wsml"]),
        ("part-frac-all", "1", ["partialize", "--in", "full.wsml", "--mode", "fraction", "--fraction", "1",
                                "--seed", "5", "--out", "frac-all.wsml"]),
        train("naive", "sp.wsml", "naive-an", "--test-data", "test.wsml"),
        train("llr", "sp.wsml", "ll-r", "--delta-rel", "5", "--r0", "9", "--eps-smooth", "0.2"),
        train("llct", "frac.wsml", "ll-ct", "--delta-rel", "4", "--optimizer", "sgd", "--lr", "0.05"),
        train("llcp", "sp.wsml", "ll-cp", "--delta-rel", "5", "--test-data", "test.wsml"),
        train("llcp-batch", "sp.wsml", "ll-cp", "--delta-rel", "5", "--llcp-granularity", "batch",
              "--arch", "linear"),
        train("lsan", "sp.wsml", "lsan", "--eps-smooth", "0.2", "--delta-rel", "1", "--frozen-epochs", "1"),
        train("llr-linear-frozen", "sp.wsml", "ll-r", "--delta-rel", "5", "--arch", "linear", "--frozen-epochs", "1"),
        train("llct-abs", "sp.wsml", "ll-ct-abs", "--r0", "2", "--delta-abs", "0.1", "--subsample", "0.5"),
        train("wan", "sp.wsml", "wan"),
        train("ignore", "frac.wsml", "ignore-unobserved"),
        train("llr-abs", "sp.wsml", "ll-r-abs", "--r0", "1.2", "--delta-abs", "0.1"),
        train("llcp-abs", "sp.wsml", "ll-cp-abs", "--r0", "1.2", "--delta-abs", "0.1"),
        train("llr-b7", "sp.wsml", "ll-r", "--delta-rel", "5", "--batch", "7"),  # 240 training rows: a ragged last batch
        # quota(rate, 80 UNKNOWN entries a batch) is zero at 0.5% and 1%, one at 1.5%
        train("llct-late", "sp.wsml", "ll-ct", "--delta-rel", "0.5"),
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
        ("bare-copy", "1", ["-c", BARE, "sp.wsml", "bare.wsml"]),
        train("bare", "bare.wsml", "ll-ct", "--delta-rel", "5"),  # no truth: no flag precision, observed-entry mAP
        sweep("sweep-2w", "2", "delta-rel", "2,0.5,1", "ll-r", "--test-data", "test.wsml"),
        sweep("sweep-1w", "1", "subsample", "0.5,1", "naive-an"),
        sweep("sweep-fail", "1", "subsample", "0.001,1", "naive-an"),  # the 0.001 arm keeps no sample
        # delta-rel sweeps train their arms as stacks: one of four arms with a ragged last batch (240 training rows)
        sweep("sweep-stack-1w", "1", "delta-rel", "5,2,10,1", "ll-cp", "--hidden", "8", "--frozen-epochs", "1",
              "--test-data", "test.wsml", arch="mlp1", batch=7),
        # three rejecting arms in one stack, with a ragged last batch
        sweep("sweep-stack-llr", "1", "delta-rel", "5,2,10", "ll-r", "--hidden", "8", arch="mlp1", batch=7),
        # two workers deal five arms into stacks of three and two
        sweep("sweep-stack-2w", "2", "delta-rel", "0.5,1,2,4,8", "ll-ct", "--hidden", "8", arch="mlp1"),
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
