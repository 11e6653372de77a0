"""The scripts under scripts/ import the library by module path; these tests
run them on a small input, so that a name moved in src/ breaks a test and
not only the next comparison made with them."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_verdict_corpus_prints_labels_and_digests():
    proc = subprocess.run(
        [sys.executable, "scripts/verdict_corpus.py", "3x5x3:2", "--labels"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    *labels, summary = proc.stdout.splitlines()
    assert len(labels) == 2
    for i, line in enumerate(labels):
        fields = line.split("\t")
        assert len(fields) == 6
        assert fields[:2] == ["3x5x3", str(i)]
        assert fields[2] in ("RankP", "RankExceedsP", "Inconclusive")
    assert re.fullmatch(r"3x5x3 x2: .*; digest [0-9a-f]{64}; "
                        r"verdict digest [0-9a-f]{64}", summary)


M3_SHAPES = ("3x5x3", "3x6x3", "4x7x3", "4x8x3", "5x9x3", "5x10x3", "6x11x3",
             "6x12x3", "7x13x3", "7x14x3")


def test_window_map_runs_the_m3_shapes():
    proc = subprocess.run(
        [sys.executable, "scripts/window_map.py", "--samples", "1",
         *M3_SHAPES],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split("\t")[:4] == ["shape", "k", "path", "classify"]
    assert [row.split("\t")[0] for row in rows] == list(M3_SHAPES)
    for row in rows:
        shape, k, path, _, *counts, _, digest = row.split("\t")
        n, p, _ = (int(x) for x in shape.split("x"))
        # the corner p = 2n - 1 is counted, the top p = 2n is square
        assert (k, path) == (("2", "count") if p == 2 * n - 1
                             else ("1", "square"))
        assert sum(map(int, counts)) == 1
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
