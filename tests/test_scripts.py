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
