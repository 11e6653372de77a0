"""Certify a fixed corpus of Gaussian tensors and print, per shape, the
verdict histogram, the median certify time and a digest of the verdicts.

    OPENBLAS_NUM_THREADS=1 python3 scripts/verdict_corpus.py
    OPENBLAS_NUM_THREADS=1 python3 scripts/verdict_corpus.py 4x10x4:20

Run it from the root of a checkout; it imports rankatlas from that
checkout's ``src/``.  A shape is ``NxPxM:COUNT``.  Tensor i of shape
n x p x m is ``rng.standard_normal((m, n, p))`` with
``rng = default_rng([7, n, p, m, i])``, certified by
``certify(T, seed=rng)``.  Each sample's label is its verdict kind, the
``repr`` of its reconstruction residual and its ``points_found`` and
``span_dim`` diagnostics (None where the verdict has none); the digest is
the SHA-256 of the labels in order.  Two checkouts that give the same
verdicts and residuals bit for bit print the same digests.

``--labels`` also prints each sample's label as one tab-separated line
(shape, index, kind, points_found, span_dim, residual) before the shape's
summary, so that two checkouts can be compared sample by sample:

    diff <(cut -s -f1-5 parent.txt) <(cut -s -f1-5 change.txt)

compares verdicts and point counts without the residuals' last bits.
"""

import argparse
import hashlib
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rankatlas.certify import certify  # noqa: E402
from rankatlas.pencil import Tensor3  # noqa: E402

SHAPES = ("3x6x3:40", "4x12x4:20", "3x5x3:40", "4x7x3:20", "4x11x4:20")


def label(verdict):
    diag = getattr(verdict, "diagnostics", {})
    return (verdict.kind, repr(diag.get("residual")),
            diag.get("points_found"), diag.get("span_dim"))


def run_shape(n, p, m, count):
    """Labels and certify times in ms of samples 0..count-1 of a shape."""
    labels, ms = [], []
    for i in range(count):
        rng = np.random.default_rng([7, n, p, m, i])
        T = Tensor3(rng.standard_normal((m, n, p)))
        start = time.perf_counter()
        verdict = certify(T, seed=rng)
        ms.append(1e3 * (time.perf_counter() - start))
        labels.append(label(verdict))
    return labels, ms


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("shapes", nargs="*", default=SHAPES,
                    help="NxPxM:COUNT, default: " + " ".join(SHAPES))
    ap.add_argument("--labels", action="store_true",
                    help="print one label line per sample")
    args = ap.parse_args(argv)
    for spec in args.shapes:
        shape, count = spec.split(":")
        n, p, m = (int(x) for x in shape.split("x"))
        labels, ms = run_shape(n, p, m, int(count))
        if args.labels:
            for i, (kind, residual, points, span) in enumerate(labels):
                print(f"{shape}\t{i}\t{kind}\t{points}\t{span}\t{residual}")
        kinds = Counter(kind for kind, *_ in labels)
        digest = hashlib.sha256(
            "\n".join(map(repr, labels)).encode()).hexdigest()
        print(f"{shape} x{count}: "
              + ", ".join(f"{k} {kinds[k]}" for k in sorted(kinds))
              + f"; median {statistics.median(ms):.2f} ms; digest {digest}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
