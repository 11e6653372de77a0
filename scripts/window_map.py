"""Certify Gaussian samples of every shape of the pencil window and print,
per shape, the codimension k, the solver path, ``classify``'s typical-rank
set, the verdict counts, the median certify time and a verdict digest.

    OPENBLAS_NUM_THREADS=1 python3 scripts/window_map.py
    OPENBLAS_NUM_THREADS=1 python3 scripts/window_map.py --samples 2 4x10x4

Run it from the root of a checkout; it imports rankatlas from that
checkout's ``src/``.  A shape is ``NxPxM``; the default is every shape
with 3 <= m <= 5, m <= n <= 7 and (m-1)(n-1)+1 <= p <= (m-1)n, 34 in all.
Samples 0..N-1 of a shape are drawn and certified as in
``verdict_corpus.py`` (tensor i from ``default_rng([7, n, p, m, i])``), so
the verdict digest of a shape is the one that script prints for the same
count.  The path is the one ``certify`` takes, by
``pencil.solver_path``: ``count`` (the corner k = m - 1), ``square``
(k = 1), ``sliced`` or ``none`` (n^k above ``pencil.MAX_KRON``), where
k = u - n + 1 and u = mn - p.

It exits 1 when a shape that ``classify`` calls unique gives a
RankExceedsP: a typical rank above p contradicts the paper there.
"""

import argparse
import statistics
import sys
from collections import Counter

# verdict_corpus puts this checkout's src/ first on sys.path
from verdict_corpus import run_shape, sha256

from rankatlas import pencil
from rankatlas.classify import classify

KINDS = ("RankP", "RankExceedsP", "Inconclusive")
SHAPES = tuple(f"{n}x{p}x{m}" for m in range(3, 6) for n in range(m, 8)
               for p in range((m - 1) * (n - 1) + 1, (m - 1) * n + 1))


def typical_set(result):
    """``classify``'s typical-rank set, or "undetermined"."""
    if result.kind != "exact":
        return "undetermined"
    return "{" + ",".join(map(str, result.ranks)) + "}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("shapes", nargs="*", default=SHAPES,
                    help="NxPxM, default: the 34 window shapes with m <= 5 "
                         "and n <= 7")
    ap.add_argument("--samples", type=int, default=8,
                    help="samples per shape (default 8)")
    args = ap.parse_args(argv)
    if args.samples < 1:
        ap.error("--samples must be at least 1")
    print("shape\tk\tpath\tclassify\t" + "\t".join(KINDS)
          + "\tmedian_ms\tverdict_digest")
    contradictions = []
    for shape in args.shapes:
        n, p, m = (int(x) for x in shape.split("x"))
        typical = classify(m, n, p)
        labels, ms = run_shape(n, p, m, args.samples)
        kinds = Counter(kind for kind, *_ in labels)
        verdicts = [(kind, points, span) for kind, _, points, span in labels]
        u = m * n - p
        print(f"{shape}\t{u - n + 1}\t{pencil.solver_path(u, n, m)}\t"
              f"{typical_set(typical)}\t"
              + "\t".join(str(kinds[kind]) for kind in KINDS)
              + f"\t{statistics.median(ms):.2f}\t{sha256(verdicts)}")
        sys.stdout.flush()
        if kinds["RankExceedsP"] and typical.ranks == (p,):
            contradictions.append(shape)
    if contradictions:
        print("RankExceedsP where classify gives a unique typical rank: "
              + " ".join(contradictions))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
