"""Run the pencil margin over the benchmark's reference margin queries and a
fixed corpus of planted-zero and Gaussian pencils; report values, classes
and wall time.

    OPENBLAS_NUM_THREADS=1 python3 scripts/margin_corpus.py --seeds 1 3

Run it from the root of a checkout; it imports rankatlas from that
checkout's ``src/`` and the queries from ``perfbench/workloads.py``.  For
each seed it runs the reference workload's queries that reach the margin:
the five `is_afcr`, the four `nonsingularity_margin` and the three rank-13
`certify` queries, with the same inputs, program seeds and checks, and
prints each one's value, check label and wall time.

The corpus has 20 pencils, i = 0..19, for each shape u x n x m in SHAPES.
Pencil i is drawn from ``default_rng([11, u, n, m, i])``: Y of shape
(m, u, n), then unit a0 and b0 in that order.  Its Gaussian copy is Y
normalised; its planted copy is Y - a0 x (M(a0) b0) x b0, normalised, so
that M(a0) b0 = 0.  Each is measured by ``afcr_margin_info(Y, seed=i)``.
A planted pencil whose value is above the margin tolerance (1e-6) is a
miss; a Gaussian one above it counts as full rank.  ``--each`` prints
every pencil's two values.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import rankatlas  # noqa: E402,F401  (workloads looks modules up by name)
import rankatlas.pencil as pencil  # noqa: E402
import workloads  # noqa: E402

SHAPES = ((4, 3, 3), (5, 4, 3), (6, 4, 4), (8, 5, 5), (7, 5, 4), (9, 5, 5),
          (12, 8, 8), (6, 6, 4))
PENCILS = 20
TOL = 1e-6
QUERIES = ("is_afcr ", "nonsingularity_margin ", "certify quaternion rank-13",
           "certify rank-13 ")


def corpus_pencils(u, n, m, i):
    """Pencil i of shape u x n x m: its Gaussian and its planted copy."""
    rng = np.random.default_rng([11, u, n, m, i])
    Y = rng.standard_normal((m, u, n))
    a0 = rng.standard_normal(m)
    a0 /= np.linalg.norm(a0)
    b0 = rng.standard_normal(n)
    b0 /= np.linalg.norm(b0)
    planted = Y - np.einsum("k,i,j->kij", a0,
                            np.einsum("k,kij,j->i", a0, Y, b0), b0)
    return (pencil.Tensor3(Y / np.linalg.norm(Y)),
            pencil.Tensor3(planted / np.linalg.norm(planted)))


def query_value(result):
    """The margin a query's result carries (None when it carries none)."""
    if isinstance(result, tuple):  # is_afcr: (class, normalised margin)
        return result[1]
    return getattr(result, "margin", result)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 3),
                    metavar=("FIRST", "LAST"))
    ap.add_argument("--each", action="store_true",
                    help="print every corpus pencil's values")
    args = ap.parse_args(argv)
    total_s = 0.0
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        for name, call, check in workloads.Reference(seed).queries:
            if not name.startswith(QUERIES):
                continue
            t0 = time.perf_counter()
            result = call()
            dt = time.perf_counter() - t0
            total_s += dt
            label, status, _ = check(result)
            value = query_value(result)
            value = "-" if value is None else f"{value:.15e}"
            print(f"seed {seed:3d}  {name:36s} {value:>22s}  {label:12s} "
                  f"{status:6s} {dt:7.3f} s", flush=True)
    print(f"queries wall: {total_s:.1f} s")

    misses, full, corpus_s = 0, 0, 0.0
    for u, n, m in SHAPES:
        shape_misses, shape_full, shape_s = [], 0, 0.0
        for i in range(PENCILS):
            gaussian, planted = corpus_pencils(u, n, m, i)
            t0 = time.perf_counter()
            g = pencil.afcr_margin_info(gaussian, seed=i).value
            z = pencil.afcr_margin_info(planted, seed=i).value
            shape_s += time.perf_counter() - t0
            shape_full += g > TOL
            if not z <= TOL:
                shape_misses.append(i)
            if args.each:
                print(f"  {u}x{n}x{m} i={i:2d} gaussian {g:.6e} "
                      f"planted {z:.3e}")
        print(f"{u}x{n}x{m}: planted misses {len(shape_misses)} "
              f"{shape_misses}, gaussian {shape_full} full rank / "
              f"{PENCILS - shape_full} not, {shape_s:.1f} s", flush=True)
        misses += len(shape_misses)
        full += shape_full
        corpus_s += shape_s
    count = PENCILS * len(SHAPES)
    print(f"corpus: planted misses {misses} of {count}, gaussian {full} full "
          f"rank / {count - full} not, wall {corpus_s:.1f} s")


if __name__ == "__main__":
    main()
