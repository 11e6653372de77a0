"""Run the benchmark's reference `als_fit` queries over a range of seeds and
report the misses, the LM steps and the wall time.

    OPENBLAS_NUM_THREADS=1 python3 scripts/als_reference_fits.py --seeds 1 40

Run it from the root of a checkout; it imports rankatlas from that checkout's
``src/`` and the queries from ``perfbench/workloads.py``: for each seed, the
three `als_fit planted <shape> rank p` queries of the reference workload,
with the same tensors and program seeds.  A fit misses when its residual is
above the benchmark's gate (1e-6).
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import rankatlas.experiments as experiments  # noqa: E402
import workloads  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 40),
                    metavar=("FIRST", "LAST"))
    args = ap.parse_args(argv)
    steps = 0
    step = experiments._cp_lm_step

    def counted_step(*a):
        nonlocal steps
        steps += 1
        return step(*a)

    experiments._cp_lm_step = counted_step
    misses, total_s = [], 0.0
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        for name, call, _ in workloads.Reference(seed).queries:
            if not name.startswith("als_fit"):
                continue
            t0 = time.perf_counter()
            value = call()
            dt = time.perf_counter() - t0
            total_s += dt
            miss = not value <= workloads.TOL
            if miss:
                misses.append(f"seed {seed} {name}")
            print(f"seed {seed:3d}  {name:32s} {value:9.2e} {dt:7.2f} s"
                  f"{'  MISS' if miss else ''}", flush=True)
    print(f"misses: {len(misses)} {misses}")
    print(f"lm steps: {steps}  wall: {total_s:.1f} s")


if __name__ == "__main__":
    main()
