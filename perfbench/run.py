"""rankatlas benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc-square --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; the library is imported from that
checkout's ``src/``.  ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer metrics of a traced pass.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.  A
record of the run (and, traced, its spans) is written under
``perfbench/out/``.
"""

import os
import time

T_START = time.perf_counter()

# One BLAS thread per Python thread: with mc-square's two workers that is
# two threads, the core count the benchmark was sized on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up runs in fresh processes, beside this one: half before the measured
# passes and half after, so that the median spans the run's host speed.
SETUP_PROBES = 5
# A traced run first runs this share of the operations untraced, to compare
# their time with the same operations traced (trace.overhead_frac).
OVERHEAD_FRACTION = 0.25
# A pass starts no work after this many --seconds; what it leaves out counts
# as failed.  At 2.5 a run still ends well within 180 s.
HARD_STOP = 2.5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up time and exit")
    return ap.parse_args(argv)


def import_library():
    """Import rankatlas from this checkout's src/, or exit with an error."""
    if not (SRC / "rankatlas" / "__init__.py").is_file():
        sys.exit(f"error: no rankatlas package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rankatlas
    import rankatlas.cli  # noqa: F401  (not imported by the package)
    if Path(rankatlas.__file__).resolve().parent != SRC / "rankatlas":
        sys.exit(f"error: rankatlas was imported from {rankatlas.__file__}")


def setup_times(args, count: int) -> list[float]:
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def environment(threads: int) -> dict:
    import numpy as np
    import scipy

    def blas(cfg):
        return cfg.get("Build Dependencies", {}).get("blas", {}).get("version")

    t0 = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    spin_ms = (time.perf_counter() - t0) * 1000.0
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "total_threads": threads,  # Python threads x one BLAS thread each
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
        "spin_probe_ms": spin_ms,  # reported only, never used to rescale
    }


# Units of the end-to-end figures; BENCHMARK.json names those it gates.
UNITS = {"ops_per_s": "1/s", "decided_per_s": "1/s", "latency_ms_p50": "ms",
         "latency_ms_p90": "ms", "decided_frac": "ratio",
         "failed_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def end_to_end(passes, setups, peak_rss_mb) -> dict:
    """Every end-to-end figure of an untraced run.  Throughputs are medians
    over passes; p90 needs at least 100 operations in every pass."""
    latencies = [ms for p in passes for ms in p.ms]
    first = passes[0]
    figures = {
        "ops_per_s": statistics.median(p.ops / p.wall_s for p in passes),
        "decided_per_s": statistics.median(p.decided / p.wall_s
                                           for p in passes),
        "latency_ms_p50": statistics.median(latencies),
        "decided_frac": first.decided / first.verdicts if first.verdicts
        else 0.0,
        "failed_frac": (sum(p.failed for p in passes)
                        / sum(p.ops + p.skipped for p in passes)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    if min(p.ops for p in passes) >= 100:
        figures["latency_ms_p90"] = statistics.quantiles(latencies, n=10)[-1]
    return figures


def consistent(passes) -> bool:
    """Every operation gives the same answer in every pass it ran in."""
    seen = {}
    for p in passes:
        for key, label in zip(p.keys, p.labels):
            if seen.setdefault(key, label) != label:
                return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, args.seconds)
    wl.warm_up()
    own_setup = time.perf_counter() - T_START
    if args.setup_probe:
        print(own_setup)
        return 0
    setups = [own_setup]
    if not args.trace:
        setups += setup_times(args, SETUP_PROBES // 2)
    env = environment(wl.threads)
    hopf = sys.modules["rankatlas.hopf"]

    def deadline():
        return time.perf_counter() + HARD_STOP * args.seconds

    start = time.perf_counter()
    passes, tracer = [], None
    if args.trace:
        plain = wl.run_pass(deadline(), fraction=OVERHEAD_FRACTION)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = wl.run_pass(deadline())
        finally:
            tracer.uninstall()
        passes = [plain, traced]
    else:
        while True:
            p = wl.run_pass(deadline())
            passes.append(p)
            elapsed = time.perf_counter() - start
            if p.truncated or elapsed + p.wall_s > args.seconds:
                break
    measured_s = time.perf_counter() - start
    if not args.trace:
        setups += setup_times(args, SETUP_PROBES - SETUP_PROBES // 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        plain, traced = passes
        # same operations, untraced and traced (a truncated pass has fewer)
        ms = dict(zip(traced.keys, traced.ms))
        both = [(t, ms[k]) for k, t in zip(plain.keys, plain.ms) if k in ms]
        overhead = (sum(m for _, m in both) / sum(t for t, _ in both) - 1.0
                    if both else 0.0)
        figures = tracing.layer_metrics(
            tracer, hopf.circ.cache_info().misses, overhead)
        main_pass = traced
    else:
        figures = end_to_end(passes, setups, peak_rss_mb)
        main_pass = passes[0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in listed}

    correct = consistent(passes) and not any(p.wrong for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": [{"ops": p.ops, "wall_s": p.wall_s, "failed": p.failed,
                    "skipped": p.skipped, "digest": p.digest()}
                   for p in passes],
        "measured_s": measured_s,
        "setup_samples_s": setups,
        "histogram": dict(sorted(main_pass.histogram.items())),
        "digest": main_pass.digest(),
        "fail_reasons": dict(sum((p.reasons for p in passes), Counter())),
        "environment": env,
        "metrics": figures,
        "operations": [[label, ms] for label, ms in
                       zip(main_pass.labels, main_pass.ms)],
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(out_dir / f"{stem}-spans.jsonl")

    units = {m["name"]: m["unit"] for m in listed}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  ops/pass {[p.ops for p in passes]}  "
          f"measured {measured_s:.1f} s")
    for i, p in enumerate(passes):
        if p.truncated:
            print(f"  pass {i} reached the hard stop: {p.skipped} operations "
                  f"not started, counted as failed")
    for name, value in figures.items():
        unit = units.get(name) or UNITS[name]
        note = "" if name in units else "  (reported, not gated)"
        print(f"  {name:42s} {value:14.6g} {unit}{note}")
    if not args.trace:
        print(f"  latency samples {sum(p.ops for p in passes)}, "
              f"set-up samples {len(setups)}")
    print(f"  verdicts {record['histogram']}")
    print(f"  digest {record['digest']}")
    if record["fail_reasons"]:
        print(f"  failures {record['fail_reasons']}")
    print(f"  environment {json.dumps(env)}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.ops + p.skipped for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
