"""Summarise run records written by run.py.

    python3 perfbench/summarize.py perfbench/out/*.json
    python3 perfbench/summarize.py perfbench/out/*.json --write FILE --label L

For each workload it prints every metric's median over the records, the
spread (distance between first and third quartile as a share of the
median) and, for end-to-end metrics, whether that spread is within the
bound in BENCHMARK.json.  ``--write`` stores the same figures as one
trajectory point.
"""

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("records", nargs="+")
    ap.add_argument("--write", default=None)
    ap.add_argument("--label", default=None)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    groups = defaultdict(list)
    for path in args.records:
        rec = json.loads(Path(path).read_text())
        groups[(rec["workload"], rec["trace"])].append(rec)

    point = {"label": args.label, "run_seconds": bench["run_seconds"],
             "workloads": {}}
    for (workload, trace), recs in sorted(groups.items()):
        recs.sort(key=lambda r: r["seed"])
        kind = "per_layer" if trace else "end_to_end"
        print(f"{workload}  {kind}  seeds {[r['seed'] for r in recs]}")
        out = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name] for r in recs]
            med, spr = statistics.median(values), spread(values)
            bound = bounds.get(name) if not trace else None
            verdict = ""
            if bound is not None and spr is not None:
                verdict = "ok" if spr <= bound else "ABOVE BOUND"
                verdict += " (below a third)" if spr < bound / 3 else ""
            print(f"  {name:42s} median {med:12.6g}  spread "
                  f"{'-' if spr is None else f'{spr:.3f}':>6}  {verdict}")
            out[name] = {"median": med, "spread": spr, "n": len(values)}
        out["digests"] = {r["seed"]: r["digest"] for r in recs}
        out["failed"] = {r["seed"]: sum(p["failed"] for p in r["passes"])
                         for r in recs}
        # the lowest seed's environment; the spin probe of every seed
        out["environment"] = dict(recs[0]["environment"], spin_probe_ms={
            r["seed"]: r["environment"]["spin_probe_ms"] for r in recs})
        point["workloads"].setdefault(workload, {})[kind] = out
    if args.write:
        Path(args.write).write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
