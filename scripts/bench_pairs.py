"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload mc-square \\
        --seeds 1 2 3 11 --seconds 40

For each seed it runs ``perfbench/run.py --trace 0`` once in each checkout,
one after the other; the side that goes first alternates from pair to pair,
so that a drift of the host's speed does not favour one side.  Each run's
record lands under that checkout's ``perfbench/out/``.  Per pair it prints
the passes, ``failed``/``attempted`` and digest of each side and its
end-to-end metrics.  At the end, for every end-to-end metric of
``BENCHMARK.json``, it prints each side's median and quartiles next to
that side's median pass count, and the number of pairs the change wins in
the metric's ``better`` direction; a tie counts for neither side.  Last,
it lists the ten queries slowest at the parent, by the median over the
runs of each side; a query is an entry of the record's ``operations``,
the first pass's [label, ms] pairs, keyed by the label before `` -> ``.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run(checkout, workload, seed, seconds):
    """One untraced run in ``checkout``: its result line plus the pass
    count and digest from the readable report, and the per-query latency
    of its record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["passes"] = int(re.search(r"\bpasses (\d+)", lines[0]).group(1))
    digest = [ln.split()[1] for ln in lines if ln.startswith("  digest ")]
    result["digest"] = digest[0] if digest else None
    record = (checkout / "perfbench" / "out"
              / f"{workload}-seed{seed}-trace0.json")
    result["queries"] = [(label.split(" -> ")[0], ms) for label, ms in
                         json.loads(record.read_text())["operations"]]
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run(getattr(args, side), args.workload, seed,
                          args.seconds) for side in order}
        pairs.append(pair)
        p, c = pair["parent"], pair["change"]
        same = "same" if p["digest"] == c["digest"] else "DIFFERENT"
        print(f"pair {i + 1} seed {seed} ({order[0]} first): passes "
              f"{p['passes']} -> {c['passes']}, failed/attempted "
              f"{p['failed']}/{p['attempted']} -> "
              f"{c['failed']}/{c['attempted']}, digest {same}")
        for m in metrics:
            name = m["name"]
            print(f"  {name:14s} {p['metrics'][name]['value']:10.6g} -> "
                  f"{c['metrics'][name]['value']:10.6g} {m['unit']}")
        sys.stdout.flush()

    print(f"{args.workload}: {len(pairs)} pairs")
    # a metric that moves with the pass count (peak_rss_mb does) is read
    # against it
    passes = {side: statistics.median(pair[side]["passes"] for pair in pairs)
              for side in SIDES}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        values = {side: [pair[side]["metrics"][name]["value"]
                         for pair in pairs] for side in SIDES}
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            print(f"  {name:14s} {side:6s} median {med:10.6g}  quartiles "
                  f"[{q1:.6g}, {q3:.6g}]  median passes {passes[side]:g}")
        gains = [sign * (c - p)
                 for p, c in zip(values["parent"], values["change"])]
        wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
        q1, med_p, q3 = quartiles(values["parent"])
        gap = statistics.median(values["change"]) - med_p
        print(f"  {name:14s} change better in {wins}, worse in {losses} of "
              f"{len(pairs)} pairs ({m['better']} is better); median gap "
              f"{gap:+.6g} against a parent interquartile range "
              f"{q3 - q1:.6g}")

    ms = {side: defaultdict(list) for side in SIDES}
    for pair in pairs:
        for side in SIDES:
            for key, value in pair[side]["queries"]:
                ms[side][key].append(value)
    med = {side: {key: statistics.median(v) for key, v in ms[side].items()}
           for side in SIDES}
    print("  slowest queries at the parent, median ms per side:")
    for key in sorted(med["parent"], key=med["parent"].get, reverse=True)[:10]:
        print(f"  {key:40s} {med['parent'][key]:10.2f} -> "
              f"{med['change'].get(key, float('nan')):10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
