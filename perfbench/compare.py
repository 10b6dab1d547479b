#!/usr/bin/env python3
"""Compare two perfbench reports metric by metric.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Reports are the files perfbench/run.py writes under
.bench_build/perfbench-reports/. Two reports are comparable only when
their environment stamps (kernel tier, seqTile, threads, nproc,
decode-cache budget, model, workload, seed, seconds, trace) are equal;
otherwise the comparison is refused with exit code 2. The share of CPU
time the host stole during each run is printed first. For each metric
the medians and the relative change are printed; an end-to-end metric
that got worse by more than its bound in BENCHMARK.json is flagged and
makes the exit code 1.
"""

import json
import os
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, new = (json.load(open(p)) for p in sys.argv[1:])
    diff = sorted(k for k in set(base["stamp"]) | set(new["stamp"])
                  if base["stamp"].get(k) != new["stamp"].get(k))
    if diff:
        for k in diff:
            print(f"stamp differs: {k}: {base['stamp'].get(k)!r} vs "
                  f"{new['stamp'].get(k)!r}", file=sys.stderr)
        print("refusing to compare runs with different stamps",
              file=sys.stderr)
        return 2
    spec = {}
    if os.path.exists(BENCHMARK):
        bench = json.load(open(BENCHMARK))
        spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    if "host_steal_frac" in base and "host_steal_frac" in new:
        # Stolen CPU time is the usual cause of a gap on a shared host.
        print(f"host steal during the workload: base "
              f"{100 * base['host_steal_frac']:.1f}%, new "
              f"{100 * new['host_steal_frac']:.1f}%")
    regressed = False
    print(f"{'metric':34s} {'base':>14s} {'new':>14s} {'change':>9s}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"{name:34s} {b['median']:14.4f} {'missing':>14s}")
            continue
        change = (n["median"] - b["median"]) / b["median"] if b["median"] \
            else 0.0
        flag = ""
        m = spec.get(name, {})
        if "bound" in m:
            worse = -change if m["better"] == "higher" else change
            if worse > m["bound"]:
                flag = f"  worse than bound {m['bound']}"
                regressed = True
        print(f"{name:34s} {b['median']:14.4f} {n['median']:14.4f} "
              f"{100 * change:8.2f}%{flag}")
    for key in ("correct", "attempted", "failed"):
        if base[key] != new[key]:
            print(f"{key}: {base[key]} -> {new[key]}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
