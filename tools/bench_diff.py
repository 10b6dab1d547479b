#!/usr/bin/env python3
"""Diff two bench JSON files with regression thresholds.

Dispatches on the "bench" field; the two files must come from the same
benchmark.

micro_forward — compares a candidate run against a baseline (typically
the committed bench/baseline/BENCH_forward.json) on three axes:

  * resident_bytes per engine/backend — the compression contract; this
    is deterministic, so the tolerance is tight (default 1.01x).
  * tokens_per_sec per engine/backend — noisy across machines, so the
    default only flags collapses below `--tps-tol` (0.4 = flag when
    the candidate is slower than 40% of baseline).
  * per-span mean_us for spans present in both files — flags any span
    whose mean latency grew by more than `--span-tol` (default 2.0x).
  * seq_tile environment stamp — a candidate whose sequence-tile width
    differs from the baseline's is refused (exit 2), exactly like a
    kernel-tier or thread-count mismatch.
  * the candidate's thread-scaling curve (`scaling[]`) — parallel
    efficiency must stay above `--scaling-eff` (speedup_vs_serial >=
    eff * threads; the default 0.375 demands 1.5x at 4 threads). The
    gate only applies to entries whose thread count the candidate's
    machine can actually run (2 <= threads <= `cores`): oversubscribed
    points and single-core runners carry no scaling signal. Shared
    thread counts present in both files are also compared at
    `--tps-tol`, like the engine results. Baselines written before the
    field existed simply skip the cross-file half.

micro_kernels — compares per-(kernel, tier, bits) GB/s of streamed
operands at the loose `--tps-tol` fraction (kernel throughput is
wall-clock and noisy, like tokens/sec). Baseline tiers the candidate
machine cannot run (e.g. an AVX-512 row against an AVX2-only host)
carry no signal and are skipped with a note rather than failed;
candidate-only rows (a tier the baseline machine lacked) print an
explicit "new in candidate; not gated" line. Rows sharing a key but
disagreeing on `seq_tile` are refused — tile kernels process seq_tile
lanes per call, so GB/s is only comparable at equal width.

Machine-dependent blocks — when the candidate carries a top-level
block the baseline lacks *and* that block is in the known
machine-dependent set (`spans`, `pmu`), the diff prints an explicit
"skipped (machine-dependent)" line instead of staying silent: the
`pmu` roofline block in BENCH_kernels.json records hardware-counter
readings that are different on every host by construction, so it is
never gated — only acknowledged.

micro_serve — the deterministic block (response_checksum, shed and
batch counts, lane accounting, tile occupancy, virtual latency and
queue-wait quantiles, per-band stats, and the windowed `timeline`
series) is a pure function of (trace, options), so any difference is
an exact FAIL (floats compared at 1e-6 relative). Every timeline
window gates individually: counts exactly, derived rates/depths/
quantiles at the float epsilon. Wall-clock fields are
machine-dependent: tokens_per_sec gates loosely at `--tps-tol`,
batch_exec_us is printed FYI only. Files from different traces or
admission options are refused, like tier/thread mismatches; a
baseline that predates the timeline block skips that gate with a
note, while a candidate that *lost* the block fails.

Both files must have been produced by the same SIMD kernel tier
(`kernel_tier` in the JSON; files from before the field read as
"unknown"): comparing a generic-tier baseline against an AVX2
candidate measures the dispatcher, not a regression, so mismatched
tiers are refused with exit status 2. The same applies to `threads`:
a 1-thread baseline against an 8-thread candidate measures the
scheduler configuration, not a code change, so mismatched thread
counts are refused with exit status 2 as well. (For micro_serve the
deterministic block is tier/thread-invariant by design, but a
cross-environment wall-clock diff still says nothing — the stamp must
match for the run to be a regression signal.)

Exit status: 0 when everything is within tolerance, 1 when any
threshold is breached, 2 on malformed input or a refused comparison.
Intended for the non-blocking CI bench job, which prints the diff as
an FYI.

Usage: bench_diff.py BASELINE.json CANDIDATE.json
           [--span-tol X] [--resident-tol X] [--tps-tol X]
           [--scaling-eff X]
"""

import argparse
import json
import sys

KNOWN_BENCHES = ("micro_forward", "micro_serve", "micro_kernels")

# Top-level blocks that are different on every machine by
# construction; a candidate-only block from this set is acknowledged
# ("skipped (machine-dependent)") instead of silently ignored, and is
# never gated. `spans` is wall-clock latency, `pmu` is raw hardware
# counters (see EXPERIMENTS.md, BENCH_kernels.json).
MACHINE_DEPENDENT_BLOCKS = ("spans", "pmu")


def refuse(msg):
    """Print a refusal and exit 2 (sys.exit(str) would exit 1)."""
    print(msg, file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        refuse(f"bench_diff: cannot read {path}: {e}")
    # Files from before the dispatcher read as micro_forward.
    bench = data.get("bench", "micro_forward")
    if bench not in KNOWN_BENCHES:
        refuse(f"bench_diff: {path}: unknown bench '{bench}' "
               f"(known: {', '.join(KNOWN_BENCHES)})")
    return data


def report_machine_dependent_blocks(base, cand):
    """Acknowledge candidate-only machine-dependent blocks.

    A block from MACHINE_DEPENDENT_BLOCKS that the candidate carries
    but the baseline lacks is skipped *by design* (regenerating the
    baseline would not make it comparable), and the skip is printed so
    a reader never mistakes it for a gate.
    """
    for key in MACHINE_DEPENDENT_BLOCKS:
        if key in cand and key not in base:
            print(f"  {key}: skipped (machine-dependent; candidate-only "
                  f"block, never gated)")


def refuse_environment_mismatch(base, cand):
    """Tier / thread-count stamps must match or the diff is noise."""
    base_tier = base.get("kernel_tier", "unknown")
    cand_tier = cand.get("kernel_tier", "unknown")
    if base_tier != cand_tier:
        refuse(
            f"bench_diff: kernel tier mismatch: baseline ran "
            f"'{base_tier}', candidate ran '{cand_tier}' — re-run the "
            f"candidate under GOBO_KERNEL={base_tier} (cross-tier "
            f"throughput diffs measure the dispatcher, not a "
            f"regression)")

    base_threads = base.get("threads")
    cand_threads = cand.get("threads")
    if base_threads != cand_threads:
        refuse(
            f"bench_diff: thread-count mismatch: baseline ran "
            f"threads={base_threads}, candidate ran "
            f"threads={cand_threads} — re-run the candidate under "
            f"GOBO_THREADS={base_threads} (cross-width throughput "
            f"diffs measure the scheduler configuration, not a "
            f"regression)")


def results_by_key(data):
    return {
        (r["engine"], r["backend"]): r for r in data.get("results", [])
    }


def spans_by_name(data):
    return {s["name"]: s for s in data.get("spans", [])}


def diff_forward(base, cand, args):
    failures = []

    # The sequence-tile width is part of the environment stamp, like
    # the kernel tier: a 16-lane candidate against an 8-lane baseline
    # measures batching granularity, not a regression. A mismatch is a
    # refusal, not a failure. Files from before the field existed read
    # as None — regenerate.
    if base.get("seq_tile") != cand.get("seq_tile"):
        refuse(
            f"bench_diff: seq_tile mismatch: baseline "
            f"{base.get('seq_tile')} vs candidate {cand.get('seq_tile')}"
            f" — cross-width diffs measure batching granularity, not a "
            f"regression (a missing value means the file predates the "
            f"field; regenerate the baseline)")

    base_r = results_by_key(base)
    cand_r = results_by_key(cand)
    for key in sorted(base_r):
        if key not in cand_r:
            failures.append(f"missing result for {key[0]}/{key[1]}")
            continue
        b, c = base_r[key], cand_r[key]
        name = f"{key[0]}/{key[1]}"

        rb = b.get("resident_bytes", 0)
        rc = c.get("resident_bytes", 0)
        if rb > 0:
            ratio = rc / rb
            mark = ""
            if ratio > args.resident_tol:
                failures.append(
                    f"{name}: resident_bytes {rb} -> {rc} "
                    f"({ratio:.3f}x > {args.resident_tol}x)")
                mark = "  <-- FAIL"
            print(f"  {name:22s} resident {rb:>10d} -> {rc:>10d} "
                  f"({ratio:.3f}x){mark}")

        tb = b.get("tokens_per_sec", 0)
        tc = c.get("tokens_per_sec", 0)
        if tb > 0:
            frac = tc / tb
            mark = ""
            if frac < args.tps_tol:
                failures.append(
                    f"{name}: tokens/sec {tb:.0f} -> {tc:.0f} "
                    f"({frac:.2f}x < {args.tps_tol}x)")
                mark = "  <-- FAIL"
            print(f"  {name:22s} tok/s    {tb:>10.0f} -> {tc:>10.0f} "
                  f"({frac:.2f}x){mark}")

    # Thread-scaling curve. The efficiency gate is *self*-contained to
    # the candidate file (speedup vs its own serial point), so it works
    # even against a baseline that predates scaling[]; the cross-file
    # tok/s comparison only runs for thread counts present in both.
    cand_scaling = {
        s["threads"]: s for s in cand.get("scaling", [])
    }
    base_scaling = {
        s["threads"]: s for s in base.get("scaling", [])
    }
    if cand_scaling:
        cores = cand.get("cores", 1)
        print(f"  scaling (candidate cores={cores}, "
              f"gate eff>={args.scaling_eff} for 2<=t<=cores):")
        for t in sorted(cand_scaling):
            c = cand_scaling[t]
            speed = c.get("speedup_vs_serial", 0.0)
            gated = 2 <= t <= cores
            mark = ""
            if gated and speed < args.scaling_eff * t:
                failures.append(
                    f"scaling: {speed:.2f}x at {t} threads < "
                    f"{args.scaling_eff * t:.2f}x "
                    f"(eff {args.scaling_eff} * {t})")
                mark = "  <-- FAIL"
            note = "" if gated else "  (not gated)"
            print(f"    t={t:<3d} {c.get('tokens_per_sec', 0):>10.0f} "
                  f"tok/s  {speed:.2f}x{note}{mark}")
            b = base_scaling.get(t)
            if b and b.get("tokens_per_sec", 0) > 0:
                frac = c.get("tokens_per_sec", 0) / b["tokens_per_sec"]
                mark = ""
                if frac < args.tps_tol:
                    failures.append(
                        f"scaling t={t}: tokens/sec "
                        f"{b['tokens_per_sec']:.0f} -> "
                        f"{c.get('tokens_per_sec', 0):.0f} "
                        f"({frac:.2f}x < {args.tps_tol}x)")
                    mark = "  <-- FAIL"
                print(f"         vs baseline "
                      f"{b['tokens_per_sec']:>10.0f} tok/s "
                      f"({frac:.2f}x){mark}")

    print("  spans (shared, by mean_us growth):")
    base_s = spans_by_name(base)
    cand_s = spans_by_name(cand)
    shared = sorted(set(base_s) & set(cand_s))
    grown = []
    for name in shared:
        bm, cm = base_s[name]["mean_us"], cand_s[name]["mean_us"]
        if bm <= 0:
            continue
        grown.append((cm / bm, name, bm, cm))
    for ratio, name, bm, cm in sorted(grown, reverse=True):
        mark = ""
        if ratio > args.span_tol:
            failures.append(
                f"span {name}: mean {bm:.1f}us -> {cm:.1f}us "
                f"({ratio:.2f}x > {args.span_tol}x)")
            mark = "  <-- FAIL"
        print(f"    {name:28s} {bm:>10.1f} -> {cm:>10.1f} us "
              f"({ratio:.2f}x){mark}")

    return failures


def kernel_results_by_key(data):
    return {
        (r["kernel"], r["tier"], r["bits"]): r
        for r in data.get("results", [])
    }


def diff_kernels(base, cand, args):
    """Per-(kernel, tier, bits) streamed-operand GB/s at `--tps-tol`.

    Kernel throughput is a wall-clock figure, so the gate is the same
    loose collapse detector used for tokens/sec. Tiers the candidate
    machine cannot run at all (no row for that tier) are noise, not
    regressions: the dispatcher decided, not the code under test.
    """
    failures = []
    base_r = kernel_results_by_key(base)
    cand_r = kernel_results_by_key(cand)
    cand_tiers = {tier for (_, tier, _) in cand_r}

    if base.get("seq_tile") != cand.get("seq_tile"):
        refuse(
            f"bench_diff: seq_tile mismatch: baseline "
            f"{base.get('seq_tile')} vs candidate "
            f"{cand.get('seq_tile')} — the runs stamp different tier "
            f"tile widths, so they are not comparable")

    for key in sorted(base_r):
        kernel, tier, bits = key
        name = f"{kernel}/{tier}" + (f"/B{bits}" if bits else "")
        if key not in cand_r:
            if tier not in cand_tiers:
                print(f"  {name:34s} (tier not runnable on candidate; "
                      f"skipped)")
            else:
                failures.append(f"missing result for {name}")
            continue
        b, c = base_r[key], cand_r[key]
        st_b, st_c = b.get("seq_tile"), c.get("seq_tile")
        if st_b is not None and st_c is not None and st_b != st_c:
            refuse(
                f"bench_diff: {name}: per-result seq_tile mismatch: "
                f"baseline {st_b} vs candidate {st_c} — tile kernels "
                f"process seq_tile lanes per call, so GB/s is only "
                f"comparable at equal width")
        gb_b = b.get("gb_per_sec", 0)
        gb_c = c.get("gb_per_sec", 0)
        if gb_b > 0:
            frac = gb_c / gb_b
            mark = ""
            if frac < args.tps_tol:
                failures.append(
                    f"{name}: GB/s {gb_b:.2f} -> {gb_c:.2f} "
                    f"({frac:.2f}x < {args.tps_tol}x)")
                mark = "  <-- FAIL"
            print(f"  {name:34s} GB/s {gb_b:>9.2f} -> {gb_c:>9.2f} "
                  f"({frac:.2f}x){mark}")

    for key in sorted(set(cand_r) - set(base_r)):
        kernel, tier, bits = key
        name = f"{kernel}/{tier}" + (f"/B{bits}" if bits else "")
        print(f"  {name:34s} (new in candidate; not gated)")

    return failures


# Relative tolerance for the deterministic float fields of micro_serve
# (occupancy, virtual quantiles). They are pure functions of (trace,
# options); the epsilon only absorbs decimal round-tripping.
SERVE_EPS = 1e-6

# (json key, description) — integer fields gated exactly.
SERVE_EXACT = (
    ("requests", "request count"),
    ("completed", "completed count"),
    ("shed_overload", "overload sheds"),
    ("shed_deadline", "deadline sheds"),
    ("batches", "dispatched tiles"),
    ("lanes_filled", "filled lanes"),
    ("lanes_total", "total lanes"),
    ("tokens_served", "tokens served"),
)


def close(a, b, eps=SERVE_EPS):
    if a is None or b is None:
        return a == b
    return abs(a - b) <= eps * max(1.0, abs(a), abs(b))


# Per-window timeline fields: counts gate exactly, derived floats at
# SERVE_EPS (they only exist to save consumers a division).
TIMELINE_INT_KEYS = ("start_us", "arrivals", "admitted", "completed",
                     "shed_overload", "shed_deadline", "batches",
                     "lanes_filled", "lanes_total", "tokens")
TIMELINE_FLOAT_KEYS = ("tokens_per_sec", "mean_queue_depth",
                       "occupancy")


def diff_timeline(tl_b, tl_c):
    """Exact-gate the windowed series; every window must match."""
    failures = []
    for key in ("window_us", "clamped"):
        if tl_b.get(key) != tl_c.get(key):
            failures.append(
                f"timeline.{key}: {tl_b.get(key)} -> {tl_c.get(key)} "
                f"(deterministic field)")
    wb, wc = tl_b.get("windows", []), tl_c.get("windows", [])
    if len(wb) != len(wc):
        failures.append(
            f"timeline window count: {len(wb)} -> {len(wc)} "
            f"(deterministic field)")
    bad = 0
    for b, c in zip(wb, wc):
        diffs = []
        for key in TIMELINE_INT_KEYS:
            if b.get(key) != c.get(key):
                diffs.append(f"{key} {b.get(key)} -> {c.get(key)}")
        for key in TIMELINE_FLOAT_KEYS:
            if not close(b.get(key), c.get(key)):
                diffs.append(f"{key} {b.get(key)} -> {c.get(key)}")
        for q in ("p50", "p99"):
            vb = (b.get("queue_wait_us") or {}).get(q)
            vc = (c.get("queue_wait_us") or {}).get(q)
            if not close(vb, vc):
                diffs.append(f"queue_wait_us.{q} {vb} -> {vc}")
        if diffs:
            bad += 1
            failures.append(
                f"timeline window {b.get('window')}: "
                + ", ".join(diffs))
    mark = "  <-- FAIL" if bad or len(wb) != len(wc) else ""
    print(f"  timeline: {len(wc)} windows, {bad} differing{mark}")
    return failures


def diff_serve(base, cand, args):
    failures = []

    # The deterministic block is only comparable for the same scenario:
    # a different trace or admission policy is a different experiment.
    for key in ("trace", "engine", "format"):
        if base.get(key) != cand.get(key):
            refuse(
                f"bench_diff: {key} mismatch: baseline "
                f"'{base.get(key)}' vs candidate '{cand.get(key)}' — "
                f"micro_serve results are only comparable for the "
                f"same scenario")
    if base.get("options") != cand.get("options"):
        refuse(
            f"bench_diff: admission options mismatch: "
            f"{base.get('options')} vs {cand.get('options')} — "
            f"micro_serve results are only comparable for the same "
            f"scenario")

    print(f"  trace: {cand.get('trace')}")

    bc, cc = base.get("response_checksum"), cand.get("response_checksum")
    mark = ""
    if bc != cc:
        failures.append(
            f"response_checksum {bc} -> {cc}: served logits or "
            f"statuses changed (replay identity broken)")
        mark = "  <-- FAIL"
    print(f"  checksum {bc} -> {cc}{mark}")

    for key, what in SERVE_EXACT:
        b, c = base.get(key), cand.get(key)
        mark = ""
        if b != c:
            failures.append(f"{what}: {b} -> {c} (deterministic field)")
            mark = "  <-- FAIL"
        print(f"  {key:22s} {b} -> {c}{mark}")

    det_floats = [("tile_occupancy", base.get("tile_occupancy"),
                   cand.get("tile_occupancy"))]
    for block in ("latency_virtual_us", "queue_wait_virtual_us"):
        for q in ("p50", "p95", "p99"):
            det_floats.append((f"{block}.{q}",
                               (base.get(block) or {}).get(q),
                               (cand.get(block) or {}).get(q)))
    for name, b, c in det_floats:
        mark = ""
        if not close(b, c):
            failures.append(f"{name}: {b} -> {c} (deterministic field)")
            mark = "  <-- FAIL"
        print(f"  {name:28s} {b} -> {c}{mark}")

    base_bands = {b["band"]: b for b in base.get("bands", [])}
    cand_bands = {b["band"]: b for b in cand.get("bands", [])}
    if sorted(base_bands) != sorted(cand_bands):
        failures.append(
            f"band set changed: {sorted(base_bands)} -> "
            f"{sorted(cand_bands)}")
    for band in sorted(set(base_bands) & set(cand_bands)):
        b, c = base_bands[band], cand_bands[band]
        ok = (b["requests"] == c["requests"]
              and b["batches"] == c["batches"]
              and close(b["occupancy"], c["occupancy"]))
        mark = ""
        if not ok:
            failures.append(
                f"band {band}: {b['requests']}req/{b['batches']}tile "
                f"occ {b['occupancy']:.4f} -> "
                f"{c['requests']}req/{c['batches']}tile "
                f"occ {c['occupancy']:.4f}")
            mark = "  <-- FAIL"
        print(f"  band {band}: {c['requests']} req, {c['batches']} "
              f"tiles, occupancy {c['occupancy']:.4f}{mark}")

    # Timeline block: deterministic like everything above, gated
    # window by window. Baselines from before the block existed skip
    # with a note; a candidate that lost the block is a regression.
    tl_b, tl_c = base.get("timeline"), cand.get("timeline")
    if tl_b is None and tl_c is None:
        print("  timeline: absent in both files (skipped)")
    elif tl_b is None:
        print("  timeline: baseline predates the block (skipped; "
              "regenerate the baseline to gate it)")
    elif tl_c is None:
        failures.append(
            "timeline block missing from candidate (present in "
            "baseline)")
    else:
        failures.extend(diff_timeline(tl_b, tl_c))

    # Wall-clock half: loose gate on throughput, FYI on exec times.
    tb = base.get("tokens_per_sec", 0) or 0
    tc = cand.get("tokens_per_sec", 0) or 0
    if tb > 0:
        frac = tc / tb
        mark = ""
        if frac < args.tps_tol:
            failures.append(
                f"tokens/sec {tb:.0f} -> {tc:.0f} "
                f"({frac:.2f}x < {args.tps_tol}x)")
            mark = "  <-- FAIL"
        print(f"  tokens/sec (wall)      {tb:>10.0f} -> {tc:>10.0f} "
              f"({frac:.2f}x){mark}")
    exec_b = base.get("batch_exec_us") or {}
    exec_c = cand.get("batch_exec_us") or {}
    print(f"  batch_exec_us p50/p95/p99 (FYI, not gated): "
          f"{exec_b.get('p50')}/{exec_b.get('p95')}/{exec_b.get('p99')}"
          f" -> "
          f"{exec_c.get('p50')}/{exec_c.get('p95')}/{exec_c.get('p99')}")

    return failures


def main():
    ap = argparse.ArgumentParser(
        description="Diff two bench JSON files")
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--span-tol", type=float, default=2.0,
                    help="max allowed span mean_us growth factor")
    ap.add_argument("--resident-tol", type=float, default=1.01,
                    help="max allowed resident_bytes growth factor")
    ap.add_argument("--tps-tol", type=float, default=0.4,
                    help="min allowed tokens_per_sec fraction")
    ap.add_argument("--scaling-eff", type=float, default=0.375,
                    help="min parallel efficiency for scaling entries "
                         "with 2 <= threads <= cores (0.375 = 1.5x "
                         "speedup at 4 threads)")
    args = ap.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)

    base_bench = base.get("bench", "micro_forward")
    cand_bench = cand.get("bench", "micro_forward")
    if base_bench != cand_bench:
        refuse(
            f"bench_diff: bench mismatch: baseline is {base_bench}, "
            f"candidate is {cand_bench}")

    refuse_environment_mismatch(base, cand)

    print(f"bench_diff: {args.baseline} -> {args.candidate} "
          f"({base_bench})")
    report_machine_dependent_blocks(base, cand)
    if base_bench == "micro_serve":
        failures = diff_serve(base, cand, args)
    elif base_bench == "micro_kernels":
        failures = diff_kernels(base, cand, args)
    else:
        failures = diff_forward(base, cand, args)

    if failures:
        print(f"\nbench_diff: {len(failures)} threshold breach(es):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nbench_diff: all within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
