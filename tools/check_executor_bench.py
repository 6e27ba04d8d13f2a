#!/usr/bin/env python3
"""Gate the executor scheduler benchmark (bench/bench_executor.cpp).

Reads a BENCH_executor.json artifact and fails when the work-stealing
engine at two or more threads falls below its own 1-thread run on the
shapes the run-on-finisher release path owns:

  * forkjoin_empty — the historical regression (every per-stage release
    used to pay a futile wakeup, putting 2 threads at 0.58x of one
    uncontended worker at 1M tasks); with depth-aware inlining extra
    workers must not slow the run down.
  * serial_chain   — zero available parallelism; every hop must be a plain
    function call on the finishing worker, so a second worker below the
    lone one means the inline path stopped firing or idle workers are
    being woken for nothing.

It also checks the inline path directly: on every serial_chain row,
inline_runs must cover every non-root task except one chain break per
inline_chain_max hops, i.e. ntasks - ceil(ntasks / (inline_chain_max + 1)).

The speed gate is deliberately loose (default 0.95x: parity minus noise)
because CI runners are shared; it catches the pathology class, not
percent-level drift. The other shapes (independent_*) are reported but not
gated — their headline speedups are judged from the artifact history.

Usage:
  check_executor_bench.py BENCH_executor.json [--min-x 0.95]

Exits 0 when every gated point holds, 1 with a diagnostic otherwise — CI
runs it in the bench-smoke job right after the benchmark.
"""
import argparse
import json
import sys

GATED_SHAPES = ("forkjoin_empty", "serial_chain")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("json_path")
    ap.add_argument("--min-x", type=float, default=0.95,
                    help="minimum acceptable multi-thread over 1-thread "
                         "speedup on the gated shapes (default: %(default)s)")
    args = ap.parse_args()

    with open(args.json_path, encoding="utf-8") as f:
        doc = json.load(f)

    speedups = doc.get("speedup_vs_1_thread")
    if not speedups:
        print(f"FAILED: {args.json_path} has no speedup_vs_1_thread "
              "section", file=sys.stderr)
        return 1

    failures = []
    gated_points = 0
    for rec in speedups:
        shape, x = rec.get("shape"), rec.get("x")
        point = (f"{shape} ntasks={rec.get('ntasks')} "
                 f"threads={rec.get('threads')}")
        if shape in GATED_SHAPES:
            gated_points += 1
            verdict = "ok" if x >= args.min_x else "REGRESSED"
            print(f"  [gate] {point}: vs 1 thread = {x:.2f}x ({verdict})")
            if x < args.min_x:
                failures.append(f"{point}: {x:.2f}x < {args.min_x:.2f}x")
        else:
            print(f"  [info] {point}: vs 1 thread = {x:.2f}x")

    chain_max = doc.get("inline_chain_max")
    chain_rows = [r for r in doc.get("results", [])
                  if r.get("shape") == "serial_chain"]
    if not isinstance(chain_max, int) or chain_max < 1 or not chain_rows:
        failures.append("no inline_chain_max or serial_chain rows to check "
                        "inline_runs against")
    for r in chain_rows:
        n = r["ntasks"]
        want = n - -(-n // (chain_max + 1))  # n - ceil(n / (max + 1))
        got = r.get("inline_runs", -1)
        point = f"serial_chain ntasks={n} threads={r.get('threads')}"
        verdict = "ok" if got >= want else "REGRESSED"
        print(f"  [gate] {point}: inline_runs = {got} (want >= {want}, "
              f"{verdict})")
        if got < want:
            failures.append(f"{point}: inline_runs {got} < {want}")

    if gated_points == 0:
        print("FAILED: no gated shapes present — did bench_executor drop "
              "forkjoin_empty/serial_chain?", file=sys.stderr)
        return 1
    if failures:
        print("FAILED: work-stealing release path regressed:",
              file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"OK: {gated_points} gated speedups at >= {args.min_x:.2f}x, "
          f"{len(chain_rows)} serial_chain inline_runs checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
