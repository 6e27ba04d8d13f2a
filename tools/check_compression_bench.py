#!/usr/bin/env python3
"""Gate the compression benchmark (bench/bench_compression.cpp).

Reads a BENCH_compression.json artifact and checks the deterministic
recompression engine (cpqr: QR+QR, then the pivoted-QR-truncated core and
its Jacobi SVD) against the adaptive randomized engine on the
"recompress" rows:

  * rank — on every tile size b, cpqr's rank_out must be at most
    adaptive's plus MAX_RANK_EXCESS. The deterministic engine truncates at
    the true ε-rank up to one column; more means its error budget is being
    wasted.
  * time — at the largest b, cpqr's ms must be at most MAX_MS_RATIO times
    adaptive's. Both timings come from the same process on the same
    inputs, so the ratio does not flap with the runner's load the way an
    absolute time would.

Usage:
  check_compression_bench.py BENCH_compression.json

Exits 0 when every gated point holds, 1 with a diagnostic otherwise — CI
runs it in the bench-smoke job right after the benchmark.
"""
import argparse
import json
import sys

MAX_RANK_EXCESS = 1
MAX_MS_RATIO = 2.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("json_path")
    args = ap.parse_args()

    with open(args.json_path, encoding="utf-8") as f:
        doc = json.load(f)

    rows = {}
    for rec in doc.get("recompress", []):
        rows.setdefault(rec.get("b"), {})[rec.get("engine")] = rec
    sizes = sorted(b for b, e in rows.items()
                   if "cpqr" in e and "adaptive" in e)
    if not sizes:
        print(f"FAILED: {args.json_path} has no recompress rows with both "
              "cpqr and adaptive", file=sys.stderr)
        return 1

    failures = []
    for b in sizes:
        cpqr, adaptive = rows[b]["cpqr"], rows[b]["adaptive"]
        excess = cpqr["rank_out"] - adaptive["rank_out"]
        ratio = cpqr["ms"] / adaptive["ms"]
        rank_ok = excess <= MAX_RANK_EXCESS
        print(f"  [gate] b={b}: rank_out cpqr {cpqr['rank_out']} vs "
              f"adaptive {adaptive['rank_out']} "
              f"({'ok' if rank_ok else 'REGRESSED'})")
        if not rank_ok:
            failures.append(f"b={b}: cpqr rank_out exceeds adaptive's by "
                            f"{excess} > {MAX_RANK_EXCESS}")
        if b == sizes[-1]:
            time_ok = ratio <= MAX_MS_RATIO
            print(f"  [gate] b={b}: cpqr/adaptive time = {ratio:.2f}x "
                  f"({'ok' if time_ok else 'REGRESSED'})")
            if not time_ok:
                failures.append(f"b={b}: cpqr/adaptive time {ratio:.2f}x > "
                                f"{MAX_MS_RATIO:.2f}x")
        else:
            print(f"  [info] b={b}: cpqr/adaptive time = {ratio:.2f}x")

    if failures:
        for msg in failures:
            print(f"FAILED: {msg}", file=sys.stderr)
        return 1
    print(f"compression bench gate: {len(sizes)} tile sizes ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
