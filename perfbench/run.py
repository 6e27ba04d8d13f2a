#!/usr/bin/env python3
"""Build and run the end-to-end TLR Cholesky benchmark.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the ptlr-e2e program (Release) under $CARGO_TARGET_DIR, or
.bench_build when it is unset; later calls rebuild incrementally. Build
output goes to stderr, so the last line on stdout is the program's JSON
result. --selftest builds and runs the tests of the metric code and checks
that BENCHMARK.json and the glossary in perfbench/README.md match the
program's catalog. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def sh(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True)


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        sh(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(os.cpu_count() or 1)
    sh(["cmake", "--build", out, "--target", target, "-j", jobs])
    return os.path.join(out, target)


def source_id():
    """The git commit when this is a git checkout, else a digest of the
    sources."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha1:" + digest.hexdigest()[:16]


def run(args):
    exe = build("ptlr-e2e")
    scratch = os.path.relpath(os.path.join(build_dir(), "scratch"), ROOT)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--commit", source_id()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


def glossary():
    """The README's metric tables: {section heading: [row cells]} for the
    rows of the End-to-end and Per-layer sections."""
    tables, section = {}, None
    with open(os.path.join(BENCH_DIR, "README.md")) as f:
        for line in f:
            if line.startswith("## "):
                section = line[3:].split("(")[0].strip()
            elif line.startswith("| `") and section:
                cells = [c.strip().strip("`")
                         for c in line.strip().strip("|").split("|")]
                tables.setdefault(section, []).append(cells)
    return tables


def selftest():
    tests = build("perfbench_tests")
    subprocess.run([tests], cwd=ROOT, check=True)
    exe = build("ptlr-e2e")
    catalog = json.loads(subprocess.run([exe, "--list"], cwd=ROOT,
                                        capture_output=True, text=True,
                                        check=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for key in ("workloads", "end_to_end", "per_layer"):
        want = [m["name"] for m in catalog[key]]
        have = [m["name"] for m in spec[key]]
        if want != have:
            problems.append("%s: BENCHMARK.json lists %s, ptlr-e2e %s"
                            % (key, have, want))
    for key in ("end_to_end", "per_layer"):
        known = {m["name"]: m for m in catalog[key]}
        for m in spec[key]:
            for field in ("unit", "better"):
                want = known.get(m["name"], m)[field]
                if m[field] != want:
                    problems.append("%s: %s %s, ptlr-e2e says %s"
                                    % (m["name"], field, m[field], want))
    # README.md's glossary: the same metrics in the same order, with the
    # catalog's unit, layer and direction and BENCHMARK.json's bounds.
    tables = glossary()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for key, section, columns in (
            ("end_to_end", "End-to-end metrics", ("unit", "bound")),
            ("per_layer", "Per-layer metrics", ("unit", "layer", "better"))):
        rows = tables.get(section, [])
        if [r[0] for r in rows] != [m["name"] for m in catalog[key]]:
            problems.append("README.md %s table lists %s, ptlr-e2e %s"
                            % (section, [r[0] for r in rows],
                               [m["name"] for m in catalog[key]]))
            continue
        for row, m in zip(rows, catalog[key]):
            for col, field in enumerate(columns, start=1):
                have, want = row[col], m.get(field)
                if field == "bound":
                    have, want = float(have), bounds[m["name"]]
                if have != want:
                    problems.append("README.md: %s %s %s, expected %s"
                                    % (m["name"], field, have, want))
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            ap.error("--workload is required")
        return run(args)
    except (subprocess.CalledProcessError, OSError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
