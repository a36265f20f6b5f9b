#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload mesh_bulk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The measuring program is built from
source with CMake (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then run once. Progress goes to stderr;
the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run also leaves a full record (provenance, named metrics, per-kind
distributions, communication ledger; spans when traced) under
<build dir>/records/. Two records of the same workload and seed must carry
identical communication ledgers; a difference is reported as a defect.
Records from different hosts are labelled "not comparable".
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("mesh_bulk", "bulk_exchange", "serve_stream")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")
    if args.seed < 0:
        fail("--seed must be non-negative")
    return args


def git_provenance(root):
    """Git revision and dirty flag, only when the checkout is a repository."""
    if not os.path.isdir(os.path.join(root, ".git")) or shutil.which("git") is None:
        return {"git_sha": "unknown (not a git checkout)", "git_dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=20, check=True)
        status = subprocess.run(["git", "-C", root, "status", "--porcelain",
                                 "--untracked-files=no"], env=env,
                                capture_output=True, text=True, timeout=20, check=True)
    except (subprocess.SubprocessError, OSError):
        return {"git_sha": "unknown", "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (subprocess.SubprocessError, OSError) as e:
            fail(f"build step {cmd[:2]} failed: {e}", 3)
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}", 3)


def compare_with_previous(records_dir, record):
    """Label the comparison with the last record of the same workload and
    check that a same-seed record moved exactly the same messages."""
    prev = None
    for name in sorted(os.listdir(records_dir)):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(records_dir, name)) as f:
                r = json.load(f)
        except (OSError, ValueError):
            continue
        if r.get("workload") == record["workload"]:
            prev = r
    if prev is None:
        return {"previous": None}
    keys = ("host", "nproc", "cpu_model", "compiler", "build_type")
    a, b = prev.get("provenance", {}), record.get("provenance", {})
    same_host = all(a.get(k) == b.get(k) for k in keys)
    out = {"previous_seed": a.get("seed"),
           "label": "comparable" if same_host else "not comparable"}
    if a.get("seed") == b.get("seed") and same_host:
        pl, cl = prev.get("ledger", {}), record.get("ledger", {})
        if any(pl[k] != cl[k] for k in set(pl) & set(cl)):
            out["ledger_defect"] = "communication counts differ from the previous run with this seed"
            print("perfbench: LEDGER DEFECT: counts differ from the previous same-seed run",
                  file=sys.stderr)
        else:
            out["ledger_repeats"] = True
    return out


def main():
    args = parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("src/mpl/engine.hpp", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from a full source checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    build(root, build_dir)

    out_dir = os.path.join(build_dir, "out")
    records_dir = os.path.join(build_dir, "records")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(records_dir, exist_ok=True)

    record_path = os.path.join(out_dir, f"record_{args.workload}.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [os.path.join(build_dir, "ppa_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped", 4)
    lines = [l for l in run.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"benchmark printed no result (exit {run.returncode})", 5)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark result line is not JSON", 5)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark result line has unexpected keys", 5)

    try:
        with open(record_path) as f:
            record = json.load(f)
    except (OSError, ValueError):
        fail("benchmark wrote no record", 5)
    record["provenance"].update(git_provenance(root))
    record["comparison"] = compare_with_previous(records_dir, record)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"_{time.monotonic_ns() % 1000000:06d}"
    name = f"{stamp}_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(records_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    print(f"perfbench: record written to {os.path.join(records_dir, name)}", file=sys.stderr)

    print(json.dumps(result))
    if run.returncode != 0:
        print(f"perfbench: benchmark exited {run.returncode} (wrong results)", file=sys.stderr)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
