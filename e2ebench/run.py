#!/usr/bin/env python3
"""End-to-end benchmark of the RSIN library.

Builds the library, the real rsin_campaign executable and the driver
from source (Release only) under .bench_build/, runs one workload for a
time budget, checks every output, and prints the metrics.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the root of a checkout:

    python3 e2ebench/run.py --workload sim_paper16 --seed 1 \
        --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics from a traced run.  See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import metrics  # noqa: E402  (after the bytecode switch)

WORKLOADS = ("sim_paper16", "sim_large", "exact_chains", "campaign_mixed")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
JOBS = 4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; refuse anything but Release."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    with open(cache) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        raise SystemExit("e2ebench: refusing a %r build in %s"
                         % (build_type, build_dir))
    subprocess.run(["cmake", "--build", build_dir, "-j", str(JOBS),
                    "--target", "e2ebench_driver", "rsin_campaign"],
                   check=True, stdout=sys.stderr)


def source_fingerprint(root):
    """sha256 over the library, campaign and benchmark sources."""
    digest = hashlib.sha256()
    tops = [os.path.join(root, "src"), BENCH_DIR,
            os.path.join(root, "examples", "rsin_campaign.cpp")]
    files = []
    for top in tops:
        if os.path.isfile(top):
            files.append(top)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(filenames)
                      if not n.endswith(".pyc")]
    for path in files:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--references",
                    default=os.path.join(BENCH_DIR, "references.json"),
                    help="exact-chain references to check against")
    args = ap.parse_args()

    root = os.getcwd()
    out_dir = os.path.join(root, ".bench_build")
    build_dir = os.path.join(out_dir, "e2ebench")
    build(build_dir)

    tag = "%s-%d-%d" % (args.workload, args.trace, os.getpid())
    doc_path = os.path.join(out_dir, "runs", tag + ".json")
    work_dir = os.path.join(out_dir, "work", tag)
    os.makedirs(os.path.dirname(doc_path), exist_ok=True)
    subprocess.run([os.path.join(build_dir, "e2ebench_driver"),
                    "--workload", args.workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                    "--campaign-bin", os.path.join(build_dir, "rsin_campaign"),
                    "--work-dir", work_dir,
                    "--references", args.references,
                    "--out", doc_path],
                   check=True, stdout=sys.stderr)
    with open(doc_path) as f:
        doc = json.load(f)
    # The run document (spans included) stays as the trace artifact.
    os.replace(doc_path, os.path.join(
        out_dir, "runs", "%s-%d.json" % (args.workload, args.trace)))

    values, attempted, failed, lines = metrics.result_line(doc)
    stamp = {"commit": commit(root), "sources": source_fingerprint(root),
             "compiler": doc["compiler"], "build_type": doc["build_type"],
             "nproc": os.cpu_count(), "workload": args.workload,
             "seed": args.seed, "trace": args.trace}
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    for line in lines:
        print(line)
    for line in metrics.failed_checks(doc["passes"]):
        print("FAILED " + line)
    print("failed_frac: %.6g (%d of %d cells)"
          % (failed / attempted if attempted else 0.0, failed, attempted))
    for name, m in values.items():
        print("%-34s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": values}))


if __name__ == "__main__":
    try:
        main()
    except subprocess.CalledProcessError as e:
        log("e2ebench: %s failed with exit code %d"
            % (e.cmd[0], e.returncode))
        sys.exit(1)
