#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark and the repository's
libraries it drives are compiled from source into $CARGO_TARGET_DIR (default
.bench_build) on first use. Build output goes to stderr; the benchmark's
last stdout line is its JSON result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("oltp-tenants", "htap-scan", "write-parallel")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns the process."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    return proc


def build():
    """Configures and builds into the build directory; returns it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serverless", "cluster.h")):
        fail("program sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if run_checked(configure, BUILD_TIMEOUT_S, stdout=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_checked(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S,
                   stdout=sys.stderr).returncode:
        fail("build failed")
    return build_dir


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_bench(build_dir, args):
    cmd = [os.path.join(build_dir, "perfbench")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark timed out")
    return proc.returncode, out


def self_test(build_dir):
    """Unit self-tests, a corrupted run verification must reject, and the
    same-seed determinism of the stream digest and per-layer counts."""
    if run_checked([os.path.join(build_dir, "perfbench_selftest")], 60).returncode:
        fail("self-tests failed")
    small = ["--workload", "oltp-tenants", "--seconds", "1"]
    code, out = run_bench(build_dir, small + ["--seed", "5", "--trace", "0", "--corrupt", "1"])
    result = last_json(out)
    if code != 0 or result is None or result["correct"] is not False:
        fail("a corrupted run was not rejected")
    print("corrupted results rejected")
    counts = ("sql.kv_batches_per_stmt", "sql.marshal_bytes_per_stmt",
              "kv.txn_retries_per_commit", "kv.replica_deliveries_per_write",
              "kv.txn_records_live", "storage.block_cache_hit_ratio",
              "storage.bloom_false_positive_ratio", "storage.write_amp",
              "storage.flushes", "storage.compactions")
    runs = []
    for _ in range(2):
        code, out = run_bench(build_dir, small + ["--seed", "5", "--trace", "1"])
        result = last_json(out)
        if code != 0 or result is None or result["correct"] is not True:
            fail("traced run failed verification")
        digest = [l for l in out.splitlines() if "op stream digest" in l][0].split()[-1]
        runs.append((digest, {k: result["metrics"][k]["value"] for k in counts}))
    if runs[0] != runs[1]:
        fail("same seed gave different digests or counts: %r" % (runs,))
    print("same seed, same digest %s and per-layer counts" % runs[0][0])
    print("perfbench self-test passed")


def main(argv):
    if argv == ["--self-test"]:
        self_test(build())
        return 0
    opts = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(opts) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    if opts["--workload"] not in WORKLOADS:
        fail("unknown workload %s (one of %s)" % (opts["--workload"], ", ".join(WORKLOADS)))
    build_dir = build()
    args = argv[:]
    if opts["--trace"] == "1":
        out_dir = os.path.join(build_dir, "traces")
        os.makedirs(out_dir, exist_ok=True)
        args += ["--out", out_dir]
    code, out = run_bench(build_dir, args)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0 or last_json(out) is None:
        fail("benchmark exited with code %d" % code)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
