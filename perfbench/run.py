#!/usr/bin/env python3
"""Run one workload of the rfh benchmark and print its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds this directory's CMake package
(the rfh library, the `rfhc` CLI and the `rfhbench` program) into
.bench_build/perfbench; later calls rebuild only what changed. The run
prints one `metric` line per metric, a `run-info` line describing the
run, and as its last line the result object
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("corpus-sweep", "corpus-perf", "serve-cold")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 160


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def sources_present():
    return all(os.path.isfile(os.path.join(ROOT, p))
               for p in ("src/CMakeLists.txt", "examples/rfhc.cpp"))


def cmake(args):
    # Build chatter goes to stderr: the last stdout line is the result.
    rc = subprocess.call(["cmake"] + args, stdout=sys.stderr)
    if rc != 0:
        fail("cmake %s failed with status %d" % (" ".join(args), rc))


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build(targets):
    if not sources_present():
        fail("the rfh sources (src/, examples/rfhc.cpp) are not next to "
             "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmake(["-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    build_type = cache_value("CMAKE_BUILD_TYPE")
    flags = cache_value("CMAKE_CXX_FLAGS")
    if build_type == "Debug" or "-fsanitize" in flags:
        fail("refusing to measure a %s build (flags '%s')"
             % (build_type or "default", flags))
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmake(["--build", BUILD, "-j", jobs, "--target"] + targets)


def p99_limit_ms():
    """The serve-cold p99 limit, recorded in the workload's `why`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec.get("workloads", []):
        if w.get("name") == "serve-cold":
            m = re.search(r"p99 limit (\d+(?:\.\d+)?) ms", w.get("why", ""))
            if m:
                return m.group(1)
    fail("BENCHMARK.json records no 'p99 limit <N> ms' for serve-cold")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("RFH_GIT_SHA", "none")


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "examples", "rfhc.cpp")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for d, dirs, names in os.walk(top):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def selftest():
    build(["perfbench_tests"])
    return subprocess.call(["ctest", "--test-dir", BUILD,
                            "--output-on-failure"], stdout=sys.stderr)


def run(args):
    build(["rfhbench", "rfhc"])
    work = os.path.join(BUILD, "run")
    os.makedirs(work, exist_ok=True)
    # Relative to the working directory: Unix socket paths must be short.
    work = os.path.relpath(work)
    cmd = [os.path.join(BUILD, "rfhbench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rfhc", os.path.join(BUILD, "rfhc"), "--work-dir", work,
           "--git-sha", git_sha(),
           "--expected", os.path.join(HERE, "expected_digests.json"),
           "--p99-limit-ms", p99_limit_ms()]
    # Own process group, so a timeout also stops the server it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("rfhbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("rfhbench exited with status %d" % proc.returncode)
    json.loads(lines[-1])  # The result object must parse.
    for line in lines[:-1]:
        print(line)
    print("run-info " + json.dumps({"source_digest": source_digest(),
                                    "command": " ".join(sys.argv)}))
    print(lines[-1])
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
