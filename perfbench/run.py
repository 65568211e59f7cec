#!/usr/bin/env python3
"""Entry point of the repo benchmark.

Builds audiond with the repo's own CMake project (the tier-1 build, target
audiond only) and the load driver in perfbench/, then replaces itself with
the driver, which launches audiond, runs one workload and prints one JSON
result line last. Run from the repository root:

    python3 perfbench/run.py --workload playback --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload control --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --selftest

Build products and the audiond log go to .bench_build/ under the root.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
    if result.returncode != 0:
        log.flush()
        with open(log.name, errors="replace") as f:
            tail = f.readlines()[-30:]
        sys.stderr.write("".join(tail))
        fail("build step failed: " + " ".join(cmd))


def cmake_build(log, source, build_dir, targets):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", source, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], log)
    jobs = str(os.cpu_count() or 1)
    run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets, log)


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no repository sources next to perfbench/ (CMakeLists.txt, src/)")
    os.makedirs(os.path.join(BUILD, "run"), exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        cmake_build(log, ROOT, os.path.join(BUILD, "repo"), ["audiond"])
        cmake_build(log, HERE, os.path.join(BUILD, "perfbench"),
                    ["perfdriver", "perfbench_selftest"])


def compiler_id():
    cache = os.path.join(BUILD, "repo", "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    out = subprocess.run([path, "--version"], capture_output=True,
                                         text=True).stdout
                    return out.splitlines()[0] if out else path
    except OSError:
        pass
    return "unknown"


def commit_id():
    """Git commit when the root is a checkout, plus a digest of the sources."""
    head = "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        if out.returncode == 0:
            head = out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "%s src-sha1:%s" % (head, digest.hexdigest()[:12])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["playback", "control", "churn"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the driver's self-tests instead of a workload")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest:
        selftest = os.path.join(BUILD, "perfbench", "perfbench_selftest")
        os.execv(selftest, [selftest])

    driver = os.path.join(BUILD, "perfbench", "perfdriver")
    argv = [driver,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--audiond", os.path.join(BUILD, "repo", "tools", "audiond"),
            "--work-dir", os.path.join(BUILD, "run"),
            "--build-type", BUILD_TYPE,
            "--compiler", compiler_id(),
            "--commit", commit_id()]
    sys.stdout.flush()
    os.execv(driver, argv)


if __name__ == "__main__":
    main()
