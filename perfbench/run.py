#!/usr/bin/env python3
"""Builds the Horus benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--perturb q1|q2|restore-edge]

Run it from the repository root. The benchmark and the Horus libraries are
built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only rebuild what changed. Each run keeps
its data in a private directory under .bench_run, removed when it ends,
also when the run is stopped by SIGTERM.
Build output goes to standard error; the last line of standard output is
the result JSON. The exit code is 0 only when the run finished and every
check passed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA_ROOT = ".bench_run"


def build(build_dir):
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "horus_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "horus_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--perturb", choices=("q1", "q2", "restore-edge"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Compiler and library temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(target, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    try:
        binary = build(os.path.join(target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    data_root = os.path.join(DATA_ROOT, f"py-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--data-root", data_root]
    if args.perturb:
        command += ["--perturb", args.perturb]
    # A SIGTERM from whoever runs the benchmark must stop the child too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(command)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(data_root, ignore_errors=True)
        try:
            os.rmdir(DATA_ROOT)  # only when no other run is using it
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
