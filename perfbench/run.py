#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload <hit_storm|cold_mix|zipf_mix> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test     # the benchmark's own tests

The library (../src) and the benchmark are compiled from source, in Release
mode, into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on
first use; later runs rebuild only what changed. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. Exits
non-zero, without a result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(target):
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep the compiler's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "build.ninja")) and not \
            os.path.exists(os.path.join(build_dir, "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, target)


def main(argv):
    try:
        if argv == ["--self-test"]:
            return subprocess.run([build("perfbench_test")],
                                  timeout=600).returncode
        binary = build("perfbench")
        return subprocess.run([binary, *argv],
                              timeout=RUN_TIMEOUT_S).returncode
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"perfbench/run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
