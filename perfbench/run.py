#!/usr/bin/env python3
"""Build balgd and the load generator from source, then run the benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20        # every workload
    python3 perfbench/run.py --selftest faults --seed 1
    python3 perfbench/run.py --selftest determinism --seed 1

Build output goes to stderr, so the last line of stdout is the load
generator's JSON result.  Scratch stores and logs live in
.perfbench-work/ and are removed when the run ends.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
LONG_RUN_TIMEOUT_S = 900  # --all and --selftest run several workloads


def wait_group_gone(pgid, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    root = os.getcwd()
    if not all(os.path.exists(os.path.join(root, p))
               for p in ("dune-project", "bin/balgd.ml", "lib/server/server.ml")):
        print("perfbench: run from the root of a balg checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./bin/balgd.exe", "./perfbench/loadgen.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench-work")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(root, "_build/default/perfbench/loadgen.exe"),
           "--balgd", os.path.join(root, "_build/default/bin/balgd.exe"),
           "--work", work] + sys.argv[1:]
    # a session of its own, so a timeout can stop the servers it started
    proc = subprocess.Popen(cmd, start_new_session=True)
    long_run = "--all" in sys.argv or "--selftest" in sys.argv
    try:
        code = proc.wait(timeout=LONG_RUN_TIMEOUT_S if long_run else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        wait_group_gone(proc.pid)
        code = 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
