#!/usr/bin/env python3
"""Builds the serving benchmark and runs it on one CPU.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build output goes to standard error, so the benchmark's JSON result
stays the last line of standard output. The build honours
CARGO_TARGET_DIR (default: perfbench/target).

The benchmark process is pinned to the last CPU this process may use and
runs under SCHED_BATCH. Unpinned, where the scheduler places the client,
connection and dispatcher threads changes from run to run, and with it how
rows coalesce into micro-batches. Pinned under the default policy, a thread
that admits a row may or may not be preempted by the dispatcher it wakes,
so a 64-row bulk_mnist frame was served as one micro-batch or split into
two (a third of frames on a 2-vCPU host), and frame times had two modes
about 35% apart; the median jumped between them as the share of split frames
crossed one half. SCHED_BATCH threads do not preempt on wake-up, so every
request's rows reach the dispatcher together: bulk_mnist frames are one
64-row micro-batch and adaptive_retrain rounds one 32-row micro-batch.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "perfbench")
    cpu = max(os.sched_getaffinity(0))

    def pin():
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))

    bench = subprocess.Popen([exe] + sys.argv[1:], preexec_fn=pin)
    return bench.wait()


if __name__ == "__main__":
    sys.exit(main())
