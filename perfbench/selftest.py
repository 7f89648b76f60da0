#!/usr/bin/env python3
"""Self-test of the serving benchmark.

Run from anywhere:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that a one-second run prints a
well-formed result with exactly the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1), each with its declared unit; that a run with
one reference row perturbed (--perturb-reference) fails the correctness
gate, exits non-zero, and prints no result; and that the command fails in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace, *extra):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command + args + list(extra), cwd=cwd, capture_output=True, text=True)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_result(res, declared):
    problems = []
    if res is None:
        return ["no JSON result on the last line"]
    if set(res) != RESULT_KEYS:
        problems.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        problems.append(f"correct={res.get('correct')} failed={res.get('failed')}")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        problems.append(f"attempted={res.get('attempted')}")
    metrics = res.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metrics differ: missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} value {value!r}")
        if name in declared and m.get("unit") != declared[name]:
            problems.append(f"{name} unit {m.get('unit')!r}, declared {declared[name]!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, w, trace)
            declared = {m["name"]: m["unit"] for m in spec[key]}
            problems = check_result(result_of(proc), declared)
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            failures += [f"{w} --trace {trace}: {p}" for p in problems]
            print(f"{w} --trace {trace}: {'ok' if not problems else 'FAILED'}", flush=True)
        proc = run(ROOT, w, 0, "--perturb-reference")
        refused = proc.returncode != 0 and result_of(proc) is None
        if not refused:
            failures.append(f"{w}: the gate accepted a perturbed reference row")
        print(f"{w} --perturb-reference: {'refused' if refused else 'FAILED'}", flush=True)

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("target", "traces"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        refused = proc.returncode != 0 and result_of(proc) is None
        if not refused:
            failures.append("the benchmark ran without the repository")
        print(f"without the repository: {'refused' if refused else 'FAILED'}", flush=True)

    for f in failures:
        print("selftest:", f, file=sys.stderr)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
