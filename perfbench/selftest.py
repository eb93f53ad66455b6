#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark contract, runs every workload
briefly in both modes (timed and traced), and validates each result line:
exactly the keys correct/attempted/failed/metrics, every correctness check
passed, no failed unit, and exactly the declared metrics with their units
(end-to-end metrics positive). Finally it checks that the benchmark refuses
to run, without printing a result, from a directory that holds only
BENCHMARK.json and perfbench/. Exits non-zero on the first problem.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def check_manifest(bench):
    if set(bench) != {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys: {sorted(bench)}")
    if not 1 <= bench["run_seconds"] <= 60:
        fail("run_seconds out of range")
    names = set()
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in bench[key]:
            if not NAME.match(entry["name"]) or entry["name"] in names:
                fail(f"bad or repeated name {entry['name']!r}")
            names.add(entry["name"])
            if "unit" in entry and not UNIT.match(entry["unit"]):
                fail(f"bad unit {entry['unit']!r}")
    if not 2 <= len(bench["workloads"]) <= 8:
        fail("workload count")
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            fail(f"end_to_end entry {m}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must exist with unit s, lower, and the largest bound")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(bench, workload, trace):
    done = run(["--workload", workload, "--seed", "7", "--seconds", "2",
                "--trace", str(trace)])
    label = f"{workload} --trace {trace}"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{label} exited {done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{label}: checks failed\n{done.stdout}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{label}: attempted {result['attempted']}")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{label}: metrics differ: {sorted(set(got) ^ set(want))}")
    for name, metric in got.items():
        if set(metric) != {"value", "unit"} or metric["unit"] != want[name]:
            fail(f"{label}: {name} = {metric}")
        if not isinstance(metric["value"], (int, float)):
            fail(f"{label}: {name} is not a number")
        if not trace and not metric["value"] > 0:
            fail(f"{label}: end-to-end metric {name} is {metric['value']}")
    print(f"selftest: {label}: ok ({result['attempted']} units)")


def check_bare_copy():
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(["--workload", "replay", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        if done.returncode == 0 or '"correct"' in done.stdout:
            fail("a bare copy without src/ must fail without a result")
    print("selftest: bare copy refuses to run: ok")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_manifest(bench)
    for workload in bench["workloads"]:
        for trace in (0, 1):
            check_result(bench, workload["name"], trace)
    check_bare_copy()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
