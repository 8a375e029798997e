"""Smoke run of the benchmark: every workload on a tiny corpus, timed and
traced, checking the output schema against BENCHMARK.json; then a run in a
copy that holds only BENCHMARK.json and perfbench/, which must fail.

    python3 perfbench/smoke.py

Takes about half a minute. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names if not NAME.match(n) or names.count(n) > 1]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: bad entry")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end metric {m['name']}: bad entry")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer metric {m['name']}: bad entry")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"metric {m['name']}: bad unit or direction")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in spec["end_to_end"]):
        problems.append("no setup_s metric")
    return problems


def check_result(stdout: str, wanted: list[dict]) -> list[str]:
    result = json.loads(stdout.strip().split("\n")[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, value in got.items():
        if set(value) != {"value", "unit"} or value["unit"] != want.get(name) or not isinstance(value["value"], (int, float)):
            problems.append(f"metric {name}: {value}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--scale", "0.05"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            found = [f"exit {proc.returncode}: {proc.stderr[-500:]}"] if proc.returncode else check_result(proc.stdout, wanted)
            problems += [f"{workload} trace={trace}: {p}" for p in found]
            print(f"{workload:6s} trace={trace} {'ok' if not found else 'FAILED'}", flush=True)

    # without the program's sources the benchmark must refuse to run
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        argv = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("the benchmark ran without the program's sources")
        print(f"bare   exit={proc.returncode} {'ok' if proc.returncode else 'FAILED'}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
