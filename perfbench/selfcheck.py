"""Fast self-check of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced with tiny inputs and
checks that the result line is well formed, that the outputs passed
their checks (so the traced run's digests equal the untraced run's),
and that every metric BENCHMARK.json names is present, finite and in
its unit, with the end-to-end ones above zero.  It also checks that the
benchmark fails, without printing a result, when the package source is
missing.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(doc: dict, workload: str, trace: int) -> list[str]:
    proc = bench(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        errors.append(f"correct={res.get('correct')} attempted={res.get('attempted')} "
                      f"failed={res.get('failed')}")
    declared = doc["per_layer"] if trace else doc["end_to_end"]
    got = res.get("metrics", {})
    if set(got) != {m["name"] for m in declared}:
        errors.append(f"metric names differ from BENCHMARK.json: {sorted(got)}")
    for m in declared:
        entry = got.get(m["name"], {})
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']} = {value!r}")
        elif entry.get("unit") != m["unit"]:
            errors.append(f"{m['name']} unit {entry.get('unit')!r}, expected {m['unit']!r}")
        elif not trace and value <= 0:
            errors.append(f"{m['name']} = {value}, expected > 0")
    return errors


def check_fails_without_source(workload: str) -> list[str]:
    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["the benchmark succeeded without the package source"]
    return []


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in doc["workloads"]:
        for trace in (0, 1):
            errors = check_result(doc, w["name"], trace)
            failures += bool(errors)
            print(f"{'FAIL' if errors else 'ok  '} {w['name']} trace={trace}")
            for e in errors:
                print(f"     {e}")
    errors = check_fails_without_source(doc["workloads"][0]["name"])
    failures += bool(errors)
    print(f"{'FAIL' if errors else 'ok  '} exits non-zero without src/")
    for e in errors:
        print(f"     {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
