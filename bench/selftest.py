"""Self-test of the benchmark: a short run of every workload, both modes.

    python3 bench/selftest.py

Asserts, for each workload (the ones in BENCHMARK.json and dense-quadratic,
which is run by hand only), that the untraced run prints
every end-to-end metric and the traced run every per-layer metric, each
with its declared unit, that the result line has exactly the contract's
keys, and that no request failed (error_rate == 0). It also checks that the
benchmark refuses to run, with a non-zero exit and no result, from a
directory that holds only BENCHMARK.json and the benchmark's files.

It takes a few minutes (the traced degenerate and dense runs dominate) and
is not part of the repository's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = ("small-batch", "degenerate-compare", "dense-quadratic")


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run(["bench/run.py", "--workload", workload, "--seed", "1",
                "--seconds", "1", "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, f"{workload}: result keys {sorted(result)}"
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in want}, (
        f"{workload}: metrics {sorted(set(got) ^ {m['name'] for m in want})} differ")
    for m in want:
        assert got[m["name"]]["unit"] == m["unit"], f"{workload}: unit of {m['name']}"
        assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]
    report = json.loads((ROOT / ".bench_run" / workload / "report.json").read_text())
    assert report["error_rate"] == 0, f"{workload}: failures {report['failures']}"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    print(f"ok {workload} trace={trace} attempted={result['attempted']}", flush=True)


def check_refuses_without_source(spec: dict) -> None:
    bare = ROOT / ".bench_run" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run([*spec["command"][1:], "--workload", spec["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    assert proc.returncode != 0, "ran without the coincide sources"
    assert '"metrics"' not in proc.stdout, "printed a result without the coincide sources"
    shutil.rmtree(bare)
    print("ok refuses to run without the sources", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    check_refuses_without_source(spec)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
