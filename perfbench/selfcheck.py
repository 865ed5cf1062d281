"""Fast self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload once with --tiny under --trace 0 and --trace 1 and
asserts that each run passes its reference checks and emits exactly the
metrics BENCHMARK.json names, with their units.  Also checks that
layers.json names only those metrics, and that the benchmark refuses to run
in a directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    names = {w["name"] for w in spec["workloads"]}
    for layer in layers:
        missing = set(layer["metrics"]) - set(wanted[1])
        assert not missing, f"layers.json names unknown metrics {missing}"
        for target in layer["moves"] + layer.get("does_not_move", []):
            workload, metric = target.split(".", 1)
            assert workload in names and metric in wanted[0], f"layers.json: bad target {target}"
    for workload in sorted(names):
        for trace in (0, 1):
            p = run(workload, trace)
            assert p.returncode == 0, f"{workload} trace {trace}: exit {p.returncode}\n{p.stderr}"
            result = json.loads(p.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, p.stderr)
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted[trace], f"{workload} trace {trace}: {set(got) ^ set(wanted[trace])}"
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool), k
            print(f"ok {workload} trace {trace}: {result['attempted']} items")
    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        p = run("audit", 0, cwd=bare)
        assert p.returncode != 0 and not p.stdout.strip(), "ran without the program"
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
