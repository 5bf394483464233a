#!/usr/bin/env python3
"""Fast self-check of the benchmark (about half a minute).

    python3 bench/selftest.py

For each workload it runs one small command (`run.py --smoke`) in a fresh
interpreter, untraced and traced, and checks that the result line names
exactly the metrics of BENCHMARK.json with their units and that the layer
counts come out as predicted.  It then checks that a deliberately wrong
reference answer fails the run, and that a copy of the benchmark without
the program beside it exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import items  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def bench(workload: str, *extra: str, cwd: Path = ROOT,
          script: Path = BENCH / "run.py") -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
             "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check([w["name"] for w in spec["workloads"]] == list(items.WORKLOADS),
          "BENCHMARK.json workloads differ from items.WORKLOADS")
    check(units["0"] == run.END_TO_END, "end_to_end metrics differ from run.END_TO_END")
    check(units["1"] == spans.PER_LAYER, "per_layer metrics differ from spans.PER_LAYER")

    for workload in items.WORKLOADS:
        for trace in ("0", "1"):
            rc, res = bench(workload, "--smoke", "--trace", trace)
            where = f"{workload} --trace {trace}"
            check(rc == 0 and res is not None, f"{where}: exit {rc}, result {res}")
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{where}: {res['failed']}/{res['attempted']} failed")
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            check(got == units[trace], f"{where}: metrics {sorted(got)}")
            check(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
                  f"{where}: non-numeric value")
            if trace == "1":
                value = {name: m["value"] for name, m in res["metrics"].items()}
                visits = value["matching.matchings_visited"]
                sampled = value["hunt.sample_s"]
                check((visits > 0) == (workload == "verify-enumerate"),
                      f"{where}: matchings_visited={visits}")
                check((sampled > 0) == (workload == "hunt-regular"),
                      f"{where}: hunt.sample_s={sampled}")

        rc, res = bench(workload, "--smoke", "--corrupt-reference")
        check(rc != 0 and res is not None and not res["correct"]
              and res["failed"] / res["attempted"] > 0,
              f"{workload}: a wrong reference did not fail the run (exit {rc}, {res})")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    lonely = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", lonely)
        shutil.copytree(BENCH, lonely / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        rc, res = bench(items.WORKLOADS[0], cwd=lonely, script=lonely / BENCH.name / "run.py")
        check(rc != 0 and res is None, f"without the program: exit {rc}, result {res}")
    finally:
        shutil.rmtree(lonely, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
