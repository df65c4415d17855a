"""Self-test of the benchmark: tiny sizes, every metric named, missing program refused.

Runs each workload at a tiny size with and without tracing and checks that the
result object names every metric of BENCHMARK.json with its unit, that all
output checks pass, and that the entry point exits non-zero without printing a
result when the checkout holds no program. Takes about ten seconds:

    python3 bench/selftest.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

from run import THREAD_VARS

TINY = {"nx": 41, "n_moments": 16}
TINY_T_END = {"pulse_kinetic": 1.0, "absorber_diffusive": 0.1, "pulse_large": 0.5}


def expected_metrics(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def check_workloads(harness, spec: dict) -> list[str]:
    errors = []
    cli = harness.load_cli()
    for name, workload in harness.WORKLOADS.items():
        tiny = dataclasses.replace(workload, name=f"selftest_{name}", t_end=TINY_T_END[name],
                                   **TINY)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = harness.run_workload(cli, tiny, seed=0, seconds=0.0, trace=trace)
            json.dumps(result, allow_nan=False)
            want = expected_metrics(spec, key)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{name} trace={int(trace)}"
            if got != want:
                errors.append(f"{where}: metrics {sorted(set(got) ^ set(want))} or units differ")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 4):
                errors.append(f"{where}: run not correct: {result['attempted']} attempted, "
                              f"{result['failed']} failed")
    return errors


def check_refuses_empty_checkout(harness) -> list[str]:
    """Only BENCHMARK.json and the benchmark directory: must fail, print no result."""
    bare = harness.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bench = harness.ROOT / "bench"
    shutil.copytree(bench, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(harness.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "pulse_kinetic", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare checkout: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import harness

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_workloads(harness, spec) + check_refuses_empty_checkout(harness)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
