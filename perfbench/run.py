#!/usr/bin/env python3
"""Build and run one workload of the xflow end-to-end benchmark.

    python3 perfbench/run.py --workload <cold-model|design-sweep|ground-truth|serve-mix>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package in `perfbench/`
(release, offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), runs
the workload in one process, checks a traced run's Chrome trace with
`python3 -m json.tool`, and prints the benchmark's result JSON as the last
line of stdout. Exits non-zero without a result line when the build or the
run fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def flag(argv, name):
    try:
        return argv[argv.index(name) + 1]
    except (ValueError, IndexError):
        return None


def main():
    argv = sys.argv[1:]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        cwd=ROOT,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("build failed")

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, env=env)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    try:
        run = subprocess.run(
            [str(target / "release" / "xflow-perfbench"), *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"run failed with exit code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("run printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    for line in lines[:-1]:
        print(line)

    if flag(argv, "--trace") == "1":
        trace = ROOT / "perfbench" / "out" / f"{flag(argv, '--workload')}-trace.json"
        check = subprocess.run(
            [sys.executable, "-m", "json.tool", str(trace)], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )
        if check.returncode != 0:
            print(f"perfbench: {trace} is not valid JSON: {check.stderr.strip()}", file=sys.stderr)
            result["correct"] = False
        else:
            print(f"trace checked: {trace.relative_to(ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
