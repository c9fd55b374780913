"""Fast self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs run.py at the tiny size,
untraced and traced, and checks that the last stdout line is the result
object, that every metric named in BENCHMARK.json is printed with its
unit, and that every correctness check ran in every round. It also checks
that run.py fails without printing a result in a directory holding only
BENCHMARK.json and the benchmark's own files. Exit code 0 means all passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workload import WORKLOADS, check_names, tiny  # noqa: E402


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_workload(spec: dict, name: str, trace: int, detail: Path) -> list[str]:
    errors = []
    proc = run(ROOT, "--workload", name, "--seed", "3", "--seconds", "2", "--trace", str(trace),
               "--tiny", "--detail", str(detail))
    if proc.returncode != 0:
        return [f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{name}: result keys {sorted(line)}")
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v.get("unit") for k, v in line["metrics"].items()}
    if got != want:
        errors.append(f"{name} trace {trace}: metrics/units differ: "
                      f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                      f"units {[k for k in want if k in got and got[k] != want[k]]}")
    if not all(isinstance(v.get("value"), float) for v in line["metrics"].values()):
        errors.append(f"{name} trace {trace}: a metric value is not a number")
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        errors.append(f"{name} trace {trace}: correct={line['correct']} "
                      f"failed={line['failed']}/{line['attempted']}")
    ran = [list(r) for r in json.loads(detail.read_text())["checks"]]
    expected = check_names(tiny(WORKLOADS[name]))
    if not ran or any(r != expected for r in ran):
        errors.append(f"{name} trace {trace}: checks run {ran}, expected {expected} per round")
    return errors


def check_bare_directory(scratch: Path) -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: run.py must fail and print no result."""
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run(scratch, "--workload", "desk", "--seed", "1", "--seconds", "2", "--trace", "0")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    errors = check_bare_directory(out / "selftest-bare")
    for workload in spec["workloads"]:
        for trace in (0, 1):
            detail = out / f"selftest-{workload['name']}-{trace}.json"
            errors += check_workload(spec, workload["name"], trace, detail)
            detail.unlink(missing_ok=True)
            print(f"{workload['name']} trace {trace}: done", flush=True)
    for e in errors:
        print("FAIL", e)
    print("selftest passed" if not errors else f"selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
