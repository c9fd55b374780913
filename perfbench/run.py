"""Benchmark of the trajformer CLI pipeline; see perfbench/README.md.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Each call runs one workload. Set-up (interpreter start, imports, input
generation, warm-up) is timed in three fresh processes, the last of which
goes on to the timed rounds; ``setup_s`` is the median of the three. The
BLAS and feature-worker thread counts are fixed in the environment of
every child process.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). The exit code is 0 when a result
was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1   # steadier than 2 on a shared 2-core host; recorded in every result
FEATURE_THREADS = 1  # TRAJFORMER_THREADS: one feature worker, so the tracer's single stack holds
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # every run must end within 180 s


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["TRAJFORMER_THREADS"] = str(FEATURE_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, index: int, setup_only: bool, started: float) -> tuple[float, dict]:
    """Start one workload process; return its set-up seconds and its result."""
    work = HERE / "out" / f"{args.workload}-{os.getpid()}-{index}"
    result = work.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result)]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    # the child's stdout is the CLI's chatter; keep our stdout for the result line
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"workload {args.workload} ran past {DEADLINE_S:.0f} s")
    if code != 0 or not result.exists():
        raise SystemExit(f"workload process exited with {code}")
    data = json.loads(result.read_text())
    result.unlink()
    return data["setup_done"] - t0, data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    parser.add_argument("--detail", help="also write the full record (rounds, host yardstick) here")
    args = parser.parse_args()

    started = time.monotonic()
    if not (ROOT / "src" / "trajformer" / "cli.py").is_file():
        print(f"error: no trajformer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units()
    # setup_s is an end-to-end metric; a traced run reports none and sets up once
    setups = [run_child(args, i, True, started)[0]
              for i in range(0 if args.trace else SETUP_SAMPLES - 1)]
    setup_s, result = run_child(args, SETUP_SAMPLES - 1, False, started)
    setups.append(setup_s)

    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values = result.get("per_layer", {})
    else:
        values = dict(result.get("end_to_end", {}), setup_s=statistics.median(setups))
    missing = sorted(set(units[kind]) - set(values))
    if missing:
        print(f"error: no value for {missing}; see the failures above", file=sys.stderr)
        return 1
    if args.detail:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, setup_samples=setups, blas_threads=BLAS_THREADS,
                      feature_threads=FEATURE_THREADS)
        Path(args.detail).write_text(json.dumps(record, indent=1))
    line = {
        "correct": not result["incorrect"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units[kind].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
