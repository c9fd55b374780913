"""Steadiness tooling: repeated sets of runs, their spread, and drift between sets.

    python3 perfbench/steady.py run A
    python3 perfbench/steady.py run B      # later, apart in time
    python3 perfbench/steady.py compare A B

``run`` goes through the ten seeds 101-110 in order and runs every workload
of BENCHMARK.json for each seed (untraced), so drift during a set touches
all workloads alike. It stores every run's metrics, its failed share and
the host yardstick (``host.reference_ms``) in
``perfbench/out/steady-<label>.json`` and prints median, quartiles and
spread per metric. The spread is (Q3 - Q1) / median
with the quartiles of ``statistics.quantiles(values, n=4)``; it should stay
under a third of the metric's bound in BENCHMARK.json.

``compare`` prints, for each metric, how much worse the second set's median
is than the first's, against the bound, beside the change in the host
yardstick: a metric that moves with the yardstick shows machine drift, one
that moves alone shows a change in the program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SEEDS = range(101, 111)  # ten seeds, as many as a set of the acceptance runs


def bench_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_set(label: str) -> dict:
    spec = bench_spec()
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    record = {"label": label, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "seconds": seconds, "runs": []}
    detail = OUT / f"steady-{label}-detail.json"
    for seed in SEEDS:
        for workload in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", "0", "--detail", str(detail)]
            started = time.monotonic()
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            wall = time.monotonic() - started
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            full = json.loads(detail.read_text())
            host = full["host_reference_ms"]
            record["runs"].append({
                "workload": workload, "seed": seed, "wall_s": wall,
                "correct": line["correct"], "attempted": line["attempted"],
                "failed": line["failed"], "host_reference_ms": host["all"],
                "metrics": {k: v["value"] for k, v in line["metrics"].items()},
                "rounds": full["rounds"], "setup_samples": full["setup_samples"],
            })
            print(f"{workload:14s} seed {seed:4d}  {wall:5.1f} s  failed {line['failed']}/"
                  f"{line['attempted']}  host {host['all']:.2f} ms", flush=True)
    detail.unlink(missing_ok=True)
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    (OUT / f"steady-{label}.json").write_text(json.dumps(record, indent=1))
    return record


def summarize(record: dict) -> dict:
    """workload -> metric -> (q1, median, q3, spread); host yardstick included."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in record["runs"]):
        runs = [r for r in record["runs"] if r["workload"] == workload]
        series = {name: [r["metrics"][name] for r in runs] for name in runs[0]["metrics"]}
        series["host.reference_ms"] = [r["host_reference_ms"] for r in runs]
        series["failed_share"] = [r["failed"] / r["attempted"] for r in runs]
        out[workload] = {}
        for name, values in series.items():
            q1, med, q3 = quartiles(values)
            out[workload][name] = (q1, med, q3, (q3 - q1) / med if med else 0.0)
    return out


def print_summary(record: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in bench_spec()["end_to_end"]}
    print(f"set {record['label']}: {record['started']} .. {record['finished']}, "
          f"{len(record['runs'])} runs")
    print("| workload | metric | Q1 | median | Q3 | spread | bound/3 |")
    print("|---|---|---|---|---|---|---|")
    for workload, metrics in summarize(record).items():
        for name, (q1, med, q3, spread) in metrics.items():
            limit = f"{bounds[name] / 3:.3f}" if name in bounds else ""
            flag = " **over**" if name in bounds and name != "setup_s" and spread > bounds[name] / 3 else ""
            print(f"| {workload} | {name} | {q1:.5g} | {med:.5g} | {q3:.5g} | "
                  f"{spread:.4f}{flag} | {limit} |")


def compare(first: dict, second: dict) -> int:
    spec = bench_spec()["end_to_end"]
    a, b = summarize(first), summarize(second)
    print(f"sets {first['label']} ({first['started']}) and {second['label']} ({second['started']})")
    print("| workload | metric | median 1 | median 2 | worse by | bound | host change |")
    print("|---|---|---|---|---|---|---|")
    bad = 0
    for workload in a:
        host = b[workload]["host.reference_ms"][1] / a[workload]["host.reference_ms"][1] - 1.0
        for m in spec:
            m1, m2 = a[workload][m["name"]][1], b[workload][m["name"]][1]
            worse = (m2 / m1 - 1.0) if m["better"] == "lower" else (m1 / m2 - 1.0)
            over = worse > m["bound"]
            bad += over
            print(f"| {workload} | {m['name']} | {m1:.5g} | {m2:.5g} | {worse:+.4f}"
                  f"{' **over**' if over else ''} | {m['bound']} | {host:+.4f} |")
        shares = (a[workload]["failed_share"][1], b[workload]["failed_share"][1])
        if shares[0] != shares[1]:
            bad += 1
            print(f"| {workload} | failed share | {shares[0]} | {shares[1]} | differs | | |")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="run one set of seeds over the workloads")
    p.add_argument("label")
    p = sub.add_parser("compare", help="compare two stored sets")
    p.add_argument("first")
    p.add_argument("second")
    args = parser.parse_args()

    if args.cmd == "run":
        print_summary(run_set(args.label))
        return 0
    load = lambda label: json.loads((OUT / f"steady-{label}.json").read_text())  # noqa: E731
    return compare(load(args.first), load(args.second))


if __name__ == "__main__":
    sys.exit(main())
