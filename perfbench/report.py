"""Run every benchmark workload and print each metric by name and unit.

    python3 perfbench/report.py                    # one run per workload, seed 1
    python3 perfbench/report.py --seeds 1-10       # medians and quartile spreads
    python3 perfbench/report.py --trace 1          # per-layer metrics

Run from the root of a checkout. BENCHMARK.json there gives the command, the
run length, the workloads and the metrics with their bounds. Each run is its
own process and runs one after another. The spread of a metric is the
distance between the first and third quartiles of its values, as a share of
their median; a spread above a third of the metric's bound is flagged. The
exit code is 1 if a run failed, printed a wrong set of metrics, was not
correct, or a spread exceeded its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    bad = False
    for workload in names:
        runs = []
        for seed in seeds:
            result = run_once(spec, workload, seed, args.trace)
            runs.append(result)
            got = set(result["metrics"])
            want = {m["name"] for m in metrics}
            if got != want or not result["correct"] or result["failed"]:
                bad = True
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"missing={sorted(want - got)} extra={sorted(got - want)}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, seeds {args.seeds}, "
              f"{failed} of {attempted} operations failed")
        print(f"  {'metric':44s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if not values:
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = " !"
                if spread > bound:
                    bad = True
            print(f"  {m['name']:44s} {m['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {'' if bound is None else bound:>6}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
