"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload lossy_ee --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` the run first measures untraced units, then repeats the
same units with every layer wrapped (see spans.py), and reports the
per-layer metrics and the tracing overhead. Human-readable lines come first;
the last line of standard output is the JSON result.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lossy_ee", "lossless_ee", "sample_lossy")
SETUP_SAMPLES = 3  # this process plus two set-up-only child processes
# Host-speed kernel time after a unit, as a share of the unit's time: a long
# unit needs a long look at the host speed to average out second-scale noise.
CALIBRATE_SHARE = 0.1
# Kernel time before the first unit: as long as the look after a long unit.
FIRST_CALIBRATE_S = 1.5
SETUP_CALIBRATE_S = 0.3  # after each set-up


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for set-up samples)")
    return parser.parse_args(argv)


def measure(workload, budget: float, count: int | None = None):
    """Run units 0, 1, ... until the next one would overrun ``budget`` seconds.

    With ``count``, run exactly units 0..count-1. The host-speed kernel runs
    before the first unit and after every unit, for a share of the last
    unit's time; each unit gets the mean of the two kernel times around it.
    """
    results = []
    start = time.perf_counter()
    kernel_before = hostspeed.calibrate(FIRST_CALIBRATE_S)
    while True:
        r = workload.run_unit(len(results))
        kernel_after = hostspeed.calibrate(CALIBRATE_SHARE * r.seconds)
        r.kernel_s = (kernel_before + kernel_after) / 2
        kernel_before = kernel_after
        results.append(r)
        if count is not None:
            if len(results) == count:
                return results
        else:
            typical = statistics.median(r.seconds for r in results)
            if time.perf_counter() - start + typical > budget:
                return results


def normalised(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured where the host-speed kernel took ``kernel_s``, at nominal speed."""
    return seconds * hostspeed.NOMINAL_S / kernel_s


def setup_sample(args) -> tuple[float, float]:
    """(set-up seconds, kernel seconds just after) of a fresh process of this workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60,
                          check=True)
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["kernel_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bosonet" / "__init__.py").is_file():
        print(f"run.py: no bosonet package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import sysinfo
    import workloads

    workdir = ROOT / ".bench_runs" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup = [(time.perf_counter() - T0, hostspeed.calibrate(SETUP_CALIBRATE_S))]
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0][0], "kernel_s": setup[0][1]}))
            return 0
        setup += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]

        if args.trace:
            plain = measure(workload, args.seconds / 2)
            tracer = spans.Tracer()
            with tracer.patched():
                traced = measure(workload, 0.0, count=len(plain))
            results = plain + traced
        else:
            results = measure(workload, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        probe_start = time.perf_counter()
        probe_failed, probe_draws = workloads.truncated_probe()
        probe_s = time.perf_counter() - probe_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for i, r in enumerate(results):
        print(f"unit {i}: {r.seconds:.3f} s, {r.ops} ops in {r.ops_seconds:.3f} s, "
              f"kernel {r.kernel_s * 1e3:.1f} ms, {r.failed}/{r.attempted} failed")
        for msg in r.problems[:10]:
            print(f"  check failed: {msg}")
    print(f"sampling.truncated_draw_failures: {probe_failed} of {probe_draws} draws "
          f"(known defect; fixed truncated probe, untimed, {probe_s:.1f} s)")
    record = sysinfo.run_record(ROOT)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, units=len(results))

    if args.trace:
        overhead = (sum(normalised(r.seconds, r.kernel_s) for r in traced)
                    / sum(normalised(r.seconds, r.kernel_s) for r in plain)) - 1.0
        record["trace_overhead"] = overhead
        values = tracer.metrics()
        values["sampling.truncated_draw_failures"] = (probe_failed, "count")
        values["trace.overhead"] = (overhead, "ratio")
        traced_s = sum(r.seconds for r in traced)
        for target in tracer.missing:
            print(f"trace: {target} not found; its layer reports 0")
        print(f"traced {len(traced)} units in {traced_s:.3f} s; overhead {overhead:+.1%} "
              f"against the same units untraced")
        for name, _ in spans.LAYERS:
            self_s = values[f"{name}.self_s"][0]
            print(f"  {name:34s} {values[name + '.calls'][0]:>9d} calls "
                  f"{self_s:9.3f} s self {self_s / traced_s:7.1%}")
    else:
        values = {
            "setup_s": (statistics.median(normalised(t, k) for t, k in setup), "s"),
            "wall_norm_s": (statistics.median(normalised(r.seconds, r.kernel_s) for r in results), "s"),
            "ops_norm_per_s": (
                statistics.median(r.ops / normalised(r.ops_seconds, r.kernel_s) for r in results), "1/s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        # The result line may hold only the normalised metrics, so the raw
        # figures a normalised one can be checked against go into the record.
        record["raw"] = {
            "setup_s": statistics.median(t for t, _ in setup),
            "wall_s": statistics.median(r.seconds for r in results),
            "ops_per_s": statistics.median(r.ops / r.ops_seconds for r in results),
            "kernel_s": statistics.median(r.kernel_s for r in results),
        }
        print("raw setup samples: " + ", ".join(f"{t:.3f} s (kernel {k * 1e3:.1f} ms)"
                                                for t, k in setup))
    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    print("run record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
