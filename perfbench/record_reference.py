"""Record the per-layer max_ee values the evolution workloads are checked against.

    python3 perfbench/record_reference.py

Runs from the root of a checkout. The values are recorded once, at the commit
that defined the benchmark, for benchmark seeds 0-10 and the first units of
each run; a run whose seed and unit are not listed is checked only against
the exact-rank invariants. Do not re-record to make a failing check pass.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SEEDS = range(11)
UNITS = {"lossy_ee": 1, "lossless_ee": 4}


def main() -> int:
    reference: dict[str, dict[str, list[float]]] = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, n_units in UNITS.items():
            reference[name] = {}
            for seed in SEEDS:
                workload = workloads.WORKLOADS[name](seed, Path(tmp))
                for unit in range(n_units):
                    _, code, console, rows = workload.run_cli(unit)
                    if code != 0:
                        raise SystemExit(f"{name} seed {seed} unit {unit}: {console}")
                    values = [float(f"{float(r['max_ee']):.13g}") for r in rows]
                    reference[name][str(workloads.unit_seed(seed, unit))] = values
                    print(name, seed, unit, len(values), flush=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
