#!/usr/bin/env python3
"""Byte-identity check of bosonet's output tables across two builds.

``run`` sends a fixed list of small configs, one per recipe family and
truncation regime, through ``bosonet <experiment> --config`` (one fresh
process each) and keeps every config's ``results.csv``, ``summary.csv`` and
``samples_c*.csv`` under ``OUT/<name>/``. Configs marked resumable run a
second time into ``OUT/<name>-resumed/``: first with a wall-clock budget of
half the uninterrupted run, so it aborts mid-circuit and leaves a checkpoint,
then again without one, so it resumes from that checkpoint in a new process.
After the budgeted run it prints the ``layers_done`` of every checkpoint
header. A checkpoint taken before layer 1 would make the resume a fresh run,
so if no header has ``layers_done >= 1`` the budgeted run is repeated, from
no checkpoint, at 0.4 and then at 0.6 of the measured time; if none of the
three leaves such a checkpoint, the config counts as failed. Then it runs
each paper-size config of this checkout, ``configs/<stem>.json``, as checked in
(its own seed) into ``OUT/<stem>/``, so its ``results.csv`` and ``summary.csv``
are compared too (a few seconds to about 20 s each). It also writes
``OUT/src_lines.json``, the line count of every ``bosonet/*.py`` of the
build (as ``wc -l`` counts them).

``compare`` checks two such directories byte for byte, and each resumed run
against its uninterrupted run. A config of the list above or of ``configs/``
whose ``results.csv`` is missing from either directory is a difference. For a
file that differs it prints the largest deviation of every float column, or,
where the two differ only in their line ends (``\r\n`` against ``\n``), says
so. It exits 1 if anything differs, a line-end-only difference included. It
also prints both builds' total line counts and their difference, for
information: they do not change the exit code.

Both commands exit 1 at once, naming the directory they searched, when this
checkout's ``configs/`` holds no ``*.json``: without it, a run would leave out
the paper-size tables and still pass.

Usage:
    python3 scripts/compare_outputs.py run OUT [--src DIR]
    python3 scripts/compare_outputs.py compare OUT_A OUT_B

``--src`` is the ``src`` directory of the build to run (default: this
checkout's), so an older checkout without this script can be run too.
"""

import argparse
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TABLES = ("results.csv", "summary.csv", "samples_c*.csv")

LOSSY = {"loss": {"kind": "constant", "mu": 0.5}}
# (name, config, resumable)
CONFIGS = [
    ("oracle-check-plain", {"experiment": "oracle-check", "num_modes": [4, 6],
                            "num_photons": [1, 2, 3], "n_circuits": 2}, False),
    ("oracle-check-lossy", {"experiment": "oracle-check", "num_modes": [4, 6],
                            "num_photons": [2, 3], "n_circuits": 2,
                            "loss": {"kind": "constant", "mu": 0.7}}, False),
    ("lossy-ee-exact", {"experiment": "lossy-ee", "num_modes": [10], "num_photons": [2, 3],
                        **LOSSY, "alphas": [0.5, 1.0, 2.0], "chi_max": 64,
                        "n_circuits": 3}, True),
    ("lossy-ee-power-law", {"experiment": "lossy-ee", "num_modes": [8, 10],
                            "num_photons": [2, 3], "gammas": [0.25, 1.0], "betas": [0.6],
                            "chi_max": 64, "n_circuits": 2}, False),
    # The paper's operator-entanglement size: the one config whose last bits
    # depend on the BLAS thread count, so compare it against a one-thread run.
    ("lossy-ee-paper", {"experiment": "lossy-ee", "num_modes": [16], "num_photons": [4],
                        **LOSSY, "chi_max": 256, "n_circuits": 1}, False),
    ("lossy-ee-chi8", {"experiment": "lossy-ee", "num_modes": [12], "num_photons": [3, 4],
                       **LOSSY, "chi_max": 8, "n_circuits": 3}, True),
    ("lossless-ee-exact", {"experiment": "lossless-ee", "num_modes": [12, 16],
                           "num_photons": [2, 4], "alphas": [1.0, 2.0], "chi_max": 64,
                           "n_circuits": 3}, True),
    ("lossless-ee-chi8", {"experiment": "lossless-ee", "num_modes": [16],
                          "num_photons": [4, 6], "chi_max": 8, "n_circuits": 3}, False),
    ("trunc-error-small-chi", {"experiment": "trunc-error", "num_modes": [10],
                               "num_photons": [3], **LOSSY, "chis": [4, 8, 16],
                               "n_circuits": 3}, False),
    ("trunc-error-chi64", {"experiment": "trunc-error", "num_modes": [12],
                           "num_photons": [4], **LOSSY, "chis": [64],
                           "n_circuits": 2}, False),
    ("sample-lossy", {"experiment": "sample", "num_modes": [8], "num_photons": [3], **LOSSY,
                      "chi_max": 64, "num_samples": 300, "n_circuits": 2}, False),
    ("sample-pure", {"experiment": "sample", "num_modes": [8], "num_photons": [3],
                     "chi_max": 64, "num_samples": 300, "n_circuits": 2}, False),
    # More draws than two ``sampling.DRAW_CHUNK``s of 1024, so a call crosses
    # the boundaries between the batches of draws it advances together.
    ("sample-lossy-chunks", {"experiment": "sample", "num_modes": [8], "num_photons": [3],
                             **LOSSY, "chi_max": 64, "num_samples": 2500, "n_circuits": 2},
     False),
    ("sample-pure-chunks", {"experiment": "sample", "num_modes": [12], "num_photons": [4],
                            "chi_max": 32, "num_samples": 2500, "n_circuits": 2}, False),
    ("prob", {"experiment": "prob", "num_modes": [6], "num_photons": [2, 3], **LOSSY,
              "chi_max": 64, "n_circuits": 2,
              "outcomes": [[1, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0], [2, 0, 0, 0, 0, 1],
                           [0, 0, 1, 1, 1, 0]]}, False),
    # A truncated state read at the vacuum, at one pattern of each photon
    # number up to N and at a pattern above N, which reads 0.
    ("prob-lossy-chi8", {"experiment": "prob", "num_modes": [6], "num_photons": [3], **LOSSY,
                         "chi_max": 8, "n_circuits": 2,
                         "outcomes": [[0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                                      [1, 0, 0, 0, 1, 0], [0, 2, 0, 0, 0, 1],
                                      [1, 1, 0, 1, 1, 0]]}, False),
    ("prob-pure", {"experiment": "prob", "num_modes": [6], "num_photons": [2, 3],
                   "chi_max": 64, "n_circuits": 2,
                   "outcomes": [[1, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0], [2, 0, 0, 0, 0, 1],
                                [0, 0, 1, 1, 1, 0]]}, False),
    ("fock-ee", {"experiment": "fock-ee", "num_modes": [8, 12], "num_photons": [2, 3],
                 "alphas": [1.0, 2.0], "chi_max": 64, "n_circuits": 2}, False),
    ("analytic-ee", {"experiment": "analytic-ee", "num_modes": [32],
                     "num_photons": [1, 2, 4, 8], "gammas": [0.25, 0.5], "betas": [0.6],
                     "n_circuits": 4}, False),
]
SEED = 7
#: The paper-size configs, run as checked in (their own seeds).
PAPER_DIR = ROOT / "configs"
PAPER_CONFIGS = sorted(PAPER_DIR.glob("*.json"))


def _missing_paper_configs() -> bool:
    """Whether ``PAPER_CONFIGS`` is empty; if it is, says so on stderr."""
    if not PAPER_CONFIGS:
        print(f"no paper-size config: {PAPER_DIR} holds no *.json", file=sys.stderr)
    return not PAPER_CONFIGS


def _bosonet(src: Path, experiment: str, config: Path, out: Path) -> tuple[int, float]:
    """Exit code and wall time of one ``bosonet`` CLI call with the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys; from bosonet.cli import main; sys.exit(main(sys.argv[1:]))"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, experiment, "--config", str(config),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    if done.returncode not in (0, 3):
        sys.stderr.write(done.stdout + done.stderr)
    return done.returncode, time.perf_counter() - start


def _src_lines(src: Path) -> dict[str, int]:
    """Newline count of every ``bosonet/*.py`` under ``src``, by file name."""
    return {p.name: p.read_bytes().count(b"\n") for p in sorted((src / "bosonet").glob("*.py"))}


def run(out: Path, src: Path) -> int:
    if _missing_paper_configs():
        return 1
    out.mkdir(parents=True, exist_ok=True)
    (out / "src_lines.json").write_text(json.dumps(_src_lines(src), indent=1) + "\n")
    failed = 0
    for name, doc, resumable in CONFIGS:
        config = out / f"{name}.json"
        config.write_text(json.dumps({**doc, "seed": SEED}))
        code, seconds = _bosonet(src, doc["experiment"], config, out / name)
        print(f"{name}: exit {code} in {seconds:.1f}s")
        failed += code != 0
        if not resumable:
            continue
        resumed, resumed_out = out / f"{name}-resumed.json", out / f"{name}-resumed"
        for fraction in (0.5, 0.4, 0.6):
            shutil.rmtree(resumed_out / "checkpoints", ignore_errors=True)
            budget = {"max_seconds": round(seconds * fraction, 3), "checkpoint_every": 1}
            resumed.write_text(json.dumps({**doc, "seed": SEED, **budget}))
            aborted, _ = _bosonet(src, doc["experiment"], resumed, resumed_out)
            layers = _layers_done(resumed_out / "checkpoints")
            print(f"{name}-resumed: exit {aborted} at {fraction} of {seconds:.1f}s, "
                  f"checkpoints at layers_done {layers}")
            if aborted == 3 and max(layers, default=0) >= 1:
                break
        else:
            print(f"{name}-resumed: no budget left a checkpoint past layer 0")
            failed += 1
            continue
        resumed.write_text(json.dumps({**doc, "seed": SEED, "checkpoint_every": 1}))
        code, _ = _bosonet(src, doc["experiment"], resumed, resumed_out)
        print(f"{name}-resumed: exit {code} after resuming")
        failed += code != 0
    for config in PAPER_CONFIGS:
        experiment = json.loads(config.read_text())["experiment"]
        code, seconds = _bosonet(src, experiment, config, out / config.stem)
        print(f"{config.stem}: exit {code} in {seconds:.1f}s")
        failed += code != 0
    return 1 if failed else 0


def _layers_done(directory: Path) -> list[int]:
    """``layers_done`` of every checkpoint header under ``directory``, sorted."""
    layers = []
    for path in directory.glob("*.npz"):
        with np.load(path, allow_pickle=False) as data:
            layers.append(json.loads(str(data["header"][()]))["extra"]["layers_done"])
    return sorted(layers)


def _tables(directory: Path, depth: str = "*/") -> dict[str, Path]:
    """Every output table in the config directories under ``directory`` (or in
    ``directory`` itself with ``depth=""``), by its path relative to it."""
    return {str(p.relative_to(directory)): p
            for pattern in TABLES for p in directory.glob(depth + pattern)}


def _float_deviations(a: Path, b: Path) -> dict[str, float]:
    """Largest |a - b| of every column that parses as float in both files (rows in order).

    The ``# key=value`` lines above a sample file's header are skipped."""
    with a.open(newline="") as fa, b.open(newline="") as fb:
        rows_a, rows_b = (list(csv.DictReader(line for line in f if not line.startswith("#")))
                          for f in (fa, fb))
    worst: dict[str, float] = {}
    for ra, rb in zip(rows_a, rows_b):
        for col, va in ra.items():
            try:
                x, y = float(va), float(rb.get(col, ""))
            except (TypeError, ValueError):
                continue
            dev = 0.0 if x == y or (math.isnan(x) and math.isnan(y)) else abs(x - y)
            worst[col] = max(worst.get(col, 0.0), dev)
    if len(rows_a) != len(rows_b):
        worst["<row count>"] = abs(len(rows_a) - len(rows_b))
    return {col: dev for col, dev in worst.items() if dev}


def _compare(label: str, a: dict[str, Path], b: dict[str, Path]) -> int:
    differ = 0
    for rel in sorted(set(a) | set(b)):
        if rel not in a or rel not in b:
            print(f"{label}: {rel} only in {'the first' if rel in a else 'the second'}")
            differ += 1
        elif (bytes_a := a[rel].read_bytes()) != (bytes_b := b[rel].read_bytes()):
            if bytes_a.replace(b"\r\n", b"\n") == bytes_b.replace(b"\r\n", b"\n"):
                detail = "only in line ends"
            else:
                deviations = _float_deviations(a[rel], b[rel])
                detail = ", ".join(f"{col} {dev:.3g}" for col, dev in sorted(deviations.items()))
            print(f"{label}: {rel} differs ({detail or 'no float column moved'})")
            differ += 1
    print(f"{label}: {len(set(a) | set(b)) - differ} of {len(set(a) | set(b))} files identical")
    return differ


def _src_total(directory: Path) -> int | None:
    """Total of a run's ``src_lines.json``; None for a run made without one."""
    path = directory / "src_lines.json"
    return sum(json.loads(path.read_text()).values()) if path.exists() else None


def compare(first: Path, second: Path) -> int:
    if _missing_paper_configs():
        return 1
    a, b = _src_total(first), _src_total(second)
    print(f"src lines: {a} vs {b}" + ("" if None in (a, b) else f" ({b - a:+d})"))
    differ = _compare(f"{first} vs {second}", _tables(first), _tables(second))
    for directory in (first, second):
        for name, _, resumable in CONFIGS:
            if resumable:
                differ += _compare(f"{directory}/{name}-resumed vs uninterrupted",
                                   _tables(directory / name, ""),
                                   _tables(directory / f"{name}-resumed", ""))
        for name in [name for name, _, _ in CONFIGS] + [path.stem for path in PAPER_CONFIGS]:
            if not (directory / name / "results.csv").is_file():
                print(f"{directory}: {name}/results.csv is missing")
                differ += 1
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run every config into OUT")
    run_parser.add_argument("out", type=Path)
    run_parser.add_argument("--src", type=Path, default=ROOT / "src",
                            help="src directory of the build to run")
    compare_parser = sub.add_parser("compare", help="compare two run directories")
    compare_parser.add_argument("first", type=Path)
    compare_parser.add_argument("second", type=Path)
    args = parser.parse_args()
    if args.command == "run":
        return run(args.out, args.src.resolve())
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
