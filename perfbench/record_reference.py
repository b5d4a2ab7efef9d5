"""Record the reference values that the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Runs each master workload once, untraced, and writes
``perfbench/reference.json``: the final p_target, leak and mean_n of each,
the fig5_master curve at every 30th cycle boundary (the reference of the
fig5_mc z-test), and the commit and source hash they come from.  Re-record
only for a change to the program that is meant to move these numbers.
"""

from __future__ import annotations

import json
import shutil
import time

import checks
import run
from workloads import MC_REFERENCE, WORKLOADS, cli_flags

FINAL_KEYS = ("p_target", "leak", "mean_n")


def main() -> None:
    work = run.ROOT / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = run.code_identity()
    for name, wl in WORKLOADS.items():
        if wl["kind"] != "master":
            continue
        config = work / f"{name}.cfg"
        deadline = time.perf_counter() + run.RUN_LIMIT_S
        prepared = run.json_child(["prepare", "--workload", name, "--seed", 0,
                                    "--config", config], deadline)
        out_dir = work / name
        proc = run.child(["run", "--config", config, "--out-dir", out_dir,
                           "--result", work / f"{name}.json",
                           "--t0", time.perf_counter(), "--", *cli_flags(name, 0)],
                          deadline)
        if proc.returncode != 0:
            raise SystemExit(f"{name} failed: {proc.stderr}")
        rows = checks.read_timeseries(out_dir / "timeseries.csv")
        reference[name] = {"final": {k: rows[-1][k] for k in FINAL_KEYS}}
        if name == MC_REFERENCE:
            reference[name]["curve"] = checks.reference_curve(
                rows, prepared["sizes"]["cycles"])
        print(f"{name}: {reference[name]['final']}")
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
