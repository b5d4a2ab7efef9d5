"""Correctness checks on the files a ``dyncool run`` job writes.

Each check returns a list of failure messages; an empty list is a pass.

Master workloads are checked for internal consistency (occupations in
[0, 1], a leak that never decreases, a final distribution that sums to
1 - leak and agrees with the last time-series row) and against final values
recorded at a known commit (``reference.json``).  The reference tolerances
admit a better-converged emission quadrature: doubling the fig3_deep sphere
grid to 128x256 moves the final p_target by 1.4e-12, leak by 1.0e-9 and
mean_n by 4.5e-7; quadrupling it to 256x512 moves them by 1.4e-12, 1.1e-9
and 4.9e-7 in all, so the refinement has converged.  The tolerances below
are 9 to 20 times those moves.

The Monte Carlo workload is checked by a z-test against the deterministic
fig5_A_minus curve at every 30th cycle boundary: 4 comparisons at each of 11
boundaries.  The seed varies from run to run, so the bound must hold for
almost every seed.  A normal tail would allow 5 standard errors, but mean_n
and mean_nx use the ensemble's sample standard error, and their level
distribution is heavy-tailed, so z has a far heavier lower tail.
``z_bound.py`` simulates it: the union bound on the chance that a correct
program fails one run is 1.1e-3 at Z = 5 and 1.4e-4 at Z = 6.  The checks
use 6, which fails a correct program in fewer than 1 run in 1000.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

REF_ABS_TOL = {"p_target": 1e-8, "leak": 1e-8, "mean_n": 1e-5}
Z_MAX = 6.0
MC_STRIDE = 30
# rounding of 17-digit CSV values and of the leak accumulated pulse by pulse
SUM_TOL = 1e-9
ROW_TOL = 1e-12


def read_timeseries(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def read_distribution(path: Path):
    """(leak from the header comment, {level tuple: probability})."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        leak = float(header.rsplit("leak =", 1)[1])
        rows = list(csv.reader(fh))
    probs = {tuple(int(v) for v in row[:-1]): float(row[-1]) for row in rows[1:]}
    return leak, probs


def check_master(out_dir: Path, target: tuple[int, ...], reference: dict) -> list[str]:
    errors = []
    rows = read_timeseries(out_dir / "timeseries.csv")
    bad = [r for r in rows if not 0.0 <= r["p_target"] <= 1.0]
    if bad:
        errors.append(f"{len(bad)} rows have p_target outside [0, 1], "
                      f"first at cycle {bad[0]['cycle']:.0f}")
    drops = [b for a, b in zip(rows, rows[1:]) if b["leak"] < a["leak"]]
    if drops:
        errors.append(f"leak decreases at {len(drops)} rows, "
                      f"first at cycle {drops[0]['cycle']:.0f}")
    last = rows[-1]

    leak, probs = read_distribution(out_dir / "distribution_final.csv")
    total = math.fsum(probs.values())
    if abs(total - (1.0 - last["leak"])) > SUM_TOL:
        errors.append(f"final distribution sums to {total!r}, "
                      f"1 - leak = {1.0 - last['leak']!r}")
    mean_n = math.fsum(sum(level) * p for level, p in probs.items())
    for name, value in (("p_target", probs.get(target, math.nan)),
                        ("leak", leak), ("mean_n", mean_n)):
        if not abs(value - last[name]) <= ROW_TOL * max(1.0, abs(last[name])):
            errors.append(f"final distribution {name} = {value!r} but the last "
                          f"time-series row has {last[name]!r}")

    for name, tol in REF_ABS_TOL.items():
        ref = reference["final"][name]
        if not abs(last[name] - ref) <= tol:
            errors.append(f"final {name} = {last[name]!r}, reference {ref!r} "
                          f"(tolerance {tol})")
    return errors


def check_mc(out_dir: Path, mc: dict, curve: list[dict]) -> list[str]:
    """z-test of the ensemble against the deterministic reference curve.

    p_target and leak use the binomial sigma of the reference value; mean_n
    and mean_nx use the ensemble's sample standard errors.
    """
    errors = []
    rows = {int(r["cycle"]): r for r in read_timeseries(out_dir / "timeseries.csv")}
    n = mc["n_traj"]
    se_index = {c: i for i, c in enumerate(mc["cycles"])}
    for ref in curve:
        cycle = ref["cycle"]
        row = rows.get(cycle)
        if row is None or cycle not in se_index:
            errors.append(f"no Monte Carlo record at cycle {cycle}")
            continue
        i = se_index[cycle]
        sigmas = {"p_target": math.sqrt(ref["p_target"] * (1 - ref["p_target"]) / n),
                  "leak": math.sqrt(ref["leak"] * (1 - ref["leak"]) / n),
                  "mean_n": mc["mean_n_se"][i],
                  "mean_nx": mc["mean_nx_se"][i]}
        for name, sigma in sigmas.items():
            diff = abs(row[name] - ref[name])
            z = diff / sigma if sigma > 0 else (0.0 if diff == 0 else math.inf)
            if not z <= Z_MAX:
                errors.append(f"cycle {cycle} {name} = {row[name]!r}, reference "
                              f"{ref[name]!r}: |z| = {z:.2f} > {Z_MAX}")
    return errors


def reference_curve(rows: list[dict], cycles: int) -> list[dict]:
    """Cycle-boundary rows at every MC_STRIDE-th cycle of a master run."""
    ends = {int(r["cycle"]): r for r in rows}  # the last row of each cycle
    return [{"cycle": c, **{k: ends[c][k] for k in
                            ("p_target", "leak", "mean_n", "mean_nx")}}
            for c in range(0, cycles + 1, MC_STRIDE)]


def same_files(dir_a: Path, dir_b: Path, names) -> list[str]:
    """Names of the files that differ between two output directories."""
    def content(path: Path):
        return path.read_bytes() if path.exists() else None
    return [n for n in names if content(dir_a / n) != content(dir_b / n)]
