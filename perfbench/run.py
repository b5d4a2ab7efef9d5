"""dyncool benchmark: the main process.

    python3 perfbench/run.py --workload fig5_master --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/dyncool``.  The benchmark is
a closed loop: one main process runs one ``dyncool run`` job at a time,
each in a fresh interpreter (``perfbench/job.py``) that imports the program
from ``src/``, calls ``dyncool.cli.main(["run", ...])`` with ``--threads 1``
and leaves BLAS at its default thread count.  The workload's config is
generated from ``--seed`` by ``protocols.preset_runspec`` and
``protocols.write_config``; the program sees only that file and its flags.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: interpreter start until dyncool is imported and the config
  parsed; the median over every job and twelve set-up-only interpreters,
  half started before the jobs and half after;
* ``solve_s``: wall time of the ``cli.main`` call from cold caches; the
  median over the jobs run;
* ``peak_rss_mb``: the job process's ``ru_maxrss``; the median over jobs.

Jobs start while the previous job's duration still fits into ``--seconds``;
at least one always runs.  A job fails when ``dyncool run`` exits nonzero,
when its process dies or is stopped at the time limit, or when its outputs
fail the checks in ``checks.py``; ``failed / attempted`` is the failed
fraction, and the summary is printed either way.  Only a failure of the
benchmark itself (writing the config, a set-up sample) ends a run without
one.

``--trace 1`` runs one untraced and one traced job, checks that both write
byte-identical outputs and that every wrapped attribute was restored, and
reports the per-layer metrics of ``layers.py``, the tracing overhead and
the recorder's own cost per call, which the self times have had removed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment, goes to ``.bench_results/``.

Other files here: ``workloads.py`` (what each workload runs and why),
``job.py`` (the child process), ``layers.py`` and ``spans.py`` (the traced
run), ``checks.py`` (output checks), ``reference.json`` and
``record_reference.py`` (reference values and how they were recorded),
``z_bound.py`` (why the Monte Carlo z bound is 6) and ``test_perfbench.py``
(``python3 -m pytest perfbench/test_perfbench.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import spans
from workloads import MC_REFERENCE, WORKLOADS, cli_flags

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 12
# a run must end within 180 s; children are stopped at this limit
RUN_LIMIT_S = 170
# set-up samples after the jobs are skipped when less time than this is left
SETUP_RESERVE_S = 10
COMPARED_OUTPUTS = ("timeseries.csv", "distribution_final.csv")


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a failed job)."""


def child(args, deadline: float) -> subprocess.CompletedProcess:
    """Run job.py in a fresh interpreter, stopping it at ``deadline``
    (a ``time.perf_counter()`` value)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(HERE / "job.py"), *map(str, args)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.perf_counter(), 1.0))


def json_child(args, deadline: float) -> dict:
    proc = child(args, deadline)
    if proc.returncode != 0:
        raise HarnessError(f"job.py {args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_sample(config: Path, deadline: float) -> float:
    return json_child(["setup", "--config", config, "--t0", time.perf_counter()],
                       deadline)["setup_s"]


def run_job(workload: str, seed: int, config: Path, work: Path, tag: str,
            traced: bool, deadline: float) -> dict:
    """One ``dyncool run`` job in a fresh interpreter, with its checks."""
    out_dir = work / tag
    result_path = work / f"{tag}.json"
    span_path = work / f"{tag}.spans"
    args = ["run", "--config", config, "--out-dir", out_dir,
            "--result", result_path]
    if traced:
        args += ["--spans", span_path]
    args += ["--t0", time.perf_counter(), "--", *cli_flags(workload, seed)]
    started = time.perf_counter()
    try:
        proc = child(args, deadline)
    except subprocess.TimeoutExpired as exc:
        return {"wall_s": time.perf_counter() - started, "out_dir": out_dir,
                "errors": [f"job process stopped at the run's time limit "
                           f"after {exc.timeout:.0f} s"]}
    wall_s = time.perf_counter() - started
    if proc.returncode != 0 or not result_path.exists():
        # killed by a signal, or died before writing its result
        return {"wall_s": wall_s, "out_dir": out_dir,
                "errors": [f"job process exited {proc.returncode} without a "
                           f"result: {proc.stderr.strip()[-500:]}"]}
    job = json.loads(result_path.read_text(encoding="utf-8"))
    job["wall_s"] = wall_s
    job["out_dir"] = out_dir
    errors = [] if job["exit_code"] == 0 else [
        f"dyncool run exited {job['exit_code']}: "
        f"{(job['crash'] or proc.stderr).strip()[-500:]}"]
    if job["unrestored"]:
        errors.append(f"attributes not restored: {job['unrestored']}")
    if not errors:
        errors = check_outputs(workload, config, out_dir, job)
    job["errors"] = errors
    if traced:
        job["spans"] = spans.summarize(span_path, job["recorder_cost"])
    return job


def check_outputs(workload: str, config: Path, out_dir: Path, job: dict) -> list[str]:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if WORKLOADS[workload]["kind"] == "mc":
        if "mc" not in job:
            return ["the Monte Carlo ensemble result was not captured"]
        return checks.check_mc(out_dir, job["mc"], reference[MC_REFERENCE]["curve"])
    return checks.check_master(out_dir, _config_target(config), reference[workload])


def _config_target(config: Path) -> tuple[int, ...]:
    for line in config.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "target":
            return tuple(int(v) for v in value.split(","))
    raise HarnessError(f"{config} names no target")


def code_identity() -> dict:
    """The git commit of the checkout, when it is a repository, and a hash
    of the program's sources, which identifies the code when it is not."""
    git_head = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_head = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dyncool").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"git_commit": git_head, "src_sha256": digest.hexdigest()}


def environment(prepared: dict, workload: str, seed: int, args) -> dict:
    return {**prepared, **code_identity(), "workload": workload, "seed": seed,
            "flags": cli_flags(workload, seed), "seconds": args.seconds,
            "trace": args.trace, "host_load_avg": os.getloadavg()}


def measure(workload: str, seed: int, seconds: float, config: Path, work: Path,
            deadline: float):
    """Trace-off run: returns (jobs, end-to-end metrics, sample counts)."""
    # set-up is short and noisy: sample it on both sides of the jobs
    setups = [setup_sample(config, deadline) for _ in range(SETUP_SAMPLES // 2)]
    jobs = []
    began = time.perf_counter()
    while True:
        job = run_job(workload, seed, config, work, f"job{len(jobs)}", False, deadline)
        jobs.append(job)
        elapsed = time.perf_counter() - began
        if elapsed + job["wall_s"] > seconds:
            break
    if deadline - time.perf_counter() > SETUP_RESERVE_S:
        setups += [setup_sample(config, deadline)
                   for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    timed = [j for j in jobs if "solve_s" in j]  # a dead job left no timings
    samples = {"setup_s": setups + [j["setup_s"] for j in timed],
               "solve_s": [j["solve_s"] for j in timed],
               "peak_rss_mb": [j["peak_rss_mb"] for j in timed]}
    units = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: (statistics.median(v), units[k]) for k, v in samples.items() if v}
    return jobs, metrics, {k: len(v) for k, v in samples.items()}


def traced(workload: str, seed: int, config: Path, work: Path, deadline: float):
    """Trace-on run: returns (jobs, per-layer metrics)."""
    plain = run_job(workload, seed, config, work, "untraced", False, deadline)
    job = run_job(workload, seed, config, work, "traced", True, deadline)
    if "solve_s" not in plain or "spans" not in job:
        return [plain, job], {}
    differ = checks.same_files(plain["out_dir"], job["out_dir"], COMPARED_OUTPUTS)
    if differ:
        job["errors"].append(f"tracing changed outputs: {differ}")
    if WORKLOADS[workload]["kind"] == "master":
        rows = checks.read_timeseries(job["out_dir"] / "timeseries.csv")
        propagations = len(rows) - 1
    else:
        propagations = 0
    metrics = layers.per_layer(
        job["spans"], job["counters"], propagations=propagations,
        output_bytes=sum(p.stat().st_size for p in job["out_dir"].iterdir()),
        jumps=job.get("mc", {}).get("jumps", 0))
    overhead = job["solve_s"] - plain["solve_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / plain["solve_s"], "ratio")
    # the recorder's own cost, which the self times above have had removed
    call_cost = sum(job["recorder_cost"])
    metrics["trace.call_cost_s"] = (call_cost, "s")
    metrics["trace.recorder_s"] = (
        call_cost * sum(row["calls"] for row in job["spans"].values()), "s")
    return [plain, job], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # end through SystemExit, so that subprocess.run stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "dyncool" / "__init__.py").is_file():
        print(f"error: no dyncool sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.cfg"
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        prepared = json_child(["prepare", "--workload", args.workload,
                                "--seed", args.seed, "--config", config], deadline)
        env = environment(prepared, args.workload, args.seed, args)
        if args.trace:
            jobs, metrics = traced(args.workload, args.seed, config, work, deadline)
            counts = {}
        else:
            jobs, metrics, counts = measure(args.workload, args.seed, args.seconds,
                                            config, work, deadline)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(1 for j in jobs if j["errors"])
    for j in jobs:
        for err in j["errors"]:
            print(f"check failed: {err}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{env['sizes']['n_states']} states, {env['sizes']['pulses']} pulses, "
          f"{env['sizes']['cycles']} cycles; nproc {env['nproc']}, "
          f"BLAS {env['blas'].get('name')} x{env['blas'].get('threads')}")
    for name, (value, unit) in metrics.items():
        n = f" (n={counts[name]}, median)" if name in counts else ""
        print(f"  {name:34s} {value:.6g} {unit}{n}")
    print(f"  {'failed_frac':34s} {failed / len(jobs):.6g} ({failed}/{len(jobs)} jobs)")

    summary = {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    record = {**summary, "environment": env, "samples": counts,
              "jobs": [{k: v for k, v in j.items() if k not in ("out_dir", "mc")}
                       for j in jobs]}
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
