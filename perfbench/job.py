"""Child process of the dyncool benchmark; one fresh interpreter per call.

    job.py prepare --workload W --seed N --config FILE
        Write the workload's config and print the environment record.
    job.py setup --config FILE --t0 T
        Import dyncool and parse the config; print the set-up time.
    job.py run --config FILE --t0 T --out-dir D --result R [--spans S] -- FLAGS
        Set up as above, then time ``dyncool.cli.main(["run", ...])`` and
        write the timings, peak RSS and (with --spans) the trace and the
        recorder's own cost per call to R and S.

``T`` is run.py's ``time.perf_counter()`` just before it started this
interpreter.  On Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so ``perf_counter() - T`` here includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _set_up(config: Path, t0: float):
    """Import the program and parse the config; return (modules, setup_s)."""
    from dyncool import cli, dynamics, protocols
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"dyncool imported from {cli.__file__}, not {SRC}")
    protocols.parse_config(config.read_text(encoding="utf-8"))
    return (cli, dynamics, protocols), time.perf_counter() - t0


def cmd_prepare(args) -> None:
    import dataclasses

    import numpy
    import scipy
    from dyncool import protocols
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    spec = protocols.preset_runspec(wl["preset"])
    if "n_max" in wl:
        spec.trap = dataclasses.replace(spec.trap, n_max=wl["n_max"])
    if "cycles" in wl:
        p = spec.protocol
        spec.protocol = protocols.Protocol(p.pulses, wl["cycles"], p.name, p.target)
    spec.seed = args.seed
    Path(args.config).write_text(protocols.write_config(spec), encoding="utf-8")
    print(json.dumps({
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": _blas(numpy),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sizes": {"dims": spec.trap.dims, "n_max": spec.trap.n_max,
                  "n_states": spec.trap.n_states,
                  "pulses": len(spec.protocol.pulses),
                  "cycles": spec.protocol.cycles,
                  "quad": [spec.trap.quad_theta, spec.trap.quad_phi]},
    }))


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas(numpy) -> dict:
    """BLAS name and version from numpy's build record, and the thread
    count the loaded OpenBLAS reports (there is no threadpoolctl here)."""
    import ctypes
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                out["library"] = os.path.basename(path)
                return out
    return out


def cmd_setup(args) -> None:
    _, setup_s = _set_up(Path(args.config), args.t0)
    print(json.dumps({"setup_s": setup_s}))


def cmd_run(args) -> None:
    (cli, dynamics, protocols), setup_s = _set_up(Path(args.config), args.t0)
    argv = ["run", "--config", args.config, "--out-dir", args.out_dir,
            "--threads", "1", *args.flags]

    # The Monte Carlo check needs the ensemble's standard errors, which the
    # CSV does not carry: keep mc_ensemble's return value on every run.
    captured = {}
    mc_ensemble = vars(dynamics)["mc_ensemble"]

    def keep_ensemble(*a, **k):
        captured["ens"] = ens = mc_ensemble(*a, **k)
        return ens

    dynamics.mc_ensemble = keep_ensemble
    tracer = counters = None
    if args.spans:
        from layers import install
        from spans import Tracer
        tracer = Tracer()
        counters = install(tracer)
    crash = None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed job, reported with its traceback
        code, crash = "exception", traceback.format_exc()
    finally:
        solve_s = time.perf_counter() - t0
        unrestored = tracer.restore() if tracer else []
        dynamics.mc_ensemble = mc_ensemble
    if vars(dynamics)["mc_ensemble"] is not mc_ensemble:
        unrestored.append("dynamics.mc_ensemble")
    result = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "exit_code": code,
        "crash": crash,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unrestored": unrestored,
    }
    if "ens" in captured:
        ens = captured["ens"]
        result["mc"] = {"n_traj": int(ens.n_traj),
                        "cycles": ens.cycles.tolist(),
                        "mean_n_se": ens.mean_n_se.tolist(),
                        "mean_nx_se": ens.mean_nx_se.tolist(),
                        "jumps": int(ens.jump_counts.sum())}
    if tracer:
        from spans import recorder_cost
        tracer.dump(args.spans)
        result["counters"] = counters.as_dict()
        result["recorder_cost"] = recorder_cost()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("prepare")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config", required=True)
    for name in ("setup", "run"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    p.add_argument("flags", nargs="*")
    args = parser.parse_args(argv)
    {"prepare": cmd_prepare, "setup": cmd_setup, "run": cmd_run}[args.cmd](args)


if __name__ == "__main__":
    main()
