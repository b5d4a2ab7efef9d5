"""Command-line interface: run protocols, dump rate tables, solve dark states.

Exit codes: 0 success, 2 usage/config errors and unwritable outputs, 3
validation or domain errors, 4 resource limits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, dynamics, plot, protocols, rates
from .errors import (ConfigError, ResourceLimitError, SimulationError,
                     ValidityError)
from .rates import format_float as ff

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4

MANIFEST_NAME = "manifest.json"

# per trap dimension: the axis suffixes of a grid table's level columns, and
# the row order as the empty-rate table's comment states it
_GRID_LAYOUT = {1: (("",), "m is the trap level"),
                2: (("x", "y"), "rows flattened row-major in (mx, my): "
                                "index = mx*(n_max+1) + my")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyncool",
        description="Pulse-sequence cooling of one trapped atom beyond the "
                    "Lamb-Dicke regime")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a protocol and write CSV/SVG outputs")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="published preset name (see 'presets list')")
    src.add_argument("--config", help="protocol config file, or '-' for stdin")
    run.add_argument("--mode", help="'master' (deterministic rate equation) or 'mc' "
                                    "(Monte Carlo)")
    run.add_argument("--trajectories", help="MC trajectory count")
    run.add_argument("--seed", help="MC base seed")
    run.add_argument("--cycles", help="override the cycle budget")
    run.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; has no effect")
    run.add_argument("--out-dir", default=".", help="output directory")
    run.add_argument("--plot", action="store_true",
                     help="also write plot.svg of the occupation dynamics")
    run.add_argument("--target", action="append",
                     help="target level ('3' or '0,1'); repeat for extra "
                          "plot curves, first is the CSV p_target")
    run.add_argument("--final-distribution", action="store_true",
                     help="also write distribution_final.csv")

    rt = sub.add_parser("rates", help="write the empty-rate table of one pulse")
    rsrc = rt.add_mutually_exclusive_group(required=True)
    rsrc.add_argument("--preset")
    rsrc.add_argument("--config")
    rt.add_argument("--pulse", type=int, required=True,
                    help="pulse index within the protocol (0-based)")
    rt.add_argument("--out", help="output CSV path (default: stdout)")

    dark = sub.add_parser("dark", help="solve dark-state conditions")
    dsub = dark.add_subparsers(dest="dark_command", required=True)
    dl = dsub.add_parser("level", help="eta roots darkening one trap level")
    dl.add_argument("--m", type=int, required=True)
    dl.add_argument("--s", type=int, required=True)
    dr = dsub.add_parser("ratio", help="two-laser ratio darkening a 2D level")
    dr.add_argument("--eta", type=float, required=True)
    dr.add_argument("--target", required=True, help="level pair, e.g. 0,1")

    pr = sub.add_parser("presets", help="list or export published presets")
    psub = pr.add_subparsers(dest="presets_command", required=True)
    psub.add_parser("list", help="print preset names and descriptions")
    pe = psub.add_parser("export", help="write a preset as a config file")
    pe.add_argument("name")
    pe.add_argument("--out", help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"run": _cmd_run, "rates": _cmd_rates, "dark": _cmd_dark,
                "presets": _cmd_presets}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValidityError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # configs are read as ConfigError: this is an output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


def _load_runspec(args, run: dict[str, str] | None = None) -> protocols.RunSpec:
    """The run of ``args.preset`` (as its exported config) or ``args.config``,
    with the [run] keys of ``run`` set from their text."""
    if getattr(args, "preset", None):
        text = protocols.write_config(protocols.preset_runspec(args.preset))
    elif args.config == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    return protocols.parse_config(text, run)


def _parse_target_arg(value: str, dims: int):
    try:
        return protocols._parse_target(value, dims)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_run(args) -> int:
    # the flags set their [run] keys, the first --target the target
    run = {key: getattr(args, key) for key in ("mode", "trajectories", "seed", "cycles")}
    run["target"] = args.target[0] if args.target else None
    spec = _load_runspec(args, {key: text for key, text in run.items() if text is not None})
    if args.final_distribution and spec.mode != "master":
        raise ConfigError("--final-distribution needs master mode; a Monte Carlo "
                          "run keeps no final distribution")
    protocol = spec.protocol
    extra = tuple(_parse_target_arg(t, spec.trap.dims) for t in (args.target or [])[1:])

    report = protocols.validate_protocol(protocol, spec.trap, mode="resonant")
    for rule, msg in report.warnings:
        print(f"warning [{rule}]: {msg}", file=sys.stderr)
    if report.errors:
        for rule, msg in report.errors:
            print(f"error [{rule}]: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    # oversized runs, bad targets and thermal means are refused before
    # anything grid-sized is built and before the output directory exists
    rates.check_budgets(protocol, spec.trap, spec.mode)
    dynamics._obs_rows(spec.trap.shape, protocol.target, extra)
    init = dynamics.thermal_distribution(spec.thermal_mean, spec.trap)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    series = dynamics.run_protocol(
        init, protocol, spec.trap, mode=spec.mode,
        trajectories=spec.trajectories, seed=spec.seed,
        extra_targets=extra)
    elapsed = time.perf_counter() - t0

    ts_path = out_dir / "timeseries.csv"
    series.to_csv(ts_path)
    outputs = {"timeseries": ts_path.name}

    if args.final_distribution:
        fd_path = out_dir / "distribution_final.csv"
        dist = series.final_distribution  # the state behind the last sample
        _write_grid(fd_path, f"# final distribution after {series.final().cycle} "
                    f"cycles; leak = {ff(dist.leak)}", "n", "probability", dist.grid())
        outputs["distribution_final"] = fd_path.name

    if args.plot:
        plot_path = out_dir / "plot.svg"
        _write_plot(plot_path, series)
        outputs["plot"] = plot_path.name

    manifest = {
        "version": __version__,
        "mode": spec.mode,
        "seed": spec.seed,
        "trajectories": spec.trajectories,
        "config": protocols.write_config(spec),
        "outputs": outputs,
        "wall_clock_seconds": elapsed,  # unrounded: the phases sum to at most it
        "phases": series.phases,
        "cache": series.cache,
        **series.diagnostics,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(out_dir / MANIFEST_NAME, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    final = series.final().obs
    print(f"final p_target = {ff(final.p_target)} leak = {ff(final.leak)} "
          f"({len(series.samples)} samples)")
    return EXIT_OK


def _write_grid(path, comment: str, letter: str, value: str, grid) -> None:
    """A CSV of one value per trap level, to ``path`` or, if it is None, to
    stdout: ``comment``, the column names, then one row per level in
    row-major order, the level's indices (columns ``letter`` and each axis
    suffix) and its value."""
    suffixes, _ = _GRID_LAYOUT[grid.ndim]
    lines = [comment, ",".join([*(letter + axis for axis in suffixes), value])]
    lines += [",".join([*map(str, idx), ff(grid[idx])]) for idx in np.ndindex(grid.shape)]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_plot(path, series) -> None:
    samples = series.cycle_samples()
    xs = [s.cycle for s in samples]
    curves = [(f"P{series.target}", [s.obs.p_target for s in samples])]
    curves += [(f"P{tgt}", [s.obs.extra[j] for s in samples])
               for j, tgt in enumerate(series.extra_targets)]
    plot.line_plot(path, xs, curves, title="occupation dynamics",
                   xlabel="applied cycles", ylabel="occupation probability")


def _cmd_rates(args) -> int:
    spec = _load_runspec(args)
    pulses = spec.protocol.pulses
    if not 0 <= args.pulse < len(pulses):
        raise ConfigError(
            f"pulse index {args.pulse} out of range (protocol has {len(pulses)})")
    dims = spec.trap.dims
    _write_grid(args.out or None, f"# {dims}D empty rates; {_GRID_LAYOUT[dims][1]}", "m",
                "gamma_over_Gamma0", rates.empty_rates(spec.trap, pulses[args.pulse]))
    return EXIT_OK


def _cmd_dark(args) -> int:
    from . import fc
    if args.dark_command == "level":
        roots = fc.dark_eta_for_level(args.m, args.s)
        print(", ".join(f"{r:.12f}" for r in roots))
        return EXIT_OK
    target = _parse_target_arg(args.target, dims=2)
    ratio = fc.dark_ratio_A(args.eta, target)
    print(f"{ff(ratio.real)}{'+' if ratio.imag >= 0 else '-'}{ff(abs(ratio.imag))}i")
    return EXIT_OK


def _cmd_presets(args) -> int:
    if args.presets_command == "list":
        for name in protocols.PRESET_NAMES:
            print(f"{name:22s} {protocols.PRESET_DESCRIPTIONS[name]}")
        return EXIT_OK
    spec = protocols.preset_runspec(args.name)
    text = protocols.write_config(spec)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
