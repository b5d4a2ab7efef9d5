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

from . import __version__, dynamics, plot, protocols, rates
from .errors import (ConfigError, ResourceLimitError, SimulationError,
                     ValidityError)
from .rates import format_float as ff

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4

MANIFEST_NAME = "manifest.json"


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
    run.add_argument("--mode", choices=("master", "mc"),
                     help="deterministic rate-equation or Monte Carlo run")
    run.add_argument("--trajectories", type=int, help="MC trajectory count")
    run.add_argument("--seed", type=int, help="MC base seed")
    run.add_argument("--cycles", type=int, help="override the cycle budget")
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


def _load_runspec(args) -> protocols.RunSpec:
    if getattr(args, "preset", None):
        return protocols.preset_runspec(args.preset)
    path = args.config
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return protocols.parse_config(text)


def _parse_target_arg(value: str, dims: int):
    try:
        return protocols._parse_target(value, dims)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_run(args) -> int:
    spec = _load_runspec(args)
    if args.mode:
        spec.mode = args.mode
    if args.trajectories is not None:
        spec.trajectories = args.trajectories
    if args.seed is not None:
        try:
            spec.seed = protocols._check_seed(args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    if args.final_distribution and spec.mode != "master":
        raise ConfigError("--final-distribution needs master mode; a Monte Carlo "
                          "run keeps no final distribution")
    protocol = spec.protocol
    if args.cycles is not None:
        protocol = protocols.Protocol(protocol.pulses, args.cycles,
                                      protocol.name, protocol.target)
    targets = []
    if args.target:
        targets = [_parse_target_arg(t, spec.trap.dims) for t in args.target]
        protocol = protocols.Protocol(protocol.pulses, protocol.cycles,
                                      protocol.name, targets[0])
    spec.protocol = protocol

    report = protocols.validate_protocol(protocol, spec.trap, mode="resonant")
    for rule, msg in report.warnings:
        print(f"warning [{rule}]: {msg}", file=sys.stderr)
    if report.errors:
        for rule, msg in report.errors:
            print(f"error [{rule}]: {msg}", file=sys.stderr)
        return EXIT_VALIDATION

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    init = dynamics.thermal_distribution(spec.thermal_mean, spec.trap)
    extra = tuple(targets[1:])
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
        _write_final_distribution(fd_path, series)
        outputs["distribution_final"] = fd_path.name

    if args.plot:
        plot_path = out_dir / "plot.svg"
        _write_plot(plot_path, series, targets or [protocol.target])
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


def _write_final_distribution(path, series) -> None:
    """The distribution the run stopped at, after the cycle of its last sample."""
    dist = series.final_distribution
    lines = [f"# final distribution after {series.final().cycle} cycles; "
             f"leak = {ff(dist.leak)}"]
    if len(dist.shape) == 1:
        lines.append("n,probability")
        for n, p in enumerate(dist.probs):
            lines.append(f"{n},{ff(p)}")
    else:
        lines.append("nx,ny,probability")
        grid = dist.grid()
        for nx in range(grid.shape[0]):
            for ny in range(grid.shape[1]):
                lines.append(f"{nx},{ny},{ff(grid[nx, ny])}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_plot(path, series, targets) -> None:
    samples = series.cycle_samples()
    xs = [s.cycle for s in samples]
    label0 = f"P{targets[0]}" if targets and targets[0] is not None else "P(target)"
    curves = [(label0, [s.obs.p_target for s in samples])]
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
    vec = rates.empty_rates(spec.trap, pulses[args.pulse])
    if args.out:
        rates.export_empty_rates_csv(args.out, spec.trap, vec)
    else:
        sys.stdout.write(rates.empty_rates_csv_text(spec.trap, vec))
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
