"""The layer boundaries a traced job wraps, and the per-layer metrics.

``install`` runs in the job process after set-up and wraps the public entry
points of ``fc``, ``rates``, ``dynamics``, ``protocols`` and ``cli``.  Two of
them are reached by another name than their home module's:

* ``dynamics`` imports ``rate_matrix`` by name, so both ``rates.rate_matrix``
  and ``dynamics.rate_matrix`` are wrapped;
* ``RateMatrix.propagator`` imports ``scipy.linalg.expm`` when called, so the
  wrapper sits on ``scipy.linalg.expm``.

``per_layer`` runs in run.py's process and turns span totals and counters
into the metrics ``BENCHMARK.json`` lists under ``per_layer``.  The span
times it reads are net of the recorder's own cost per call
(``spans.recorder_cost``).
"""

from __future__ import annotations

import importlib

# (module, class or None, attribute, span name)
BOUNDARIES = (
    ("dyncool.cli", None, "main", "cli.main"),
    ("dyncool.protocols", None, "parse_config", "protocols.parse_config"),
    ("dyncool.protocols", None, "validate_protocol", "protocols.validate"),
    ("dyncool.dynamics", None, "run_protocol", "dynamics.run_protocol"),
    ("dyncool.dynamics", None, "thermal_distribution", "dynamics.thermal_distribution"),
    ("dyncool.dynamics", None, "propagate_pulse", "dynamics.propagate"),
    ("dyncool.dynamics", None, "observables", "dynamics.observables"),
    ("dyncool.dynamics", None, "mc_ensemble", "dynamics.mc"),
    ("scipy.linalg", None, "expm", "dynamics.expm"),
    ("dyncool.rates", None, "rate_matrix", "rates.rate_matrix"),
    ("dyncool.dynamics", None, "rate_matrix", "rates.rate_matrix"),
    ("dyncool.rates", "ColumnSampler", "__init__", "rates.column_sampler"),
    ("dyncool.rates", "ColumnSampler", "jump_distribution", "rates.sampler"),
    ("dyncool.rates", "RateMatrix", "jump_distribution", "rates.sampler"),
    ("dyncool.rates", "AngularTables", "stack", "rates.stack"),
    ("dyncool.rates", "AngularTables", "emission_kernel", "rates.emission_kernel"),
    ("dyncool.fc", None, "reduced_stack", "fc.reduced_stack"),
)


class Counters:
    """Work counted from call arguments and return values of rarely called
    functions, and from the program's caches after the run."""

    def __init__(self):
        self.stack_entries = 0
        self.matrix_bytes = 0
        self._matrices: dict[int, object] = {}
        self._samplers: list[object] = []

    def reduced_stack(self, args, kwargs, result) -> None:
        eta_proj, n_max, l_max = (*args, *(kwargs[k] for k in
                                            ("eta_proj", "n_max", "l_max")[len(args):]))
        self.stack_entries += len(eta_proj) * (n_max + 1) * (l_max + 1)

    def rate_matrix(self, args, kwargs, result) -> None:
        # the program caches matrices, so a new object is a build
        if id(result) not in self._matrices:
            self._matrices[id(result)] = result
            self.matrix_bytes += result.generator.nbytes

    def expm(self, args, kwargs, result) -> None:
        # every propagator is kept in its RateMatrix's cache
        self.matrix_bytes += result.nbytes

    def column_sampler(self, args, kwargs, result) -> None:
        self._samplers.append(args[0])

    def sampler_builds(self) -> int:
        """Columns the samplers computed: the entries of their column
        caches, which keep every column built.  The sampler itself is
        called millions of times, so it carries no hook."""
        builds = 0
        for obj in (*self._samplers, *self._matrices.values()):
            cache = next((vars(obj)[a] for a in ("_cache", "_column_cumsum")
                          if a in vars(obj)), None)
            if cache is None:
                raise RuntimeError(f"no column cache found on {type(obj).__name__}; "
                                   "update layers.Counters.sampler_builds")
            builds += len(cache)
        return builds

    def as_dict(self) -> dict:
        return {"fc.reduced_stack.entries": self.stack_entries,
                "rates.rate_matrix.builds": len(self._matrices),
                "rates.matrix_bytes": self.matrix_bytes,
                "rates.sampler.builds": self.sampler_builds()}


def install(tracer) -> Counters:
    counters = Counters()
    hooks = {"fc.reduced_stack": counters.reduced_stack,
             "rates.rate_matrix": counters.rate_matrix,
             "dynamics.expm": counters.expm,
             "rates.column_sampler": counters.column_sampler}
    for module, cls, attr, name in BOUNDARIES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name, on_return=hooks.get(name))
    return counters


def per_layer(spans: dict, counters: dict, *, propagations: int,
              output_bytes: int, jumps: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    ``propagations`` is the number of pulse propagations the run reports
    (time-series rows after the initial one in master mode), ``jumps`` the
    ensemble's total jump count (0 in master mode).
    """
    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    entries = counters["fc.reduced_stack.entries"]
    sampler_calls = get("rates.sampler", "calls")
    propagate_calls = get("dynamics.propagate", "calls")
    return {
        "fc.reduced_stack.s": (get("fc.reduced_stack", "total_s"), "s"),
        "fc.reduced_stack.calls": (get("fc.reduced_stack", "calls"), "count"),
        "fc.reduced_stack.entries": (entries, "count"),
        "fc.reduced_stack.bytes": (8 * entries, "B"),
        "rates.emission_kernel.self_s": (get("rates.emission_kernel", "self_s"), "s"),
        "rates.emission_kernel.calls": (get("rates.emission_kernel", "calls"), "count"),
        "rates.stack.self_s": (get("rates.stack", "self_s"), "s"),
        "rates.rate_matrix.self_s": (get("rates.rate_matrix", "self_s"), "s"),
        "rates.rate_matrix.calls": (get("rates.rate_matrix", "calls"), "count"),
        "rates.rate_matrix.builds": (counters["rates.rate_matrix.builds"], "count"),
        "rates.matrix_bytes": (counters["rates.matrix_bytes"], "B"),
        "rates.sampler.self_s": (get("rates.sampler", "self_s"), "s"),
        "rates.sampler.calls": (sampler_calls, "count"),
        "rates.sampler.builds": (counters["rates.sampler.builds"], "count"),
        "rates.sampler.hit_ratio": (
            ratio(sampler_calls - counters["rates.sampler.builds"], sampler_calls),
            "ratio"),
        "dynamics.expm.s": (get("dynamics.expm", "total_s"), "s"),
        "dynamics.expm.calls": (get("dynamics.expm", "calls"), "count"),
        "dynamics.propagate.self_s": (get("dynamics.propagate", "self_s"), "s"),
        "dynamics.propagate.calls": (propagate_calls, "count"),
        "dynamics.propagate.useful_ratio": (ratio(propagations, propagate_calls),
                                            "ratio"),
        "dynamics.observables.s": (get("dynamics.observables", "total_s"), "s"),
        "dynamics.mc.self_s": (get("dynamics.mc", "self_s"), "s"),
        "dynamics.mc.jumps": (jumps, "count"),
        "dynamics.mc.jumps_per_s": (ratio(jumps, get("dynamics.mc", "total_s")), "1/s"),
        "dynamics.mc.useful_ratio": (ratio(jumps, sampler_calls), "ratio"),
        "protocols.parse_config.s": (get("protocols.parse_config", "total_s"), "s"),
        "protocols.validate.s": (get("protocols.validate", "total_s"), "s"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "cli.output_bytes": (output_bytes, "B"),
    }
