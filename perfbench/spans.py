"""Outside-in span recorder for the dyncool benchmark.

The benchmark wraps public entry points of the program (module functions,
class methods, ``scipy.linalg.expm``) with span recorders; nothing inside the
program changes.  Each span stores its name, start, end and parent span in
flat arrays that stay in memory until the job ends and are then written to
one binary file.  ``summarize`` turns such a file back into totals, call
counts and self times per span name.

Self time is a span's duration minus the time its direct child spans cover.
Spans come from one thread (jobs run with ``--threads 1``) and nest by
construction, so children of one parent never overlap and their covered
time is the sum of their durations.

The recorder costs time of its own on every call: the part before its span
opens and after it closes falls into the caller's span, the part between
the two clock reads into its own.  ``recorder_cost`` measures both on a
no-op method, and ``self_times`` subtracts them, so that a layer called
millions of times (the Monte Carlo sampler) does not inflate its caller's
self time by the tracer's work.

This module uses only the standard library, so the main process that
aggregates spans never loads numpy.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

_NO_PARENT = -1


class Tracer:
    """Span recorder whose wrappers are installed on, and removed from,
    attributes of modules and classes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [_NO_PARENT]
        self._patches: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` by a recorder of spans called ``name``.

        ``on_return(args, kwargs, result)`` runs after the span closes, so
        its time is charged to the caller's span and not subtracted as
        recorder cost: hook only functions that are called rarely.
        """
        original = vars(owner)[attr]
        nid = self._name(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, stack, clock = self.parent, self._stack, time.perf_counter

        def recorder(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        recorder.__wrapped__ = original
        setattr(owner, attr, recorder)
        self._patches.append((owner, attr, original))

    def restore(self) -> list[str]:
        """Put every wrapped attribute back; return those not restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        bad = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, original in self._patches
               if vars(owner)[attr] is not original]
        self._patches.clear()
        return bad

    def dump(self, path) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "typecodes": [a.typecode for a in self._arrays()]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in self._arrays():
                arr.tofile(fh)

    def _arrays(self):
        return self.name_id, self.start, self.end, self.parent


def load(path):
    """Read a span file written by ``Tracer.dump``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in header["typecodes"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return header["names"], arrays


def self_times(name_id, start, end, parent, names, cost=(0.0, 0.0)):
    """Per span name: {"calls", "total_s", "self_s"}, net of recorder cost.

    ``cost`` is the recorder's time per call as (outside, inside), from
    ``recorder_cost``: ``outside`` is taken once per direct child from the
    parent's self time, ``inside`` from each span's own.  ``total_s`` sums
    the net self times of a span's subtree; with zero cost it is the
    span's duration.  Children are recorded after their parent, so one
    backward pass adds each subtree into its parent's.
    """
    outside, inside = cost
    n = len(start)
    own = [end[i] - start[i] - inside for i in range(n)]
    for i in range(n):
        p = parent[i]
        if p != _NO_PARENT:
            own[p] -= end[i] - start[i] + outside
    subtree = list(own)
    for i in range(n - 1, -1, -1):
        p = parent[i]
        if p != _NO_PARENT:
            subtree[p] += subtree[i]
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i in range(n):
        row = out[names[name_id[i]]]
        row["calls"] += 1
        row["total_s"] += subtree[i]
        row["self_s"] += own[i]
    return dict(out)


def recorder_cost(calls: int = 100_000, rounds: int = 5) -> tuple[float, float]:
    """The recorder's own time per call, as (outside, inside) its span.

    Times a loop of no-op method calls bare, unwrapped and wrapped, and
    reads the wrapped calls' span durations; each figure is the minimum
    over ``rounds``.  ``inside`` is the span floor minus the plain call,
    ``outside`` the rest of what wrapping adds.
    """
    class Probe:
        def noop(self, i):
            return i

    probe = Probe()

    def per_call(body) -> float:
        best = float("inf")
        for _ in range(rounds):
            t = time.perf_counter()
            body()
            best = min(best, (time.perf_counter() - t) / calls)
        return best

    def loop():
        for i in range(calls):
            pass

    def call():
        for i in range(calls):
            probe.noop(i)

    bare, plain = per_call(loop), per_call(call)
    tracer = Tracer()
    tracer.wrap(Probe, "noop", "noop")
    try:
        wrapped = per_call(call)
    finally:
        tracer.restore()
    floor = min(sum(e - s for s, e in zip(tracer.start[r * calls:(r + 1) * calls],
                                          tracer.end[r * calls:(r + 1) * calls]))
                for r in range(rounds)) / calls
    inside = max(floor - (plain - bare), 0.0)
    return max(wrapped - plain - inside, 0.0), inside


def summarize(path, cost=(0.0, 0.0)):
    names, (name_id, start, end, parent) = load(path)
    return self_times(name_id, start, end, parent, names, cost)
