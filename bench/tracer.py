"""Boundary spans around calls into the peakonlab layers, recorded from outside.

The package's modules import each other with ``from ... import``, so a
function is looked up in the namespace of the module that calls it, not in
the module that defines it.  :meth:`Tracer.install` therefore replaces the
function object under every name that holds it in every loaded peakonlab
module: ``nonlinear.node_convolutions``, ``convolution.fd_derivative``,
``energetics.integrate_samples`` and so on.  Nothing in the package changes.

Spans live in memory while the scenario runs and are written out once at the
end (:meth:`Tracer.dump`); :func:`layer_stats` turns a dump into call
counts, total time and self time per function.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: public functions whose calls become spans, as "<module>.<function>"
TRACED = (
    "cli.run_scenario",
    "cli.write_state_csv",
    "nonlinear.integrate_nonlinear",
    "convolution.node_convolutions",
    "quadrature.fd_derivative",
    "quadrature.panel_integrals",
    "quadrature.integrate_samples",
    "kernel.phi_open_interval",
    "kernel.phi_prime_open_interval",
    "linear.integrate_linear",
    "linear.exact_state",
    "linear.h1_constants",
    "energetics.energies",
)


class Tracer:
    """Records (id, parent, name, start_ns, end_ns) for every wrapped call.

    Parents follow the call stack of each thread.  A span opened on a thread
    with an empty stack (a worker of the CLI's thread pool) is parented to
    the outermost span open at that moment, the scenario itself.
    """

    def __init__(self):
        self.names: list[str] = []
        self._rows: list[tuple] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._outer = -1

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = next(self._ids)
            parent = stack[-1] if stack else self._outer
            outermost = parent == -1
            if outermost:
                self._outer = span
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if outermost:
                    self._outer = -1
                with self._lock:
                    self._rows.append((span, parent, index, start, end))

        return traced

    def install(self, package: str = "peakonlab") -> None:
        """Rebind every traced function wherever a peakonlab module holds it."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for qualname in TRACED:
            module_name, func_name = qualname.split(".")
            original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
            wrapped = self.wrap(qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def dump(self, path) -> None:
        with self._lock:
            rows = np.array(sorted(self._rows), dtype=np.int64).reshape(-1, 5)
        with open(path, "wb") as fh:
            np.savez(fh, spans=rows, names=np.array(self.names))


def _covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class SpanSet:
    """A loaded span dump with per-function aggregates."""

    def __init__(self, path):
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            rows = data["spans"]
        self.rows = {int(r[0]): (int(r[1]), self.names[r[2]], int(r[3]), int(r[4]))
                     for r in rows}

    def _ancestor_names(self, span: int):
        parent = self.rows[span][0]
        while parent in self.rows:
            yield self.rows[parent][1]
            parent = self.rows[parent][0]

    def stats(self) -> dict:
        """{name: {"calls", "total_s", "self_s"}} for every traced function.

        Self time is a span's duration minus the union of its children's
        intervals, so overlapping children on worker threads count once.
        """
        children = defaultdict(list)
        for parent, _, start, end in self.rows.values():
            children[parent].append((start, end))
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in TRACED}
        for span, (_, name, start, end) in self.rows.items():
            clipped = [(max(a, start), min(b, end)) for a, b in children.get(span, ())]
            own = (end - start) - _covered_ns([c for c in clipped if c[1] > c[0]])
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += (end - start) * 1e-9
            entry["self_s"] += own * 1e-9
        return out

    def under(self, name: str, ancestor: str):
        """(calls, total seconds) of ``name`` spans nested in an ``ancestor`` span."""
        calls, total = 0, 0
        for span, (_, span_name, start, end) in self.rows.items():
            if span_name == name and ancestor in self._ancestor_names(span):
                calls += 1
                total += end - start
        return calls, total * 1e-9
