"""In-memory span recorder that wraps chargesched's public functions.

A span is (name, start, end, parent, run): ``parent`` is the index of the
enclosing span (-1 at the root) and ``run`` tags the benchmark round that
produced it.  Spans live in flat arrays while the benchmark runs and are
written out once, at the end.

Functions imported by name (``from .models import admit``) are bound in every
module that imports them, so a wrapper installed only in the defining module
would be bypassed.  `Tracer.install` therefore replaces every binding of the
target function object across the ``chargesched`` modules, and `uninstall`
puts the originals back.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (module, qualified name) of every wrapped function.  The span name is
# "<module>.<qualified name>".
TARGETS = (
    ("montecarlo", "monte_carlo"),
    ("montecarlo", "run_trajectory"),
    ("montecarlo", "advance_stage"),
    ("streams", "uniforms_batch"),
    ("streams", "uniforms"),
    ("policies", "HeuristicPolicy.decide"),
    ("policies", "check_lllp_compliance"),
    ("models", "sample_demand"),
    ("models", "sample_grid"),
    ("models", "admit"),
    ("core", "step_vehicles"),
    ("core", "stage_cost"),
    ("interchange", "certify_dominance"),
    ("interchange", "find_violation"),
    ("interchange", "coupled_rollout"),
    ("interchange", "wrap_interchange"),
    ("exactdp", "enumerate_mdp"),
    ("exactdp", "relative_value_iteration"),
    ("exactdp", "verify_constant_gain"),
    ("exactdp", "exact_policy_gain"),
    ("exactdp", "lllp_projection"),
    ("exactdp", "brute_force_optimal_gain"),
    ("linalg", "chain_average"),
)

SPAN_NAMES = tuple(f"{m}.{q}" for m, q in TARGETS)


class Tracer:
    """Records spans for the wrapped functions while installed.

    ``observers`` maps a span name to ``f(tracer, args, kwargs, result)``,
    called after the function returns, so counts are taken where the work
    happens (for example the uint64 draws behind each uniform).

    ``busy`` is true while a span is being opened or closed, so that a signal
    handler can tell when it may not record a span of its own.
    """

    def __init__(self, observers=None):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run_of = array("i")
        self.run = 0
        self.counts: dict[tuple[int, str], float] = {}
        self._stack = [-1]
        self._observers = observers or {}
        self._saved: list[tuple[object, str, object]] = []
        self.busy = False

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def count(self, key: str, amount: float = 1) -> None:
        k = (self.run, key)
        self.counts[k] = self.counts.get(k, 0) + amount

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name_id: int) -> int:
        self.busy = True
        idx = len(self.start)
        self.name.append(name_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.run_of.append(self.run)
        self._stack.append(idx)
        self.busy = False
        return idx

    def _close(self, idx: int) -> None:
        self.busy = True
        self.end[idx] = perf_counter()
        self._stack.pop()
        self.busy = False

    def _wrap(self, fn, span_name: str):
        name_id = self._id(span_name)
        observe = self._observers.get(span_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every chargesched namespace that binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "chargesched"
                                         or n.startswith("chargesched."))]
        for mod_name, qualname in TARGETS:
            owner = sys.modules[f"chargesched.{mod_name}"]
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, f"{mod_name}.{qualname}")
            holders = [owner] if cls_path else [
                m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def _arrays(self, runs):
        import numpy as np
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        keep = np.isin(np.frombuffer(self.run_of, dtype=np.int32), list(runs))
        return names, parent, keep

    def self_times(self, runs) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Calls, self time (span time minus child-span time) and total time
        per name, summed over spans whose run is in ``runs``."""
        import numpy as np
        if not len(self.start):
            return {}, {}, {}
        names, parent, keep = self._arrays(runs)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        call_counts = np.bincount(names[keep], minlength=k)
        self_sums = np.bincount(names[keep], weights=(dur - child)[keep], minlength=k)
        total_sums = np.bincount(names[keep], weights=dur[keep], minlength=k)
        calls = {nm: int(call_counts[i]) for i, nm in enumerate(self.names)}
        selfs = {nm: float(self_sums[i]) for i, nm in enumerate(self.names)}
        totals = {nm: float(total_sums[i]) for i, nm in enumerate(self.names)}
        return calls, selfs, totals

    def child_calls(self, parent_name: str, child_name: str, runs) -> int:
        """Number of ``child_name`` spans whose direct parent is a
        ``parent_name`` span, over ``runs``."""
        pid, cid = self._name_id.get(parent_name), self._name_id.get(child_name)
        if pid is None or cid is None:
            return 0
        names, parent, keep = self._arrays(runs)
        is_child = keep & (names == cid) & (parent >= 0)
        return int((names[parent[is_child]] == pid).sum())

    def children_by_name(self, parent_name: str, runs) -> list[dict[str, int]]:
        """For each span named ``parent_name`` in ``runs``, the number of its
        direct children per name, in span order."""
        import numpy as np
        pid = self._name_id.get(parent_name)
        if pid is None:
            return []
        names, parent, keep = self._arrays(runs)
        rows = {int(i): {} for i in np.flatnonzero(keep & (names == pid))}
        for i in np.flatnonzero(np.isin(parent, list(rows))):
            nm = self.names[names[i]]
            row = rows[int(parent[i])]
            row[nm] = row.get(nm, 0) + 1
        return [rows[i] for i in sorted(rows)]

    def write(self, path) -> int:
        """Write all spans as gzipped CSV (name,start,end,parent,run); times
        are seconds relative to the first span.  Returns the span count."""
        n = len(self.start)
        t0 = self.start[0] if n else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,run\n")
            for lo in range(0, n, 65536):
                hi = min(n, lo + 65536)
                fh.write("".join(
                    f"{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.run_of[i]}\n"
                    for i in range(lo, hi)))
        return n


def read_spans(path) -> list[tuple[str, float, float, int, int]]:
    """Parse a span file written by `Tracer.write`."""
    with gzip.open(path, "rt") as fh:
        header = fh.readline().strip()
        if header != "name,start,end,parent,run":
            raise ValueError(f"unexpected span header {header!r}")
        out = []
        for line in fh:
            name, start, end, parent, run = line.rstrip("\n").split(",")
            out.append((name, float(start), float(end), int(parent), int(run)))
    return out
