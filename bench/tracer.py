"""Span tracing of the program's public functions, from outside the program.

``Tracer.install`` replaces every public module-level function of every
``blichfeldt`` module, and ``RadicalSum.enclosure``, with a timing wrapper.
The wrapper is bound under every name the function has in any module of the
package, so ``polytope.acos_interval`` is traced as well as
``interval.acos_interval``.  Each call records one span: function, start,
end and parent span.  Spans are kept in flat arrays in memory and written
out once, when the run ends.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patches: list = []
        self.points = 0          # lattice points counted by counting.count
        self.max_bits = 0        # largest precision asked for inside a comparison
        self._cc_depth = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a benchmark-level span (setup, one operation)."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.idx = tracer._open(tracer._id(name))

            def __exit__(self, *exc):
                tracer._close(self.idx)
                return False

        return _Span()

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        fid = self._id(name)
        tracer = self
        if name == "counting.count":
            def after(args, kwargs, result):
                tracer.points += result.count
        elif name in ("radical.RadicalSum.enclosure", "polytope.steiner_volume"):
            pos = list(inspect.signature(fn).parameters).index("bits")

            def after(args, kwargs, result):
                if tracer._cc_depth:
                    bits = args[pos] if len(args) > pos else kwargs.get("bits", 128)
                    tracer.max_bits = max(tracer.max_bits, bits)
        else:
            after = None
        is_cc = name == "radical.certified_compare"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(fid)
            if is_cc:
                tracer._cc_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_cc:
                    tracer._cc_depth -= 1
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        import blichfeldt
        from blichfeldt.radical import RadicalSum

        modules = [blichfeldt] + [
            importlib.import_module(f"blichfeldt.{m.name}")
            for m in pkgutil.iter_modules(blichfeldt.__path__)
        ]
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        original = RadicalSum.enclosure
        self._patches.append((RadicalSum, "enclosure", original))
        RadicalSum.enclosure = self._wrap("radical.RadicalSum.enclosure", original)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.fid, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def totals(self, lo: int, hi: int):
        """Per function over spans [lo, hi): (calls, self ns, inclusive ns)."""
        fid, parent, start, end = self.arrays()
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - child
        k = len(self.names)
        sl = slice(lo, hi)
        calls = np.bincount(fid[sl], minlength=k)
        selfs = np.bincount(fid[sl], weights=self_ns[sl], minlength=k)
        incl = np.bincount(fid[sl], weights=dur[sl], minlength=k)
        return {
            name: (int(calls[i]), float(selfs[i]), float(incl[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        fid, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), fid=fid, parent=parent,
                 start=start, end=end)
