"""Spans and counts around simdual's public module functions.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records one span (name, parent, start, end) per call,
and rebinds the wrapper wherever a simdual module imported the function
by name.  Generators get one span per step and a count of the items they
yield.  Spans live in flat arrays in memory and are written out once, at
the end of the unit.

``scalars`` and ``matrices`` are not wrapped: their calls are too fine
to trace one by one, so ``layers`` times them in batches instead.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

TRACED_MODULES = ("spaces", "involution", "cayley", "sampling", "modsolve",
                  "lattices", "decomposition", "finite", "suites", "report")

# A number taken from a call's result, summed per function.
RESULT_SIZES = {
    "decomposition.cayley_image_members": len,
    "decomposition.decompose": len,
    "finite.build_group": lambda table: table.order,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, qualname: str, fn):
        nid = self._id(qualname)
        size = RESULT_SIZES.get(qualname)
        perf = time.perf_counter
        tracer = self

        def open_span():
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(perf())
            return idx

        def close_span(idx):
            tracer.end[idx] = perf()
            tracer.stack.pop()

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    tracer.counts[qualname + ".yields"] += 1
                    yield item
        else:
            def wrapper(*args, **kwargs):
                idx = open_span()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(idx)
                if size is not None:
                    tracer.counts[qualname + ".result"] += size(result)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the public functions of the traced simdual modules."""
        replace = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"simdual.{short}"]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    replace[id(value)] = self._wrap(f"{short}.{attr}", value)
        for modname, mod in list(sys.modules.items()):
            if modname != "simdual" and not modname.startswith("simdual."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])

    # -- summaries ----------------------------------------------------

    def summary(self, scale: float) -> dict:
        """Per function: calls, total and self seconds (times ``scale``,
        the unit's conversion to reference speed), plus the counts."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        per = {}
        for i in range(n):
            rec = per.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            dur = self.end[i] - self.start[i]
            rec[0] += 1
            rec[1] += dur * scale
            rec[2] += (dur - child[i]) * scale
        counts = dict(self.counts)
        counts["sampling.sample_lie.attempts"] = self._children_named(
            "sampling.sample_lie", "cayley.in_domain")
        return {"functions": per, "counts": counts, "spans": n}

    def _children_named(self, parent_name: str, child_name: str) -> int:
        pid = self._ids.get(parent_name)
        cid = self._ids.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(1 for i in range(len(self.name))
                   if self.name[i] == cid and self.parent[i] >= 0
                   and self.name[self.parent[i]] == pid)

    def write(self, path) -> None:
        """One JSON header line, then the four span arrays' raw bytes."""
        header = {"names": self.names, "spans": len(self.name),
                  "arrays": [["name", "i"], ["parent", "i"],
                             ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                fh.write(arr.tobytes())
