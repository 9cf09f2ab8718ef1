"""Span tracing of sgm from outside the package.

While installed, every public function of the layer modules is replaced, in
every ``sgm`` namespace and dispatch table that binds it, by a wrapper that
records a span: name, start, end, parent span and operation id.  Functions
with a batch argument ``X`` also record its length as the span's point count.
Wrappers pass arguments and results through unchanged.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "estimators", "maxdet", "model", "feasibility", "sampling", "analysis")
ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, points]
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._targets = self._collect()

    @staticmethod
    def _collect() -> dict:
        """Original public functions of each layer module, keyed by object."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"sgm.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    targets[obj] = f"{layer}.{name}"
        return targets

    def _wrap(self, fn, name):
        params = list(inspect.signature(fn).parameters)
        x_pos = params.index("X") if "X" in params else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            points = None
            if x_pos is not None:
                X = args[x_pos] if len(args) > x_pos else kwargs.get("X")
                points = len(X)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op, points]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self, op: int) -> None:
        """Wrap every binding of the layer functions for operation ``op``."""
        wrappers = {fn: self._wrap(fn, name) for fn, name in self._targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "sgm" and not modname.startswith("sgm."):
                continue
            for attr, val in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(val, dict):
                    for key, item in val.items():
                        if _hashable(item) and item in wrappers:
                            self._patches.append((val, key, item))
                            val[key] = wrappers[item]
                elif _hashable(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        self._op = op

    def open_root(self) -> None:
        self.spans.append([ROOT, time.perf_counter(), 0.0, None, self._op, None])
        self._stack = [len(self.spans) - 1]

    def close_root(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()
        self._op = None

    def op_summary(self, op: int) -> dict:
        """Inclusive time, self time, call count and points per span name."""
        idx = [i for i, s in enumerate(self.spans) if s[4] == op]
        child_time = defaultdict(float)
        for i in idx:
            s = self.spans[i]
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, dict] = defaultdict(lambda: {"incl": 0.0, "self": 0.0, "calls": 0, "points": 0})
        for i in idx:
            name, start, end, _, _, points = self.spans[i]
            row = out[name]
            row["incl"] += end - start
            row["self"] += end - start - child_time[i]
            row["calls"] += 1
            row["points"] += points or 0
        return dict(out)

    def write(self, path: str, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, points) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op, "points": points}) + "\n")


def _hashable(obj) -> bool:
    try:
        hash(obj)
    except TypeError:
        return False
    return True

