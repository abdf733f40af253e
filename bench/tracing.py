"""Spans recorded from the benchmark's side of each layer boundary.

``Tracer.install`` replaces, in every gpaley module, each public function
that module imports from another gpaley module with a wrapper that records
a span named ``<defining module>.<function>``; the whole-array methods of
``FieldTable`` are wrapped the same way. Nothing under ``src/`` changes:
the wrappers live in the importing modules' namespaces only while a traced
round runs, and ``uninstall`` puts the originals back.
"""

import functools
from time import perf_counter

LAYERS = ("field", "graphs", "forms", "spectra", "applications", "oracles", "arith", "cli")
# budgets and errors are helpers that do no measurable work.
SKIPPED = ("budgets", "errors")
FIELD_ARRAY_METHODS = ("trace_map", "subfield_indices", "pow_array", "mul_array",
                       "add_arrays", "neg_array")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.observed: dict[str, list] = {}  # span name -> [(span index, observation)]

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span; ``observe(result)`` is kept per call."""
        spans, stack = self.spans, self._stack
        seen = self.observed.setdefault(name, []) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if seen is not None:
                seen.append((index, observe(out)))
            return out

        return traced

    def install(self, modules, field_table, observers: dict):
        """Wrap the cross-module imports of ``modules`` and the array methods
        of ``field_table``; ``observers`` maps span names to observe functions."""
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", None) or ""
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or not owner.startswith("gpaley.") or owner == mod.__name__):
                    continue
                layer = owner.split(".")[1]
                if layer in SKIPPED:
                    continue
                name = f"{layer}.{attr}"
                self._patch(mod, attr, self.wrap(name, obj, observers.get(name)))
        for attr in FIELD_ARRAY_METHODS:
            name = f"field.{attr}"
            self._patch(field_table, attr,
                        self.wrap(name, getattr(field_table, attr), observers.get(name)))

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self, start: int = 0):
        """Per span name [calls, inclusive seconds, self seconds], per layer
        self seconds, and the seconds of top-level spans, over spans[start:],
        which must hold whole subtrees."""
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= start:
                child[parent - start] += t1 - t0
        by_name: dict[str, list] = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        top = 0.0
        for (name, parent, t0, t1), below in zip(spans, child):
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - below
            self_s[name.split(".")[0]] += t1 - t0 - below
            if parent < start:
                top += t1 - t0
        return by_name, self_s, top

    def dump(self) -> dict:
        """Every span (index, parent, name, start, end; seconds from the
        first span) with per-name and per-layer totals."""
        by_name, self_s, top = self.totals()
        origin = self.spans[0][2] if self.spans else 0.0
        return {
            "by_name": {name: {"calls": c, "total_s": t, "self_s": s}
                        for name, (c, t, s) in sorted(by_name.items())},
            "self_s": self_s,
            "top_level_s": top,
            "spans": [[i, parent, name, t0 - origin, t1 - origin]
                      for i, (name, parent, t0, t1) in enumerate(self.spans)],
        }
