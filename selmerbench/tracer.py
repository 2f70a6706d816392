"""Outside-in tracer: spans and counts around selmerlab's public functions.

The tracer changes no selmerlab source.  ``install`` replaces each
target function by a wrapper in every ``selmerlab`` module namespace
that holds the same object (``fans`` reaches ``simulate_walks`` through
its own globals, the package re-exports most names, and so on), and
``restore`` puts the originals back.  Wrappers return exactly what the
original returns, so results are identical with tracing on and off.

Span targets record (name, start, end, parent span, op id); count-only
targets just count calls, for functions called so often per op that a
span would cost more than the call.  Spans are kept in memory and
written out once, by ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Quantities read from a traced call: name -> f(bound arguments, result).
_QUANTITIES = {
    "twists.synth_prime_stream": {"sites": lambda a, r: len(r)},
    "fans.sample_levels": {"levels": lambda a, r: len(r)},
    "twists.simulate_walks": {"walk_steps": lambda a, r: a["walks"] * len(a["widths"])},
}

SPAN_TARGETS = (
    "cli.main",
    "lagrangian.c_constants",
    "lagrangian.build_lagrangian",
    "disparity.average_rank",
    "disparity.limit_distribution",
    "distributions.power",
    "distributions.apply",
    "twists.synth_prime_stream",
    "twists.simulate_walks",
    "twists.exact_step_kernel",
    "fans.sample_levels",
    "fans.fan_distribution",
    "fans.fan_collapse_residual",
    "fans.step_average_gap",
)
COUNT_TARGETS = ("fans.level_membership", "twists.t_distribution")


def _selmerlab_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "selmerlab" or name.startswith("selmerlab."))
    ]


class Tracer:
    SETUP = -1  # op id of spans recorded while the workload sets up

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, op]
        self.counts: dict[int, Counter] = defaultdict(Counter)  # op id -> counts
        self.op = self.SETUP
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- binding ---------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = _selmerlab_modules()
        for target in SPAN_TARGETS + COUNT_TARGETS:
            module_name, func_name = target.split(".")
            original = getattr(sys.modules.get(f"selmerlab.{module_name}"), func_name, None)
            if original is None:  # gone from this version; its metrics read 0
                continue
            if target in COUNT_TARGETS:
                wrapper = self._counting(target, original)
            else:
                wrapper = self._spanning(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._saved.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _counting(self, target, fn):
        key = f"{target}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[self.op][key] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanning(self, target, fn):
        if target not in self.names:
            self.names.append(target)
        name_index = self.names.index(target)
        quantities = _QUANTITIES.get(target)
        signature = inspect.signature(fn) if quantities else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name_index, 0.0, 0.0, parent, self.op]
            self.spans.append(span)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                self._stack.pop()
            if quantities:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = self.counts[span[4]]
                for quantity, read in quantities.items():
                    counts[f"{target}.{quantity}"] += read(bound.arguments, result)
            return result

        return traced

    # -- reading ---------------------------------------------------------
    def totals(self, ops) -> dict[str, float]:
        """Per-function ``calls``, ``self_s`` and ``total_s``, plus the
        counts, summed over spans whose op id is in ``ops``.

        A span's self time is its duration minus the durations of its
        direct children; calls are single-threaded, so children never
        overlap.
        """
        ops = set(ops)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            target = self.names[name]
            out[f"{target}.calls"] += 1
            out[f"{target}.total_s"] += end - start
            out[f"{target}.self_s"] += end - start - child_time[index]
        for op, counts in self.counts.items():
            if op in ops:
                out.update(counts)
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": self.names,
                    "span_fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": {str(op): dict(c) for op, c in self.counts.items()},
                },
                handle,
            )
