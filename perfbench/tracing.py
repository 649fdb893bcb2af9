"""Per-layer tracing of the rghw package, installed from outside.

A Tracer rebinds the module attributes (and TableOps methods) that rghw's
own callers look up, wrapping each with a timer, and restores every one of
them on exit.  Nothing under src/ knows it is being traced.

Two kinds of record are kept in memory:

* stats: per (name, parent name) the call count, inclusive seconds and
  self seconds (inclusive minus the time covered by wrapped children);
* spans: (name, start, end, parent span, run id) for the coarse layers
  only.  The hot leaves (linalg, enumeration steps, field lookups, Gauss
  sums) run hundreds of thousands of times per pass, so they are
  aggregated into stats instead of being kept one by one.

Pool workers run untraced: the executor wrapper passes an initializer that
restores the original attributes inside each worker.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

# Names recorded as individual spans; everything else is aggregated only.
SPAN_NAMES = frozenset({
    "cli.main",
    "verify.run_suites",
    "weights.compute_report",
    "weights.bruteforce",
    "weights.dual_count",
    "weights.ghw_bruteforce",
    "weights.pool",
    "codes.build_code",
    "closed_forms.evaluate",
})

# Route spans whose enumeration feeds the admissibility filter.
SCAN_ROUTES = ("weights.bruteforce", "weights.dual_count", "weights.ghw_bruteforce")

# (module, attribute, wrapper name) for every public function the benchmark
# times; each is rebound in every rghw module that holds the same object.
FUNCTION_TARGETS = (
    ("rghw.gf", "build_field", "gf.build_field"),
    ("rghw.codes", "build_code", "codes.build_code"),
    ("rghw.weights", "compute_report", "weights.compute_report"),
    ("rghw.weights", "rghw_bruteforce", "weights.bruteforce"),
    ("rghw.weights", "mj_dual_count", "weights.dual_count"),
    ("rghw.weights", "ghw_bruteforce", "weights.ghw_bruteforce"),
    ("rghw.weights", "subspace_support_size", "weights.support_size"),
    ("rghw.closed_forms", "evaluate_closed_form", "closed_forms.evaluate"),
    ("rghw.charsum", "nj_via_charsum", "charsum.nj_via_charsum"),
    ("rghw.charsum", "gauss_sum", "charsum.gauss_sum"),
    ("rghw.verify", "run_suites", "verify.run_suites"),
    ("rghw.cli", "main", "cli.main"),
)

LINALG_METHODS = ("rref", "matmul", "rows_in_rowspace")

# Patches of the tracer currently installed in this process.  Module level
# so that a forked pool worker can undo them without anything pickled.
_ACTIVE_PATCHES: list = []


def _untrace_worker() -> None:
    """Pool initializer: run the worker on the original, untraced code."""
    for owner, key, original, _ in reversed(_ACTIVE_PATCHES):
        _set(owner, key, original)
    _ACTIVE_PATCHES.clear()


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _rghw_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rghw" or name.startswith("rghw."))]


class Tracer:
    """Context manager: install wrappers on enter, restore them on exit."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        # frame: [name, child seconds, span id]
        self.stack: list[list] = [["root", 0.0, None]]
        self.stats: dict[tuple[str, str], list] = {}
        self.spans: list = []
        self.run_id = 0  # counts top-level calls into rghw
        self.patches: list = []  # (owner, key, original, wrapper)

    # -- recording -------------------------------------------------------

    def _add(self, name: str, parent: str, calls: int, total: float,
             self_time: float) -> None:
        entry = self.stats.get((name, parent))
        if entry is None:
            entry = self.stats[(name, parent)] = [0, 0.0, 0.0]
        entry[0] += calls
        entry[1] += total
        entry[2] += self_time

    def _enter(self, name: str) -> tuple[list, list, float]:
        parent = self.stack[-1]
        if len(self.stack) == 1:  # each top-level call into rghw is one run
            self.run_id += 1
        span_id = parent[2]
        if name in SPAN_NAMES:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, span_id]
        self.stack.append(frame)
        return parent, frame, self.clock()

    def _exit(self, parent: list, frame: list, t0: float) -> None:
        t1 = self.clock()
        dur = t1 - t0
        self.stack.pop()
        parent[1] += dur
        self._add(frame[0], parent[0], 1, dur, dur - frame[1])
        if frame[0] in SPAN_NAMES:
            self.spans[frame[2]] = (frame[0], t0 - self.origin, t1 - self.origin,
                                    parent[2], self.run_id)

    def timed(self, name: str, fn):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, frame, t0 = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(parent, frame, t0)
        return wrapper

    def timed_generator(self, name: str, fn):
        """Time each step of a generator; the consumer's work is not counted."""
        clock, stack, add = self.clock, self.stack, self._add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    dur = clock() - t0
                    parent[1] += dur
                    add(name, parent[0], 0, dur, dur)
                    return
                dur = clock() - t0
                parent[1] += dur
                add(name, parent[0], 1, dur, dur)
                yield item
        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                kwargs.setdefault("initializer", _untrace_worker)
                super().__init__(*args, **kwargs)
                tracer._add("weights.pools", tracer.stack[-1][0], 1, 0.0, 0.0)
                self._trace = tracer._enter("weights.pool")

            def map(self, fn, *iterables, **kwargs):
                tasks = list(iterables[0])
                tracer._add("weights.tasks", tracer.stack[-1][0], len(tasks), 0.0, 0.0)
                return super().map(fn, tasks, *iterables[1:], **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    trace, self._trace = self._trace, None
                    if trace is not None and tracer.stack[-1] is trace[1]:
                        tracer._exit(*trace)

        return TracedPool

    # -- installation ----------------------------------------------------

    def _patch(self, owner, key, wrapper) -> None:
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        record = (owner, key, original, wrapper)
        self.patches.append(record)
        _ACTIVE_PATCHES.append(record)
        _set(owner, key, wrapper)

    def _patch_everywhere(self, original, wrapper) -> None:
        for module in _rghw_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def __enter__(self) -> "Tracer":
        import rghw.charsum  # noqa: F401  (every layer must be loaded to patch it)
        import rghw.cli  # noqa: F401
        import rghw.verify as verify
        from rghw.linalg import TableOps
        from rghw.subspaces import enumerate_subspaces

        if _ACTIVE_PATCHES:
            raise RuntimeError("another tracer is already installed")
        try:
            for module_name, attr, name in FUNCTION_TARGETS:
                original = getattr(sys.modules[module_name], attr)
                self._patch_everywhere(original, self.timed(name, original))
            self._patch_everywhere(
                enumerate_subspaces,
                self.timed_generator("subspaces.enumerate", enumerate_subspaces),
            )
            for method in LINALG_METHODS:
                self._patch(TableOps, method,
                            self.timed(f"linalg.{method}", getattr(TableOps, method)))
            self._patch_everywhere(ProcessPoolExecutor, self._pool_class())
            for suite, fn in list(verify.SUITES.items()):
                wrapper = self.timed(f"verify.{suite}", fn)
                self._patch_everywhere(fn, wrapper)
                self._patch(verify.SUITES, suite, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for owner, key, original, _ in reversed(self.patches):
            _set(owner, key, original)
        self.patches.clear()
        _ACTIVE_PATCHES.clear()

    # -- results ---------------------------------------------------------

    def calls(self, name: str, parents=None) -> int:
        return sum(v[0] for (n, p), v in self.stats.items()
                   if n == name and (parents is None or p in parents))

    def seconds(self, name: str) -> float:
        return sum(v[1] for (n, _), v in self.stats.items() if n == name)

    def self_seconds(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.stats.items() if n == name)

    def dump(self, path, meta: dict) -> None:
        """Write the spans and the aggregated stats as one JSON document."""
        document = {
            "meta": meta,
            "span_fields": ["name", "start_s", "end_s", "parent", "run"],
            "spans": self.spans,
            "stat_fields": ["name", "parent", "calls", "total_s", "self_s"],
            "stats": [[n, p, *v] for (n, p), v in sorted(self.stats.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
