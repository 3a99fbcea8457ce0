"""Span tracing of the package from outside, by rebinding its functions.

`Tracer.install()` wraps every public module-level function of the
traced modules and rebinds it everywhere the package holds it by name
(`verification` and `blockform`, for instance, import kernels with
`from .x import f`).  `Matrix.__matmul__` gets a span too and
`Matrix.__init__` and the per-entry `as_scalar` get a bare call counter,
since a span per entry would cost more than the work.  `uninstall()` puts every
original binding back; nothing in the package's files changes.

Spans live in memory as [function id, start, end, parent index] and are
reduced per job by `summarize()`.  A layer's self time is the duration
of its spans minus the part covered by their direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "signconj"
LAYERS = ("cli", "verification", "blockform", "decomposition", "orbit", "group", "invariants", "core")

# Matrix methods that get a span (name -> method) or only a call count.
MATRIX_SPANS = {"matmul": "__matmul__"}
MATRIX_COUNTERS = {"matrix_init": "__init__"}
# Public functions that get only a call count.
COUNTED_FUNCTIONS = {"core.as_scalar"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "layer.function" per function id
        self.spans: list[list] = []
        self._stack = [-1]
        self.counters: dict[str, list[int]] = {}
        self._patched: list[tuple[object, str, object]] = []
        # orbit.orbit_size results, for the distinct-conjugate count
        self.orbit_distinct = 0

    # -- installation -------------------------------------------------

    def _span_wrapper(self, fid: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [fid, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _orbit_size_wrapper(self, fid: int, fn):
        inner = self._span_wrapper(fid, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report = inner(*args, **kwargs)
            self.orbit_distinct += len(getattr(report, "enumerated", None) or ())
            return report

        return wrapper

    def _counter_wrapper(self, name: str, fn):
        cell = self.counters.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _new_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _rebind(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrappers: dict[int, object] = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNTED_FUNCTIONS:
                    wrappers[id(fn)] = self._counter_wrapper(name, fn)
                    continue
                fid = self._new_id(name)
                if name == "orbit.orbit_size":
                    wrappers[id(fn)] = self._orbit_size_wrapper(fid, fn)
                else:
                    wrappers[id(fn)] = self._span_wrapper(fid, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._rebind(mod, attr, wrappers[id(value)])
        matrix = modules[f"{PACKAGE}.core"].Matrix
        for short, method in MATRIX_SPANS.items():
            fid = self._new_id(f"core.{short}")
            self._rebind(matrix, method, self._span_wrapper(fid, vars(matrix)[method]))
        for short, method in MATRIX_COUNTERS.items():
            self._rebind(matrix, method, self._counter_wrapper(f"core.{short}", vars(matrix)[method]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- per-job reduction --------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        del self._stack[1:]
        for cell in self.counters.values():
            cell[0] = 0
        self.orbit_distinct = 0

    def summarize(self, job_seconds: float) -> dict[str, float]:
        """Reduce the spans of one job to named numbers.

        `<layer>.<function>.calls` and `.s` (inclusive, outermost
        activation only), `<layer>.calls`, `<layer>.self_s`, the counters,
        `orbit.conjugates_built` (sign_conjugate spans under an orbit
        span) and `trace.gap_s`, the job time no span covers.
        """
        spans, names = self.spans, self.names
        if len(self._stack) != 1:
            raise RuntimeError("a traced span never ended")
        layer_of = [name.split(".", 1)[0] for name in names]
        child = [0.0] * len(spans)
        in_orbit = [False] * len(spans)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for name in names:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
        for idx, (fid, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_orbit[idx] = in_orbit[parent]
            if layer_of[fid] == "orbit":
                in_orbit[idx] = True
        built = 0
        root = 0.0
        sign_conjugate = names.index("core.sign_conjugate") if "core.sign_conjugate" in names else -1
        for idx, (fid, start, end, parent) in enumerate(spans):
            name, layer = names[fid], layer_of[fid]
            out[f"{name}.calls"] += 1
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += (end - start) - child[idx]
            if not _has_ancestor(spans, parent, fid):
                out[f"{name}.s"] += end - start
            if fid == sign_conjugate and in_orbit[idx]:
                built += 1
            if parent < 0:
                root += end - start
        for name, cell in self.counters.items():
            out[f"{name}.calls"] = cell[0]
        out["orbit.conjugates_built"] = built
        out["orbit.distinct"] = self.orbit_distinct
        out["trace.gap_s"] = job_seconds - root
        out["trace.job_s"] = job_seconds
        accounted = sum(out[f"{layer}.self_s"] for layer in LAYERS) + out["trace.gap_s"]
        if abs(accounted - job_seconds) > 1e-6 * max(job_seconds, 1.0):
            raise RuntimeError(
                f"layer self times plus gap ({accounted}) do not account for the job ({job_seconds})"
            )
        return out


def _has_ancestor(spans, parent: int, fid: int) -> bool:
    while parent >= 0:
        if spans[parent][0] == fid:
            return True
        parent = spans[parent][3]
    return False
