"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  It wraps the public entry points of
each layer in place — the function or method object on its defining
module or class *and* every module-level alias that imported it by value
(``from ..paging.belady import min_service_time`` binds a second name that
patching the defining module alone would miss).  Each wrapper records a
span: name, start, end and the id of the enclosing span on the same
thread.  Spans stay in memory; :meth:`Recorder.dump` writes them out once.

Self time of a span is its duration minus the time its direct children
cover.  Same-thread children nest strictly inside their parent, so self
times are never negative up to clock resolution.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, qualified attribute) for every wrapped entry point.
#: Attributes with a dot are methods patched on their own class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("paging.kernel.get", "repro.paging.kernel", "get_kernel"),
    ("paging.kernel.precompute", "repro.paging.kernel", "SequenceKernel.__init__"),
    ("paging.kernel.probe", "repro.paging.kernel", "SequenceKernel.box"),
    ("paging.kernel.run_box_fast", "repro.paging.kernel", "run_box_fast"),
    ("paging.kernel.stream_append", "repro.paging.kernel", "StreamKernel.append"),
    ("paging.kernel.stream_probe", "repro.paging.kernel", "StreamKernel.box"),
    ("paging.kernel.compact", "repro.paging.kernel", "StreamKernel.compact"),
    ("paging.belady.min", "repro.paging.belady", "min_service_time"),
    ("parallel.opt.lower_bound", "repro.parallel.opt", "makespan_lower_bound"),
    ("parallel.opt.lower_bound", "repro.parallel.opt", "mean_completion_lower_bound"),
    ("green.offline.dp", "repro.green.offline", "optimal_box_profile"),
    ("green.online.rand_green", "repro.core.rand_green", "RandGreen.run"),
    ("green.online.det_green", "repro.core.det_green", "DetGreen.run"),
    ("core.det_par.run", "repro.core.det_par", "DetPar.run"),
    ("core.rand_par.run", "repro.core.rand_par", "RandPar.run"),
    ("core.black_box.run", "repro.core.black_box", "BlackBoxPar.run"),
    ("parallel.streaming.feed_serve", "repro.parallel.streaming", "BoxFeed.serve"),
    ("parallel.timestep.glru", "repro.parallel.timestep", "GlobalLRU.run"),
    ("traces.store.read", "repro.traces.store", "TraceStore.iter_chunks"),
    ("traces.store.write", "repro.traces.store", "write_store"),
    ("exec.cache.load", "repro.exec.cache", "ResultCache.load"),
    ("exec.cache.store", "repro.exec.cache", "ResultCache.store"),
    ("exec.engine", "repro.exec.engine", "ExecutionEngine.run"),
    ("analysis.harness.run_experiment", "repro.analysis.harness", "run_experiment"),
    ("service.execute", "repro.client.session", "execute_request"),
)

#: Spans that only bracket other layers: their self time is the wrapper
#: code between named layers, reported but never counted as attribution.
ROOT_SPANS = ("op", "service.execute")


class Recorder:
    """In-memory span store with per-thread nesting and running tallies."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.min_self_s = float("inf")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> List[Any]:
        """Start a span; returns the frame :meth:`close` takes."""
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1][1] if stack else None
        frame = [name, span_id, parent, 0.0, time.perf_counter()]
        stack.append(frame)
        return frame

    def close(self, frame: List[Any]) -> float:
        """End a span; returns its duration."""
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, span_id, parent, child_s, start = frame
        dur = end - start
        own = dur - child_s
        if stack:
            stack[-1][3] += dur
        with self._lock:
            self.spans.append((span_id, parent, name, start, end))
            self.self_s[name] += own
            self.calls[name] += 1
            self.min_self_s = min(self.min_self_s, own)
        return dur

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def span(self, name: str):
        return _SpanContext(self, name)

    def timed(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``fn`` as one ``op`` root span; returns its result and duration."""
        with self.span("op") as span:
            out = fn()
        return out, span.duration

    def dump(self, path: Path) -> None:
        """Write every span once, as JSON lines of (id, parent, name, start, end)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> Dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "min_self_s": self.min_self_s,
        }


class _SpanContext:
    __slots__ = ("rec", "name", "frame", "duration")

    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.frame = self.rec.open(self.name)
        return self

    def __exit__(self, *exc: object) -> None:
        self.duration = self.rec.close(self.frame)


# --------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------- #
def _plain(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(frame)

    return wrapper


def _rows_of(arg: Any) -> int:
    try:
        return len(arg)
    except TypeError:
        return 0


def _with_rows(rec: Recorder, name: str, fn: Callable, index: int) -> Callable:
    """Span plus ``<name>.rows`` = length of positional argument ``index``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name + ".rows", _rows_of(args[index]) if len(args) > index else 0)
        frame = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(frame)

    return wrapper


def _get_kernel(rec: Recorder, name: str, fn: Callable) -> Callable:
    """``get_kernel``: a call is a reuse when no precompute ran inside it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = rec.calls["paging.kernel.precompute"]
        frame = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(frame)
            if rec.calls["paging.kernel.precompute"] == before:
                rec.count(name + ".reused")

    return wrapper


def _cache_load(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(frame)
        if result[0]:
            rec.count(name + ".hits")
        return result

    return wrapper


def _cache_store(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, key, value):
        frame = rec.open(name)
        try:
            return fn(self, key, value)
        finally:
            rec.close(frame)
            try:
                rec.count(name + ".bytes", self._path(key).stat().st_size)
            except OSError:
                pass

    return wrapper


def _chunk_reader(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Generator entry point: one span per chunk handed to the consumer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        chunks = fn(*args, **kwargs)
        while True:
            frame = rec.open(name)
            try:
                chunk = next(chunks)
            except StopIteration:
                rec.close(frame)
                return
            rec.close(frame)
            rec.count(name + ".chunks")
            rec.count(name + ".bytes", chunk.nbytes)
            yield chunk

    return wrapper


_ROW_ARG = {  # positional index of the sequence whose length is "rows"
    "paging.kernel.precompute": 1,
    "paging.belady.min": 0,
    "green.offline.dp": 0,
}
_SPECIAL = {
    "paging.kernel.get": _get_kernel,
    "exec.cache.load": _cache_load,
    "exec.cache.store": _cache_store,
    "traces.store.read": _chunk_reader,
}


def _make_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    if name in _SPECIAL:
        return _SPECIAL[name](rec, name, fn)
    if name in _ROW_ARG:
        return _with_rows(rec, name, fn, _ROW_ARG[name])
    return _plain(rec, name, fn)


# --------------------------------------------------------------------- #
# installation
# --------------------------------------------------------------------- #
def _resolve(module: str, attr: str) -> Tuple[Any, str, Callable]:
    owner: Any = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, owner.__dict__[leaf] if path else getattr(owner, leaf)


def _repro_modules() -> List[Any]:
    return [m for n, m in list(sys.modules.items()) if m is not None and n.split(".")[0] == "repro"]


class Installed:
    """Handle on an installed wrapping; :meth:`remove` restores every patch."""

    def __init__(self) -> None:
        self.patches: List[Tuple[Any, str, Any]] = []
        self.originals: List[Tuple[str, Callable]] = []

    def remove(self) -> None:
        for owner, attr, old in reversed(self.patches):
            setattr(owner, attr, old)
        self.patches.clear()

    def leftovers(self) -> List[str]:
        """Module or class attributes still bound to an unwrapped original."""
        found = []
        originals = {id(fn): name for name, fn in self.originals}
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if id(value) in originals:
                    found.append(f"{mod.__name__}.{key}")
                if isinstance(value, type):
                    for attr, member in list(vars(value).items()):
                        if id(member) in originals:
                            found.append(f"{mod.__name__}.{key}.{attr}")
        return found


def install(rec: Recorder) -> Installed:
    """Wrap every entry point in :data:`TARGETS` and all by-value aliases."""
    handle = Installed()
    for name, module, attr in TARGETS:
        owner, leaf, orig = _resolve(module, attr)
        wrapper = _make_wrapper(rec, name, orig)
        handle.originals.append((name, orig))
        handle.patches.append((owner, leaf, orig))
        setattr(owner, leaf, wrapper)
        if "." in attr:
            continue
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    handle.patches.append((mod, key, value))
                    setattr(mod, key, wrapper)
    return handle


def import_program() -> None:
    """Import every module a target lives in, so aliases exist before patching."""
    for _, module, _ in TARGETS:
        importlib.import_module(module)
    for extra in ("repro", "repro.experiments", "repro.parallel", "repro.service.backend"):
        importlib.import_module(extra)
