"""Timing wrappers that a traced run installs around the program's entry points.

The benchmark never edits the program.  For the duration of a
``with spans.installed():`` block it replaces a few module and class
attributes with wrappers that record wall-clock spans, and it puts the
original objects back on exit, even when the block raises.  Spans nest per
thread, so a layer's self time is its total minus the time of its direct
child spans (:meth:`Spans.child_seconds`).

Pool threads record too (``run_batch`` runs there).  A span on a pool thread
includes the time that thread waited for the interpreter lock and for BLAS
threads, so its sum can exceed the wall time it overlapped.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: (import path of the owner, attribute, span name).  Owners are imported
#: lazily so that importing this module does not import the program.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.serve.scheduler:AsyncGemmScheduler", "submit", "serve.submit"),
    ("repro.serve.scheduler:AsyncGemmScheduler", "drain", "serve.drain"),
    ("repro.serve.scheduler:AsyncGemmScheduler", "price_job", "serve.price_job"),
    (
        "repro.serve.scheduler:AsyncGemmScheduler",
        "placement_cost",
        "serve.placement_cost",
    ),
    ("repro.serve.scheduler", "compile_serve_report", "serve.compile_report"),
    ("repro.serve.scheduler", "run_batch", "engine.run_batch"),
    ("repro.serve.job:ConvJob", "finalize_result", "im2col.finalize"),
    ("repro.api:RunResult", "to_dict", "cli.result_to_dict"),
)

#: Estimate lookups, wrapped where their callers look them up: the
#: accelerator facades (serving admission, placement and trace deadlines)
#: and the engine module (the price sweep).  Each call is split into cold
#: (the estimate was computed) and warm (served from memory or disk).
PRICING_TARGETS: tuple[tuple[str, str], ...] = (
    ("repro.api", "cached_gemm_cycles"),
    ("repro.api", "cached_conv_cycles"),
    ("repro.engine.cache", "cached_gemm_cycles"),
    ("repro.engine.cache", "cached_conv_cycles"),
)


def resolve(path: str) -> Any:
    """The module or class named ``package.module[:Class]``."""
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Spans:
    """Per-name span totals, call counts and parent/child overlap."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.jobs: dict[str, int] = defaultdict(int)
        self._children: dict[tuple[str, str], float] = defaultdict(float)
        self.priced_cycles = 0

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, elapsed: float, parent: str | None, jobs: int) -> None:
        with self._lock:
            self.seconds[name] += elapsed
            self.calls[name] += 1
            self.jobs[name] += jobs
            if parent is not None:
                self._children[(parent, name)] += elapsed

    def child_seconds(self, parent: str, *children: str) -> float:
        """Time the named spans spent directly inside ``parent`` spans."""
        return sum(self._children.get((parent, child), 0.0) for child in children)

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """``func`` recording one ``name`` span per call."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(name)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                # run_batch(accelerator, jobs): count the jobs it executed.
                jobs = len(args[1]) if name == "engine.run_batch" else 0
                self._record(name, elapsed, parent, jobs)

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def wrap_pricing(self, func: Callable[..., Any]) -> Callable[..., Any]:
        """An estimate lookup, recorded as ``engine.price_cold`` or ``_warm``."""
        from repro.engine.cache import estimate_cache_info

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else None
            misses = estimate_cache_info().misses
            start = time.perf_counter()
            value = func(*args, **kwargs)
            elapsed = time.perf_counter() - start
            cold = estimate_cache_info().misses != misses
            self._record(
                "engine.price_cold" if cold else "engine.price_warm",
                elapsed,
                parent,
                0,
            )
            with self._lock:
                self.priced_cycles += int(value)
            return value

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Spans"]:
        """Install every wrapper; restore the original attributes on exit."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for path, attr, name in TARGETS:
                owner = resolve(path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            for path, attr in PRICING_TARGETS:
                owner = resolve(path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap_pricing(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def original_attributes() -> dict[tuple[str, str], Any]:
    """The objects every wrapper target currently holds (for restore checks)."""
    targets = [(path, attr) for path, attr, _ in TARGETS] + list(PRICING_TARGETS)
    return {(path, attr): vars(resolve(path))[attr] for path, attr in targets}
