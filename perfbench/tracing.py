"""In-memory span tracer for the benchmark's traced run.

Layer functions are wrapped by patching every ``convgate`` module attribute
that binds them, so a call made through any import path opens a span. A span
records its name, start, end and parent; self time is the span's duration
minus the part of it that its child spans cover.

This module imports only the standard library at load time, so the worker can
time ``import convgate`` from a clean interpreter.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}


class Tracer:
    """Records spans around wrapped functions and explicit ``span`` blocks.

    ``keep`` names the wrapped functions whose first argument and return
    value stay attached to their span (as ``attrs["arg"]``/``attrs["result"]``)
    for analysis after the run.
    """

    def __init__(self, keep=()):
        self.spans: list[Span] = []
        self.keep = frozenset(keep)
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        keep = name in self.keep

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if keep:
                span.attrs["arg"] = args[0] if args else next(iter(kwargs.values()), None)
                span.attrs["result"] = result
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets, package: str = "convgate"):
        """Patch each ``"module.attr"`` target (relative to ``package``) in
        every loaded module of the package that binds the same object.

        Yields the list of targets that no longer exist; they are skipped.
        Every patched attribute is restored on exit.
        """
        patched, absent = [], []
        try:
            for target in targets:
                mod_name, attr = target.rsplit(".", 1)
                try:
                    module = importlib.import_module(f"{package}.{mod_name}")
                except ImportError:
                    absent.append(target)
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    absent.append(target)
                    continue
                wrapper = self.wrap(target, original)
                for loaded in _package_modules(package):
                    names = [k for k, v in vars(loaded).items() if v is original]
                    for key in names:
                        setattr(loaded, key, wrapper)
                        patched.append((loaded, key, original))
            yield absent
        finally:
            for loaded, key, original in reversed(patched):
                setattr(loaded, key, original)

    def write_jsonl(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for s in self.spans:
                record = {"id": s.id, "name": s.name, "parent": s.parent,
                          "start_s": s.start, "end_s": s.end, "self_s": selfs[s.id]}
                record.update({k: v for k, v in s.attrs.items()
                               if isinstance(v, (bool, int, float, str))})
                fh.write(json.dumps(record) + "\n")


def _package_modules(package: str):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]
