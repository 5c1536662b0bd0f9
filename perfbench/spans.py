"""Spans around the calls the CLI makes into each layer.

Only the traced run installs these wrappers.  They replace public names
where their callers look them up (``noisytime.cli.run_ensemble``,
``noisytime.propagator.LambdaKernel``, ...), so nothing under ``src/`` is
changed.  Spans are kept in memory; ``Tracer.dump`` writes them when the run
ends.  A layer's self time is its spans' duration minus the part covered by
their child spans.

``verify`` reaches the damping kernel through ``noisytime.propagator``, so
its kernel evaluations count in ``noise.lambda_kernel`` too; its other calls
bypass the patched names and count only in ``verify.run_suite``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import uuid
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

# (module, attribute, span name).  A missing attribute is skipped, so the
# benchmark keeps running when a layer is renamed or removed.
TARGETS = (
    ("noisytime.cli", "load_config", "config.load"),
    ("noisytime.config", "eigendecompose", "operators.eigendecompose"),
    ("noisytime.cli", "averaged_trajectory", "propagator.averaged_trajectory"),
    ("noisytime.propagator", "LambdaKernel", "noise.lambda_kernel"),
    ("noisytime.cli", "LambdaKernel", "noise.lambda_kernel"),
    ("noisytime.cli", "integrate", "generator.integrate"),
    ("noisytime.cli", "cp_report", "generator.cp_report"),
    ("noisytime.cli", "run_ensemble", "montecarlo.run_ensemble"),
    ("noisytime.cli", "compare_to_analytic", "montecarlo.compare"),
    ("noisytime.cli", "moment_report", "noise.moment_report"),
    ("noisytime.cli", "run_suite", "verify.run_suite"),
)
# Methods patched on a class, for callers that reach them through instances.
METHOD_TARGETS = (("noisytime.results", "EvolutionResult", "metrics_table", "results.metrics_table"),)
# LambdaKernel methods that evaluate the kernel.
KERNEL_METHODS = ("lambda_matrix", "eta_matrix")


@dataclass(frozen=True)
class Span:
    run_id: str
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Call:
    """Arguments and result of one traced call, for counts computed afterwards."""

    args: tuple
    kwargs: dict
    result: object


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self.calls: dict[str, list[Call]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(self.run_id, span_id, parent, name, start, end))

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.calls[name].append(Call(args, kwargs, result))
            return result

        return traced

    def wrap_class(self, cls, name: str):
        namespace = {
            method: self.wrap(getattr(cls, method), name)
            for method in KERNEL_METHODS
            if hasattr(cls, method)
        }
        return type(f"Traced{cls.__name__}", (cls,), namespace)

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        undo = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            traced = self.wrap_class(original, name) if isinstance(original, type) else self.wrap(original, name)
            setattr(module, attr, traced)
            undo.append((module, attr, original))
        for module_name, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                continue
            setattr(cls, attr, self.wrap(original, name))
            undo.append((cls, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the union of child intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            covered, reach = 0.0, s.start
            for start, end in sorted(children[s.id]):
                start, end = max(start, reach), min(end, s.end)
                if end > start:
                    covered += end - start
                    reach = end
            out[s.name] += s.duration - covered
        return dict(out)

    def dump(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = sorted((asdict(s) for s in self.spans), key=lambda s: s["id"])
        path.write_text(json.dumps({"run_id": self.run_id, "spans": spans}) + "\n")
