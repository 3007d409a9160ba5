"""In-memory span recorder that wraps the program's layer boundaries.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces
each layer function at the name its caller resolves -- a module attribute,
a name imported into another module, or a class attribute -- with a wrapper
that records a span, and ``Tracer.uninstall`` puts the originals back.  The
benchmark installs the wrappers only around the requests it traces, so an
untraced request runs the program's own code.

A span is ``(id, name, start, end, parent, request, attrs)``.  The split
kernels run hundreds of thousands of times per build, so they are tallied
(calls, seconds, rows scanned, rows-per-call histogram) instead of being
recorded as spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ctivalidator import evaluation, features, ingest, orchestrator
from ctivalidator.learners import _kernels, training


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class KernelTally:
    calls: int = 0
    seconds: float = 0.0
    rows: int = 0
    rows_per_call: Counter = field(default_factory=Counter)


class Tracer:
    """Span stack for one single-threaded client."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.request: int | None = None
        self.kernels = {"split_class": KernelTally(), "split_reg": KernelTally()}
        self._patches: list[tuple[object, str, object]] = []
        self._depth = 0

    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                    self.request, attrs or {})
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def ancestors(self, span: Span):
        parent = span.parent
        while parent is not None:
            node = self.spans[parent]
            yield node
            parent = node.parent

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request": s.request, "attrs": s.attrs,
                }, sort_keys=True, default=str) + "\n")
            for name, tally in self.kernels.items():
                handle.write(json.dumps({
                    "kernel": name, "calls": tally.calls, "seconds": tally.seconds,
                    "rows": tally.rows,
                    "rows_per_call": {str(k): v for k, v in
                                      sorted(tally.rows_per_call.items())},
                }, sort_keys=True) + "\n")

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name, before(args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, tally: KernelTally, fn):
        def wrapper(values, *args):
            started = time.perf_counter()
            result = fn(values, *args)
            tally.seconds += time.perf_counter() - started
            n = int(values.shape[0])
            tally.calls += 1
            tally.rows += n
            tally.rows_per_call[n] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer boundary.  Calls nest: only the outermost
        install patches and only its matching uninstall restores."""
        self._depth += 1
        if self._depth > 1:
            return
        wrap = self._wrap
        family_arg = lambda a, k: {"family": a[0]}  # noqa: E731
        # ingest: module attributes, called as ingest.<name> by the benchmark
        # and by the orchestrator (select_columns).
        for attr in ("parse_csv_feed", "map_feed_records", "normalize",
                     "save_dataset", "load_dataset"):
            self._patch(ingest, attr, wrap(f"ingest.{attr}", getattr(ingest, attr)))
        self._patch(ingest, "select_columns", wrap(
            "ingest.select_columns", ingest.select_columns,
            after=lambda s, r: s.attrs.update(rows=r.n_rows)))
        # features: training calls features.fit_transform; the orchestrator
        # and fit_transform itself call features.transform.
        self._patch(features, "fit_transform", wrap(
            "features.fit_transform", features.fit_transform,
            before=lambda a, k: {"scheme": k.get("scheme")},
            after=_matrix_attrs))
        self._patch(features, "transform", wrap(
            "features.transform", features.transform,
            after=lambda s, r: s.attrs.update(rows=r.rows, width=r.columns)))
        # learners: module globals of learners.training, and the two names
        # the orchestrator imported from it.
        for attr in ("tune", "train"):
            self._patch(training, attr, wrap(f"learners.{attr}",
                                             getattr(training, attr),
                                             before=family_arg))
        self._patch(training, "split", wrap("learners.split", training.split))
        self._patch(training, "predict", wrap(
            "learners.predict", training.predict,
            before=lambda a, k: {"rows": int(a[1].shape[0])}))
        self._patch(orchestrator, "build_candidates", wrap(
            "learners.build_candidates", orchestrator.build_candidates,
            after=lambda s, r: s.attrs.update(
                attempted=len(r.candidates) + len(r.failures),
                failed=len(r.failures))))
        self._patch(orchestrator, "select_optimal", wrap(
            "learners.select_optimal", orchestrator.select_optimal,
            after=lambda s, r: s.attrs.update(family=r.family, scheme=r.scheme)))
        # kernels: read as _kernels.<name> by learners.algorithms.
        self._patch(_kernels, "best_split_classification", self._kernel(
            self.kernels["split_class"], _kernels.best_split_classification))
        self._patch(_kernels, "best_split_regression", self._kernel(
            self.kernels["split_reg"], _kernels.best_split_regression))
        self._patch(evaluation, "evaluate", wrap(
            "evaluation.evaluate", evaluation.evaluate,
            before=lambda a, k: {"family": getattr(a[0], "family", "")}))
        # orchestrator: registry methods and the model loader it calls.
        registry = orchestrator.ModelRegistry
        self._patch(registry, "lookup", wrap(
            "orchestrator.registry.lookup", registry.lookup,
            after=lambda s, r: s.attrs.update(hit=r is not None)))
        self._patch(registry, "register", wrap(
            "orchestrator.registry.register", registry.register))
        model_cls = training.TrainedModel
        load = model_cls.load.__func__
        self._patch(model_cls, "load", classmethod(
            wrap("orchestrator.model_load", load)))

    def uninstall(self) -> None:
        self._depth -= 1
        if self._depth > 0:
            return
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _matrix_attrs(span: Span, result) -> None:
    matrix, _spec = result
    values = matrix.values
    span.attrs.update(rows=matrix.rows, width=matrix.columns,
                      cells=int(values.size),
                      zeros=int(values.size - np.count_nonzero(values)))
