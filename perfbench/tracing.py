"""Spans recorded from outside the package, by timing wrappers installed at
the module attributes that callers look up.

A span is a name, a start, an end and the span that caused it. Spans stay
in memory and are turned into per-layer metrics when the traced pass ends.
Work that a thread pool runs on behalf of a span (``--workers 2``) is
attributed to the span the harness thread has open.
"""

from __future__ import annotations

import functools
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import jointpo.cli
import jointpo.inference
import jointpo.principal
import jointpo.simulate
import jointpo.transition
from jointpo.data import MultiTrialDataset


class Span:
    """One timed call; ``info`` holds what its extractor read from the result."""

    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bootstrap_info(args, kwargs, result):
    # Kept replicates plus failed ones is the B the call was asked for.
    replicates = len(result.replicates) + result.n_failed
    return {"replicates": replicates, "n_failed": result.n_failed}


def _solve_info(args, kwargs, result):
    return {"forced": bool(result.forced), "out_of_range": bool(result.out_of_range)}


def _study_info(args, kwargs, result):
    resamples = result.replicates * result.bootstrap_replicates
    return {"resamples": resamples, "n_failed": result.n_failed}


def _bytes_info(args, kwargs, result):
    return {"bytes": len(result)}


_PIPELINES = (
    jointpo.simulate.BinaryTransitionPipeline,
    jointpo.simulate.CompositeTransitionPipeline,
    jointpo.simulate.PrincipalFourStepPipeline,
)

#: (owner, attribute, span name, info extractor). ``transition.check_rank``
#: is the lookup ``solve_transitions`` makes, so per-replicate rank checks
#: are timed as well as the CLI's own.
TARGETS = (
    [
        (jointpo.cli, name, name, None)
        for name in (
            "parse_dataset",
            "summarize",
            "build_system",
            "check_rank",
            "joint_from_transitions",
            "derived_estimands",
            "overid_test",
            "method1_estimate",
            "method4_estimate",
            "monotone_variant_estimate",
            "principal_scores",
            "replicates_to_csv",
        )
    ]
    + [
        (jointpo.cli, "solve_transitions", "solve_transitions", _solve_info),
        (jointpo.cli, "bootstrap", "bootstrap", _bootstrap_info),
        (jointpo.cli, "run_study", "run_study", _study_info),
        (jointpo.cli, "canonical_json", "canonical_json", _bytes_info),
        (jointpo.inference, "resample_dataset", "resample_dataset", None),
        (jointpo.inference, "replicate_rng", "replicate_rng", None),
        (jointpo.principal, "build_system", "build_system", None),
        (jointpo.principal, "solve_transitions", "solve_transitions", _solve_info),
        (jointpo.principal, "principal_scores", "principal_scores", None),
        (jointpo.transition, "check_rank", "check_rank", None),
        (MultiTrialDataset, "with_counts", "with_counts", None),
    ]
    + [(cls, "point", "pipeline_point", None) for cls in _PIPELINES]
    + [(cls, "bootstrap", "pipeline_bootstrap", None) for cls in _PIPELINES]
)


class Tracer:
    """Collects spans; :meth:`installed` patches the targets for a block."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread: its work belongs to the harness thread's span.
            parent = self._home[-1] if self._home else None
        span = Span(name, parent)
        stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, info=None):
        span = self._open(name)
        span.info = info
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, extract=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extract is not None:
                span.info = extract(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, extract in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, extract))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[id(s)] = s.duration - covered
    return out


def has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def dump(spans: list[Span], path: Path) -> None:
    """Write spans as JSON rows ``[name, parent row, start, end, info]``,
    with times in seconds from the first span's start."""
    row = {id(s): i for i, s in enumerate(spans)}
    origin = min((s.start for s in spans), default=0.0)
    rows = [
        [s.name, row.get(id(s.parent)), s.start - origin, s.end - origin, s.info]
        for s in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"spans": rows}), encoding="utf-8")
