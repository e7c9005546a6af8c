"""Span tracing from outside the program.

The benchmark times calls into each layer's public functions by replacing
the attribute a caller looks the function up through (a class method, or a
module-level name imported by a caller) with a wrapper that opens a span
on the program's own :class:`repro.telemetry.spans.Tracer`, and restoring
the original afterwards.  The tracer keeps the finished spans in memory,
each with the id of the span that was open when it started (its parent);
the benchmark writes them out when the run ends.

A layer's *self time* is its span's duration minus its child spans'
durations.  Calls happen on one thread, so children never overlap and
the self times of a span tree add up to the root span's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.spans import SpanRecord, Tracer


class Patches:
    """Attribute replacements that can all be undone.

    ``replace`` records what the owner held *itself* (not what it
    inherited), so :meth:`restore` puts a class back exactly: an override
    is reinstated, an inherited attribute is deleted again.
    """

    _MISSING = object()

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        own = vars(owner).get(attr, self._MISSING)
        self._saved.append((owner, attr, own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def defining_class(cls: type, attr: str) -> type:
    """The class in ``cls``'s MRO whose own namespace defines ``attr``.

    Wrapping a method where it is defined (not on a subclass that
    inherits it) keeps identity checks such as
    ``type(obj).method is Base.method`` true while traced.
    """
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


def wrap(
    tracer: Tracer,
    patches: Patches,
    owner: Any,
    attr: str,
    name: str,
    attrs: Optional[Callable[..., Dict[str, Any]]] = None,
) -> None:
    """Replace ``owner.attr`` with a wrapper recording a ``name`` span.

    ``attrs(*args, **kwargs)``, when given, computes span attributes from
    the call's arguments.  ``patches.restore()`` puts the original back.
    """
    target = inspect.getattr_static(owner, attr)
    if not callable(target):
        raise TypeError(f"cannot wrap {attr!r}: only plain functions are supported")

    @functools.wraps(target)
    def wrapper(*args, **kwargs):
        with tracer.span(name, **(attrs(*args, **kwargs) if attrs else {})):
            return target(*args, **kwargs)

    patches.replace(owner, attr, wrapper)


def subtree(spans: Sequence[SpanRecord], root: SpanRecord) -> List[SpanRecord]:
    """``root`` and every span below it, in the order they started."""
    keep = {root.span_id}
    out = [root]
    for span in sorted(spans, key=lambda s: s.span_id):
        if span.parent_id in keep:
            keep.add(span.span_id)
            out.append(span)
    return out


def write_spans(spans: Sequence[SpanRecord], path: Path) -> None:
    """Write spans as JSON (one object with a ``spans`` list)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"spans": [span.to_event() for span in spans]}, handle)


def self_times(spans: Sequence[SpanRecord]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's."""
    out = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent_id in out:
            out[span.parent_id] -= span.duration
    return out


@dataclass
class LayerSummary:
    """Per-name totals over a set of spans."""

    self_seconds: float = 0.0
    durations: List[float] = field(default_factory=list)

    @property
    def calls(self) -> int:
        return len(self.durations)


def summarize(spans: Sequence[SpanRecord]) -> Dict[str, LayerSummary]:
    """Self time and per-call durations grouped by span name."""
    selfs = self_times(spans)
    out: Dict[str, LayerSummary] = {}
    for span in sorted(spans, key=lambda s: s.span_id):
        row = out.setdefault(span.name, LayerSummary())
        row.self_seconds += selfs[span.span_id]
        row.durations.append(span.duration)
    return out
