"""In-memory spans for the benchmark: name, start, end, parent id, counters.

Spans are recorded around calls into the program's layers from outside
the program, kept in memory, and written out as JSON when a run ends.
Times come from time.perf_counter, which on Linux is CLOCK_MONOTONIC and
so comparable between the benchmark and the CLI processes it starts.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Callable, Iterator


class Tracer:
    """Collects nested spans; the innermost open span is the parent of a new one."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counters: float) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counters": dict(counters),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Merge spans recorded by another process under one of ours."""
        offset = len(self.spans)
        for span in spans:
            self.spans.append(
                dict(
                    span,
                    id=span["id"] + offset,
                    parent=parent if span["parent"] is None else span["parent"] + offset,
                )
            )

    def children(self, parent: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == parent]

    def total(self, name: str, counter: str | None = None) -> float:
        """Summed duration (or summed counter) over every span of that name."""
        chosen = [s for s in self.spans if s["name"] == name]
        if counter is None:
            return sum(s["end"] - s["start"] for s in chosen)
        return sum(s["counters"].get(counter, 0) for s in chosen)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


def wrap(
    tracer: Tracer,
    owner: object,
    attr: str,
    name: str,
    count: Callable[[tuple, object], dict] | None = None,
) -> None:
    """Replace owner.attr by a wrapper that records each call as a span.

    count(args, result) returns counters to attach to the span; it runs
    inside the span, so keep it cheap.
    """
    inner = getattr(owner, attr)

    @functools.wraps(inner)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = inner(*args, **kwargs)
            if count is not None:
                span["counters"].update(count(args, result))
        return result

    setattr(owner, attr, traced)


def accumulate(tracer: Tracer, owner: object, attr: str, counter: str) -> None:
    """Replace owner.attr by a wrapper that adds each call's duration to a
    counter of the innermost open span.

    For calls too many and too short to record as a span each: the noise
    draws inside a release or an error simulation.
    """
    inner = getattr(owner, attr)

    @functools.wraps(inner)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            if tracer._open:
                counters = tracer.spans[tracer._open[-1]]["counters"]
                counters[counter] = counters.get(counter, 0.0) + time.perf_counter() - start

    setattr(owner, attr, timed)
