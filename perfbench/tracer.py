"""Span recorder that traces fpplab from outside the package.

The package carries no instrumentation of its own, so the traced run wraps
public functions and methods at run time: each call through a wrapped name
records one span (layer name, section, duration, self time, tag). Calls
made inside the package reach the wrappers too, because the package looks
these names up on its modules and classes at call time. Spans live in
memory and are summarised when the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    section: str
    tag: str | None
    dur: float  # seconds
    self_dur: float  # seconds not covered by child spans
    value: float | None = None  # optional measurement taken from the result


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.section = ""
        self._stack: list[list[float]] = []  # child seconds per open span
        self._saved: list[tuple] = []

    def wrap(self, owner, attr, name, tag=None, value=None):
        """Replace owner.attr by a recording wrapper.

        `tag(args, result)` labels the span (for example by box size) and
        `value(args, result)` stores one number taken from the call.
        Classmethods are unwrapped and rewrapped so `cls` still binds.
        """
        raw = owner.__dict__[attr]
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._stack.append([0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                children = tracer._stack.pop()[0]
                if tracer._stack:
                    tracer._stack[-1][0] += dur
            tracer.spans.append(
                Span(
                    name,
                    tracer.section,
                    tag(args, result) if tag else None,
                    dur,
                    dur - children,
                    value(args, result) if value else None,
                )
            )
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._saved.append((owner, attr, raw))

    def unwrap_all(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def select(self, name, section=None, tag=None) -> list[Span]:
        return [
            s
            for s in self.spans
            if s.name == name
            and (section is None or s.section == section)
            and (tag is None or s.tag == tag)
        ]
