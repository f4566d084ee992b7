"""Span-style tracing of scheduler decision points and engine events.

A :class:`Span` is one enter/exit interval: an engine event being
processed, a scheduler entry point running, a schedule pass.  Spans
nest (the tracer keeps an explicit stack), carry the **simulated** time
at enter and exit plus structured attributes, and are exported as JSONL
alongside the decision trace (DESIGN.md §5.3/§5.4).

**Determinism contract.**  The serialized fields ``seq``/``name``/
``depth``/``parent``/``t_enter``/``t_exit``/``attrs`` are pure
functions of the simulation's event sequence, so a seeded run exports
byte-identical span JSONL every time.  Each span *also* measures its
wall-clock duration (``wall_ms``, via ``perf_counter``) for profiling —
that field is host noise and is only written when ``include_wall=True``
is requested explicitly.

The tracer is bounded like the decision trace, but with the opposite
overflow policy: spans are diagnostics, not replay inputs, so past
``maxlen`` new spans are *counted and dropped* rather than raising —
a long run degrades to truncated tracing instead of failing.
"""

from __future__ import annotations

import json
import time as _wallclock
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

__all__ = ["Span", "SpanTracer", "SPAN_SCHEMA", "DEFAULT_SPAN_MAXLEN"]

#: JSONL schema tag written in the header line of an exported span trace.
SPAN_SCHEMA = "repro-span-trace/v1"

#: Default bound on recorded spans; overflow is counted in ``dropped``.
DEFAULT_SPAN_MAXLEN = 1_000_000

_AttrValue = "str | int | float | bool | None"


def _zero_clock() -> float:
    """Fallback clock for an unbound tracer (module-level so the tracer
    pickles; engines rebind their own closure after restore)."""
    return 0.0


@dataclass(slots=True)
class Span:
    """One enter/exit interval.  ``t_*`` are simulated seconds;
    ``wall_ms`` is host time and excluded from deterministic exports.

    Slotted, with no per-span ``__dict__``: a served session keeps every
    span it records, and checkpoints pickle them all.
    """

    seq: int
    name: str
    depth: int
    parent: int | None
    t_enter: float
    attrs: dict = field(default_factory=dict)
    t_exit: float | None = None
    wall_ms: float | None = None
    _wall_start: float | None = None

    def to_dict(self, *, include_wall: bool = False) -> dict:
        out = {
            "seq": self.seq,
            "name": self.name,
            "depth": self.depth,
            "parent": self.parent,
            "t_enter": self.t_enter,
            "t_exit": self.t_exit,
            "attrs": self.attrs,
        }
        if include_wall:
            out["wall_ms"] = self.wall_ms
        return out

    def __reduce__(self):
        # One argument tuple per span instead of a per-object state dict
        # (what a slotted class pickles through otherwise).  Every field
        # is a scalar or the attrs dict of scalars, so the tuple holds no
        # back-reference into the engine's object graph.
        return (
            Span,
            (
                self.seq,
                self.name,
                self.depth,
                self.parent,
                self.t_enter,
                self.attrs,
                self.t_exit,
                self.wall_ms,
                self._wall_start,
            ),
        )


class SpanTracer:
    """Nestable span recorder driven by an external (simulated) clock.

    ``clock`` supplies the simulated time stamped on enter/exit — the
    engine binds ``lambda: engine.now`` at attach time.  Misnested
    exits (closing a span that is not the innermost open one) raise
    immediately: silent misnesting would corrupt every later parent
    attribution.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        *,
        maxlen: int = DEFAULT_SPAN_MAXLEN,
    ) -> None:
        if maxlen < 1:
            raise ValueError("span maxlen must be positive")
        self.clock: Callable[[], float] = clock if clock is not None else _zero_clock
        self.maxlen = maxlen
        self.spans: list[Span] = []
        self.dropped = 0
        self._stack: list[Span] = []
        self._seq = 0

    # -- pickling (checkpoint/restore, DESIGN.md §5.8) ------------------
    def __getstate__(self):
        # The clock is a closure over the owning engine; drop it here and
        # let the engine's __setstate__ rebind it after restore (a
        # standalone restored tracer falls back to the zero clock).
        state = self.__dict__.copy()
        state["clock"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        if self.clock is None:
            self.clock = _zero_clock

    # -- recording ------------------------------------------------------
    def enter(self, name: str, **attrs) -> Span:
        span = Span(
            seq=self._seq,
            name=name,
            depth=len(self._stack),
            parent=self._stack[-1].seq if self._stack else None,
            t_enter=float(self.clock()),
            attrs=attrs,
            _wall_start=_wallclock.perf_counter(),
        )
        self._seq += 1
        self._stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            open_name = self._stack[-1].name if self._stack else "<none>"
            raise RuntimeError(
                f"misnested span exit: closing {span.name!r} while "
                f"{open_name!r} is the innermost open span"
            )
        self._stack.pop()
        span.t_exit = float(self.clock())
        assert span._wall_start is not None
        span.wall_ms = 1e3 * (_wallclock.perf_counter() - span._wall_start)
        span._wall_start = None
        if len(self.spans) < self.maxlen:
            self.spans.append(span)
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        s = self.enter(name, **attrs)
        try:
            yield s
        finally:
            self.exit(s)

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def __len__(self) -> int:
        return len(self.spans)

    # -- export ---------------------------------------------------------
    def to_dicts(self, *, include_wall: bool = False) -> list[dict]:
        # Spans are appended on *exit*, so re-sort by seq to present them
        # in enter order (parents before children).
        return [
            s.to_dict(include_wall=include_wall)
            for s in sorted(self.spans, key=lambda s: s.seq)
        ]

    def dump_jsonl(self, path: str | Path, *, include_wall: bool = False) -> None:
        """Header line (schema + span/drop counts) then one span per
        line, in enter order.  Deterministic unless ``include_wall``."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            header = {
                "schema": SPAN_SCHEMA,
                "spans": len(self.spans),
                "dropped": self.dropped,
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for d in self.to_dicts(include_wall=include_wall):
                fh.write(json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n")

    @staticmethod
    def load_jsonl(path: str | Path) -> tuple[dict, list[dict]]:
        """Parse an exported span trace back into (header, span dicts)."""
        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            header_line = fh.readline()
            if not header_line.strip():
                raise ValueError(f"{path}: empty span trace")
            header = json.loads(header_line)
            if header.get("schema") != SPAN_SCHEMA:
                raise ValueError(
                    f"{path}: unknown span schema {header.get('schema')!r} "
                    f"(expected {SPAN_SCHEMA!r})"
                )
            return header, [json.loads(line) for line in fh if line.strip()]
