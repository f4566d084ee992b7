"""`TraceIngestSource` — real traces as a session arrival source.

Wraps any :class:`~repro.workload.google_trace.TraceJobSpec` iterator —
typically :func:`~repro.workload.ingest.normalize.normalize_stream`
over a raw trace file — as a pull-based
:class:`~repro.workload.arrivals.ArrivalSource`, so real cluster
traffic flows through ``run``, ``serve``, checkpoints and replay on the
exact same path as every other workload.  Materialization is one spec
at a time, so the source adds one spec to the normalizer's working set:
open jobs, the reorder window, specs waiting for an earlier job to
close, one read chunk, and the keys of up to 100K closed jobs at about
80 bytes a key (see :mod:`.normalize`).

Checkpoint semantics mirror :class:`~repro.workload.arrivals.JsonlSource`:
pickling detaches the live iterator and keeps only the consumed count,
the ordering watermark and the (terminal) exhaustion flag;
:meth:`attach` re-binds a fresh spec stream
(``skip_consumed=True`` fast-forwards a stream restarted from the
beginning of the same file).  Because ingestion is deterministic, a
re-ingested file yields byte-identical specs, so the revived session
continues bit-exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from repro.workload.google_trace import TraceJobSpec, job_from_spec
from repro.workload.arrivals import ArrivalSource
from repro.workload.job import Job

__all__ = ["TraceIngestSource"]


class TraceIngestSource(ArrivalSource):
    """Pull arrivals out of a (lazily ingested) trace-spec stream."""

    eager = False

    def __init__(self, specs: Iterable[TraceJobSpec]) -> None:
        self._specs: Iterator[TraceJobSpec] | None = iter(specs)
        self._exhausted = False
        self._consumed = 0
        self._last_arrival = float("-inf")

    @classmethod
    def from_file(
        cls, path: str | Path, schema: str, **normalize_kwargs
    ) -> "TraceIngestSource":
        """Open ``path`` under ``schema`` and stream it through
        :func:`~repro.workload.ingest.normalize.normalize_stream`."""
        from repro.workload.ingest.normalize import normalize_stream
        from repro.workload.ingest.readers import open_reader

        return cls(normalize_stream(open_reader(path, schema), **normalize_kwargs))

    def take(self) -> Job | None:
        if self._exhausted:
            return None
        if self._specs is None:
            raise RuntimeError(
                "TraceIngestSource is detached (restored from checkpoint); "
                "call attach(specs) before resuming the session"
            )
        try:
            spec = next(self._specs)
        except StopIteration:
            self._exhausted = True
            return None
        if spec.job_id is None:
            # Stream-ordinal id: stable across restore legs, unlike the
            # process-global job counter.
            spec = type(spec)(
                name=spec.name,
                arrival_time=spec.arrival_time,
                phases=spec.phases,
                job_id=self._consumed,
            )
        if spec.arrival_time < self._last_arrival:
            raise ValueError(
                f"job {spec.job_id}: arrival {spec.arrival_time:g} out of "
                f"order (previous arrival {self._last_arrival:g})"
            )
        self._last_arrival = spec.arrival_time
        self._consumed += 1
        return job_from_spec(spec)

    def attach(
        self, specs: Iterable[TraceJobSpec], *, skip_consumed: bool = True
    ) -> None:
        """Re-bind a spec stream after a checkpoint restore.

        Exhaustion is terminal: a checkpoint cut *after* end-of-stream
        revives with ``exhausted`` already True, and attach keeps it
        that way.  Clearing the flag here (the historical behaviour)
        made ``workload_active()`` count the source as pending work
        forever, so the fault-renewal chain never wound down and the
        restored leg drained clear to ``max_time`` instead of stopping
        where the original run stopped.
        """
        it = iter(specs)
        if skip_consumed:
            for seen in range(self._consumed):
                if next(it, None) is None:
                    raise ValueError(
                        f"stream ended after {seen} specs while fast-forwarding "
                        f"past {self._consumed} already-consumed jobs"
                    )
        self._specs = it

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def consumed(self) -> int:
        return self._consumed

    def __getstate__(self):
        return {
            "_specs": None,
            "_exhausted": self._exhausted,
            "_consumed": self._consumed,
            "_last_arrival": self._last_arrival,
        }
