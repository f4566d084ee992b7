"""Chunked streaming readers for the three supported trace schemas.

Each reader turns one raw trace file into an iterator of uniform
:class:`TraceRow` records without ever holding more than one buffered
chunk of lines in memory.  The three schemas:

* **google2011** — the 2011 Google cluster trace ``task_events`` tables:
  gzipped CSV, 13 columns, timestamps in microseconds, integer event
  codes, CPU/memory requests normalized to the largest machine
  (fractions in [0, 1]).
* **google2019** — the 2019 Google (Borg) trace instance-event export:
  newline-delimited JSON objects with ``time``/``collection_id``/
  ``instance_index``/``type``/``resource_request`` fields; event types
  are either enum strings or the BigQuery integer codes.
* **alibaba2018** — the Alibaba 2018 ``batch_task`` table: plain CSV,
  one row per task *group* (a phase of ``instance_num`` identical
  instances), DAG encoded in the task name (``M1``, ``R2_1``,
  ``J3_1_2`` — trailing ``_k`` parts name parent phases), plan_cpu in
  units of 1/100 core, plan_mem normalized.

Readers are intentionally dumb: they validate row *shape* (column
count, numeric fields, known event codes) and convert units to seconds,
but all cross-row semantics — timestamp ordering, duplicate detection,
capacity limits, job assembly — live in :mod:`.normalize`, which is
shared across schemas.  Malformed rows raise
:class:`~repro.workload.ingest.errors.TraceFormatError` with the file
path and 1-based line number; nothing is ever silently dropped.
"""

from __future__ import annotations

import gzip
import io
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Protocol, runtime_checkable

from repro.workload.ingest.errors import TraceFormatError

__all__ = [
    "TraceRow",
    "TraceReader",
    "Google2011Reader",
    "Google2019Reader",
    "Alibaba2018Reader",
    "open_reader",
    "READER_SCHEMAS",
]

#: Text read per chunk, in bytes (counted as decoded characters, which
#: is the same for the ASCII traces): the only per-file working set a
#: reader owns.  The text layer reads the file 8 KiB at a time whatever
#: this is, so it sets only how many lines sit in memory.  A pass over
#: the 1M-row google2011 fixture took as long at 32 KiB as at 1 MiB;
#: 200K rows into it, the lines held traced 0.24 MB at 64 KiB and
#: 2.33 MB at 1 MiB.
CHUNK_BYTES = 64 * 1024

_MICROS = 1e-6  # Google timestamps are microseconds since trace epoch


@dataclass(frozen=True)
class TraceRow:
    """One normalized-shape row, schema differences reduced to fields.

    Google rows are *task events* (``kind="event"``): a lifecycle event
    of one task.  Alibaba rows are *task groups* (``kind="group"``): an
    entire phase of ``instances`` identical tasks with an observed
    [start, end) interval.  ``cpu``/``mem`` stay in raw schema units;
    :mod:`.normalize` applies the deterministic demand scaling.
    """

    time: float  # seconds since the trace epoch
    job: str  # trace job key (job ID / collection_id / job_name)
    line: int  # 1-based line number in the source file
    kind: str  # "event" | "group"
    # -- task-event fields (Google) --
    task: int | None = None
    event: str | None = None  # "submit" | "schedule" | "finish" | "dead" | "other"
    cpu: float | None = None
    mem: float | None = None
    # -- task-group fields (Alibaba) --
    phase: str | None = None
    parents: tuple[int, ...] = ()
    instances: int | None = None
    end: float | None = None  # group end time (seconds); None when unknown


@runtime_checkable
class TraceReader(Protocol):
    """Common protocol: a named schema over a lazily-streamed row iterator."""

    schema: str
    path: Path

    def rows(self) -> Iterator[TraceRow]:
        """Yield rows in file order, raising TraceFormatError on bad input."""
        ...


def _open_lines(path: Path, schema: str) -> Iterator[tuple[int, str]]:
    """Stream ``(line_no, line)`` pairs, transparently gunzipping.

    Reads whole lines in chunks of about :data:`CHUNK_BYTES` and drops
    each chunk before reading the next, so memory stays one chunk deep.
    A gzip member truncated or damaged mid-stream (EOFError /
    BadGzipFile / zlib.error mid-iteration) becomes a TraceFormatError
    naming the last complete line.  Undecodable bytes surface a whole
    chunk early, so that error path re-scans the file to name the
    offending line.
    """
    raw: io.TextIOBase
    if path.suffix == ".gz":
        raw = io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    else:
        raw = open(path, "r", encoding="utf-8")
    line_no = 0
    try:
        with raw:
            while True:
                try:
                    chunk = raw.readlines(CHUNK_BYTES)
                except (EOFError, gzip.BadGzipFile, OSError, zlib.error) as exc:
                    raise TraceFormatError(
                        f"truncated or corrupt stream after line {line_no}: {exc}",
                        path=path,
                        schema=schema,
                    ) from exc
                if not chunk:
                    return
                for line in chunk:
                    line_no += 1
                    yield line_no, line
                del chunk, line
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"undecodable bytes: {exc}",
            path=path,
            line=_undecodable_line(path),
            schema=schema,
        ) from exc


def _undecodable_line(path: Path) -> int | None:
    """1-based line of the first non-UTF-8 line of ``path``, numbered as
    the text reader numbers them (universal newlines: ``\\r\\n``, ``\\r``
    and ``\\n`` each end a line), or None when a damaged gzip stream
    hides it."""
    opener = gzip.open if path.suffix == ".gz" else open
    line_no = 0
    try:
        with opener(path, "rb") as fh:
            for raw in fh:
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    return line_no + _line_ends(raw[: exc.start]) + 1
                line_no += _line_ends(raw)
    except (EOFError, gzip.BadGzipFile, OSError, zlib.error):
        pass
    return None


def _line_ends(data: bytes) -> int:
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def _float_field(
    value: str, what: str, *, path: Path, line: int, schema: str
) -> float | None:
    if value == "":
        return None
    try:
        return float(value)
    except ValueError:
        raise TraceFormatError(
            f"non-numeric {what} {value!r}", path=path, line=line, schema=schema
        ) from None


# ----------------------------------------------------------------------
# google2011 — task_events CSV (gzipped)
# ----------------------------------------------------------------------
#: Event-code → lifecycle bucket (Reiss et al. schema v2).  SUBMIT opens
#: a task, SCHEDULE starts its service interval, FINISH ends it
#: successfully, EVICT/FAIL/KILL/LOST end it without success, the
#: UPDATE_* codes change pending/running attributes and carry no
#: lifecycle meaning here.
_G2011_EVENTS: Mapping[int, str] = MappingProxyType({
    0: "submit",
    1: "schedule",
    2: "dead",  # EVICT
    3: "dead",  # FAIL
    4: "finish",
    5: "dead",  # KILL
    6: "dead",  # LOST
    7: "other",  # UPDATE_PENDING
    8: "other",  # UPDATE_RUNNING
})

_G2011_COLUMNS = 13


class Google2011Reader:
    """Google 2011 ``task_events`` part files (``*.csv.gz`` or plain csv)."""

    schema = "google2011"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def rows(self) -> Iterator[TraceRow]:
        for line_no, line in _open_lines(self.path, self.schema):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split(",")
            if len(cols) != _G2011_COLUMNS:
                raise TraceFormatError(
                    f"expected {_G2011_COLUMNS} columns, got {len(cols)}",
                    path=self.path,
                    line=line_no,
                    schema=self.schema,
                )
            time_us = _float_field(
                cols[0], "timestamp", path=self.path, line=line_no, schema=self.schema
            )
            if time_us is None:
                raise TraceFormatError(
                    "missing timestamp", path=self.path, line=line_no, schema=self.schema
                )
            try:
                task_index = int(cols[3])
                event_code = int(cols[5])
            except ValueError:
                raise TraceFormatError(
                    f"non-integer task index / event type {cols[3]!r}/{cols[5]!r}",
                    path=self.path,
                    line=line_no,
                    schema=self.schema,
                ) from None
            event = _G2011_EVENTS.get(event_code)
            if event is None:
                raise TraceFormatError(
                    f"unknown event type {event_code}",
                    path=self.path,
                    line=line_no,
                    schema=self.schema,
                )
            yield TraceRow(
                time=time_us * _MICROS,
                job=cols[2],
                line=line_no,
                kind="event",
                task=task_index,
                event=event,
                cpu=_float_field(
                    cols[9], "cpu request", path=self.path, line=line_no,
                    schema=self.schema,
                ),
                mem=_float_field(
                    cols[10], "memory request", path=self.path, line=line_no,
                    schema=self.schema,
                ),
            )


# ----------------------------------------------------------------------
# google2019 — instance-event newline-JSON
# ----------------------------------------------------------------------
#: The 2019 trace's enum names (BigQuery integer codes index this tuple).
_G2019_TYPES: tuple[str, ...] = (
    "SUBMIT",
    "QUEUE",
    "ENABLE",
    "SCHEDULE",
    "EVICT",
    "FAIL",
    "FINISH",
    "KILL",
    "LOST",
    "UPDATE_PENDING",
    "UPDATE_RUNNING",
)

_G2019_BUCKET: Mapping[str, str] = MappingProxyType({
    "SUBMIT": "submit",
    "QUEUE": "other",
    "ENABLE": "other",
    "SCHEDULE": "schedule",
    "EVICT": "dead",
    "FAIL": "dead",
    "FINISH": "finish",
    "KILL": "dead",
    "LOST": "dead",
    "UPDATE_PENDING": "other",
    "UPDATE_RUNNING": "other",
})


class Google2019Reader:
    """Google 2019 (Borg) instance events as newline-delimited JSON."""

    schema = "google2019"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def _event_name(self, raw: object, line_no: int) -> str:
        if isinstance(raw, bool):  # bool is an int subclass; reject explicitly
            raw = None
        if isinstance(raw, int):
            if 0 <= raw < len(_G2019_TYPES):
                return _G2019_TYPES[raw]
            raise TraceFormatError(
                f"unknown event type {raw}",
                path=self.path, line=line_no, schema=self.schema,
            )
        if isinstance(raw, str) and raw.upper() in _G2019_BUCKET:
            return raw.upper()
        raise TraceFormatError(
            f"unknown event type {raw!r}",
            path=self.path, line=line_no, schema=self.schema,
        )

    def rows(self) -> Iterator[TraceRow]:
        for line_no, line in _open_lines(self.path, self.schema):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"invalid JSON: {exc.msg}",
                    path=self.path, line=line_no, schema=self.schema,
                ) from None
            if not isinstance(obj, dict):
                raise TraceFormatError(
                    "row is not a JSON object",
                    path=self.path, line=line_no, schema=self.schema,
                )
            try:
                time_us = float(obj["time"])
                job = str(obj["collection_id"])
                task_index = int(obj["instance_index"])
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(
                    f"missing or malformed required field: {exc}",
                    path=self.path, line=line_no, schema=self.schema,
                ) from None
            name = self._event_name(obj.get("type"), line_no)
            request = obj.get("resource_request") or {}
            if not isinstance(request, dict):
                raise TraceFormatError(
                    "resource_request is not an object",
                    path=self.path, line=line_no, schema=self.schema,
                )
            cpu = request.get("cpus")
            mem = request.get("memory")
            yield TraceRow(
                time=time_us * _MICROS,
                job=job,
                line=line_no,
                kind="event",
                task=task_index,
                event=_G2019_BUCKET[name],
                cpu=float(cpu) if cpu is not None else None,
                mem=float(mem) if mem is not None else None,
            )


# ----------------------------------------------------------------------
# alibaba2018 — batch_task CSV
# ----------------------------------------------------------------------
_ALI_COLUMNS = 9


def _parse_dag_name(name: str) -> tuple[str, tuple[int, ...]]:
    """``"J3_1_2"`` → (``"3"``, parents ``(1, 2)``); non-DAG names pass
    through with no parents (the trace's ``task_XXXX`` independent tasks)."""
    head, _, rest = name.partition("_")
    digits = head.lstrip(
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    )
    if not digits.isdigit() or digits == head:
        return name, ()
    parents = []
    for part in rest.split("_") if rest else []:
        if not part.isdigit():
            return name, ()  # task_1234-style opaque name, not a DAG id
        parents.append(int(part))
    return digits, tuple(parents)


class Alibaba2018Reader:
    """Alibaba 2018 ``batch_task.csv`` (optionally gzipped).

    Columns: task_name, instance_num, job_name, task_type, status,
    start_time, end_time, plan_cpu, plan_mem.
    """

    schema = "alibaba2018"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def rows(self) -> Iterator[TraceRow]:
        for line_no, line in _open_lines(self.path, self.schema):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split(",")
            if len(cols) != _ALI_COLUMNS:
                raise TraceFormatError(
                    f"expected {_ALI_COLUMNS} columns, got {len(cols)}",
                    path=self.path, line=line_no, schema=self.schema,
                )
            task_name, inst, job_name = cols[0], cols[1], cols[2]
            try:
                instances = int(inst)
            except ValueError:
                raise TraceFormatError(
                    f"non-integer instance_num {inst!r}",
                    path=self.path, line=line_no, schema=self.schema,
                ) from None
            if instances < 1:
                raise TraceFormatError(
                    f"instance_num must be >= 1, got {instances}",
                    path=self.path, line=line_no, schema=self.schema,
                )
            start = _float_field(
                cols[5], "start_time", path=self.path, line=line_no, schema=self.schema
            )
            if start is None:
                raise TraceFormatError(
                    "missing start_time", path=self.path, line=line_no,
                    schema=self.schema,
                )
            end = _float_field(
                cols[6], "end_time", path=self.path, line=line_no, schema=self.schema
            )
            phase, parents = _parse_dag_name(task_name)
            yield TraceRow(
                time=start,
                job=job_name,
                line=line_no,
                kind="group",
                phase=phase,
                parents=parents,
                instances=instances,
                cpu=_float_field(
                    cols[7], "plan_cpu", path=self.path, line=line_no,
                    schema=self.schema,
                ),
                mem=_float_field(
                    cols[8], "plan_mem", path=self.path, line=line_no,
                    schema=self.schema,
                ),
                end=end if end is not None and end > start else None,
            )


#: schema name → reader class, the CLI/--schema registry.
# Frozen: shared module state must stay immutable (repro-lint RL014).
READER_SCHEMAS: Mapping[str, Callable[[str | Path], TraceReader]] = MappingProxyType({
    "google2011": Google2011Reader,
    "google2019": Google2019Reader,
    "alibaba2018": Alibaba2018Reader,
})


def open_reader(path: str | Path, schema: str) -> TraceReader:
    """Instantiate the reader for ``schema`` over ``path``."""
    try:
        factory = READER_SCHEMAS[schema]
    except KeyError:
        raise ValueError(
            f"unknown trace schema {schema!r}; choose from "
            f"{', '.join(sorted(READER_SCHEMAS))}"
        ) from None
    return factory(path)
