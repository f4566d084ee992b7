"""Committed baseline of accepted repro-lint findings.

The whole-program passes (RL010–RL014) can surface pre-existing findings
whose fix is out of scope, plus the occasional false positive from the
call-graph heuristics.  Those are *pinned* in a committed baseline file
so CI stays green on them while any **new** finding still fails the
gate.  Each entry carries a one-line justification — a baseline without
reasons rots into a mute button.

Fingerprints are ``sha256(rule | path | message)`` truncated to 16 hex
chars, with a ``#n`` suffix disambiguating identical findings in the
same file.  Line numbers are deliberately excluded (and the dataflow
messages never embed them), so a fingerprint survives unrelated edits
that shift code around; moving the offending code to another file or
changing what it does invalidates the pin, which is the point.

File format (JSON, sorted keys, trailing newline)::

    {
      "format": "repro-lint-baseline/v1",
      "entries": {
        "<fingerprint>": {
          "rule": "RL014",
          "path": "src/repro/...",
          "message": "...",
          "justification": "why this is accepted"
        }
      }
    }

``python -m tools.repro_lint --update-baseline`` rewrites the file from
the current findings, preserving existing justifications.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from tools.repro_lint.engine import Violation

__all__ = [
    "Baseline",
    "BaselineError",
    "fingerprint_violations",
    "is_baselineable",
]

_FORMAT = "repro-lint-baseline/v1"

#: (rule, path-prefix) pairs that may never be pinned.  RL014 findings
#: under the engine's own packages are hard failures: process-global
#: mutable state there leaks between runs sharing one process and
#: breaks the determinism contract, so there is no legitimate
#: "accepted for now" — the state must move onto the engine/cluster
#: instance.  ``--update-baseline`` refuses to pin these too.
UNBASELINEABLE: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("RL014", ("src/repro/sim/", "src/repro/cluster/")),
)


def is_baselineable(rule: str, relpath: str) -> bool:
    """Whether a finding may be waived through the committed baseline."""
    posix = relpath.replace("\\", "/")
    for blocked_rule, prefixes in UNBASELINEABLE:
        if rule == blocked_rule and posix.startswith(prefixes):
            return False
    return True


class BaselineError(ValueError):
    """The baseline file exists but cannot be parsed."""


def _raw_fingerprint(rule: str, relpath: str, message: str) -> str:
    digest = hashlib.sha256(
        "\0".join((rule, relpath, message)).encode("utf-8")
    ).hexdigest()
    return digest[:16]


def fingerprint_violations(violations: Sequence["Violation"]) -> list[str]:
    """One fingerprint per violation, positionally aligned.  Duplicate
    (rule, path, message) triples get ``#2``, ``#3``… suffixes in
    (line, col) order so every finding pins independently."""
    counts: dict[str, int] = {}
    out: list[str] = []
    for v in violations:
        base = _raw_fingerprint(v.rule, v.relpath, v.message)
        n = counts.get(base, 0) + 1
        counts[base] = n
        out.append(base if n == 1 else f"{base}#{n}")
    return out


@dataclass
class Baseline:
    path: Path | None = None
    entries: dict[str, dict] = field(default_factory=dict)

    @staticmethod
    def load(path: Path | None) -> "Baseline":
        """Baseline at ``path`` (empty when ``path`` is None or absent)."""
        if path is None or not Path(path).is_file():
            return Baseline(path=Path(path) if path else None)
        try:
            data = json.loads(Path(path).read_text())
            if data.get("format") != _FORMAT:
                raise ValueError(f"unrecognized format {data.get('format')!r}")
            entries = data["entries"]
            if not isinstance(entries, dict):
                raise ValueError("'entries' must be an object")
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise BaselineError(f"{path}: invalid baseline file: {exc}") from exc
        return Baseline(path=Path(path), entries=entries)

    def partition(
        self, violations: Sequence["Violation"]
    ) -> tuple[list["Violation"], list["Violation"], list[str]]:
        """Split into (new, baselined, stale_fingerprints).

        ``stale`` fingerprints are entries no current finding matches —
        the pinned code was fixed or moved, and the pin should be
        deleted (``--update-baseline`` does).  Findings on the
        :data:`UNBASELINEABLE` list are *always* new: a matching pin
        (hand-edited into the file) is ignored rather than honoured."""
        fps = fingerprint_violations(violations)
        new: list["Violation"] = []
        baselined: list["Violation"] = []
        hit: set[str] = set()
        for v, fp in zip(violations, fps):
            if fp in self.entries and is_baselineable(v.rule, v.relpath):
                baselined.append(v)
                hit.add(fp)
            else:
                new.append(v)
        stale = sorted(set(self.entries) - hit)
        return new, baselined, stale

    def updated(self, violations: Sequence["Violation"]) -> "Baseline":
        """A baseline pinning exactly the current findings, carrying over
        justifications for fingerprints that already had one.  Findings
        on the :data:`UNBASELINEABLE` list are never pinned — they stay
        hard failures no matter how the baseline is regenerated."""
        entries: dict[str, dict] = {}
        for v, fp in zip(violations, fingerprint_violations(violations)):
            if not is_baselineable(v.rule, v.relpath):
                continue
            old = self.entries.get(fp, {})
            entries[fp] = {
                "rule": v.rule,
                "path": v.relpath,
                "message": v.message,
                "justification": old.get(
                    "justification", "TODO: justify this pin or fix the finding"
                ),
            }
        return Baseline(path=self.path, entries=entries)

    def write(self, path: Path) -> None:
        payload = {"format": _FORMAT, "entries": self.entries}
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
