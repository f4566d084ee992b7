"""The per-file repro-lint rule pack (RL001–RL008) and the rule catalog.

Each per-file rule is a module-level object with a ``rule_id``, a
one-line ``summary``, an ``applies_to(relpath)`` scope predicate, and a
``check(tree, ctx)`` method yielding :class:`Finding` tuples.  Rules are
deliberately syntactic: they encode *coding idioms* whose violation is
almost always a real bug in this repo, and anything intentional can be
waived with an inline ``# repro-lint: ignore[RLxxx]``.

The whole-program rules (RL010–RL014) live in
:mod:`tools.repro_lint.dataflow` — they need the import/call graph of
:mod:`tools.repro_lint.graph` rather than a single AST — and RL009 is
synthesized by the engine's ``--unused-ignores`` pass.  ``RULE_CATALOG``
below is the single source of truth for every rule id and summary
(``--list-rules``, the SARIF driver metadata, and the README table all
derive from it).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

__all__ = ["ALL_RULES", "RULE_CATALOG", "Finding", "FileContext"]


@dataclass(frozen=True)
class Finding:
    line: int
    col: int
    message: str


@dataclass(frozen=True)
class FileContext:
    """Per-file information shared by every rule."""

    relpath: str  # POSIX, relative to the lint root
    imports: dict[str, str]  # local name -> dotted module/object path


def build_import_map(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted paths they were imported as.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from numpy.random import default_rng`` →
    ``{"default_rng": "numpy.random.default_rng"}``.
    """
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                # `import a.b` binds `a`; `import a.b as c` binds c -> a.b
                imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never name stdlib/numpy
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def resolve_dotted(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Resolve ``np.random.rand`` → ``"numpy.random.rand"`` when the
    chain is rooted in an imported name; ``None`` otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = imports.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def _in_dirs(relpath: str, dirs: tuple[str, ...]) -> bool:
    return any(relpath.startswith(d) for d in dirs)


# ======================================================================
# RL001 — per-server state has exactly one owner
# ======================================================================

#: AvailabilityMirror's per-server state arrays, its class index and
#: class tables, and its brownout and resident-copy maps.  Nothing
#: outside the owner module may store into, delete from or call a
#: mutating method on them — every change flows through the mirror's
#: allocate/release/mark_down/mark_up/set_slowdown/clear_slowdown, and
#: availability is re-derived through ``update``.
_PROTECTED_ATTRS = frozenset(
    {
        "avail_cpu",
        "avail_mem",
        "alloc_cpu",
        "alloc_mem",
        "up",
        "class_of",
        "class_cpu",
        "class_mem",
        "class_slowdown",
        "brownout",
        "resident",
    }
)

_RL001_OWNERS = ("src/repro/cluster/mirror.py",)

#: Methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "fill",
    }
)


class _RL001:
    rule_id = "RL001"
    summary = "per-server state written outside cluster/mirror.py"

    def applies_to(self, relpath: str) -> bool:
        return relpath not in _RL001_OWNERS

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            targets: list[ast.expr] = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                # x.resident[i].append(...) / x.resident.pop(...)
                targets = [node.func.value]
            for target in targets:
                hit = self._protected_store(target)
                if hit is not None:
                    yield Finding(
                        target.lineno,
                        target.col_offset,
                        f"write to protected server state `{hit}` — only "
                        "AvailabilityMirror's allocate/release/mark_down/"
                        "mark_up/set_slowdown/clear_slowdown may mutate it",
                    )

    @staticmethod
    def _protected_store(target: ast.expr) -> str | None:
        # x.up = ... / x.resident = ...
        if isinstance(target, ast.Attribute) and target.attr in _PROTECTED_ATTRS:
            return target.attr
        # mirror.avail_cpu[i] = ... / del mirror.resident[i]
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr in _PROTECTED_ATTRS
        ):
            return f"{target.value.attr}[...]"
        # tuple/starred unpacking
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                hit = _RL001._protected_store(elt)
                if hit is not None:
                    return hit
        return None


# ======================================================================
# RL002 — randomness must be seeded and threaded as a Generator
# ======================================================================

#: numpy.random names that are fine to *call* (constructors of the
#: explicit-Generator API).  Everything else under numpy.random is the
#: legacy global-state API.
_NP_RANDOM_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: Constructors that are unseeded (hence irreproducible) when called
#: with no arguments at all.
_NP_SEEDED_CTORS = frozenset({"default_rng", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64"})


class _RL002:
    rule_id = "RL002"
    summary = "unseeded or legacy global randomness"

    def applies_to(self, relpath: str) -> bool:
        return True

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            path = resolve_dotted(node.func, ctx.imports)
            if path is None:
                continue
            if path.startswith("random."):
                yield Finding(
                    node.lineno,
                    node.col_offset,
                    f"stdlib `{path}` uses hidden global state — thread a "
                    "seeded numpy.random.Generator instead",
                )
            elif path.startswith("numpy.random."):
                fn = path.rsplit(".", 1)[1]
                if fn not in _NP_RANDOM_OK:
                    yield Finding(
                        node.lineno,
                        node.col_offset,
                        f"legacy `{path}` draws from numpy's global state — "
                        "use an explicit Generator parameter",
                    )
                elif fn in _NP_SEEDED_CTORS and not node.args and not node.keywords:
                    yield Finding(
                        node.lineno,
                        node.col_offset,
                        f"`{path}()` without a seed is irreproducible — pass "
                        "an explicit seed or accept a Generator parameter",
                    )


# ======================================================================
# RL003 — tolerance idiom for float comparisons in decision code
# ======================================================================

#: Identifier fragments that mark an expression as a resource/time
#: quantity.  Matched against the last attribute / variable name.
_FLOATY_NAME = re.compile(
    r"(time|cpu|mem|avail|alloc|capac|demand|theta|sigma|duration|flow"
    r"|remaining|length|volume|budget|deadline|slowdown|speedup|eps)",
    re.IGNORECASE,
)

_RL003_DIRS = ("src/repro/core/", "src/repro/schedulers/", "src/repro/cluster/")


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_infinity(node: ast.expr) -> bool:
    """`math.inf`, `np.inf`, `float("inf")`, or a negation thereof —
    exact comparison against infinity is well-defined and allowed."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_infinity(node.operand)
    if isinstance(node, ast.Attribute) and node.attr in ("inf", "infty"):
        return True
    if isinstance(node, ast.Name) and node.id in ("inf", "INF"):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return True
    return False


class _RL003:
    rule_id = "RL003"
    summary = "exact float comparison on resource/time quantities"

    def applies_to(self, relpath: str) -> bool:
        return _in_dirs(relpath, _RL003_DIRS)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Eq, ast.NotEq)) and self._suspicious(left, right):
                    yield Finding(
                        node.lineno,
                        node.col_offset,
                        "exact ==/!= on a resource/time float — compare with "
                        "the EPS tolerance idiom (abs(a - b) <= EPS) instead",
                    )
                left = right

    @staticmethod
    def _suspicious(a: ast.expr, b: ast.expr) -> bool:
        if _is_infinity(a) or _is_infinity(b):
            return False
        for lhs, rhs in ((a, b), (b, a)):
            # comparison against a float literal (0.0, 1.5, ...)
            if isinstance(lhs, ast.Constant) and type(lhs.value) is float:
                return True
        name_a, name_b = _terminal_name(a), _terminal_name(b)
        if name_a is None and name_b is None:
            return False
        # name-vs-name (or name-vs-subscripted-name) comparisons where a
        # side reads as a resource/time quantity
        for name in (name_a, name_b):
            if name is not None and _FLOATY_NAME.search(name):
                return True
        return False


# ======================================================================
# RL004 — simulated time only; no wall-clock in sim logic
# ======================================================================

#: Wall-clock reads.  `time.perf_counter`/`process_time` are *elapsed*
#: counters used to measure scheduling overhead (Fig. overhead benches)
#: and are allowed; absolute clock reads are not.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class _RL004:
    rule_id = "RL004"
    summary = "wall-clock read inside simulation logic"

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            path = resolve_dotted(node.func, ctx.imports)
            if path in _WALL_CLOCK:
                yield Finding(
                    node.lineno,
                    node.col_offset,
                    f"`{path}` reads the wall clock — simulation logic must "
                    "use the engine's virtual `now`",
                )


# ======================================================================
# RL005 — one canonical epsilon
# ======================================================================

_EPS_NAME = re.compile(r"^_?EPS(ILON)?_?\d*$")
_CANONICAL_EPS_HOME = "src/repro/resources.py"


class _RL005:
    rule_id = "RL005"
    summary = "epsilon literal redefined outside repro.resources"

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/") and relpath != _CANONICAL_EPS_HOME

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and type(node.value) is float
                and node.value == 1e-9
            ):
                yield Finding(
                    node.lineno,
                    node.col_offset,
                    "literal 1e-9 — import the canonical EPS from "
                    "repro.resources so the tolerance cannot drift",
                )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and _EPS_NAME.match(target.id)
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, (int, float))
                    ):
                        yield Finding(
                            node.lineno,
                            node.col_offset,
                            f"epsilon constant `{target.id}` redefined — import "
                            "EPS from repro.resources instead",
                        )


# ======================================================================
# RL006 — deterministic iteration in scheduling decision loops
# ======================================================================

_RL006_DIRS = ("src/repro/schedulers/", "src/repro/core/")

#: Collection names whose contents are jobs/tasks/copies; iterating the
#: unsorted `.values()` view inside decision code couples the schedule
#: to insertion order.
_ENTITY_NAME = re.compile(
    r"(job|task|cop(y|ies)|active|pending|running|measure|prior)", re.IGNORECASE
)


class _RL006:
    rule_id = "RL006"
    summary = "iteration over unordered collection in a decision loop"

    def applies_to(self, relpath: str) -> bool:
        return _in_dirs(relpath, _RL006_DIRS)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                reason = self._unordered(it, ctx)
                if reason is not None:
                    yield Finding(
                        it.lineno,
                        it.col_offset,
                        f"iterating {reason} in a scheduling decision loop — "
                        "wrap in sorted(...) with an explicit key for "
                        "deterministic order",
                    )

    @staticmethod
    def _unordered(it: ast.expr, ctx: FileContext) -> str | None:
        if isinstance(it, ast.Call):
            func = it.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"a bare `{func.id}(...)`"
            if isinstance(func, ast.Attribute) and func.attr == "values":
                base = _terminal_name(func.value)
                if base is not None and _ENTITY_NAME.search(base):
                    return f"`{base}.values()`"
        return None


# ======================================================================
# RL007 — policy code mutates state only through the action protocol
# ======================================================================

_RL007_DIRS = ("src/repro/schedulers/", "src/repro/core/")

#: Mutators owned by the engine / server layer.  Policy code must never
#: call them directly: a launch or kill that bypasses ``view.apply``
#: never lands in the decision journal, so the run stops being
#: replayable (DESIGN.md §5.3).
_ENGINE_MUTATORS = frozenset({"launch_copy", "kill_copy", "allocate", "release"})

#: Conventional names for the engine-owned state handles handed to
#: policy code.  Attribute stores rooted at one of these are writes to
#: simulation state from a layer that must stay read-only.
_RL007_STATE_ROOTS = frozenset({"view", "engine", "cluster"})


class _RL007:
    rule_id = "RL007"
    summary = "engine/cluster state touched outside the action protocol"

    def applies_to(self, relpath: str) -> bool:
        return _in_dirs(relpath, _RL007_DIRS)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_engine":
                yield Finding(
                    node.lineno,
                    node.col_offset,
                    "access to the private `._engine` backdoor — policy code "
                    "must go through ClusterView's read API and emit typed "
                    "actions via view.apply",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ENGINE_MUTATORS
            ):
                yield Finding(
                    node.lineno,
                    node.col_offset,
                    f"direct `.{node.func.attr}(...)` call bypasses the "
                    "action protocol — emit a Launch/Kill through view.apply "
                    "so the decision lands in the replay journal",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    list(node.targets) if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    hit = self._state_store(target)
                    if hit is not None:
                        yield Finding(
                            target.lineno,
                            target.col_offset,
                            f"write to engine/cluster state `{hit}` — policy "
                            "code is read-only; mutations must flow through "
                            "typed actions (view.apply)",
                        )

    @staticmethod
    def _state_store(target: ast.expr) -> str | None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                hit = _RL007._state_store(elt)
                if hit is not None:
                    return hit
            return None
        if isinstance(target, ast.Attribute):
            # `view.x.y = ...`: the chain *below* the stored attribute is
            # what identifies engine state (storing `self.cluster = ...`
            # on a policy object is a plain reference bind, not a write
            # into the cluster).
            root, chain = _RL007._chain(target.value)
            stored = f"{'.'.join([root or '?'] + chain + [target.attr])}"
        elif isinstance(target, ast.Subscript):
            # `view.cluster.servers[0] = ...`: an item store mutates the
            # container, so every attribute in the chain counts.
            root, chain = _RL007._chain(target.value)
            stored = f"{'.'.join([root or '?'] + chain)}[...]"
        else:
            return None
        if root is None:
            return None
        if root in _RL007_STATE_ROOTS or "cluster" in chain or "_engine" in chain:
            return stored
        return None

    @staticmethod
    def _chain(node: ast.expr) -> tuple[str | None, list[str]]:
        """Unwind `a.b[i].c` → ("a", ["b", "c"]); root None if not a Name."""
        parts: list[str] = []
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None, []
        return node.id, list(reversed(parts))


# ======================================================================
# RL008 — event-queue access only through the engine's drain API
# ======================================================================

#: Modules that own the event heap.  Everyone else interacts with the
#: queue through ``push``/``pop``/``pop_batch``/``peek_*``; reaching
#: into ``_heap`` — or walking / indexing the queue wholesale — bypasses
#: the (time, kind, seq) tie-break contract the batched drain relies on
#: (DESIGN.md §5.6).
_RL008_OWNERS = ("src/repro/sim/events.py", "src/repro/sim/engine.py")

#: Names that denote the simulation event queue in this codebase
#: (``engine.events`` and the locals it gets bound to).
_EVENT_QUEUE_NAME = re.compile(r"^_?(events|event_queue)$")


class _RL008:
    rule_id = "RL008"
    summary = "event queue accessed outside the engine's drain API"

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/") and relpath not in _RL008_OWNERS

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_heap":
                yield Finding(
                    node.lineno,
                    node.col_offset,
                    "access to the event queue's private `._heap` — sim logic "
                    "must use the drain API (push/pop/pop_batch/peek_*) so "
                    "the (time, kind, seq) tie-break stays engine-owned",
                )
                continue
            if isinstance(node, ast.Subscript):
                name = _terminal_name(node.value)
                if name is not None and _EVENT_QUEUE_NAME.match(name):
                    yield Finding(
                        node.lineno,
                        node.col_offset,
                        f"indexing `{name}[...]` peeks past the queue head — "
                        "use peek_time/peek_key or drain via pop_batch",
                    )
                continue
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                name = _terminal_name(it)
                if name is not None and _EVENT_QUEUE_NAME.match(name):
                    yield Finding(
                        it.lineno,
                        it.col_offset,
                        f"iterating `{name}` walks the heap in storage order, "
                        "not drain order — only the engine's pop/pop_batch "
                        "defines event order",
                    )


ALL_RULES = (
    _RL001(),
    _RL002(),
    _RL003(),
    _RL004(),
    _RL005(),
    _RL006(),
    _RL007(),
    _RL008(),
)

#: Every rule id repro-lint can emit, with its one-line summary.  The
#: per-file rules contribute their own summaries; RL000/RL009 are
#: engine-synthesized; RL010–RL014 are the whole-program dataflow rules.
RULE_CATALOG: dict[str, str] = {
    "RL000": "file does not parse (syntax error)",
    **{rule.rule_id: rule.summary for rule in ALL_RULES},
    "RL009": "stale `# repro-lint: ignore[...]` suppression matches no finding",
    "RL010": "wall-clock value reaches a decision sink through helper calls",
    "RL011": "unseeded/global RNG value reaches a decision sink through helper calls",
    "RL012": "iteration-order-dependent value (id/hash/set order) reaches a decision sink",
    "RL013": "per-server state mutated via alias or helper escape outside the owner module",
    "RL014": "mutable state shared between runs in one process (module globals, class-level containers and itertools iterators, class-attr writes)",
}
