"""Whole-program dataflow passes over the :mod:`tools.repro_lint.graph`.

Three analyses, each reported as its own rule family:

**Taint tracking (RL010–RL012).**  A *nondeterminism source* is a
wall-clock read (RL010), an unseeded/global RNG draw (RL011), or an
iteration-order-dependent value — ``id()``, ``hash()``, a returned
``set`` (RL012).  Function *summaries* record whether a function's
return value derives from a source, directly or through calls to other
tainted functions; the summaries are iterated to a fixpoint over the
call graph, so taint survives any number of helper hops across module
boundaries.  A *decision sink* is a ``schedule``/``on_*`` method of a
``Scheduler`` subclass, ``SimulationEngine.apply`` / ``ClusterView.apply``,
a session driver (``SimulationEngine.step``/``ingest``/``run_until`` —
the online-arrival and event-processing entry points, DESIGN.md §5.8),
or an event-queue ``push``.  Flags:

* a call to a tainted function anywhere inside a sink body (the
  nondeterministic value materializes inside decision logic), and
* a tainted expression passed as an argument to ``view.apply(...)`` /
  ``events.push(...)`` from *any* function.

Direct source calls inside ``src/repro`` are left to the per-file rules
(RL002/RL004); these rules only fire on flows that cross a function
boundary — exactly the hazard the per-file pass cannot see.

**State-ownership escape analysis (RL013).**  Generalizes RL001: the
protected per-server arrays and resident map may only be mutated by the
owner module, and RL001 only catches *syntactically direct* writes.
This pass catches (a) mutation through a local alias
(``arr = mirror.avail_cpu; arr[0] = x``) and (b) passing a protected
array into a helper — in any module — that mutates its parameter
(summaries computed to a fixpoint, so a pass-through wrapper is caught
too).

**State shared between runs (RL014).**  Inventories mutable state that
outlives one engine: module-level mutable containers (flagged harder
when some function actually mutates them), class-level mutable
containers (shared by every instance), and class-attribute writes from
instance methods.  The identity matrix and the test suite run many
engines in one process, so such state lets one run change the next and
breaks the determinism contract.  Module-scope initialization (building
a table right after binding it) is not treated as mutation.

All passes iterate sorted structures only, so findings come out in a
deterministic order with deterministic messages.  Messages name
functions and modules, never line numbers, so report fingerprints
survive unrelated edits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from tools.repro_lint.graph import (
    MODULE_BODY,
    FunctionInfo,
    ProgramGraph,
)
from tools.repro_lint.rules import (
    _EVENT_QUEUE_NAME,
    _MUTATOR_METHODS,
    _NP_RANDOM_OK,
    _NP_SEEDED_CTORS,
    _PROTECTED_ATTRS,
    _RL001_OWNERS,
    _WALL_CLOCK,
    resolve_dotted,
)

__all__ = ["ProgramFinding", "run_whole_program"]


@dataclass(frozen=True)
class ProgramFinding:
    rule: str
    relpath: str
    line: int
    col: int
    message: str


#: Taint kind → rule id.
_KIND_RULE = {
    "wall-clock": "RL010",
    "rng": "RL011",
    "order": "RL012",
    "set-order": "RL012",
}

_KIND_NOUN = {
    "wall-clock": "wall-clock",
    "rng": "unseeded-RNG",
    "order": "iteration-order-dependent",
    "set-order": "set-ordered",
}

_MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
)


# ======================================================================
# Taint sources and expression-level taint evaluation
# ======================================================================


def _source_kind(call: ast.Call, imports: dict[str, str]) -> Optional[str]:
    """Classify a call as a nondeterminism source, or None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in ("id", "hash"):
        return "order"
    path = resolve_dotted(func, imports)
    if path is None:
        return None
    if path in _WALL_CLOCK:
        return "wall-clock"
    if path.startswith("random."):
        return "rng"
    if path.startswith("numpy.random."):
        fn = path.rsplit(".", 1)[1]
        if fn not in _NP_RANDOM_OK:
            return "rng"
        if fn in _NP_SEEDED_CTORS and not call.args and not call.keywords:
            return "rng"
    return None


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@dataclass(frozen=True)
class _Taint:
    """One taint fact: the ultimate source plus the last hop it crossed."""

    source: str  # e.g. "`time.time()` in repro.util.clock"
    via: Optional[str]  # callee qname the taint arrived through


Summaries = dict[str, dict[str, _Taint]]


def _expr_taints(
    expr: ast.expr,
    fn: FunctionInfo,
    graph: ProgramGraph,
    summaries: Summaries,
    tainted_names: dict[str, dict[str, _Taint]],
    *,
    include_set_order: bool = False,
) -> dict[str, _Taint]:
    """Taint kinds carried by ``expr`` (sources, tainted callees, tainted
    locals), first-found origin per kind in deterministic walk order."""
    imports = graph.imports.get(fn.module, {})
    out: dict[str, _Taint] = {}
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            kind = _source_kind(node, imports)
            if kind is not None:
                raw = resolve_dotted(node.func, imports) or (
                    node.func.id if isinstance(node.func, ast.Name) else "?"
                )
                out.setdefault(kind, _Taint(f"`{raw}()` in {fn.module}", None))
            callee = graph.resolve_call(node, fn)
            if callee is not None:
                for k, t in summaries.get(callee, {}).items():
                    if k == "set-order" and not include_set_order:
                        continue
                    out.setdefault(k, _Taint(t.source, callee))
        elif isinstance(node, ast.Name) and node.id in tainted_names:
            for k, t in tainted_names[node.id].items():
                if k == "set-order" and not include_set_order:
                    continue
                out.setdefault(k, t)
    return out


def _walk_own(fn: FunctionInfo) -> Iterator[ast.AST]:
    """Walk ``fn``'s own body.  For the ``<module>`` pseudo-function the
    nested function/class bodies are excluded — they have their own
    entries in the function table and would otherwise be visited twice."""
    if fn.name == MODULE_BODY:
        for stmt in fn.node.body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield from ast.walk(stmt)
    else:
        yield from ast.walk(fn.node)


def _assignment_pairs(node: ast.stmt) -> Iterator[tuple[ast.expr, ast.expr]]:
    """(target, value) pairs of plain/ann/aug assignments with a value."""
    if isinstance(node, ast.Assign):
        for t in node.targets:
            yield t, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        yield node.target, node.value
    elif isinstance(node, ast.AugAssign):
        yield node.target, node.value


def _function_taint_state(
    fn: FunctionInfo, graph: ProgramGraph, summaries: Summaries
) -> dict[str, dict[str, _Taint]]:
    """Locals of ``fn`` carrying taint (two forward passes handle
    use-before-def introduced by loops)."""
    tainted: dict[str, dict[str, _Taint]] = {}
    for _ in range(2):
        changed = False
        for node in _walk_own(fn):
            for target, value in _assignment_pairs(node):
                kinds = _expr_taints(
                    value, fn, graph, summaries, tainted, include_set_order=True
                )
                if not kinds:
                    continue
                names = [target] if isinstance(target, ast.Name) else [
                    e for e in getattr(target, "elts", []) if isinstance(e, ast.Name)
                ]
                for name in names:
                    slot = tainted.setdefault(name.id, {})
                    for k, t in kinds.items():
                        if k not in slot:
                            slot[k] = t
                            changed = True
        if not changed:
            break
    return tainted


def _compute_summaries(graph: ProgramGraph) -> Summaries:
    """Fixpoint over the call graph: which functions *return* taint."""
    summaries: Summaries = {}
    for _ in range(max(4, len(graph.functions))):
        changed = False
        for qname in sorted(graph.functions):
            fn = graph.functions[qname]
            if fn.name == MODULE_BODY:
                continue
            tainted = _function_taint_state(fn, graph, summaries)
            slot = summaries.setdefault(qname, {})
            before = dict(slot)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                for k, t in _expr_taints(
                    node.value, fn, graph, summaries, tainted, include_set_order=True
                ).items():
                    slot.setdefault(k, t)
                if _is_set_expr(node.value):
                    slot.setdefault(
                        "set-order", _Taint(f"set value returned by {qname}", None)
                    )
            if slot != before:
                changed = True
        if not changed:
            break
    return {q: s for q, s in summaries.items() if s}


# ======================================================================
# Decision sinks
# ======================================================================


def _scheduler_classes(graph: ProgramGraph) -> set[str]:
    out: set[str] = set()
    for cq in graph.classes:
        names = {graph.classes[a].name for a in graph.mro(cq) if a in graph.classes}
        names |= {b.rsplit(".", 1)[-1] for b in graph.ancestors(cq)}
        if "Scheduler" in names:
            out.add(cq)
    return out


def _decision_sinks(graph: ProgramGraph) -> dict[str, str]:
    """Sink-function qname → human label."""
    sinks: dict[str, str] = {}
    for cq in sorted(_scheduler_classes(graph)):
        cls = graph.classes[cq]
        for mname, mq in sorted(cls.methods.items()):
            if mname == "schedule" or mname.startswith("on_"):
                sinks[mq] = f"decision hook `{cls.name}.{mname}`"
    for cq in sorted(graph.classes):
        cls = graph.classes[cq]
        if cls.name in ("SimulationEngine", "ClusterView") and "apply" in cls.methods:
            sinks[cls.methods["apply"]] = f"action choke point `{cls.name}.apply`"
        if cls.name == "SimulationEngine":
            # The session API (DESIGN.md §5.8): every event the engine
            # processes flows through step(), and every online arrival
            # through ingest() — nondeterminism there skews the whole
            # (time, kind, seq) order, same hazard as apply().
            for mname in ("step", "ingest", "run_until"):
                if mname in cls.methods:
                    sinks[cls.methods[mname]] = (
                        f"session driver `{cls.name}.{mname}`"
                    )
    return sinks


def _is_apply_call(call: ast.Call, callee: Optional[str]) -> bool:
    if callee is not None and (
        callee.endswith(".SimulationEngine.apply") or callee.endswith(".ClusterView.apply")
    ):
        return True
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "apply":
        root = func.value
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        return isinstance(root, ast.Name) and root.id in ("view", "engine")
    return False


def _is_push_call(call: ast.Call, callee: Optional[str]) -> bool:
    if callee is not None and callee.endswith(".EventQueue.push"):
        return True
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "push":
        base = func.value
        name = None
        if isinstance(base, ast.Attribute):
            name = base.attr
        elif isinstance(base, ast.Name):
            name = base.id
        return name is not None and _EVENT_QUEUE_NAME.match(name) is not None
    return False


def _taint_findings(graph: ProgramGraph) -> Iterator[ProgramFinding]:
    summaries = _compute_summaries(graph)
    sinks = _decision_sinks(graph)
    seen: set[tuple[str, str, int, int]] = set()

    def emit(rule: str, fn: FunctionInfo, node: ast.expr, message: str):
        key = (rule, fn.relpath, node.lineno, node.col_offset)
        if key not in seen:
            seen.add(key)
            yield ProgramFinding(rule, fn.relpath, node.lineno, node.col_offset, message)

    # Pass 1 — tainted helpers called inside a decision sink.
    for mq in sorted(sinks):
        fn = graph.functions[mq]
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callee = graph.resolve_call(node, fn)
            if callee is None or callee == mq:
                continue
            for kind in sorted(summaries.get(callee, {})):
                if kind == "set-order":
                    continue
                t = summaries[callee][kind]
                yield from emit(
                    _KIND_RULE[kind],
                    fn,
                    node,
                    f"{_KIND_NOUN[kind]} value from {t.source} reaches "
                    f"{sinks[mq]} through `{callee}` — decision logic must "
                    "be a pure function of seeded sim state",
                )
        # set-order returns only matter when the sink iterates them.
        iter_exprs: list[ast.expr] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.For):
                iter_exprs.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iter_exprs.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
            ):
                iter_exprs.append(node.args[0])
        for it in iter_exprs:
            if not isinstance(it, ast.Call):
                continue
            callee = graph.resolve_call(it, fn)
            if callee is None:
                continue
            t = summaries.get(callee, {}).get("set-order")
            if t is not None:
                yield from emit(
                    "RL012",
                    fn,
                    it,
                    f"{sinks[mq]} iterates the set-ordered return of "
                    f"`{callee}` ({t.source}) — sort it with an explicit "
                    "key before iterating",
                )

    # Pass 2 — tainted arguments flowing into apply/push anywhere.
    for qname in sorted(graph.functions):
        fn = graph.functions[qname]
        tainted = _function_taint_state(fn, graph, summaries)
        for node in _walk_own(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = graph.resolve_call(node, fn)
            if _is_apply_call(node, callee):
                target = "the action protocol (`view.apply`)"
            elif _is_push_call(node, callee):
                target = "the event queue (`push`)"
            else:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                for kind, t in sorted(
                    _expr_taints(arg, fn, graph, summaries, tainted).items()
                ):
                    via = f" through `{t.via}`" if t.via else ""
                    yield from emit(
                        _KIND_RULE[kind],
                        fn,
                        arg,
                        f"{_KIND_NOUN[kind]} value from {t.source}{via} flows "
                        f"into {target} in `{qname}` — every decision input "
                        "must derive from seeded sim state",
                    )


# ======================================================================
# RL013 — state-ownership escape analysis
# ======================================================================


def _root_name(node: ast.expr) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _protected_attr_expr(node: ast.expr) -> Optional[str]:
    """``mirror.avail_cpu`` / ``mirror.resident`` → the attr name."""
    if isinstance(node, ast.Attribute) and node.attr in _PROTECTED_ATTRS:
        return node.attr
    return None


def _param_mutation_summaries(graph: ProgramGraph) -> dict[str, set[str]]:
    """qname → names of parameters the function mutates in place
    (fixpoint, so pass-through wrappers are included).  Restricted to
    module-level functions: method receivers complicate indexing and the
    sanctioned owner APIs are methods."""
    summaries: dict[str, set[str]] = {}
    for _ in range(max(4, len(graph.functions))):
        changed = False
        for qname in sorted(graph.functions):
            fn = graph.functions[qname]
            if fn.class_qname is not None or fn.name == MODULE_BODY:
                continue
            params = set(fn.params)
            mutated = summaries.setdefault(qname, set())
            before = set(mutated)
            for node in ast.walk(fn.node):
                for target, _value in _assignment_pairs(node):
                    if isinstance(target, ast.Subscript):
                        root = _root_name(target.value)
                        if root in params:
                            mutated.add(root)
                if isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in _MUTATOR_METHODS
                        and isinstance(func.value, ast.Name)
                        and func.value.id in params
                    ):
                        mutated.add(func.value.id)
                    callee = graph.resolve_call(node, fn)
                    if callee is not None and summaries.get(callee):
                        callee_fn = graph.functions.get(callee)
                        if callee_fn is None:
                            continue
                        for i, arg in enumerate(node.args):
                            if (
                                isinstance(arg, ast.Name)
                                and arg.id in params
                                and i < len(callee_fn.params)
                                and callee_fn.params[i] in summaries[callee]
                            ):
                                mutated.add(arg.id)
                        for kw in node.keywords:
                            if (
                                isinstance(kw.value, ast.Name)
                                and kw.value.id in params
                                and kw.arg in summaries[callee]
                            ):
                                mutated.add(kw.value.id)
            if mutated != before:
                changed = True
        if not changed:
            break
    return {q: s for q, s in summaries.items() if s}


def _escape_findings(graph: ProgramGraph) -> Iterator[ProgramFinding]:
    owners = set(_RL001_OWNERS)
    mutators = _param_mutation_summaries(graph)
    for qname in sorted(graph.functions):
        fn = graph.functions[qname]
        if fn.relpath in owners:
            continue
        # Aliases of protected state bound anywhere in this function.
        aliases: dict[str, str] = {}
        for node in _walk_own(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                attr = _protected_attr_expr(node.value)
                if isinstance(target, ast.Name) and attr is not None:
                    aliases[target.id] = attr
        for node in _walk_own(fn):
            # (a) mutation through an alias
            for target, _value in _assignment_pairs(node):
                hit = None
                if isinstance(target, ast.Subscript):
                    root = target.value
                    if isinstance(root, ast.Name) and root.id in aliases:
                        hit = f"`{root.id}[...]` (alias of `{aliases[root.id]}`)"
                elif (
                    isinstance(node, ast.AugAssign)
                    and isinstance(target, ast.Name)
                    and target.id in aliases
                ):
                    hit = f"`{target.id}` (alias of `{aliases[target.id]}`)"
                if hit is not None:
                    yield ProgramFinding(
                        "RL013",
                        fn.relpath,
                        target.lineno,
                        target.col_offset,
                        f"write to {hit} mutates protected server state "
                        f"outside the owner module — route it through "
                        "the AvailabilityMirror methods",
                    )
            if isinstance(node, ast.Call):
                func = node.func
                # `alias.clear()` / `alias[i].append(x)` (an item of the
                # resident map is a list)
                receiver = func.value if isinstance(func, ast.Attribute) else None
                while isinstance(receiver, ast.Subscript):
                    receiver = receiver.value
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id in aliases
                    and func.attr in _MUTATOR_METHODS
                ):
                    yield ProgramFinding(
                        "RL013",
                        fn.relpath,
                        node.lineno,
                        node.col_offset,
                        f"`.{func.attr}()` on `{receiver.id}` (alias of "
                        f"`{aliases[receiver.id]}`) mutates protected "
                        "server state outside the owner module",
                    )
                # (b) protected state escaping into a param-mutating helper
                callee = graph.resolve_call(node, fn)
                if callee is not None and callee in mutators:
                    callee_fn = graph.functions[callee]
                    for i, arg in enumerate(node.args):
                        attr = _protected_attr_expr(arg)
                        if (
                            attr is not None
                            and i < len(callee_fn.params)
                            and callee_fn.params[i] in mutators[callee]
                        ):
                            yield ProgramFinding(
                                "RL013",
                                fn.relpath,
                                arg.lineno,
                                arg.col_offset,
                                f"protected `{attr}` escapes into `{callee}`, "
                                f"which mutates its `{callee_fn.params[i]}` "
                                "parameter — server state must not be "
                                "mutated outside the owner module",
                            )
                    for kw in node.keywords:
                        attr = _protected_attr_expr(kw.value)
                        if attr is not None and kw.arg in mutators[callee]:
                            yield ProgramFinding(
                                "RL013",
                                fn.relpath,
                                kw.value.lineno,
                                kw.value.col_offset,
                                f"protected `{attr}` escapes into `{callee}`, "
                                f"which mutates its `{kw.arg}` parameter — "
                                "server state must not be mutated outside "
                                "the owner module",
                            )


# ======================================================================
# RL014 — mutable state shared between runs
# ======================================================================


def _is_mutable_container(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CTORS
    )


def _locally_bound(fn: FunctionInfo, name: str) -> bool:
    """Does ``fn`` bind ``name`` as a parameter or plain local (without a
    ``global`` declaration)?  Used to rule out shadowing."""
    if name in fn.params:
        return True
    declares_global = any(
        isinstance(n, ast.Global) and name in n.names for n in ast.walk(fn.node)
    )
    if declares_global:
        return False
    for node in ast.walk(fn.node):
        for target, _value in _assignment_pairs(node):
            if isinstance(target, ast.Name) and target.id == name:
                return True
        if isinstance(node, (ast.For, ast.comprehension)):
            tgt = node.target
            if isinstance(tgt, ast.Name) and tgt.id == name:
                return True
    return False


def _find_global_mutation(
    graph: ProgramGraph, modname: str, name: str
) -> Optional[str]:
    """First function (sorted qname) that mutates module global
    ``modname.name`` from function scope; module-scope init is exempt."""
    ref = f"{modname}.{name}"
    for qname in sorted(graph.functions):
        fn = graph.functions[qname]
        if fn.name == MODULE_BODY:
            continue
        same_module = fn.module == modname
        if same_module and _locally_bound(fn, name):
            continue

        def _is_ref(node: ast.expr) -> bool:
            if same_module and isinstance(node, ast.Name) and node.id == name:
                return True
            dotted = resolve_dotted(node, graph.imports.get(fn.module, {}))
            return dotted == ref

        declares_global = same_module and any(
            isinstance(n, ast.Global) and name in n.names for n in ast.walk(fn.node)
        )
        for node in ast.walk(fn.node):
            for target, _value in _assignment_pairs(node):
                if isinstance(target, ast.Subscript) and _is_ref(target.value):
                    return qname
                if (
                    declares_global
                    and isinstance(target, ast.Name)
                    and target.id == name
                ):
                    return qname
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                    and _is_ref(func.value)
                ):
                    return qname
    return None


def _shared_state_findings(graph: ProgramGraph) -> Iterator[ProgramFinding]:
    # (a) module-level mutable containers
    for modname in sorted(graph.modules):
        info = graph.modules[modname]
        for stmt in info.tree.body:
            for target, value in _assignment_pairs(stmt):
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("__") and name.endswith("__"):
                    continue
                if not _is_mutable_container(value):
                    continue
                mutator = _find_global_mutation(graph, modname, name)
                if mutator is not None:
                    msg = (
                        f"module-level mutable `{name}` is mutated by "
                        f"`{mutator}` — process-global state leaks from one "
                        "run into the next; move it into per-run engine "
                        "state"
                    )
                else:
                    msg = (
                        f"module-level mutable container `{name}` — freeze "
                        "it (tuple/frozenset/MappingProxyType) so runs in "
                        "one process can never diverge through shared "
                        "module state"
                    )
                yield ProgramFinding(
                    "RL014", info.relpath, target.lineno, target.col_offset, msg
                )
    # (b) class-level mutable containers
    for cq in sorted(graph.classes):
        cls = graph.classes[cq]
        for stmt in cls.node.body:
            for target, value in _assignment_pairs(stmt):
                if isinstance(target, ast.Name) and _is_mutable_container(value):
                    yield ProgramFinding(
                        "RL014",
                        cls.relpath,
                        target.lineno,
                        target.col_offset,
                        f"class attribute `{cls.name}.{target.id}` is a "
                        "mutable container shared by every instance — bind "
                        "it per-instance in __init__ or freeze it",
                    )
    # (c) class-attribute writes from instance methods
    for qname in sorted(graph.functions):
        fn = graph.functions[qname]
        if fn.class_qname is None:
            continue
        for node in ast.walk(fn.node):
            for target, _value in _assignment_pairs(node):
                if not isinstance(target, ast.Attribute):
                    continue
                base = target.value
                hit = None
                if (
                    isinstance(base, ast.Call)
                    and isinstance(base.func, ast.Name)
                    and base.func.id == "type"
                    and len(base.args) == 1
                    and isinstance(base.args[0], ast.Name)
                    and base.args[0].id == "self"
                ):
                    hit = f"type(self).{target.attr}"
                elif isinstance(base, ast.Name):
                    local = f"{fn.module}.{base.id}"
                    resolved = (
                        local
                        if local in graph.classes
                        else graph.resolve_object(
                            graph.imports.get(fn.module, {}).get(base.id, "")
                        )
                    )
                    if resolved is not None and resolved in graph.classes:
                        hit = f"{base.id}.{target.attr}"
                if hit is not None:
                    yield ProgramFinding(
                        "RL014",
                        fn.relpath,
                        target.lineno,
                        target.col_offset,
                        f"`{qname}` writes class attribute `{hit}` — the "
                        "write is visible to every instance in the process; "
                        "store per-run state on the instance instead",
                    )


# ======================================================================
# Entry point
# ======================================================================


def run_whole_program(graph: ProgramGraph) -> list[ProgramFinding]:
    """Run every whole-program pass; deterministic, sorted output."""
    findings: list[ProgramFinding] = []
    findings.extend(_taint_findings(graph))
    findings.extend(_escape_findings(graph))
    findings.extend(_shared_state_findings(graph))
    findings.sort(key=lambda f: (f.relpath, f.line, f.col, f.rule, f.message))
    return findings
