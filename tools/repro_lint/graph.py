"""Whole-program module/call graph over the ``src/repro`` package.

The per-file rules (RL001–RL008) see one AST at a time; the dataflow
passes in :mod:`tools.repro_lint.dataflow` need to follow a value from a
``time.time()`` read through two helper hops into a scheduler — which
requires knowing (a) which module every name resolves to and (b) which
program function every call lands in.  This module builds exactly that:

* a **module table** mapping dotted module names to parsed ASTs,
* per-module **import maps** with relative imports resolved against the
  package layout (``from .events import EventQueue`` inside
  ``repro.sim.engine`` → ``repro.sim.events.EventQueue``),
* a **function table** of every module-level function and every method
  of a module-level class, keyed by qualified name
  (``repro.sim.engine.SimulationEngine.apply``), plus one ``<module>``
  pseudo-function per module holding module-scope statements,
* a **class table** with program-resolved base classes (one-level
  re-exports through ``__init__`` are followed), and
* a **call graph**: for every call site, the resolved program callee
  when resolution succeeds (local defs, imports, ``self.method`` through
  the program MRO, and a unique-method-name fallback), or the raw dotted
  text when it does not.

Construction is **deterministic and order-independent**: files are
sorted by repo-relative path before parsing, every table iterates in
sorted order, and :meth:`ProgramGraph.dump` emits canonical JSON — the
same tree produces byte-identical dumps no matter how the filesystem
listed the files (pinned by a property test).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProgramGraph",
    "build_program_graph",
]

#: Pseudo-function name holding a module's top-level statements.
MODULE_BODY = "<module>"


@dataclass
class ModuleInfo:
    name: str  # dotted, e.g. "repro.sim.engine"
    relpath: str  # POSIX, relative to the lint root
    tree: ast.Module = field(repr=False)


@dataclass
class FunctionInfo:
    qname: str  # "repro.sim.engine.SimulationEngine.apply"
    module: str
    relpath: str
    name: str
    lineno: int
    col: int
    class_qname: Optional[str]  # owning class, None for module-level
    params: tuple[str, ...]
    node: ast.AST = field(repr=False)  # FunctionDef / AsyncFunctionDef / Module


@dataclass
class ClassInfo:
    qname: str
    module: str
    relpath: str
    name: str
    lineno: int
    bases: tuple[str, ...]  # dotted names (program qnames when resolvable)
    methods: dict[str, str] = field(default_factory=dict)  # name -> fn qname
    node: ast.ClassDef = field(repr=False, default=None)


@dataclass(frozen=True)
class CallSite:
    caller: str  # function qname
    callee: Optional[str]  # resolved program qname, or None
    raw: str  # best-effort dotted text of the call target
    lineno: int
    col: int


def _module_name(relpath_in_pkg: str, package: str) -> str:
    """``sim/engine.py`` → ``repro.sim.engine``; ``sim/__init__.py`` → ``repro.sim``."""
    parts = relpath_in_pkg[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package, *parts]) if parts else package


def _dotted_text(node: ast.expr) -> str:
    """Best-effort dotted rendering of a call target for diagnostics."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.append(_dotted_text(node.func) + "()")
    else:
        parts.append("?")
    return ".".join(reversed(parts))


def _attr_chain(node: ast.expr) -> tuple[Optional[str], list[str]]:
    """Unwind ``a.b[i].c`` → ("a", ["b", "c"]); root None unless a Name."""
    parts: list[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None, []
    return node.id, list(reversed(parts))


class ProgramGraph:
    """Import + call graph over one package tree (see module docstring)."""

    def __init__(self, package: str, root: Path) -> None:
        self.package = package
        self.root = root
        self.modules: dict[str, ModuleInfo] = {}
        self.imports: dict[str, dict[str, str]] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.calls: list[CallSite] = []
        self.module_edges: set[tuple[str, str]] = set()
        self.syntax_errors: list[tuple[str, int, str]] = []  # (relpath, line, msg)
        # method name -> sorted qnames of every program method with it
        self._method_index: dict[str, list[str]] = {}
        self._calls_by_caller: dict[str, list[CallSite]] = {}

    # -- construction --------------------------------------------------

    def _add_module(self, info: ModuleInfo) -> None:
        self.modules[info.name] = info
        self.imports[info.name] = _import_map(info.tree, info.name, self.modules)

    def _index(self) -> None:
        """Second pass: functions, classes, and import edges (after every
        module is parsed, so cross-module names resolve)."""
        for modname in sorted(self.modules):
            info = self.modules[modname]
            imap = self.imports[modname] = _import_map(
                info.tree, modname, self.modules
            )
            for target in imap.values():
                owner = self._owning_module(target)
                if owner is not None and owner != modname:
                    self.module_edges.add((modname, owner))
            body_fn = FunctionInfo(
                qname=f"{modname}.{MODULE_BODY}",
                module=modname,
                relpath=info.relpath,
                name=MODULE_BODY,
                lineno=1,
                col=0,
                class_qname=None,
                params=(),
                node=info.tree,
            )
            self.functions[body_fn.qname] = body_fn
            for node in info.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add_function(node, modname, info.relpath, None)
                elif isinstance(node, ast.ClassDef):
                    self._add_class(node, modname, info.relpath)
        for qname, fn in self.functions.items():
            if fn.class_qname is not None:
                self._method_index.setdefault(fn.name, []).append(qname)
        for name in self._method_index:
            self._method_index[name].sort()

    def _add_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        modname: str,
        relpath: str,
        class_qname: Optional[str],
    ) -> FunctionInfo:
        prefix = class_qname if class_qname is not None else modname
        args = node.args
        params = tuple(
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        )
        fn = FunctionInfo(
            qname=f"{prefix}.{node.name}",
            module=modname,
            relpath=relpath,
            name=node.name,
            lineno=node.lineno,
            col=node.col_offset,
            class_qname=class_qname,
            params=params,
            node=node,
        )
        self.functions[fn.qname] = fn
        return fn

    def _add_class(self, node: ast.ClassDef, modname: str, relpath: str) -> None:
        qname = f"{modname}.{node.name}"
        imap = self.imports[modname]
        bases: list[str] = []
        for base in node.bases:
            root, chain = _attr_chain(base)
            if root is None:
                continue
            local = f"{modname}.{root}" if f"{modname}.{root}" in self.classes else None
            dotted = imap.get(root, local or root)
            bases.append(".".join([dotted, *chain]))
        cls = ClassInfo(
            qname=qname,
            module=modname,
            relpath=relpath,
            name=node.name,
            lineno=node.lineno,
            bases=tuple(bases),
            node=node,
        )
        self.classes[qname] = cls
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._add_function(stmt, modname, relpath, qname)
                cls.methods[stmt.name] = fn.qname

    def _extract_calls(self) -> None:
        for qname in sorted(self.functions):
            fn = self.functions[qname]
            body: Iterable[ast.stmt]
            if fn.name == MODULE_BODY:
                # Module scope only — defs get their own entries.
                body = [
                    stmt
                    for stmt in fn.node.body
                    if not isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    )
                ]
            else:
                body = fn.node.body
            for stmt in body:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        callee = self.resolve_call(node, fn)
                        site = CallSite(
                            caller=qname,
                            callee=callee,
                            raw=_dotted_text(node.func),
                            lineno=node.lineno,
                            col=node.col_offset,
                        )
                        self.calls.append(site)
                        self._calls_by_caller.setdefault(qname, []).append(site)

    # -- queries -------------------------------------------------------

    def _owning_module(self, dotted: str) -> Optional[str]:
        """Longest program-module prefix of ``dotted``, or None."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            mod = ".".join(parts[:i])
            if mod in self.modules:
                return mod
        return None

    def resolve_object(self, dotted: str, _seen: frozenset[str] = frozenset()) -> Optional[str]:
        """Resolve a dotted path to a program function/class/method qname,
        following one-hop re-exports through package ``__init__`` files."""
        if dotted in _seen:
            return None
        if dotted in self.functions or dotted in self.classes:
            return dotted
        owner = self._owning_module(dotted)
        if owner is None:
            return None
        rest = dotted[len(owner) + 1 :].split(".") if len(dotted) > len(owner) else []
        if not rest:
            return None
        # Class method: repro.sim.engine.SimulationEngine.apply
        if len(rest) >= 2:
            cls_q = f"{owner}.{rest[0]}"
            cls = self.classes.get(cls_q)
            if cls is not None and rest[1] in cls.methods:
                return cls.methods[rest[1]]
        # Re-export: the first component is an imported name in `owner`.
        target = self.imports.get(owner, {}).get(rest[0])
        if target is not None:
            full = ".".join([target, *rest[1:]])
            return self.resolve_object(full, _seen | {dotted})
        return None

    def resolve_call(self, call: ast.Call, fn: FunctionInfo) -> Optional[str]:
        """Program qname of the call target, or None when unresolvable."""
        func = call.func
        imap = self.imports.get(fn.module, {})
        if isinstance(func, ast.Name):
            local = f"{fn.module}.{func.id}"
            if local in self.functions:
                return local
            if local in self.classes:
                return local
            dotted = imap.get(func.id)
            if dotted is not None:
                return self.resolve_object(dotted)
            return None
        if isinstance(func, ast.Attribute):
            root, chain = _attr_chain(func.value)
            # self.m() / cls.m(): walk the program MRO.
            if (
                root in ("self", "cls")
                and not chain
                and fn.class_qname is not None
            ):
                hit = self.lookup_method(fn.class_qname, func.attr)
                if hit is not None:
                    return hit
            dotted = ast.unparse(func) if hasattr(ast, "unparse") else None
            chain_dotted = None
            if root is not None:
                base = imap.get(root)
                if base is None and f"{fn.module}.{root}" in self.classes:
                    base = f"{fn.module}.{root}"
                if base is not None:
                    chain_dotted = ".".join([base, *chain, func.attr])
            if chain_dotted is not None:
                resolved = self.resolve_object(chain_dotted)
                if resolved is not None:
                    return resolved
            # Unique-method fallback: exactly one program class defines a
            # method with this name → assume the call lands there.  This
            # buys cross-module reach on untyped code at the cost of rare
            # false positives, which an inline or per-rule waiver absorbs.
            candidates = self._method_index.get(func.attr, ())
            if len(candidates) == 1:
                return candidates[0]
            return None
        return None

    def lookup_method(self, class_qname: str, name: str) -> Optional[str]:
        for cq in self.mro(class_qname):
            cls = self.classes.get(cq)
            if cls is not None and name in cls.methods:
                return cls.methods[name]
        return None

    def mro(self, class_qname: str) -> list[str]:
        """Breadth-first linearization over program-resolved bases."""
        out: list[str] = []
        queue = [class_qname]
        seen: set[str] = set()
        while queue:
            cq = queue.pop(0)
            if cq in seen:
                continue
            seen.add(cq)
            cls = self.classes.get(cq)
            if cls is None:
                continue
            out.append(cq)
            for base in cls.bases:
                resolved = self.resolve_object(base)
                if resolved is not None and resolved in self.classes:
                    queue.append(resolved)
        return out

    def ancestors(self, class_qname: str) -> list[str]:
        """Raw base names (resolved where possible) of the whole MRO —
        includes unresolved externals so name-based checks can still
        match e.g. a base literally called ``Scheduler``."""
        names: list[str] = []
        for cq in self.mro(class_qname):
            cls = self.classes.get(cq)
            if cls is not None:
                names.extend(cls.bases)
        return names

    def calls_from(self, qname: str) -> list[CallSite]:
        return self._calls_by_caller.get(qname, [])

    # -- canonical dump ------------------------------------------------

    def dump(self) -> str:
        """Canonical JSON of the graph (no ASTs) — byte-identical for
        identical trees regardless of filesystem listing order."""
        payload = {
            "format": "repro-lint-graph/v1",
            "package": self.package,
            "modules": [
                {"name": m.name, "path": m.relpath}
                for m in sorted(self.modules.values(), key=lambda m: m.name)
            ],
            "imports": sorted(
                [mod, local, target]
                for mod, imap in self.imports.items()
                for local, target in imap.items()
            ),
            "module_edges": sorted(list(e) for e in self.module_edges),
            "functions": [
                {
                    "qname": f.qname,
                    "path": f.relpath,
                    "line": f.lineno,
                    "class": f.class_qname,
                    "params": list(f.params),
                }
                for f in sorted(self.functions.values(), key=lambda f: f.qname)
            ],
            "classes": [
                {
                    "qname": c.qname,
                    "bases": list(c.bases),
                    "methods": sorted(c.methods.values()),
                }
                for c in sorted(self.classes.values(), key=lambda c: c.qname)
            ],
            "calls": sorted(
                [s.caller, s.callee or "", s.raw, s.lineno, s.col]
                for s in self.calls
            ),
            "syntax_errors": sorted(list(e) for e in self.syntax_errors),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _import_map(
    tree: ast.Module, modname: str, modules: dict[str, ModuleInfo]
) -> dict[str, str]:
    """Local name → absolute dotted path, with relative imports resolved.

    The containing package of ``modname`` is its parent unless the module
    *is* a package (``__init__``), in which case it is itself — matching
    Python's ``__package__`` semantics.
    """
    parts = modname.split(".")
    is_package = modname in modules and modules[modname].relpath.endswith(
        "__init__.py"
    )
    package_parts = parts if is_package else parts[:-1]
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    out[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[: len(package_parts) - (node.level - 1)]
                if not base_parts:
                    continue  # escapes the program package
                base = ".".join(base_parts)
                if node.module:
                    base = f"{base}.{node.module}"
            else:
                if node.module is None:
                    continue
                base = node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                out[alias.asname or alias.name] = f"{base}.{alias.name}"
    return out


def build_program_graph(
    root: Path,
    program_root: str = "src/repro",
    files: Sequence[Path] | None = None,
) -> Optional[ProgramGraph]:
    """Build the graph for the package at ``root/program_root``.

    Returns ``None`` when the package directory does not exist.  ``files``
    overrides discovery (used by the determinism property test); the
    builder sorts whatever it is given, so input order never matters.
    """
    root = Path(root).resolve()
    pkg_dir = (root / program_root).resolve()
    if not pkg_dir.is_dir():
        return None
    package = pkg_dir.name
    if files is None:
        files = [p for p in pkg_dir.rglob("*.py") if p.is_file()]
    graph = ProgramGraph(package, root)
    entries: list[tuple[str, Path]] = []
    for path in files:
        rel_in_pkg = Path(path).resolve().relative_to(pkg_dir).as_posix()
        entries.append((rel_in_pkg, Path(path)))
    for rel_in_pkg, path in sorted(entries):
        relpath = path.resolve().relative_to(root).as_posix()
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as exc:
            graph.syntax_errors.append(
                (relpath, exc.lineno or 1, exc.msg or "syntax error")
            )
            continue
        graph.modules[_module_name(rel_in_pkg, package)] = ModuleInfo(
            name=_module_name(rel_in_pkg, package), relpath=relpath, tree=tree
        )
    graph._index()
    graph._extract_calls()
    return graph
