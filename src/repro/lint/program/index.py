"""The program index: symbol table and call graph.

Built once per lint run from every parsed module, then handed to the
cross-module rules.  Resolution is deliberately *syntactic* — no code is
imported or executed — so precision follows the project's own coding
conventions: absolute imports, ``self``-dispatched methods, and process
generators spawned via ``env.process(self._run(...))``-style calls.
Dynamic dispatch through arbitrary objects is out of scope; rules built
on the index must treat a missing edge as "unknown", never as proof.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.lint.rules.base import ModuleContext

#: Method names whose first argument is treated as a process generator
#: (the spawned callee becomes a call-graph root for reachability).
SPAWN_METHODS = frozenset({"process", "spawn", "run_process"})

#: Method/function names that create named RNG streams; the stream name
#: is the call's last positional argument (``stream(name)``,
#: ``keyed(name)``, ``derive_seed(root, name)``).
STREAM_METHODS = frozenset({"stream", "keyed"})
STREAM_FUNCTIONS = frozenset({"derive_seed"})


def module_name_for(path: str) -> str:
    """Dotted module name for a file, by climbing ``__init__.py`` parents.

    ``src/repro/sim/rng.py`` -> ``repro.sim.rng`` (``src`` has no
    ``__init__.py``); a standalone script maps to its stem.
    """
    p = Path(path)
    if p.name == "__init__.py":
        parts: list[str] = []
        directory = p.parent
    else:
        parts = [p.stem]
        directory = p.parent
    while (directory / "__init__.py").is_file():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    if not parts:  # a bare __init__.py outside any package
        parts = [p.parent.name or p.stem]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method definition in the program."""

    module: str  #: dotted module name
    qualname: str  #: e.g. ``Network.delay`` or ``helper``
    node: ast.AST  #: the FunctionDef / AsyncFunctionDef
    owner_class: Optional[str]  #: enclosing class qualname, if a method

    @property
    def fqn(self) -> str:
        return f"{self.module}.{self.qualname}"


@dataclass
class StreamCall:
    """One statically visible RNG stream creation site."""

    module: str
    path: str
    line: int
    method: str  #: ``stream`` / ``keyed`` / ``derive_seed``
    #: Normalized stream name: the literal itself, an f-string template
    #: with ``{}`` placeholders, or ``None`` when the name is opaque.
    name: Optional[str]
    kind: str  #: ``literal`` / ``template`` / ``opaque``
    #: Function the call occurs in (``None`` at module level).
    function: Optional[str]


@dataclass
class ModuleInfo:
    """Per-module slice of the program index."""

    name: str
    ctx: ModuleContext
    #: qualname -> function info, in definition order.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: class qualname -> base-class dotted names (as written/resolved).
    class_bases: dict[str, list[str]] = field(default_factory=dict)


class ProgramIndex:
    """Project-wide symbol table and call graph."""

    def __init__(self) -> None:
        #: module name -> module info.
        self.modules: dict[str, ModuleInfo] = {}
        #: lint path -> module info (for suppression / exemption lookup).
        self.by_path: dict[str, ModuleInfo] = {}
        #: function fqn -> info.
        self.functions: dict[str, FunctionInfo] = {}
        #: function fqn -> callee fqns (project-internal, resolved).
        self.call_graph: dict[str, set[str]] = {}
        #: fqns spawned as simulation processes (reachability roots).
        self.spawn_roots: set[str] = set()
        #: every statically visible stream creation, in file/line order.
        self.stream_calls: list[StreamCall] = []
        #: method name -> fqns of every class method with that name; used
        #: for unique-name attribute dispatch (``store.put(...)`` resolves
        #: to ``Store.put`` when exactly one class defines ``put``).
        self._method_owners: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, contexts: Iterable[ModuleContext]) -> "ProgramIndex":
        index = cls()
        for ctx in contexts:
            name = module_name_for(ctx.path)
            info = ModuleInfo(name=name, ctx=ctx)
            index.modules[name] = info
            index.by_path[ctx.path] = info
        for info in index.modules.values():
            index._collect_definitions(info)
        for fqn in sorted(index.functions):
            fn = index.functions[fqn]
            if fn.owner_class is not None and not fn.qualname.split(".")[
                -1
            ].startswith("__"):
                index._method_owners.setdefault(
                    fn.qualname.split(".")[-1], []
                ).append(fqn)
        for info in index.modules.values():
            index._collect_calls(info)
        return index

    def _collect_definitions(self, info: ModuleInfo) -> None:
        """Symbol table: functions/methods and class base lists."""

        def visit(node: ast.AST, prefix: str, owner: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}" if prefix else child.name
                    fn = FunctionInfo(
                        module=info.name,
                        qualname=qualname,
                        node=child,
                        owner_class=owner,
                    )
                    info.functions[qualname] = fn
                    self.functions[fn.fqn] = fn
                    visit(child, f"{qualname}.", owner)
                elif isinstance(child, ast.ClassDef):
                    class_qual = f"{prefix}{child.name}" if prefix else child.name
                    info.class_bases[class_qual] = [
                        base
                        for base in (
                            info.ctx.resolve(b) for b in child.bases
                        )
                        if base
                    ]
                    visit(child, f"{class_qual}.", class_qual)

        visit(info.ctx.tree, "", None)

    def _owning_module(self, dotted: str) -> Optional[str]:
        """Longest known module that is a dotted-prefix of ``dotted``."""
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------

    def _collect_calls(self, info: ModuleInfo) -> None:
        for fn in info.functions.values():
            callees: set[str] = set()
            for call in calls_in(fn.node):
                self._record_stream_call(info, call, fn.qualname)
                callee = self._resolve_call(info, fn, call)
                if callee:
                    callees.add(callee)
                self._record_spawn(info, fn, call)
            self.call_graph[fn.fqn] = callees
        # Module-level code (including class bodies outside methods).
        for call in self._module_level_calls(info):
            self._record_stream_call(info, call, None)

    def _module_level_calls(self, info: ModuleInfo) -> Iterator[ast.Call]:
        function_nodes = {id(fn.node) for fn in info.functions.values()}

        def visit(node: ast.AST) -> Iterator[ast.Call]:
            for child in ast.iter_child_nodes(node):
                if id(child) in function_nodes:
                    continue
                if isinstance(child, ast.Call):
                    yield child
                yield from visit(child)

        return visit(info.ctx.tree)

    def _resolve_call(
        self, info: ModuleInfo, fn: FunctionInfo, call: ast.Call
    ) -> Optional[str]:
        """Resolve a call expression to a known function fqn, if possible."""
        func = call.func
        # self.method(...) / cls.method(...): dispatch within the class,
        # then through statically known base classes.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and fn.owner_class is not None
        ):
            found = self._resolve_method(info, fn.owner_class, func.attr, set())
            if found is not None:
                return found
        resolved = info.ctx.resolve(func)
        if resolved is None:
            # ``store.put(...)``-style attribute dispatch on an arbitrary
            # receiver: resolvable only when exactly one class anywhere in
            # the program defines the method (unique-name dispatch).  A
            # name defined twice stays unresolved — unknown, not proof.
            if isinstance(func, ast.Attribute):
                owners = self._method_owners.get(func.attr, ())
                if len(owners) == 1:
                    return owners[0]
            return None
        # A bare name: a function in this module, or a from-import.
        if "." not in resolved:
            local = info.functions.get(resolved)
            if local is not None:
                return local.fqn
            if resolved in info.class_bases:
                return self._resolve_method(info, resolved, "__init__", set())
            return None
        module = self._owning_module(resolved)
        if module is None:
            return None
        remainder = resolved[len(module) + 1 :]
        target = self.modules[module]
        if remainder in target.functions:
            return target.functions[remainder].fqn
        if remainder in target.class_bases:  # instantiation
            return self._resolve_method(target, remainder, "__init__", set())
        return None

    def _resolve_method(
        self,
        info: ModuleInfo,
        class_qual: str,
        method: str,
        seen: set[str],
    ) -> Optional[str]:
        """Look ``method`` up on a class, then on its known bases."""
        key = f"{info.name}.{class_qual}"
        if key in seen:
            return None
        seen.add(key)
        fn = info.functions.get(f"{class_qual}.{method}")
        if fn is not None:
            return fn.fqn
        for base in info.class_bases.get(class_qual, ()):
            base_module = self._owning_module(base)
            if base_module is not None:
                base_info = self.modules[base_module]
                base_qual = base[len(base_module) + 1 :]
            elif "." not in base and base in info.class_bases:
                base_info, base_qual = info, base
            else:
                continue
            found = self._resolve_method(base_info, base_qual, method, seen)
            if found:
                return found
        return None

    def _record_spawn(
        self, info: ModuleInfo, fn: FunctionInfo, call: ast.Call
    ) -> None:
        """``env.process(self._run(...))`` marks ``_run`` as a root."""
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in SPAWN_METHODS):
            return
        if not call.args or not isinstance(call.args[0], ast.Call):
            return
        spawned = ast.Call(func=call.args[0].func, args=[], keywords=[])
        callee = self._resolve_call(info, fn, spawned)
        if callee:
            self.spawn_roots.add(callee)

    # ------------------------------------------------------------------
    # Stream inventory
    # ------------------------------------------------------------------

    def _record_stream_call(
        self, info: ModuleInfo, call: ast.Call, function: Optional[str]
    ) -> None:
        func = call.func
        method: Optional[str] = None
        name_arg: Optional[ast.AST] = None
        if isinstance(func, ast.Attribute) and func.attr in STREAM_METHODS:
            if len(call.args) == 1:
                method, name_arg = func.attr, call.args[0]
        else:
            resolved = info.ctx.resolve(func)
            if resolved is not None:
                tail = resolved.rsplit(".", 1)[-1]
                if tail in STREAM_FUNCTIONS and len(call.args) == 2:
                    method, name_arg = tail, call.args[1]
        if method is None or name_arg is None:
            return
        name, kind = _normalize_stream_name(name_arg)
        self.stream_calls.append(
            StreamCall(
                module=info.name,
                path=info.ctx.path,
                line=call.lineno,
                method=method,
                name=name,
                kind=kind,
                function=function,
            )
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def reachable_from_roots(self) -> dict[str, list[str]]:
        """BFS over the call graph from every spawn root.

        Returns fqn -> call chain (root first) for every reachable
        function, shortest chain wins; deterministic order.
        """
        frontier = sorted(self.spawn_roots)
        chains: dict[str, list[str]] = {root: [root] for root in frontier}
        while frontier:
            next_frontier: list[str] = []
            for fqn in frontier:
                chain = chains[fqn]
                for callee in sorted(self.call_graph.get(fqn, ())):
                    if callee not in chains:
                        chains[callee] = chain + [callee]
                        next_frontier.append(callee)
            frontier = next_frontier
        return chains


def calls_in(func: ast.AST) -> Iterator[ast.Call]:
    """Every call in a function body, excluding nested function bodies
    (those are indexed — and resolved — as their own functions)."""
    stack: list[ast.AST] = [func]
    first = True
    while stack:
        node = stack.pop()
        if not first and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = False
        if isinstance(node, ast.Call):
            yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _normalize_stream_name(node: ast.AST) -> tuple[Optional[str], str]:
    """Classify a stream-name argument.

    Returns ``(name, kind)`` where kind is ``literal`` for string
    constants, ``template`` for f-strings (placeholders collapsed to
    ``{}``), and ``opaque`` (name ``None``) for anything the analyzer
    cannot see through — which defeats the static inventory.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, "literal"
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append("{}")
        return "".join(parts), "template"
    return None, "opaque"
