"""Project call graph over the shared :class:`SourceFile` trees.

The flow analyses need to follow calls across module boundaries —
``manager.acquire_many`` into each protocol's ``acquire``, a handler
into the closure it hands to ``engine.spawn_handler``.  Resolution is
type-directed and deliberately modest: this codebase annotates nearly
every signature, so parameter/return annotations, ``self``, and
``self.attr = ClassName(...)`` assignments recover almost every
receiver type.  What cannot be resolved stays unresolved — the
analyses treat an unresolved call as "no effect", trading missed
findings for zero false edges.

Resolution order for ``recv.meth(...)``:

1. the static type of ``recv`` (annotation / self / attribute type),
   then ``meth`` looked up on that class, its project base classes,
   and — virtual dispatch — every project subclass override;
2. a conventional-receiver hint table (``engine`` ->
   ``ProtocolEngine``, ``ledger`` -> ``CopysetLedger``, ...);
3. if the method name is defined by exactly one project class, that
   definition (unique-name fallback, marked low-confidence).

Plain-name calls resolve through enclosing nested scopes, the
module's top level, and the import map.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.sources import SourceFile, import_map

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Conventional attribute/variable names -> the class they hold.
#: Used only when no annotation or assignment pins the type.
RECEIVER_HINTS: Dict[str, str] = {
    "engine": "ProtocolEngine",
    "ledger": "CopysetLedger",
    "home": "HomeTransactions",
    "batch": "BatchPlanner",
    "directory": "DirectoryCoherence",
    "cm": "ConsistencyManager",
    "pages": "PageStateMachine",
    "host": "NodeKernel",
    "kernel": "NodeKernel",
    "daemon": "NodeKernel",
    "router": "MessageRouter",
    "scheduler": "EventScheduler",
}

#: Method names a list/dict/set/str receiver could own — the
#: unique-name fallback must never resolve these to a project class.
BUILTIN_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "copy", "index", "count", "get", "items", "keys",
    "values", "setdefault", "update", "popitem", "add", "discard",
    "union", "intersection", "join", "split", "strip", "startswith",
    "endswith", "encode", "decode", "format", "replace", "lower",
    "upper",
})


@dataclass
class FunctionInfo:
    """One function/method/closure definition."""

    sf: SourceFile
    node: FunctionNode
    qualname: str                    # "Class.method", "func", "outer.inner"
    cls: Optional["ClassInfo"] = None
    parent: Optional["FunctionInfo"] = None      # enclosing function
    locals_defs: Dict[str, "FunctionInfo"] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def key(self) -> Tuple[str, str]:
        return (self.sf.path, self.qualname)

    @property
    def params(self) -> List[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        return names

    @property
    def is_method(self) -> bool:
        return self.cls is not None and self.parent is None

    @property
    def is_generator(self) -> bool:
        for sub in body_walk(self.node):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                return True
        return False

    def param_type(self, name: str) -> Optional[str]:
        args = self.node.args
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if a.arg == name and a.annotation is not None:
                return annotation_name(a.annotation)
        return None

    @property
    def return_type(self) -> Optional[str]:
        if self.node.returns is not None:
            return annotation_name(self.node.returns)
        return None


@dataclass
class ClassInfo:
    sf: SourceFile
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.X`` -> class name, from annotations and constructor calls.
    attr_types: Dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name


def annotation_name(expr: ast.expr) -> Optional[str]:
    """The bare class name an annotation refers to, if recoverable."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        text = expr.value.strip().strip("\"'")
        return text.split("[")[0].split(".")[-1] or None
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Subscript):
        base = annotation_name(expr.value)
        if base == "Optional":
            return annotation_name(expr.slice)
        return None
    return None


def body_walk(fn: FunctionNode):
    """Walk a function's own body, not descending into nested defs.

    Lambdas and comprehensions stay part of the enclosing function;
    ``def``/``class`` statements start a new scope.
    """
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def attribute_chain(expr: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"]; None for non-trivial bases."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def _self_attr_binding(node: ast.AST) -> Tuple[Optional[str], Optional[str]]:
    """``self.X = ClassName(...)`` / ``self.X: T = ...`` -> (X, type)."""
    target: Optional[ast.expr] = None
    ann: Optional[str] = None
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        if (isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)):
            ann = node.value.func.id
    elif isinstance(node, ast.AnnAssign):
        target = node.target
        ann = annotation_name(node.annotation)
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return (target.attr, ann)
    return (None, None)


class CallGraph:
    """Indexes over every function definition in the analyzed files."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = list(files)
        self.functions: Dict[Tuple[str, str], FunctionInfo] = {}
        self.classes: Dict[str, List[ClassInfo]] = {}
        self.module_functions: Dict[str, Dict[str, FunctionInfo]] = {}
        self.by_method: Dict[str, List[FunctionInfo]] = {}
        self.imports: Dict[str, Dict[str, str]] = {}
        self._subclasses: Dict[str, Set[str]] = {}
        self._callers: Optional[Dict[Tuple[str, str],
                                     List[Tuple[FunctionInfo, ast.Call]]]] = None
        for sf in self.files:
            self._index_module(sf)
        self._index_hierarchy()

    # -- construction ----------------------------------------------------

    def _index_module(self, sf: SourceFile) -> None:
        self.imports[sf.path] = import_map(sf.tree)
        top: Dict[str, FunctionInfo] = {}
        self.module_functions[sf.path] = top
        for node in sf.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._add_function(sf, node, node.name, None, None)
                top[node.name] = info
            elif isinstance(node, ast.ClassDef):
                self._index_class(sf, node)

    def _index_class(self, sf: SourceFile, node: ast.ClassDef) -> None:
        bases = [b for b in (annotation_name(base) for base in node.bases)
                 if b]
        ci = ClassInfo(sf=sf, node=node, bases=bases)
        self.classes.setdefault(node.name, []).append(ci)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._add_function(
                    sf, stmt, f"{node.name}.{stmt.name}", ci, None
                )
                ci.methods[stmt.name] = info
                self.by_method.setdefault(stmt.name, []).append(info)
            elif (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                ann = annotation_name(stmt.annotation)
                if ann:
                    ci.attr_types[stmt.target.id] = ann
        # ``self.X = ClassName(...)`` / annotated self-assignments in
        # any method pin instance-attribute types.
        for method in ci.methods.values():
            for sub in body_walk(method.node):
                target_name, ann = _self_attr_binding(sub)
                if target_name and ann:
                    ci.attr_types.setdefault(target_name, ann)

    def _add_function(self, sf: SourceFile, node: FunctionNode,
                      qualname: str, cls: Optional[ClassInfo],
                      parent: Optional[FunctionInfo]) -> FunctionInfo:
        info = FunctionInfo(sf=sf, node=node, qualname=qualname,
                            cls=cls, parent=parent)
        self.functions[info.key] = info
        for sub in body_walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child = self._add_function(
                    sf, sub, f"{qualname}.{sub.name}", cls, info
                )
                info.locals_defs[sub.name] = child
        return info

    def _index_hierarchy(self) -> None:
        for name, infos in self.classes.items():
            for ci in infos:
                for base in ci.bases:
                    if base in self.classes:
                        self._subclasses.setdefault(base, set()).add(name)

    # -- hierarchy -------------------------------------------------------

    def subclasses(self, class_name: str) -> Set[str]:
        """Transitive project subclasses of ``class_name``."""
        out: Set[str] = set()
        frontier = [class_name]
        while frontier:
            current = frontier.pop()
            for sub in self._subclasses.get(current, ()):
                if sub not in out:
                    out.add(sub)
                    frontier.append(sub)
        return out

    def class_infos(self, class_name: str) -> List[ClassInfo]:
        return self.classes.get(class_name, [])

    def lookup_method(self, class_name: str, method: str,
                      *, virtual: bool = True) -> List[FunctionInfo]:
        """``method`` on ``class_name``: its MRO definition plus (when
        ``virtual``) every subclass override."""
        found: List[FunctionInfo] = []
        seen: Set[Tuple[str, str]] = set()

        def base_def(name: str, depth: int = 0) -> Optional[FunctionInfo]:
            if depth > 8:
                return None
            for ci in self.class_infos(name):
                if method in ci.methods:
                    return ci.methods[method]
                for base in ci.bases:
                    hit = base_def(base, depth + 1)
                    if hit is not None:
                        return hit
            return None

        own = base_def(class_name)
        if own is not None and own.key not in seen:
            seen.add(own.key)
            found.append(own)
        if virtual:
            for sub in self.subclasses(class_name):
                for ci in self.class_infos(sub):
                    info = ci.methods.get(method)
                    if info is not None and info.key not in seen:
                        seen.add(info.key)
                        found.append(info)
        return found

    def attr_type(self, class_name: str, attr: str,
                  depth: int = 0) -> Optional[str]:
        if depth > 8:
            return None
        for ci in self.class_infos(class_name):
            # Only project classes count: ``self.x = sorted(...)``
            # records "sorted", which must not mask an unknown type.
            if attr in ci.attr_types and ci.attr_types[attr] in self.classes:
                return ci.attr_types[attr]
            for base in ci.bases:
                hit = self.attr_type(base, attr, depth + 1)
                if hit is not None:
                    return hit
        return None

    # -- typing ----------------------------------------------------------

    def receiver_type(self, expr: ast.expr, fn: FunctionInfo,
                      depth: int = 0) -> Optional[str]:
        """Static class name of ``expr`` inside ``fn``, if recoverable."""
        if depth > 6:
            return None
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls"):
                scope = fn
                while scope is not None and scope.cls is None:
                    scope = scope.parent
                if scope is not None and scope.cls is not None:
                    return scope.cls.name
                return fn.cls.name if fn.cls else None
            scope: Optional[FunctionInfo] = fn
            while scope is not None:
                ann = scope.param_type(expr.id)
                if ann and ann in self.classes:
                    return ann
                local = self._local_binding_type(scope, expr.id)
                if local is not None:
                    return local
                scope = scope.parent
            hint = RECEIVER_HINTS.get(expr.id)
            return hint
        if isinstance(expr, ast.Attribute):
            base_type = self.receiver_type(expr.value, fn, depth + 1)
            if base_type is not None:
                attr = self.attr_type(base_type, expr.attr)
                if attr is not None:
                    return attr
            hint = RECEIVER_HINTS.get(expr.attr)
            return hint
        if isinstance(expr, ast.Call):
            targets = self.resolve_call(expr, fn, _depth=depth + 1)
            for target in targets:
                rt = target.return_type
                if rt and rt in self.classes:
                    return rt
            # Constructor call: ClassName(...)
            if isinstance(expr.func, ast.Name) and expr.func.id in self.classes:
                return expr.func.id
        return None

    def _local_binding_type(self, fn: FunctionInfo,
                            name: str) -> Optional[str]:
        for sub in body_walk(fn.node):
            if (isinstance(sub, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == name
                            for t in sub.targets)
                    and isinstance(sub.value, ast.Call)
                    and isinstance(sub.value.func, ast.Name)
                    and sub.value.func.id in self.classes):
                return sub.value.func.id
            if (isinstance(sub, ast.AnnAssign)
                    and isinstance(sub.target, ast.Name)
                    and sub.target.id == name):
                ann = annotation_name(sub.annotation)
                if ann and ann in self.classes:
                    return ann
        return None

    # -- resolution ------------------------------------------------------

    def resolve_name(self, name: str, fn: FunctionInfo) -> List[FunctionInfo]:
        scope: Optional[FunctionInfo] = fn
        while scope is not None:
            if name in scope.locals_defs:
                return [scope.locals_defs[name]]
            scope = scope.parent
        top = self.module_functions.get(fn.sf.path, {})
        if name in top:
            return [top[name]]
        origin = self.imports.get(fn.sf.path, {}).get(name)
        if origin:
            target = self._resolve_dotted(origin)
            if target is not None:
                return [target]
        return []

    def _resolve_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        parts = dotted.split(".")
        if len(parts) < 2:
            return None
        func_name = parts[-1]
        module_path = "/".join(parts[:-1]) + ".py"
        package_path = "/".join(parts[:-1]) + "/__init__.py"
        for sf_path, top in self.module_functions.items():
            if sf_path.endswith(module_path) or sf_path.endswith(package_path):
                if func_name in top:
                    return top[func_name]
        # Re-exported through a package __init__: fall back to the
        # unique module-level definition of that name.
        hits = [
            top[func_name]
            for top in self.module_functions.values()
            if func_name in top
        ]
        if len(hits) == 1:
            return hits[0]
        return None

    def resolve_call(self, call: ast.Call, fn: FunctionInfo,
                     *, _depth: int = 0) -> List[FunctionInfo]:
        func = call.func
        if isinstance(func, ast.Name):
            return self.resolve_name(func.id, fn)
        if isinstance(func, ast.Attribute):
            method = func.attr
            receiver = self.receiver_type(func.value, fn, depth=_depth)
            if receiver is not None:
                hits = self.lookup_method(receiver, method)
                if hits:
                    return hits
            # ``super().meth`` -> base-class chain of the enclosing class.
            if (isinstance(func.value, ast.Call)
                    and isinstance(func.value.func, ast.Name)
                    and func.value.func.id == "super"):
                scope = fn
                while scope is not None and scope.cls is None:
                    scope = scope.parent
                if scope is not None and scope.cls is not None:
                    for base in scope.cls.bases:
                        hits = self.lookup_method(base, method, virtual=False)
                        if hits:
                            return hits
                return []
            # Unique-name fallback: one project definition only, and
            # never for names shared with builtin container methods.
            if method not in BUILTIN_METHODS:
                candidates = self.by_method.get(method, [])
                distinct = {c.key: c for c in candidates}
                if len(distinct) == 1:
                    return list(distinct.values())
        return []

    # -- reverse edges ---------------------------------------------------

    def callers_of(self, target: FunctionInfo
                   ) -> List[Tuple[FunctionInfo, ast.Call]]:
        """Every (caller, call-site) resolving to ``target``."""
        if self._callers is None:
            self._callers = {}
            for fn in list(self.functions.values()):
                for sub in body_walk(fn.node):
                    if not isinstance(sub, ast.Call):
                        continue
                    for callee in self.resolve_call(sub, fn):
                        self._callers.setdefault(callee.key, []).append(
                            (fn, sub)
                        )
        return self._callers.get(target.key, [])


def map_args(call: ast.Call, callee: FunctionInfo) -> Dict[str, ast.expr]:
    """Map a call site's argument expressions onto ``callee`` params."""
    params = callee.params
    if callee.cls is not None and params and params[0] in ("self", "cls"):
        params = params[1:]
    mapping: Dict[str, ast.expr] = {}
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if index < len(params):
            mapping[params[index]] = arg
    kw_names = {a.arg for a in callee.node.args.kwonlyargs}
    for kw in call.keywords:
        if kw.arg is not None and (kw.arg in params or kw.arg in kw_names):
            mapping[kw.arg] = kw.value
    return mapping
