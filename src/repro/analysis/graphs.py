"""Whole-program structure: the project loader, import graph and call graph.

Per-file AST rules see one module at a time; the generator-process
subsystems (policy daemon, front-door workers, durability scrubber) hide
their bugs *between* functions and modules.  :class:`Project` parses every
module under a root once, indexes functions and classes by qualified name,
and builds two graphs over them:

* :class:`ImportGraph` — which project modules import which (dependency
  queries, cycle hunting);
* :class:`CallGraph` — an approximate static call graph resolving
  ``self.method`` (through the enclosing class and its project-local
  bases), module-level functions, and
  :class:`~repro.analysis.rules.ImportMap` aliases — the substrate the
  protocol checker and taint passes traverse.

The call graph is deliberately *approximate*: dynamically dispatched
attribute calls on arbitrary objects stay unresolved (counted, not
guessed), so every edge it does report corresponds to a real syntactic
call that static name resolution pins to one project function.

``python -m repro.analysis.graph`` dumps and queries the graphs; the
``--cache`` file (content-hash validated) lets CI build the graph once
and share it between the lint and cross-check steps.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.analysis.engine import Linter, SourceModule
from repro.analysis.rules import dotted

_CACHE_FORMAT = 1


def _module_name(relpath: str) -> str:
    """Dotted module name of a project-relative path.

    ``repro/frontdoor/service.py`` -> ``repro.frontdoor.service``;
    ``repro/frontdoor/__init__.py`` -> ``repro.frontdoor``.
    """
    parts = relpath[:-3].split("/") if relpath.endswith(".py") else relpath.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method, indexed by qualified name."""

    qualname: str            # repro.frontdoor.service.FrontDoor._serve
    module: SourceModule
    node: ast.AST            # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None  # enclosing class qualname, if a method
    is_generator: bool = False

    @property
    def path(self) -> str:
        """Module path of the definition."""
        return self.module.relpath

    @property
    def line(self) -> int:
        """1-indexed definition line."""
        return self.node.lineno

    @property
    def name(self) -> str:
        """The bare function name."""
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ClassInfo:
    """One class definition: its methods and project-resolvable bases."""

    qualname: str
    module: SourceModule
    node: ast.ClassDef
    methods: dict  # name -> FunctionInfo
    bases: list    # dotted base-class names (resolved through ImportMap)


def _is_generator(node: ast.AST) -> bool:
    """Whether a function body contains a yield outside nested functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
        if _is_generator(child):
            return True
    return False


class Project:
    """Every parsed module under a root, indexed for whole-program passes."""

    def __init__(self, modules: Iterable[SourceModule],
                 repo_root: Optional[Path] = None):
        #: relpath -> module
        self.modules: dict[str, SourceModule] = {
            m.relpath: m for m in modules
        }
        #: dotted module name -> module
        self.by_name: dict[str, SourceModule] = {
            _module_name(m.relpath): m for m in self.modules.values()
        }
        self.repo_root = repo_root or Path.cwd()
        #: qualname -> FunctionInfo (functions, methods, nested functions)
        self.functions: dict[str, FunctionInfo] = {}
        #: class qualname -> ClassInfo
        self.classes: dict[str, ClassInfo] = {}
        for module in self.modules.values():
            self._index_module(module)

    # -- loading -------------------------------------------------------------
    @classmethod
    def load(cls, paths: Iterable[str | Path],
             repo_root: Optional[Path] = None) -> "Project":
        """Parse every ``*.py`` under ``paths`` into a project.

        Files that do not parse are skipped here — the per-file lint
        already reports them as REP000.
        """
        modules = []
        for path in Linter._iter_files(paths):
            try:
                modules.append(SourceModule(
                    path.read_text(encoding="utf-8"),
                    Linter._relpath(path), path))
            except SyntaxError:
                continue
        return cls(modules, repo_root=repo_root or _find_repo_root(paths))

    # -- indexing ------------------------------------------------------------
    def _index_module(self, module: SourceModule) -> None:
        modname = _module_name(module.relpath)

        def visit(node: ast.AST, scope: str, cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{scope}.{child.name}"
                    info = FunctionInfo(
                        qualname=qual, module=module, node=child, cls=cls,
                        is_generator=_is_generator(child))
                    self.functions[qual] = info
                    if cls is not None and cls in self.classes:
                        self.classes[cls].methods[child.name] = info
                    visit(child, qual, None)
                elif isinstance(child, ast.ClassDef):
                    qual = f"{scope}.{child.name}"
                    bases = []
                    for base in child.bases:
                        resolved = module.imports.resolve(base)
                        if resolved:
                            bases.append(resolved)
                    self.classes[qual] = ClassInfo(
                        qualname=qual, module=module, node=child,
                        methods={}, bases=bases)
                    visit(child, qual, qual)
                else:
                    visit(child, scope, cls)

        visit(module.tree, modname, None)

    # -- lookups -------------------------------------------------------------
    def function(self, qualname: str) -> Optional[FunctionInfo]:
        """Look a function up by exact qualified name."""
        return self.functions.get(qualname)

    def resolve_method(self, cls_qualname: str, method: str,
                       _seen: Optional[set] = None) -> Optional[FunctionInfo]:
        """Find ``method`` on a class or its project-local base classes."""
        seen = _seen or set()
        if cls_qualname in seen:
            return None
        seen.add(cls_qualname)
        info = self.classes.get(cls_qualname)
        if info is None:
            return None
        if method in info.methods:
            return info.methods[method]
        modname = _module_name(info.module.relpath)
        for base in info.bases:
            # Same-module bases resolve to their bare spelling; qualify.
            if base not in self.classes and f"{modname}.{base}" in self.classes:
                base = f"{modname}.{base}"
            found = self.resolve_method(base, method, seen)
            if found is not None:
                return found
        return None

    def file_hashes(self) -> dict[str, str]:
        """Content hash per module (cache validation)."""
        return {
            relpath: hashlib.sha256(m.text.encode("utf-8")).hexdigest()[:16]
            for relpath, m in sorted(self.modules.items())
        }


def _find_repo_root(paths: Iterable[str | Path]) -> Path:
    """Walk up from the first path to the directory holding ``.git`` /
    ``docs`` / ``.github`` (external-catalog cross-checks live there)."""
    for raw in paths:
        cur = Path(raw).resolve()
        for candidate in (cur, *cur.parents):
            if any((candidate / marker).exists()
                   for marker in (".git", ".github", "docs")):
                return candidate
    return Path.cwd()


# ---------------------------------------------------------------------------
# import graph
# ---------------------------------------------------------------------------

def _is_lazy_exports(node: ast.AST) -> bool:
    """Whether ``node`` is a package's ``lazy_exports(__name__, {...})``
    call, whose literal keys name the submodules it re-exports from."""
    return (isinstance(node, ast.Call)
            and dotted(node.func) == "lazy_exports"
            and len(node.args) == 2 and isinstance(node.args[1], ast.Dict)
            and all(isinstance(key, ast.Constant) and isinstance(key.value, str)
                    for key in node.args[1].keys))


class ImportGraph:
    """Project-internal module dependency edges (a package's lazy
    re-exports count as imports of the submodules they name)."""

    def __init__(self, project: Project):
        self.project = project
        #: module name -> sorted imported project-module names
        self.imports: dict[str, list[str]] = {}
        known = set(project.by_name)
        for name, module in sorted(project.by_name.items()):
            targets: set[str] = set()
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        targets.update(self._known_prefix(alias.name, known))
                elif isinstance(node, ast.ImportFrom):
                    if node.level or not node.module:
                        continue
                    for alias in node.names:
                        full = f"{node.module}.{alias.name}"
                        hit = self._known_prefix(full, known)
                        targets.update(
                            hit or self._known_prefix(node.module, known))
                elif _is_lazy_exports(node):
                    for key in node.args[1].keys:
                        targets.update(self._known_prefix(key.value, known))
            targets.discard(name)
            self.imports[name] = sorted(targets)

    @staticmethod
    def _known_prefix(dotted_name: str, known: set[str]) -> set[str]:
        """The longest known project module that prefixes ``dotted_name``."""
        parts = dotted_name.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in known:
                return {candidate}
        return set()

    def importers_of(self, name: str) -> list[str]:
        """Modules that import ``name``."""
        return sorted(src for src, targets in self.imports.items()
                      if name in targets)


# ---------------------------------------------------------------------------
# call graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CallSite:
    """One resolved call edge with its source location."""

    caller: str
    callee: str
    path: str
    line: int


class CallGraph:
    """Approximate static call graph over a :class:`Project`."""

    def __init__(self, project: Project):
        self.project = project
        #: caller qualname -> call sites out of it
        self.edges: dict[str, list[CallSite]] = {}
        #: callee qualname -> call sites into it
        self.reverse: dict[str, list[CallSite]] = {}
        self.unresolved_calls = 0
        self._build()

    # -- construction --------------------------------------------------------
    def _build(self) -> None:
        for qual, info in sorted(self.project.functions.items()):
            sites = []
            for call in self._own_calls(info.node):
                callee = self.resolve_call(call, info)
                if callee is None:
                    self.unresolved_calls += 1
                    continue
                site = CallSite(caller=qual, callee=callee,
                                path=info.path, line=call.lineno)
                sites.append(site)
                self.reverse.setdefault(callee, []).append(site)
            self.edges[qual] = sites

    @staticmethod
    def _own_calls(node: ast.AST) -> Iterator[ast.Call]:
        """Call nodes in a function body, excluding nested function bodies
        (those are attributed to the nested function's own qualname)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Call):
                yield child
            yield from CallGraph._own_calls(child)

    def resolve_call(self, call: ast.Call,
                     caller: FunctionInfo) -> Optional[str]:
        """Qualified name of the project function a call targets, if the
        static resolution rules pin it to exactly one."""
        func = call.func
        module = caller.module
        modname = _module_name(module.relpath)

        if isinstance(func, ast.Name):
            name = func.id
            # Module-level function or class in the same module.
            local = f"{modname}.{name}"
            if local in self.project.functions:
                return local
            if local in self.project.classes:
                init = self.project.resolve_method(local, "__init__")
                return init.qualname if init else None
            # Imported name: "from repro.x import helper" / "as h".
            target = module.imports.names.get(name)
            if target:
                return self._lookup_dotted(target)
            return None

        if isinstance(func, ast.Attribute):
            spelled = dotted(func)
            if spelled is None:
                return None
            parts = spelled.split(".")
            # self.method() — the enclosing class, then its bases.
            if parts[0] == "self" and caller.cls is not None and len(parts) == 2:
                found = self.project.resolve_method(caller.cls, parts[1])
                return found.qualname if found else None
            # Aliased module attribute: "mod.func()" / "pkg.mod.Class()".
            resolved = module.imports.resolve(func)
            if resolved:
                return self._lookup_dotted(resolved)
        return None

    def _lookup_dotted(self, target: str) -> Optional[str]:
        """Map a fully-qualified dotted path onto a project function."""
        if target in self.project.functions:
            return target
        if target in self.project.classes:
            init = self.project.resolve_method(target, "__init__")
            return init.qualname if init else None
        # Method spelled through the class: repro.x.Cls.method resolved
        # through base classes.
        if "." in target:
            cls, method = target.rsplit(".", 1)
            if cls in self.project.classes:
                found = self.project.resolve_method(cls, method)
                return found.qualname if found else None
        return None

    # -- queries -------------------------------------------------------------
    def callees(self, qualname: str) -> list[CallSite]:
        """Call sites out of a function."""
        return list(self.edges.get(qualname, ()))

    def callers(self, qualname: str) -> list[CallSite]:
        """Call sites into a function."""
        return list(self.reverse.get(qualname, ()))

    def reachable(self, roots: Iterable[str],
                  stop: Optional[set[str]] = None) -> dict[str, Optional[CallSite]]:
        """BFS over call edges from ``roots``.

        Returns ``{qualname: parent-edge}`` for every reached function
        (roots map to ``None``).  Traversal does not *continue through*
        functions in ``stop`` (they are reached but not expanded) — how
        the protocol checker models guard wrappers.
        """
        stop = stop or set()
        parents: dict[str, Optional[CallSite]] = {}
        frontier = [r for r in roots if r in self.edges]
        for root in frontier:
            parents[root] = None
        while frontier:
            nxt = []
            for qual in frontier:
                if qual in stop:
                    continue
                for site in self.edges.get(qual, ()):
                    if site.callee not in parents:
                        parents[site.callee] = site
                        nxt.append(site.callee)
            frontier = nxt
        return parents

    @staticmethod
    def chain(parents: dict[str, Optional[CallSite]],
              qualname: str) -> list[CallSite]:
        """The root→``qualname`` edge chain from a :meth:`reachable` map."""
        out: list[CallSite] = []
        cur = qualname
        while parents.get(cur) is not None:
            site = parents[cur]
            out.append(site)
            cur = site.caller
        out.reverse()
        return out

    # -- cache ---------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-able cache payload (content-hash validated on load)."""
        return {
            "format": _CACHE_FORMAT,
            "files": self.project.file_hashes(),
            "unresolved_calls": self.unresolved_calls,
            "edges": [
                {"caller": s.caller, "callee": s.callee,
                 "path": s.path, "line": s.line}
                for sites in self.edges.values() for s in sites
            ],
        }

    def save_cache(self, path: str | Path) -> None:
        """Write the cache file."""
        Path(path).write_text(
            json.dumps(self.to_payload(), indent=1) + "\n", encoding="utf-8")

    @classmethod
    def load_cached(cls, project: Project,
                    path: str | Path) -> "CallGraph":
        """Build from a cache file when its hashes match, else rebuild
        (and refresh the cache file)."""
        cache_path = Path(path)
        if cache_path.exists():
            try:
                payload = json.loads(cache_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                payload = None
            if (payload and payload.get("format") == _CACHE_FORMAT
                    and payload.get("files") == project.file_hashes()):
                graph = cls.__new__(cls)
                graph.project = project
                graph.edges = {qual: [] for qual in project.functions}
                graph.reverse = {}
                graph.unresolved_calls = payload.get("unresolved_calls", 0)
                for row in payload.get("edges", ()):
                    site = CallSite(row["caller"], row["callee"],
                                    row["path"], row["line"])
                    graph.edges.setdefault(site.caller, []).append(site)
                    graph.reverse.setdefault(site.callee, []).append(site)
                return graph
        graph = cls(project)
        try:
            graph.save_cache(cache_path)
        except OSError:
            pass
        return graph

    def stats(self) -> dict:
        """Headline graph numbers (the CLI ``stats`` view)."""
        return {
            "modules": len(self.project.modules),
            "functions": len(self.project.functions),
            "classes": len(self.project.classes),
            "edges": sum(len(s) for s in self.edges.values()),
            "unresolved_calls": self.unresolved_calls,
            "generators": sum(
                1 for f in self.project.functions.values() if f.is_generator),
        }
