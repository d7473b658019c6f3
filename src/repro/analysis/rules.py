"""The facility rule catalogue and registry.

Each rule is a small AST check encoding one invariant the reproduction's
determinism / write-once claims rest on.  Rules self-register via
:func:`register`; the engine runs every registered rule against every
module, honouring per-rule ``exempt`` path patterns (facility internals
that legitimately own the dangerous operation) and ``scope`` patterns
(rules that only make sense on specific hot paths).

Adding a rule
-------------
Subclass :class:`Rule`, give it a unique ``id``/``name``, implement
``check(module)`` yielding :class:`~repro.analysis.findings.Finding`\\ s
(use :meth:`Rule.finding` for the boilerplate), and decorate the class
with ``@register``.  See :doc:`docs/static_analysis.md` for the workflow.
"""

from __future__ import annotations

import ast
import re
from fnmatch import fnmatch
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.analysis.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.engine import SourceModule


# ---------------------------------------------------------------------------
# import resolution
# ---------------------------------------------------------------------------

class ImportMap:
    """Tracks what local names resolve to which fully-qualified modules.

    Lets rules recognise ``time.time()`` whether it was spelled
    ``import time``, ``import time as t``, or ``from time import time``.
    """

    def __init__(self, tree: ast.AST):
        #: local alias -> full module path ("np" -> "numpy")
        self.modules: dict[str, str] = {}
        #: local name -> full dotted origin ("default_rng" -> "numpy.random.default_rng")
        self.names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # "import a.b" binds "a"; "import a.b as c" binds c -> a.b
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.modules[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted path of a Name/Attribute chain, if known.

        ``np.random.seed`` with ``import numpy as np`` resolves to
        ``"numpy.random.seed"``; ``datetime.now`` with
        ``from datetime import datetime`` to ``"datetime.datetime.now"``.
        Unresolvable chains (method calls on arbitrary objects) return the
        literal dotted spelling so prefix checks still see e.g.
        ``"self.backend.put"``.
        """
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        base = cur.id
        parts.append(base)
        parts.reverse()
        if base in self.modules:
            parts[0] = self.modules[base]
        elif base in self.names:
            parts[0] = self.names[base]
        return ".".join(parts)


def dotted(node: ast.AST) -> Optional[str]:
    """The literal dotted spelling of a Name/Attribute chain, or None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------------
# rule base + registry
# ---------------------------------------------------------------------------

class Rule:
    """Base class for lint rules."""

    #: Stable identifier, e.g. "REP001".
    id: str = ""
    #: Human name used in reports and pragmas, e.g. "wall-clock".
    name: str = ""
    severity: str = Severity.ERROR
    description: str = ""
    #: Path patterns (fnmatched against the module path suffix) where the
    #: rule is silenced — facility internals that own the operation.
    exempt: tuple[str, ...] = ()
    #: When non-empty, the rule only runs on modules matching one of these
    #: patterns (hot-path-only rules).
    scope: tuple[str, ...] = ()
    #: Whole-program rules need the project graph, not one module: the
    #: per-file :class:`~repro.analysis.engine.Linter` skips them and the
    #: whole-program engine (``repro.analysis.whole_program``) runs their
    #: :meth:`WholeProgramRule.check_project` instead.
    whole_program: bool = False

    def applies_to(self, module: "SourceModule") -> bool:
        """True when the module is in scope and not exempt for this rule."""
        path = module.relpath
        if self.scope and not any(_match(path, pat) for pat in self.scope):
            return False
        return not any(_match(path, pat) for pat in self.exempt)

    def check(self, module: "SourceModule") -> Iterator[Finding]:
        """Yield one :class:`Finding` per violation in the module."""
        raise NotImplementedError

    def finding(self, module: "SourceModule", node: ast.AST, message: str) -> Finding:
        """Build a finding for ``node`` with this rule's id/severity."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=module.relpath,
            line=line,
            col=col,
            rule=self.name,
            rule_id=self.id,
            severity=self.severity,
            message=message,
            snippet=module.line_text(line),
        )


class WholeProgramRule(Rule):
    """Base class for rules that analyse the whole project at once.

    Subclasses implement :meth:`check_project` over a
    :class:`~repro.analysis.graphs.Project` (which carries every parsed
    module plus the import/call graphs).  ``applies_to``/``exempt`` still
    work — the whole-program engine filters each finding by its *path* —
    and per-line pragmas suppress findings exactly as for per-file rules.
    """

    whole_program = True

    def check(self, module: "SourceModule") -> Iterator[Finding]:
        """Whole-program rules produce nothing per-module."""
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        """Yield findings over the whole :class:`Project`."""
        raise NotImplementedError

    def path_exempt(self, path: str) -> bool:
        """True when findings at ``path`` are exempt for this rule."""
        if self.scope and not any(_match(path, pat) for pat in self.scope):
            return True
        return any(_match(path, pat) for pat in self.exempt)


def _match(path: str, pattern: str) -> bool:
    """fnmatch a posix path against a suffix pattern like
    ``repro/adal/backends/*`` or ``repro/simkit/rand.py``."""
    return fnmatch(path, pattern) or fnmatch(path, f"*/{pattern}")


_REGISTRY: dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    if not rule.id or not rule.name:
        raise ValueError(f"rule {cls.__name__} needs id and name")
    for existing in _REGISTRY.values():
        if existing.id == rule.id or existing.name == rule.name:
            raise ValueError(f"duplicate rule id/name: {rule.id}/{rule.name}")
    Severity.validate(rule.severity)
    _REGISTRY[rule.name] = rule
    return cls


def all_rules() -> list[Rule]:
    """Registered rules, sorted by id."""
    return sorted(_REGISTRY.values(), key=lambda r: r.id)


def get_rule(token: str) -> Optional[Rule]:
    """Look a rule up by name or id."""
    if token in _REGISTRY:
        return _REGISTRY[token]
    for rule in _REGISTRY.values():
        if rule.id == token:
            return rule
    return None


# ---------------------------------------------------------------------------
# REP001 — wall-clock
# ---------------------------------------------------------------------------

_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.sleep",
}
_DATETIME = {
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


@register
class WallClockRule(Rule):
    """Simulation code must read :attr:`Simulator.now`, never the host
    clock — wall-clock reads differ between runs and break seeded
    reproducibility."""

    id = "REP001"
    name = "wall-clock"
    description = ("no time.time/monotonic/sleep or datetime.now inside "
                   "src/repro — use sim.now / sim.timeout")
    #: The wire layer IS the wall-clock boundary: a real asyncio TCP
    #: service in front of the deterministic facility.  Host time is its
    #: job; nothing it fronts reads the clock through it.
    exempt = ("repro/adal/wire/*",)

    def check(self, module: "SourceModule") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.imports.resolve(node.func)
            if target in _WALL_CLOCK or target in _DATETIME:
                yield self.finding(
                    module, node,
                    f"wall-clock call {target}() leaks host time into the "
                    "facility — use the simulator clock (sim.now / sim.timeout)",
                )


# ---------------------------------------------------------------------------
# REP002 — stdlib-random
# ---------------------------------------------------------------------------

@register
class StdlibRandomRule(Rule):
    """The stdlib ``random`` module is a process-global, implicitly seeded
    stream; all facility randomness must flow through
    ``Simulator.random`` / ``RandomSource.spawn``."""

    id = "REP002"
    name = "stdlib-random"
    description = "no stdlib random module — use Simulator.random / RandomSource.spawn"
    exempt = ("repro/analysis/tripwire.py",)

    def check(self, module: "SourceModule") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            module, node,
                            "stdlib random imported — draw from a seeded "
                            "RandomSource substream instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and (
                    node.module == "random" or node.module.startswith("random.")
                ):
                    yield self.finding(
                        module, node,
                        "stdlib random imported — draw from a seeded "
                        "RandomSource substream instead",
                    )


# ---------------------------------------------------------------------------
# REP003 — raw-numpy-rng
# ---------------------------------------------------------------------------

@register
class RawNumpyRngRule(Rule):
    """``np.random.*`` (global state, ``default_rng``, raw ``Generator``
    construction) bypasses the spawned-substream discipline that keeps
    benchmark arms comparable run-to-run."""

    id = "REP003"
    name = "raw-numpy-rng"
    description = ("no numpy.random.* outside simkit.rand — spawn a "
                   "RandomSource substream")
    exempt = ("repro/simkit/rand.py", "repro/analysis/tripwire.py")

    def check(self, module: "SourceModule") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                target = module.imports.resolve(node.func)
                if target and target.startswith("numpy.random."):
                    yield self.finding(
                        module, node,
                        f"raw numpy RNG {target}() — spawn a substream via "
                        "Simulator.random / RandomSource.spawn",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and node.module.startswith(
                    "numpy.random"
                ):
                    yield self.finding(
                        module, node,
                        "numpy.random imported directly — spawn a substream "
                        "via Simulator.random / RandomSource.spawn",
                    )


# ---------------------------------------------------------------------------
# REP004 — swallowed-exception
# ---------------------------------------------------------------------------

_BROAD = {"Exception", "BaseException"}


@register
class SwallowedExceptionRule(Rule):
    """A bare/broad except whose body neither re-raises nor calls anything
    (pure ``pass`` / fallback assignment) turns real bugs into silent
    behaviour changes — the resilience layer exists precisely so failures
    are *counted*, not swallowed."""

    id = "REP004"
    name = "swallowed-exception"
    description = ("no bare/blind `except Exception` that neither re-raises "
                   "nor records the failure")

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for t in types:
            if isinstance(t, ast.Name) and t.id in _BROAD:
                return True
        return False

    def check(self, module: "SourceModule") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler) or not self._is_broad(node):
                continue
            handles = False
            for sub in node.body:
                for inner in ast.walk(sub):
                    if isinstance(inner, (ast.Raise, ast.Call)):
                        handles = True
                        break
                if handles:
                    break
            if not handles:
                yield self.finding(
                    module, node,
                    "broad except swallows the failure without re-raising or "
                    "recording it — catch a narrow type, or count/log the fallback",
                )


# ---------------------------------------------------------------------------
# REP005 — write-once-overwrite
# ---------------------------------------------------------------------------

@register
class WriteOnceRule(Rule):
    """Ingested facility data is write-once/read-many; only the tiering
    backends (internal copy movement) may pass ``overwrite=True`` to a
    backend ``put``."""

    id = "REP005"
    name = "write-once-overwrite"
    description = ("no backend .put(..., overwrite=True) outside the ADAL "
                   "tiering internals — ingest data is write-once")
    exempt = ("repro/adal/backends/*",)

    def check(self, module: "SourceModule") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "put"):
                continue
            for kw in node.keywords:
                if (kw.arg == "overwrite"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True):
                    yield self.finding(
                        module, node,
                        ".put(..., overwrite=True) violates the write-once "
                        "invariant outside tiering internals",
                    )


# ---------------------------------------------------------------------------
# REP006 — unguarded-backend-io (retired)
# ---------------------------------------------------------------------------
# REP006's per-file heuristic (raw ``*backend*.get/put/...`` calls on the
# ingest/ADAL modules only) is subsumed by REP013 ``unguarded-backend-reach``
# in :mod:`repro.analysis.protocol`, which walks the project call graph from
# every simkit process entry point — so a backend leg hidden one call hop
# away (or in a module REP006 never scoped) is now caught, and call chains
# that pass through a retry/timeout/breaker guard are not.  The id REP006
# stays reserved.

_BACKEND_OPS = {"put", "get", "stat", "listdir", "delete", "exists"}


# ---------------------------------------------------------------------------
# REP007 — yield-raw-value
# ---------------------------------------------------------------------------

def _is_numeric_const(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _is_numeric_const(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_numeric_const(node.left) and _is_numeric_const(node.right)
    return False


@register
class YieldRawValueRule(Rule):
    """``yield 3.5`` inside a simulation process is a classic bug: the
    kernel needs an :class:`Event` (``yield sim.timeout(3.5)``); a raw
    number is rejected at runtime deep inside the run."""

    id = "REP007"
    name = "yield-raw-value"
    description = "no `yield <number>` where an Event is required — use sim.timeout()"

    def check(self, module: "SourceModule") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Yield) and node.value is not None
                    and _is_numeric_const(node.value)):
                yield self.finding(
                    module, node,
                    "yield of a raw number — simulation processes must yield "
                    "Events (sim.timeout(delay))",
                )


# ---------------------------------------------------------------------------
# REP008 — set-iteration
# ---------------------------------------------------------------------------

_SET_OPS = (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _is_set_expr(node: ast.AST, set_names: Iterable[str] = ()) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """The nodes of one scope, not descending into nested ones."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _local_set_names(func: ast.AST, nodes: list[ast.AST]) -> set[str]:
    """The names a function binds only by ``name = <set expression>``
    (never a parameter, a loop target, an unpacking or ``+=``)."""
    values: dict[str, list[ast.AST]] = {}
    stores = {arg.arg: 1 for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores[node.id] = stores.get(node.id, 0) + 1
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            values.setdefault(node.targets[0].id, []).append(node.value)
    names = {name for name, bound in values.items() if len(bound) == stores[name]}
    while True:  # a name stops counting once a name it is built from does
        kept = {name for name, bound in values.items() if name in names
                and all(_is_set_expr(value, names) for value in bound)}
        if kept == names:
            return names
        names = kept


@register
class SetIterationRule(Rule):
    """Iterating a set of strings orders elements by hash; with hash
    randomization that order differs between *processes*, so any sim
    behaviour derived from it diverges run-to-run.  Sort first.

    A set expression is a set display or comprehension, a ``set()`` or
    ``frozenset()`` call, set arithmetic (``-``, ``|``, ``&``, ``^``) on
    one, or a function-local name bound only to such expressions."""

    id = "REP008"
    name = "set-iteration"
    description = ("no iteration over set expressions (or local names bound "
                   "to them) — wrap in sorted(...) for a stable order")

    def check(self, module: "SourceModule") -> Iterator[Finding]:
        for scope in [module.tree, *(node for node in ast.walk(module.tree)
                                     if isinstance(node, _SCOPES))]:
            nodes = list(_scope_nodes(scope))
            set_names = (_local_set_names(scope, nodes) if isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef)) else set())
            for node in nodes:
                iters: list[ast.AST] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                    iters.extend(gen.iter for gen in node.generators)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in ("list", "tuple") and len(node.args) == 1):
                    iters.append(node.args[0])
                for it in iters:
                    if _is_set_expr(it, set_names):
                        yield self.finding(
                            module, it,
                            "iteration over a set expression has hash-dependent "
                            "order — wrap in sorted(...)",
                        )


# ---------------------------------------------------------------------------
# REP009 — ad-hoc-counter
# ---------------------------------------------------------------------------

_MONITOR_INSTRUMENTS = {
    "repro.simkit.monitor.Counter",
    "repro.simkit.monitor.Tally",
}

_COUNTERISH_NAME = re.compile(r"(stats|counts?|counters?|metrics|totals?)($|_)")


@register
class AdHocCounterRule(Rule):
    """Every subsystem statistic belongs on the telemetry spine
    (:mod:`repro.telemetry`) under a stable metric name — not in a private
    mutable dict, a ``collections.Counter`` field, or a raw
    ``simkit.monitor`` instrument that reports and CLI views cannot
    discover.  Time-weighted series (``TimeWeighted``) stay monitor
    primitives by design (the registry has no time-weighted kind) and are
    deliberately not flagged."""

    id = "REP009"
    name = "ad-hoc-counter"
    description = ("no ad-hoc stats fields (mutable counter dicts, "
                   "collections.Counter, raw monitor Counter/Tally) outside "
                   "repro.telemetry — register on the MetricsRegistry")
    exempt = (
        # The spine itself and the primitives it wraps.
        "repro/telemetry/*",
        "repro/simkit/*",
        # Per-spindle queueing internals of the fluid disk model: local to
        # one device process, never read by reports.
        "repro/storage/ps.py",
    )

    def _attr_name(self, target: ast.AST) -> Optional[str]:
        """The attribute name of a ``self.<name>`` assignment target."""
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return target.attr
        return None

    def check(self, module: "SourceModule") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            names = [n for n in map(self._attr_name, targets) if n is not None]
            if not names:
                continue
            label = ", ".join(f"self.{n}" for n in names)
            if isinstance(value, ast.Call):
                resolved = module.imports.resolve(value.func) or ""
                if resolved in ("collections.Counter", "collections.defaultdict"):
                    yield self.finding(
                        module, node,
                        f"{label} is a {resolved.split('.')[-1]} stats field — "
                        "register a labelled counter on the MetricsRegistry "
                        "instead",
                    )
                elif resolved in _MONITOR_INSTRUMENTS:
                    yield self.finding(
                        module, node,
                        f"{label} instantiates a raw monitor "
                        f"{resolved.rsplit('.', 1)[-1]} — migrate to "
                        "registry.counter()/summary() so reports and the CLI "
                        "can discover it",
                    )
            if (isinstance(value, ast.Dict)
                    and any(_COUNTERISH_NAME.search(n) for n in names)):
                yield self.finding(
                    module, node,
                    f"{label} looks like a mutable counter dict — register "
                    "labelled instruments on the MetricsRegistry instead",
                )


# ---------------------------------------------------------------------------
# REP019 — blocking-call-in-async
# ---------------------------------------------------------------------------

#: Calls that block the running thread — poison inside an event loop.
_ASYNC_BLOCKING = {
    "time.sleep": "use `await asyncio.sleep(...)`",
    "os.fsync": "run it in a thread (asyncio.to_thread) or outside the loop",
    "socket.socket": "use loop.create_connection / create_server with an "
                     "asyncio.Protocol",
    "socket.create_connection": "use loop.create_connection with an "
                                "asyncio.Protocol",
    "subprocess.run": "use asyncio.create_subprocess_exec",
    "subprocess.call": "use asyncio.create_subprocess_exec",
    "subprocess.check_call": "use asyncio.create_subprocess_exec",
    "subprocess.check_output": "use asyncio.create_subprocess_exec",
    "subprocess.Popen": "use asyncio.create_subprocess_exec",
    "urllib.request.urlopen": "blocking HTTP stalls the event loop",
    "requests.get": "blocking HTTP stalls the event loop",
    "requests.post": "blocking HTTP stalls the event loop",
    "requests.request": "blocking HTTP stalls the event loop",
    "open": "blocking file IO stalls the event loop — stage it off-loop",
}

#: Sim-only suspension APIs: yield-based, meaningless under asyncio.
_SIM_ONLY_SUFFIXES = ("sim.timeout", "sim.call_at", "sim.run")


@register
class AsyncBlockingRule(Rule):
    """An ``async def`` body that calls ``time.sleep``, blocking socket /
    file / subprocess IO, or a sim-only suspension API stalls the whole
    event loop (or yields an object asyncio cannot await) — every
    connection served by that loop stops, which defeats the wire layer's
    concurrency and its backpressure story."""

    id = "REP019"
    name = "blocking-call-in-async"
    description = ("no time.sleep / blocking socket, file or subprocess IO / "
                   "sim-only APIs inside `async def` bodies — use the "
                   "asyncio equivalents")

    def _own_statements(self, func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Nodes of the async function, excluding nested function bodies.

        A nested ``def`` is not executed by awaiting the outer coroutine
        (it may legitimately be handed to a thread pool); nested ``async
        def``\\ s are visited in their own right by the module walk.
        """
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def check(self, module: "SourceModule") -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in self._own_statements(func):
                if not isinstance(node, ast.Call):
                    continue
                target = module.imports.resolve(node.func)
                if target is None:
                    continue
                hint = _ASYNC_BLOCKING.get(target)
                if hint is not None:
                    yield self.finding(
                        module, node,
                        f"blocking call {target}() inside async def "
                        f"{func.name!r} stalls the event loop — {hint}",
                    )
                elif any(target == s or target.endswith("." + s)
                         for s in _SIM_ONLY_SUFFIXES):
                    yield self.finding(
                        module, node,
                        f"sim-only API {target}() inside async def "
                        f"{func.name!r} — simulation suspension primitives "
                        "cannot be awaited by the asyncio loop",
                    )


def catalogue() -> list[dict]:
    """Rule catalogue rows for docs / --list-rules."""
    return [
        {
            "id": r.id,
            "name": r.name,
            "severity": r.severity,
            "description": r.description,
            "scope": list(r.scope),
            "exempt": list(r.exempt),
            "whole_program": r.whole_program,
        }
        for r in all_rules()
    ]
