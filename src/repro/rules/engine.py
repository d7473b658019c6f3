"""The rule engine and bundled actions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.adal.api import AdalUrl
from repro.adal.errors import AdalError
from repro.metadata.query import Query
from repro.metadata.records import DatasetRecord
from repro.metadata.store import MetadataStore


class RuleError(Exception):
    """Bad rule definitions or action failures."""


@dataclass
class RuleContext:
    """The facility services actions may touch.

    Only ``store`` is mandatory; actions raise :class:`RuleError` when they
    need a service the context lacks (so misconfigured deployments fail
    loudly, not silently).
    """

    store: MetadataStore
    hsm: Any = None  # repro.storage.hsm.HsmSystem
    adal: Any = None  # repro.adal.api.AdalClient
    clock: Callable[[], float] = lambda: 0.0
    #: Simulated-time event collector for actions that start DES processes.
    pending_events: list = field(default_factory=list)


class Action:
    """One policy effect, applied to a dataset record."""

    name = "abstract"

    def apply(self, record: DatasetRecord, ctx: RuleContext) -> str:
        """Execute; returns a short human-readable outcome."""
        raise NotImplementedError


class TagAction(Action):
    """Add tags to the dataset (e.g. ``stale``, ``needs-review``)."""

    def __init__(self, *tags: str):
        if not tags:
            raise RuleError("TagAction needs at least one tag")
        self.tags = tags
        self.name = f"tag({','.join(tags)})"

    def apply(self, record: DatasetRecord, ctx: RuleContext) -> str:
        ctx.store.tag(record.dataset_id, *self.tags)
        return f"tagged {list(self.tags)}"


class PinAction(Action):
    """Pin (or unpin) the dataset's file on the disk tier — pinned files are
    never migration victims (calibration data, hot references)."""

    def __init__(self, pinned: bool = True):
        self.pinned = pinned
        self.name = "pin" if pinned else "unpin"

    def apply(self, record: DatasetRecord, ctx: RuleContext) -> str:
        if ctx.hsm is None:
            raise RuleError("PinAction requires an HSM in the rule context")
        pool = ctx.hsm.pool
        if not pool.contains(record.dataset_id):
            return "no pool file (skipped)"
        pool.lookup(record.dataset_id).pinned = self.pinned
        return "pinned" if self.pinned else "unpinned"


class ArchiveAction(Action):
    """Ensure a tape copy exists (the 'archival quality' guarantee)."""

    name = "archive"

    def apply(self, record: DatasetRecord, ctx: RuleContext) -> str:
        if ctx.hsm is None:
            raise RuleError("ArchiveAction requires an HSM in the rule context")
        tape = ctx.hsm.tape
        if tape.contains(record.dataset_id):
            return "tape copy exists"
        if not ctx.hsm.pool.contains(record.dataset_id):
            return "no pool file (skipped)"
        size = ctx.hsm.pool.lookup(record.dataset_id).size
        event = tape.archive(record.dataset_id, size)
        ctx.pending_events.append(event)
        ctx.hsm.pool.lookup(record.dataset_id).tape_copy = True
        return "archive started"


class MigrateAction(Action):
    """Move the dataset's file to the tape tier (dropping the disk replica)."""

    name = "migrate"

    def apply(self, record: DatasetRecord, ctx: RuleContext) -> str:
        if ctx.hsm is None:
            raise RuleError("MigrateAction requires an HSM in the rule context")
        pool = ctx.hsm.pool
        if not pool.contains(record.dataset_id):
            return "no pool file (skipped)"
        stored = pool.lookup(record.dataset_id)
        if stored.tier == "tape":
            return "already on tape"
        if stored.pinned:
            return "pinned (skipped)"
        event = ctx.hsm.sim.process(ctx.hsm._migrate_one(stored))
        ctx.pending_events.append(event)
        return "migration started"


class ReplicateAction(Action):
    """Copy the object to another ADAL store (off-system replica)."""

    def __init__(self, target_store: str):
        self.target_store = target_store
        self.name = f"replicate->{target_store}"

    def apply(self, record: DatasetRecord, ctx: RuleContext) -> str:
        if ctx.adal is None:
            raise RuleError("ReplicateAction requires an ADAL client in the context")
        src = record.url
        try:
            parsed = AdalUrl.parse(src)
        except AdalError:
            return f"unparseable source URL {src!r} (skipped)"
        if not parsed.path:
            return "source URL has no path component (skipped)"
        dst = f"adal://{self.target_store}/{parsed.path}"
        if ctx.adal.exists(dst):
            return "replica exists"
        ctx.adal.copy(src, dst)
        return f"replicated to {dst}"


class CustomAction(Action):
    """Wrap any callable ``(record, ctx) -> str`` as an action."""

    def __init__(self, fn: Callable[[DatasetRecord, RuleContext], str], name: str = "custom"):
        self.fn = fn
        self.name = name

    def apply(self, record: DatasetRecord, ctx: RuleContext) -> str:
        return self.fn(record, ctx)


_TRIGGERS = ("on_register", "on_tag", "periodic")


@dataclass
class Rule:
    """A declarative data-management policy."""

    name: str
    trigger: str
    condition: Query
    actions: Sequence[Action]
    #: For ``on_tag`` rules: the tag that fires them (None = any tag).
    tag: Optional[str] = None
    #: Apply at most once per dataset (default) or on every event.
    once_per_dataset: bool = True

    def __post_init__(self) -> None:
        if self.trigger not in _TRIGGERS:
            raise RuleError(f"unknown trigger {self.trigger!r}; one of {_TRIGGERS}")
        if not self.actions:
            raise RuleError(f"rule {self.name!r} has no actions")


@dataclass
class RuleApplication:
    """Audit-log entry: one rule applied to one dataset."""

    rule: str
    dataset_id: str
    when: float
    outcomes: list[str]
    #: How many of this application's actions raised (their outcome lines
    #: start with ``failed:``); 0 for a fully clean application.
    failures: int = 0

    @property
    def clean(self) -> bool:
        """True when every action of this application succeeded."""
        return self.failures == 0


class RuleEngine:
    """Evaluates rules against dataset records and executes their actions."""

    def __init__(self, ctx: RuleContext):
        self.ctx = ctx
        self.rules: list[Rule] = []
        self.log: list[RuleApplication] = []
        self._applied: set[tuple[str, str]] = set()

    def register(self, rule: Rule) -> None:
        """Install a rule."""
        if any(r.name == rule.name for r in self.rules):
            raise RuleError(f"duplicate rule name {rule.name!r}")
        self.rules.append(rule)

    # -- event hooks -----------------------------------------------------------
    def on_register(self, dataset_id: str) -> list[RuleApplication]:
        """Call when a dataset has just been registered."""
        record = self.ctx.store.get(dataset_id)
        return self._fire(record, (r for r in self.rules if r.trigger == "on_register"))

    def on_tag(self, dataset_id: str, tag: str) -> list[RuleApplication]:
        """Call when a tag has been applied."""
        record = self.ctx.store.get(dataset_id)
        rules = (
            r for r in self.rules
            if r.trigger == "on_tag" and (r.tag is None or r.tag == tag)
        )
        return self._fire(record, rules)

    def run_periodic(self) -> list[RuleApplication]:
        """Evaluate all ``periodic`` rules over the whole repository
        (index-assisted through the metadata query planner)."""
        applications: list[RuleApplication] = []
        for rule in (r for r in self.rules if r.trigger == "periodic"):
            for record in self.ctx.store.query(rule.condition):
                applications.extend(self._apply(rule, record, check_condition=False))
        return applications

    # -- internals ----------------------------------------------------------------
    def _fire(self, record: DatasetRecord, rules) -> list[RuleApplication]:
        applications: list[RuleApplication] = []
        for rule in rules:
            applications.extend(self._apply(rule, record, check_condition=True))
        return applications

    def _apply(self, rule: Rule, record: DatasetRecord,
               check_condition: bool) -> list[RuleApplication]:
        key = (rule.name, record.dataset_id)
        if rule.once_per_dataset and key in self._applied:
            return []
        if check_condition and not rule.condition.matches(record):
            return []
        # Actions are failure-isolated (mirroring the trigger engine): one
        # raising action records a `failed:` outcome and the remaining
        # actions still run, so a partial application is audited instead of
        # aborting mid-way and re-firing the earlier actions next trigger.
        outcomes: list[str] = []
        failures = 0
        for action in rule.actions:
            try:
                outcomes.append(f"{action.name}: {action.apply(record, self.ctx)}")
            except Exception as exc:
                failures += 1
                outcomes.append(
                    f"{action.name}: failed: {type(exc).__name__}: {exc}")
        self._applied.add(key)
        application = RuleApplication(rule.name, record.dataset_id,
                                      self.ctx.clock(), outcomes,
                                      failures=failures)
        self.log.append(application)
        return [application]

    # -- reporting --------------------------------------------------------------------
    def stats(self) -> dict:
        """Rule-engine counters."""
        per_rule: dict[str, int] = {}
        for application in self.log:
            per_rule[application.rule] = per_rule.get(application.rule, 0) + 1
        return {"rules": len(self.rules), "applications": len(self.log),
                "action_failures": sum(a.failures for a in self.log),
                "per_rule": per_rule}
