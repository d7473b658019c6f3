"""iRODS-style data-management rules (slide 14 outlook).

    "What's ahead?  Data management system iRODS (ongoing)."

What iRODS adds over plain storage is *policy*: declarative rules that fire
on data-management events and keep the estate in its intended state —
"archive everything in the climate project", "pin calibration data to
disk", "replicate raw detector data to a second store", "tag stale data
for review".  This package reproduces that mechanism over the glue layer:

* a :class:`Rule` binds a trigger (``on_register``, ``on_tag``,
  ``periodic``) plus a metadata :class:`~repro.metadata.query.Query`
  condition to a list of :class:`Action`\\ s;
* the :class:`RuleEngine` evaluates rules against dataset records, executes
  actions through the facility services (metadata store, HSM, ADAL), logs
  every application, and is idempotent per (rule, dataset);
* bundled actions cover the policies the paper's communities need:
  :class:`TagAction`, :class:`ArchiveAction` (tape copy via HSM),
  :class:`MigrateAction`, :class:`PinAction`, :class:`ReplicateAction`
  (cross-store copy via ADAL), :class:`CustomAction`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.rules.engine": (
        "Action", "ArchiveAction", "CustomAction", "MigrateAction",
        "PinAction", "ReplicateAction", "Rule", "RuleContext", "RuleEngine",
        "RuleError", "TagAction"),
})

__all__ = [
    "Action",
    "ArchiveAction",
    "CustomAction",
    "MigrateAction",
    "PinAction",
    "ReplicateAction",
    "Rule",
    "RuleContext",
    "RuleEngine",
    "RuleError",
    "TagAction",
]
