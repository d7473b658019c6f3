"""The project metadata repository (slide 8 of the paper).

    "Metadata is essential.  Needs to be stored and kept up to date with
    data.  Metadata schema is highly project-dependent => we use a project
    metadata DB."

The paper's data model, reproduced here exactly:

* experiment **data** is write-once / read-many and persistent;
* **basic metadata** is captured at ingest, is write-once, and lives with
  the data;
* each processing step appends a **processing metadata** record (METADATA 1,
  METADATA 2 … METADATA N in the slide's figure) carrying the step's
  parameters and results, chained onto the basic metadata.

This package is *real* tooling (no simulation): per-project schemas with
validation, a write-once enforcement layer, secondary indexes, a composable
query language, tagging (the hook the DataBrowser's trigger rules use), and
JSONL persistence.

Public surface
--------------
:class:`Schema`, :class:`FieldSpec`
    Project-dependent metadata schemas with validation.
:class:`MetadataStore`
    The repository: projects, datasets, processing chains, tags, queries.
:class:`DatasetRecord`, :class:`ProcessingRecord`
    The stored record types.
:class:`Q`
    Query expression builder: ``Q.field("size") > 1e9``, ``Q.tag("ok")`` …
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metadata.errors": (
        "MetadataError", "MetadataUnavailableError", "SchemaError",
        "UnknownDatasetError", "WriteOnceError"),
    "repro.metadata.schema": ("FieldSpec", "Schema"),
    "repro.metadata.records": ("DatasetRecord", "ProcessingRecord"),
    "repro.metadata.query": ("Q", "Query"),
    "repro.metadata.store": ("MetadataStore",),
})

__all__ = [
    "DatasetRecord",
    "FieldSpec",
    "MetadataError",
    "MetadataStore",
    "MetadataUnavailableError",
    "ProcessingRecord",
    "Q",
    "Query",
    "Schema",
    "SchemaError",
    "UnknownDatasetError",
    "WriteOnceError",
]
