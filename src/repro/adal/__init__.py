"""ADAL — the Abstract Data Access Layer (slide 9 of the paper).

    "Hardware and software choices limit the access protocols and APIs —
    not all components accessible through all methods — need a unified
    access layer.  Abstract Data Access Layer, low-level interface to LSDF,
    extensible to support new backends, authentication mechanisms."

ADAL gives every tool (the DataBrowser, the workflow engine, the ingest
pipeline) one API over heterogeneous storage:

* ``adal://<store>/<path>`` URLs resolved through a backend registry;
* pluggable :class:`StorageBackend` implementations — in-memory, POSIX
  directory trees, the simulated HDFS, and an HSM-style tiered backend;
* pluggable authentication (:class:`AnonymousAuth`, :class:`TokenAuth`) and
  path-prefix ACL authorisation;
* end-to-end checksums (verified on read when requested).

Public surface
--------------
:class:`AdalClient`
    The unified entry point: read/write/stat/list/delete/copy.
:class:`BackendRegistry`, :class:`StorageBackend`, :class:`ObjectInfo`
    Extension points for new stores.
:class:`MemoryBackend`, :class:`PosixBackend`, :class:`TieredBackend`
    Bundled backends.
:class:`AnonymousAuth`, :class:`TokenAuth`, :class:`AclAuthorizer`
    Bundled auth mechanisms.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.adal.errors": (
        "AdalError", "AuthError", "BackendNotFoundError",
        "BackendUnavailableError", "ObjectExistsError", "ObjectNotFoundError",
        "PermissionDeniedError"),
    "repro.adal.api": (
        "AdalClient", "AdalUrl", "BackendRegistry", "ObjectInfo",
        "StorageBackend"),
    "repro.adal.auth": (
        "AclAuthorizer", "AnonymousAuth", "Credentials", "Principal",
        "TokenAuth"),
    "repro.adal.backends.memory": ("MemoryBackend",),
    "repro.adal.backends.posix": ("PosixBackend",),
    "repro.adal.backends.tiered": ("TieredBackend",),
    "repro.adal.backends.hdfs": ("HdfsBackend",),
    "repro.adal.backends.object_store": ("ObjectStoreBackend",),
    "repro.adal.backends.faulty": ("FaultyBackend",),
})

__all__ = [
    "AclAuthorizer",
    "AdalClient",
    "AdalError",
    "AdalUrl",
    "AnonymousAuth",
    "AuthError",
    "BackendNotFoundError",
    "BackendRegistry",
    "BackendUnavailableError",
    "Credentials",
    "FaultyBackend",
    "HdfsBackend",
    "MemoryBackend",
    "ObjectExistsError",
    "ObjectInfo",
    "ObjectNotFoundError",
    "ObjectStoreBackend",
    "PermissionDeniedError",
    "PosixBackend",
    "Principal",
    "StorageBackend",
    "TieredBackend",
    "TokenAuth",
]
