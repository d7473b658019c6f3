"""Storage substrate: disk arrays, tape library, pools, and HSM.

Models the LSDF storage estate from slide 7 — the DDN (0.5 PB) and IBM
(1.4 PB) disk systems and the tape library used for archive and backup —
plus the hierarchical storage management (migration/recall) behaviour that
the paper's iRODS/archival outlook (slide 14) calls for.

Public surface
--------------
:class:`FluidServer`
    Processor-sharing service model shared by the device simulators.
:class:`DiskArray`
    A disk system: aggregate streaming bandwidth shared across active I/O,
    per-operation overhead, capacity accounting.
:class:`TapeLibrary`
    Robot + drives + cartridges with mount/seek/stream timing.
:class:`StoragePool`
    Placement of files across several arrays.
:class:`HsmSystem`
    Watermark-driven disk-to-tape migration and recall-on-access staging.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.storage.ps": ("FluidServer",),
    "repro.storage.devices": ("DiskArray", "StorageError"),
    "repro.storage.tape": ("TapeCartridge", "TapeDrive", "TapeLibrary"),
    "repro.storage.pool": ("PlacementPolicy", "StoragePool", "StoredFile"),
    "repro.storage.hsm": ("HsmConfig", "HsmSystem"),
})

__all__ = [
    "DiskArray",
    "FluidServer",
    "HsmConfig",
    "HsmSystem",
    "PlacementPolicy",
    "StorageError",
    "StoragePool",
    "StoredFile",
    "TapeCartridge",
    "TapeDrive",
    "TapeLibrary",
]
