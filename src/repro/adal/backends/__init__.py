"""Bundled ADAL storage backends."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.adal.backends.memory": ("MemoryBackend",),
    "repro.adal.backends.posix": ("PosixBackend",),
    "repro.adal.backends.tiered": ("TieredBackend",),
    "repro.adal.backends.hdfs": ("HdfsBackend",),
    "repro.adal.backends.object_store": ("Bucket", "ObjectStoreBackend"),
    "repro.adal.backends.faulty": ("FaultyBackend",),
})

__all__ = [
    "Bucket",
    "FaultyBackend",
    "HdfsBackend",
    "MemoryBackend",
    "ObjectStoreBackend",
    "PosixBackend",
    "TieredBackend",
]
