"""Data acquisition and ingest (slide 5 -> slide 7 path).

    "High Throughput Microscopy: fully automated microscopes, robot moves
    object to microscope, can potentially run 24*7, produce high resolution
    images (4 MB each) over varying parameters (focus point, wavelength...)
    ~200k images per day, 2 TB/day."

The pipeline: :class:`HighThroughputMicroscope`\\ s emit
:class:`ImageDescriptor`\\ s into a bounded :class:`DaqBuffer`;
:class:`TransferAgent`\\ s drain the buffer, move image batches over the
facility network, write them into the storage pool, checksum them, and
register each image in the metadata repository with its basic metadata —
the moment data stops being "invisible".

Experiment E1 drives this at the paper's rates.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ingest.microscope": (
        "HighThroughputMicroscope", "ImageDescriptor", "MicroscopeConfig"),
    "repro.ingest.daq": ("DaqBuffer",),
    "repro.ingest.transfer": ("StorageSink", "TransferAgent"),
    "repro.ingest.pipeline": ("IngestPipeline", "IngestReport"),
})

__all__ = [
    "DaqBuffer",
    "HighThroughputMicroscope",
    "ImageDescriptor",
    "IngestPipeline",
    "IngestReport",
    "MicroscopeConfig",
    "StorageSink",
    "TransferAgent",
]
