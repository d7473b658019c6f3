"""MapReduce: the Hadoop environment of slide 11.

    "Data has to be processed!  Exascale => bring computing to the data!!
    => dedicated 60 nodes cluster, Hadoop environment + 110 TB Hadoop
    filesystem, extreme scalability on commodity hardware."

Two engines, two purposes:

:mod:`repro.mapreduce.sim`
    A discrete-event **scheduler simulator** (JobTracker, task slots,
    locality-aware / delay scheduling, shuffle, stragglers, speculative
    execution) running over the simulated HDFS + network.  This is what the
    scaling experiments (E6, E7, E9) run.
:mod:`repro.mapreduce.local`
    A **real** in-process MapReduce executor (map / combine / partition /
    sort / reduce over Python functions) used by the runnable example
    applications — DNA k-mer counting, image statistics (E10).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.mapreduce.sim": (
        "JobResult", "JobSpec", "MapReduceSim", "TaskStats"),
    "repro.mapreduce.local": (
        "LocalJob", "LocalJobResult", "make_splits", "run_local"),
})

__all__ = [
    "JobResult",
    "JobSpec",
    "LocalJob",
    "LocalJobResult",
    "MapReduceSim",
    "TaskStats",
    "make_splits",
    "run_local",
]
