"""HDFS simulator — the "110 TB Hadoop filesystem" of slide 11.

Reproduces the mechanisms the paper's data-intensive computing claims rest
on:

* block-structured files with a configurable block size and replication
  factor;
* **rack-aware placement** (first replica on the writer, second off-rack,
  third on the second's rack) — the property that makes "bring computing to
  the data" possible;
* pipelined block writes and locality-ranked reads over the
  :mod:`repro.netsim` fluid network;
* datanode failure detection, under-replication tracking and
  re-replication;
* a balancer that plans block moves from over- to under-utilised nodes.

Public surface
--------------
:class:`NameNode`
    Pure (non-DES) metadata: namespace, placement, failure bookkeeping.
:class:`HdfsCluster`
    The DES wrapper: timed writes/reads/re-replication over the network.
:class:`Block`, :class:`DataNodeInfo`
    Data model.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hdfs.blocks": ("Block", "DataNodeInfo"),
    "repro.hdfs.namenode": ("HdfsError", "NameNode"),
    "repro.hdfs.cluster": ("HdfsCluster",),
})

__all__ = ["Block", "DataNodeInfo", "HdfsCluster", "HdfsError", "NameNode"]
