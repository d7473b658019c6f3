"""``perfbench`` — the repository's benchmark.

One machine-readable yardstick for the two paths the facility lives on:
the frame path (microscope → DAQ → backbone → disk → metadata repository,
simulated) and the wire path (``WireClient`` → framing → admission →
store/WAL → response, real asyncio over loopback).  Everything is
measured from outside, through ``repro``'s public API only; nothing under
``src/`` knows this package exists.  See ``perfbench/README.md``.
"""
