"""Kepler-style workflow orchestration (slides 12-13).

    "Experiments should be able to process data locally => help the users
    automate the workflows.  Integrated with the Kepler workflow
    orquestrator — user-friendly interface."

Kepler's model — **actors** with typed ports, wired into a graph, executed
by a **director** — is reproduced over the facility's real glue layer:

* :class:`Actor` / :class:`FunctionActor`: units of computation with named
  input/output ports;
* :class:`WorkflowGraph`: the wiring, validated as a DAG;
* :class:`SequentialDirector` / :class:`DataflowDirector`: run the graph
  for real (the dataflow director executes independent branches in
  dependency waves);
* :class:`SimulatedDirector`: runs the same graph inside the DES using
  per-actor cost models (used by the tag-trigger experiment E8);
* :class:`ProvenanceRecorder`: writes each actor firing into the metadata
  repository as a chained processing record — "data from finished
  workflows stored and tagged in DB".
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workflow.actor": ("Actor", "ActorError", "FunctionActor"),
    "repro.workflow.graph": ("CycleError", "PortError", "WorkflowGraph"),
    "repro.workflow.director": (
        "DataflowDirector", "ExecutionTrace", "SequentialDirector",
        "SimulatedDirector"),
    "repro.workflow.provenance": ("ProvenanceRecorder",),
    "repro.workflow.facility_actors": (
        "AdalReadActor", "AdalWriteActor", "ChecksumActor",
        "LocalMapReduceActor", "MetadataTagActor", "RegisterProductActor"),
})

__all__ = [
    "Actor",
    "ActorError",
    "AdalReadActor",
    "AdalWriteActor",
    "ChecksumActor",
    "LocalMapReduceActor",
    "MetadataTagActor",
    "RegisterProductActor",
    "CycleError",
    "DataflowDirector",
    "ExecutionTrace",
    "FunctionActor",
    "PortError",
    "ProvenanceRecorder",
    "SequentialDirector",
    "SimulatedDirector",
    "WorkflowGraph",
]
