"""Workflow wiring: a validated DAG of actors.

Connections are ``(src_actor, src_port) -> (dst_actor, dst_port)``.  Each
input port has at most one writer; unconnected input ports must be supplied
as workflow inputs at run time; output ports may fan out freely.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.workflow.actor import Actor, ActorError


class PortError(ActorError):
    """Bad wiring: unknown port, double-connected input."""


class CycleError(ActorError):
    """The workflow graph is not a DAG."""


@dataclass(frozen=True)
class Connection:
    """One wire between two actor ports."""

    src_actor: str
    src_port: str
    dst_actor: str
    dst_port: str


class WorkflowGraph:
    """A named DAG of actors with port-level wiring."""

    def __init__(self, name: str = "workflow"):
        self.name = name
        self.actors: dict[str, Actor] = {}
        self.connections: list[Connection] = []
        self._input_writers: dict[tuple[str, str], Connection] = {}

    def add(self, actor: Actor) -> Actor:
        """Add an actor (names must be unique)."""
        if actor.name in self.actors:
            raise ActorError(f"duplicate actor name {actor.name!r}")
        self.actors[actor.name] = actor
        return actor

    def connect(self, src: str, src_port: str, dst: str, dst_port: str) -> Connection:
        """Wire an output port to an input port."""
        if src not in self.actors:
            raise PortError(f"unknown source actor {src!r}")
        if dst not in self.actors:
            raise PortError(f"unknown destination actor {dst!r}")
        if src_port not in self.actors[src].outputs:
            raise PortError(f"{src!r} has no output port {src_port!r}")
        if dst_port not in self.actors[dst].inputs:
            raise PortError(f"{dst!r} has no input port {dst_port!r}")
        key = (dst, dst_port)
        if key in self._input_writers:
            raise PortError(f"input port {dst}.{dst_port} already connected")
        conn = Connection(src, src_port, dst, dst_port)
        self.connections.append(conn)
        self._input_writers[key] = conn
        return conn

    # -- analysis ------------------------------------------------------------
    def free_inputs(self) -> list[tuple[str, str]]:
        """Input ports with no upstream writer — the workflow's inputs."""
        out = []
        for actor in self.actors.values():
            for port in actor.inputs:
                if (actor.name, port) not in self._input_writers:
                    out.append((actor.name, port))
        return out

    def _dependencies(self) -> tuple[dict[str, dict[str, None]],
                                     dict[str, int]]:
        """Downstream actors and upstream-actor counts (Kahn's algorithm's
        input; parallel wires between two actors count once)."""
        downstream: dict[str, dict[str, None]] = {
            name: {} for name in self.actors}  # insertion-ordered sets
        for conn in self.connections:
            downstream[conn.src_actor][conn.dst_actor] = None
        upstream = dict.fromkeys(self.actors, 0)
        for targets in downstream.values():
            for name in targets:
                upstream[name] += 1
        return downstream, upstream

    def _raise_if_cyclic(self, upstream: dict[str, int]) -> None:
        """After Kahn's algorithm, actors still waiting on an upstream one
        sit on, or below, a cycle."""
        stuck = sorted(name for name, count in upstream.items() if count)
        if stuck:
            raise CycleError(
                f"workflow {self.name!r} has a cycle; actors on or "
                f"downstream of it: {stuck}")

    def validate(self) -> None:
        """Raise :class:`CycleError` unless the wiring is a DAG."""
        self.waves()

    def topo_order(self) -> list[str]:
        """Deterministic topological order of actor names: the smallest
        ready name first."""
        downstream, upstream = self._dependencies()
        ready = [name for name, count in upstream.items() if not count]
        heapq.heapify(ready)
        order = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for target in downstream[name]:
                upstream[target] -= 1
                if not upstream[target]:
                    heapq.heappush(ready, target)
        self._raise_if_cyclic(upstream)
        return order

    def waves(self) -> list[list[str]]:
        """Actors grouped into dependency waves (each wave's actors are
        mutually independent — what :class:`DataflowDirector` parallelises)."""
        downstream, upstream = self._dependencies()
        out = []
        wave = sorted(name for name, count in upstream.items() if not count)
        while wave:
            out.append(wave)
            released = []
            for name in wave:
                for target in downstream[name]:
                    upstream[target] -= 1
                    if not upstream[target]:
                        released.append(target)
            wave = sorted(released)
        self._raise_if_cyclic(upstream)
        return out

    def upstream_of(self, actor: str, port: str) -> Connection | None:
        """The connection feeding an input port, if any."""
        return self._input_writers.get((actor, port))

    def __len__(self) -> int:
        return len(self.actors)
