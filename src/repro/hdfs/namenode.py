"""The NameNode: namespace, block placement, failure bookkeeping, balancing.

Pure metadata logic (no simulation time), so placement invariants are
directly property-testable:

* no two replicas of a block on the same node;
* with >= 2 racks and replication >= 2, replicas span >= 2 racks
  (rack-aware policy);
* per-node used bytes never exceed capacity.

The DES side (:class:`~repro.hdfs.cluster.HdfsCluster`) asks the NameNode
*where* and then spends simulated time moving the bytes.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.simkit.rand import RandomSource
from repro.hdfs.blocks import Block, DataNodeInfo


class HdfsError(Exception):
    """Namespace/placement errors (no space, unknown path, ...)."""


class NameNode:
    """HDFS metadata server.

    Parameters
    ----------
    block_size:
        Bytes per block (the 2011 Hadoop default was 64 MiB).
    replication:
        Target replica count per block.
    placement:
        ``"rack_aware"`` (default) or ``"random"`` (ablation in E7).
    rng:
        Random source for placement tie-breaking.
    """

    def __init__(
        self,
        block_size: float = 64 * 2**20,
        replication: int = 3,
        placement: str = "rack_aware",
        rng: Optional[RandomSource] = None,
    ):
        if block_size <= 0:
            raise ValueError("block_size must be > 0")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if placement not in ("rack_aware", "random"):
            raise ValueError(f"unknown placement policy {placement!r}")
        self.block_size = float(block_size)
        self.replication = int(replication)
        self.placement = placement
        self.rng = rng or RandomSource(0)
        self.nodes: dict[str, DataNodeInfo] = {}
        self._racks: dict[str, list[str]] = {}
        self._files: dict[str, list[Block]] = {}
        self._block_seq = 0
        #: Blocks currently below their target replication.
        self.under_replicated: set[int] = set()
        self._blocks_by_id: dict[int, Block] = {}

    # -- membership -----------------------------------------------------------
    def add_datanode(self, name: str, rack: str, capacity: float) -> DataNodeInfo:
        """Register a datanode."""
        if name in self.nodes:
            raise HdfsError(f"datanode {name!r} already registered")
        info = DataNodeInfo(name, rack, float(capacity))
        self.nodes[name] = info
        self._racks.setdefault(rack, []).append(name)
        return info

    def live_nodes(self) -> list[DataNodeInfo]:
        """All alive datanodes, name-sorted (deterministic)."""
        return [self.nodes[n] for n in sorted(self.nodes) if self.nodes[n].alive]

    @property
    def racks(self) -> list[str]:
        """All rack names, sorted."""
        return sorted(self._racks)

    def rack_of(self, node: str) -> str:
        """Rack of a datanode."""
        return self.nodes[node].rack

    # -- namespace ----------------------------------------------------------
    def exists(self, path: str) -> bool:
        """Whether a file exists in the namespace."""
        return path in self._files

    def file_blocks(self, path: str) -> list[Block]:
        """Blocks of a file, in order."""
        try:
            return self._files[path]
        except KeyError:
            raise HdfsError(f"no such file: {path!r}") from None

    def file_size(self, path: str) -> float:
        """Logical size of a file in bytes."""
        return sum(b.size for b in self.file_blocks(path))

    def files(self) -> list[str]:
        """All paths, sorted."""
        return sorted(self._files)

    def block(self, block_id: int) -> Block:
        """Look up a block by id."""
        return self._blocks_by_id[block_id]

    @property
    def total_used(self) -> float:
        """Bytes used across all datanodes (replicas included)."""
        return sum(n.used for n in self.nodes.values())

    @property
    def total_capacity(self) -> float:
        """Raw capacity across all datanodes."""
        return sum(n.capacity for n in self.nodes.values())

    # -- placement -------------------------------------------------------------
    def _pick(self, candidates: list[DataNodeInfo], size: float) -> Optional[DataNodeInfo]:
        fitting = [c for c in candidates if c.alive and c.free >= size]
        if not fitting:
            return None
        # Weight the random choice towards emptier nodes to avoid hot-spots,
        # but deterministically via the namenode RNG.
        fitting.sort(key=lambda n: n.name)
        weights = [max(n.free, 1.0) for n in fitting]
        total = sum(weights)
        x = self.rng.uniform(0.0, total)
        acc = 0.0
        for node, weight in zip(fitting, weights):
            acc += weight
            if x <= acc:
                return node
        return fitting[-1]  # pragma: no cover - float edge

    def place_block(self, size: float, writer: Optional[str] = None) -> list[str]:
        """Choose replica nodes for a new block.

        Rack-aware policy (HDFS default): first replica on the writer when
        the writer is a datanode with room, second on a *different* rack,
        third on the second replica's rack but a different node; any further
        replicas anywhere.  ``"random"`` policy ignores topology entirely.
        """
        chosen: list[DataNodeInfo] = []

        def not_chosen(pool: Iterable[DataNodeInfo]) -> list[DataNodeInfo]:
            names = {c.name for c in chosen}
            return [p for p in pool if p.name not in names]

        live = self.live_nodes()
        if self.placement == "random":
            while len(chosen) < self.replication:
                node = self._pick(not_chosen(live), size)
                if node is None:
                    break
                chosen.append(node)
        else:
            # Replica 1: writer-local when possible.
            first = None
            if writer is not None and writer in self.nodes:
                info = self.nodes[writer]
                if info.alive and info.free >= size:
                    first = info
            if first is None:
                first = self._pick(live, size)
            if first is not None:
                chosen.append(first)
                # Replica 2: a different rack.
                if self.replication >= 2:
                    off_rack = [n for n in live if n.rack != first.rack]
                    second = self._pick(not_chosen(off_rack), size)
                    if second is None:  # single-rack cluster: fall back
                        second = self._pick(not_chosen(live), size)
                    if second is not None:
                        chosen.append(second)
                        # Replica 3: same rack as the second, different node.
                        if self.replication >= 3:
                            same_rack = [n for n in live if n.rack == second.rack]
                            third = self._pick(not_chosen(same_rack), size)
                            if third is None:
                                third = self._pick(not_chosen(live), size)
                            if third is not None:
                                chosen.append(third)
            # Replicas 4+: anywhere.
            while len(chosen) < self.replication:
                node = self._pick(not_chosen(live), size)
                if node is None:
                    break
                chosen.append(node)

        if not chosen:
            raise HdfsError(f"no datanode can hold a block of {size:.3g} B")
        for node in chosen:
            node.used += size
        return [n.name for n in chosen]

    # -- file operations -----------------------------------------------------
    def create_file(self, path: str, size: float, writer: Optional[str] = None) -> list[Block]:
        """Allocate namespace + block placements for a new file."""
        if path in self._files:
            raise HdfsError(f"file exists: {path!r}")
        if size < 0:
            raise ValueError("size must be >= 0")
        blocks: list[Block] = []
        remaining = float(size)
        index = 0
        while remaining > 0 or index == 0:
            block_bytes = min(self.block_size, remaining) if remaining > 0 else 0.0
            self._block_seq += 1
            block = Block(self._block_seq, path, index, block_bytes)
            if block_bytes > 0:
                block.replicas = self.place_block(block_bytes, writer)
            blocks.append(block)
            self._blocks_by_id[block.block_id] = block
            remaining -= block_bytes
            index += 1
            if remaining <= 0:
                break
        self._files[path] = blocks
        return blocks

    def delete_file(self, path: str) -> None:
        """Remove a file, releasing all replica space."""
        blocks = self.file_blocks(path)
        for block in blocks:
            for replica in block.replicas:
                self.nodes[replica].used -= block.size
            self.under_replicated.discard(block.block_id)
            del self._blocks_by_id[block.block_id]
        del self._files[path]

    # -- failures ---------------------------------------------------------------
    def mark_dead(self, name: str) -> list[Block]:
        """Declare a datanode dead; returns the blocks that lost a replica.

        The dead node's replicas are dropped from block metadata and its
        ``used`` reset (the data is gone).  Affected blocks are queued in
        :attr:`under_replicated`.
        """
        info = self.nodes[name]
        if not info.alive:
            return []
        info.alive = False
        info.used = 0.0
        lost: list[Block] = []
        for block in self._blocks_by_id.values():
            if name in block.replicas:
                block.replicas.remove(name)
                lost.append(block)
                if len(block.replicas) < self.replication:
                    self.under_replicated.add(block.block_id)
        return lost

    def mark_alive(self, name: str) -> None:
        """Bring a (previously failed, now empty) datanode back."""
        self.nodes[name].alive = True

    def replication_target(self, block: Block) -> Optional[str]:
        """Pick a node for a new replica of an under-replicated block."""
        existing = set(block.replicas)
        existing_racks = {self.nodes[r].rack for r in block.replicas}
        live = [n for n in self.live_nodes() if n.name not in existing]
        # Prefer restoring rack diversity.
        off_rack = [n for n in live if n.rack not in existing_racks]
        node = self._pick(off_rack, block.size) or self._pick(live, block.size)
        return node.name if node else None

    def commit_replica(self, block: Block, node: str) -> None:
        """Record a completed re-replication copy."""
        if node in block.replicas:
            raise HdfsError(f"node {node!r} already holds block {block.block_id}")
        block.replicas.append(node)
        self.nodes[node].used += block.size
        if len(block.replicas) >= self.replication:
            self.under_replicated.discard(block.block_id)

    # -- balancer -------------------------------------------------------------
    def plan_balance(self, threshold: float = 0.10) -> list[tuple[Block, str, str]]:
        """Plan block moves so every node's utilisation is within
        ``threshold`` of the cluster mean (best effort, like the HDFS
        balancer).  Returns ``(block, from_node, to_node)`` moves; does not
        mutate state — :meth:`commit_move` applies one move."""
        live = self.live_nodes()
        if not live:
            return []
        mean = sum(n.used for n in live) / sum(n.capacity for n in live)
        over = sorted(
            (n for n in live if n.utilization > mean + threshold),
            key=lambda n: -n.utilization,
        )
        moves: list[tuple[Block, str, str]] = []
        planned_delta: dict[str, float] = {n.name: 0.0 for n in live}

        def util(node: DataNodeInfo) -> float:
            return (node.used + planned_delta[node.name]) / node.capacity

        for source in over:
            blocks_here = sorted(
                (b for b in self._blocks_by_id.values() if source.name in b.replicas),
                key=lambda b: (-b.size, b.block_id),
            )
            for block in blocks_here:
                if util(source) <= mean + threshold:
                    break
                target = None
                for candidate in sorted(live, key=lambda n: util(n)):
                    if candidate.name == source.name or candidate.name in block.replicas:
                        continue
                    if util(candidate) >= mean:
                        break
                    if candidate.free - planned_delta[candidate.name] >= block.size:
                        target = candidate
                        break
                if target is None:
                    continue
                moves.append((block, source.name, target.name))
                planned_delta[source.name] -= block.size
                planned_delta[target.name] += block.size
        return moves

    def commit_move(self, block: Block, src: str, dst: str) -> None:
        """Apply one balancer move to the metadata."""
        if src not in block.replicas:
            raise HdfsError(f"{src!r} does not hold block {block.block_id}")
        if dst in block.replicas:
            raise HdfsError(f"{dst!r} already holds block {block.block_id}")
        block.replicas[block.replicas.index(src)] = dst
        self.nodes[src].used -= block.size
        self.nodes[dst].used += block.size

    def utilization_spread(self) -> float:
        """Max-min utilisation gap across live nodes (balancer metric)."""
        live = self.live_nodes()
        if not live:
            return 0.0
        utils = [n.utilization for n in live]
        return max(utils) - min(utils)
