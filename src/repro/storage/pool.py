"""Storage pools: file placement across several disk arrays.

The LSDF presents "2 PB in 2 storage systems" as one facility; a
:class:`StoragePool` provides that single namespace, choosing an array per
file according to a :class:`PlacementPolicy` and keeping the file catalog
(the facility-side truth that the metadata repository references).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.simkit.core import Simulator
from repro.simkit.events import Event
from repro.telemetry.hub import TelemetryHub
from repro.storage.devices import DiskArray, StorageError


class PlacementPolicy(enum.Enum):
    """How the pool picks an array for a new file."""

    #: Most free bytes first — balances absolute free space.
    MOST_FREE = "most_free"
    #: Lowest fill fraction first — balances relative utilisation.
    LEAST_FILLED = "least_filled"
    #: Cycle through arrays regardless of fill.
    ROUND_ROBIN = "round_robin"


@dataclass
class StoredFile:
    """Catalog entry for a file stored in a pool."""

    file_id: str
    size: float
    array: str
    created: float
    last_access: float
    tier: str = "disk"  # "disk" or "tape" (managed by HSM)
    pinned: bool = False
    #: An archive copy is on tape (laid by the HSM's write-through mode),
    #: so migration can drop the disk replica without copying it.
    tape_copy: bool = False


class StoragePool:
    """A single namespace over several :class:`DiskArray` devices."""

    def __init__(
        self,
        sim: Simulator,
        arrays: Iterable[DiskArray],
        policy: PlacementPolicy = PlacementPolicy.MOST_FREE,
        name: str = "pool",
    ):
        self.sim = sim
        self.name = name
        self.arrays: dict[str, DiskArray] = {a.name: a for a in arrays}
        if not self.arrays:
            raise ValueError("pool needs at least one array")
        self.policy = policy
        self._files: dict[str, StoredFile] = {}
        self._rr_index = 0
        self._degraded: set[str] = set()
        reg = TelemetryHub.for_sim(sim).registry
        reg.gauge_fn("storage.pool_used_bytes", lambda: self.used,
                     "Allocated bytes across the pool's arrays",
                     unit="bytes", pool=name)
        reg.gauge_fn("storage.pool_capacity_bytes", lambda: self.capacity,
                     "Total pool capacity", unit="bytes", pool=name)
        reg.gauge_fn("storage.pool_files", lambda: float(len(self._files)),
                     "Files in the pool catalog", pool=name)

    # -- capacity ---------------------------------------------------------
    @property
    def capacity(self) -> float:
        """Total capacity across arrays."""
        return sum(a.capacity for a in self.arrays.values())

    @property
    def used(self) -> float:
        """Total allocated bytes across arrays."""
        return sum(a.used for a in self.arrays.values())

    @property
    def free(self) -> float:
        """Total free bytes across arrays."""
        return self.capacity - self.used

    @property
    def fill_fraction(self) -> float:
        """Pool-wide used fraction."""
        return self.used / self.capacity

    # -- catalog ------------------------------------------------------------
    def lookup(self, file_id: str) -> StoredFile:
        """Catalog record for a file (KeyError if unknown)."""
        return self._files[file_id]

    def contains(self, file_id: str) -> bool:
        """Whether the pool knows this file id."""
        return file_id in self._files

    def files(self) -> list[StoredFile]:
        """All catalog entries, insertion-ordered."""
        return list(self._files.values())

    def files_on_disk(self) -> list[StoredFile]:
        """Catalog entries whose data currently lives on disk."""
        return [f for f in self._files.values() if f.tier == "disk"]

    def __len__(self) -> int:
        return len(self._files)

    # -- health --------------------------------------------------------------
    @property
    def degraded(self) -> set[str]:
        """Arrays currently marked degraded (excluded from placement)."""
        return set(self._degraded)

    def mark_degraded(self, array_name: str) -> None:
        """Exclude an array from new placements (brown-out / maintenance)."""
        if array_name not in self.arrays:
            raise StorageError(f"{self.name}: unknown array {array_name!r}")
        self._degraded.add(array_name)

    def clear_degraded(self, array_name: str) -> None:
        """Return a degraded array to placement service (idempotent)."""
        self._degraded.discard(array_name)

    # -- placement -----------------------------------------------------------
    def choose_array(self, nbytes: float, exclude: Optional[Iterable[str]] = None) -> DiskArray:
        """Pick the array for a new file under the pool's placement policy.

        Arrays named in ``exclude`` — and any marked degraded — are skipped,
        which is how callers fail over around tripped circuit breakers and
        browned-out arrays.  Raises :class:`StorageError` when no eligible
        array can hold ``nbytes``.
        """
        skip = set(exclude or ()) | self._degraded
        candidates = [a for a in self.arrays.values()
                      if a.name not in skip and a.free >= nbytes]
        if not candidates:
            raise StorageError(
                f"{self.name}: no eligible array can hold {nbytes:.3g} B "
                f"(pool free {self.free:.3g} B, excluded {sorted(skip)})"
            )
        if self.policy is PlacementPolicy.MOST_FREE:
            return max(candidates, key=lambda a: (a.free, a.name))
        if self.policy is PlacementPolicy.LEAST_FILLED:
            return min(candidates, key=lambda a: (a.fill_fraction, a.name))
        # ROUND_ROBIN over all arrays, skipping full/ineligible ones.
        order = list(self.arrays.values())
        for i in range(len(order)):
            array = order[(self._rr_index + i) % len(order)]
            if array.name not in skip and array.free >= nbytes:
                self._rr_index = (self._rr_index + i + 1) % len(order)
                return array
        raise StorageError("unreachable")  # pragma: no cover

    # -- I/O -------------------------------------------------------------------
    def write(
        self,
        file_id: str,
        nbytes: float,
        *,
        exclude: Optional[Iterable[str]] = None,
    ) -> Event:
        """Store a new file; the event fires when the write is durable.

        ``exclude`` names arrays to skip during placement (failover).
        """
        if file_id in self._files:
            raise StorageError(f"duplicate file id {file_id!r}")
        if nbytes < 0:
            raise ValueError("size must be >= 0")
        array = self.choose_array(nbytes, exclude=exclude)
        record = StoredFile(
            file_id=file_id,
            size=float(nbytes),
            array=array.name,
            created=self.sim.now,
            last_access=self.sim.now,
        )
        self._files[file_id] = record
        return array.write(nbytes)

    def write_bulk(
        self,
        items: Iterable[tuple[str, float]],
        *,
        exclude: Optional[Iterable[str]] = None,
    ) -> Event:
        """Store many new files with one aggregate device write.

        ``items`` is an iterable of ``(file_id, nbytes)`` pairs.
        One array is chosen for the whole batch (by total bytes) and every
        file gets its own catalog entry, but the device executes a single
        write of the total.  On a work-conserving (processor-sharing)
        array, N simultaneous equal-start writes totalling S bytes all
        finish at the same instant as one S-byte write, so the returned
        event's completion time is *exact* versus the per-file path — only
        the per-operation overheads are amortised, which is the fluid-mode
        point.  No catalog entry is created if any id is a duplicate.
        """
        items = [(fid, float(nbytes)) for fid, nbytes in items]
        if not items:
            raise ValueError("write_bulk needs at least one item")
        total = 0.0
        for file_id, nbytes in items:
            if file_id in self._files:
                raise StorageError(f"duplicate file id {file_id!r}")
            if nbytes < 0:
                raise ValueError("size must be >= 0")
            total += nbytes
        array = self.choose_array(total, exclude=exclude)
        for file_id, nbytes in items:
            self._files[file_id] = StoredFile(
                file_id=file_id,
                size=nbytes,
                array=array.name,
                created=self.sim.now,
                last_access=self.sim.now,
            )
        return array.write(total)

    def read(self, file_id: str) -> Event:
        """Read a stored file from its array (must be on the disk tier)."""
        record = self._files[file_id]
        if record.tier != "disk":
            raise StorageError(f"file {file_id!r} is on tier {record.tier!r}; stage it first")
        record.last_access = self.sim.now
        return self.arrays[record.array].read(record.size)

    def delete(self, file_id: str) -> None:
        """Remove a file, releasing disk capacity if it held any."""
        record = self._files.pop(file_id)
        if record.tier == "disk":
            self.arrays[record.array].delete(record.size)

    def array_of(self, file_id: str) -> Optional[DiskArray]:
        """The array currently holding a file's data (None when on tape)."""
        record = self._files[file_id]
        return self.arrays[record.array] if record.tier == "disk" else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<StoragePool {self.name} files={len(self._files)} fill={self.fill_fraction:.1%}>"
