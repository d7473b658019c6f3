"""Hierarchical storage management (HSM): disk <-> tape lifecycle.

Slide 14 of the paper announces iRODS-style managed data and "archival
quality" storage for the climate community; the mechanism behind both is
HSM: cold files migrate from the disk pool to tape when the pool fills past
a high watermark, and are staged back on access.

Two modes (ablated in E12):

``watermark``
    A periodic daemon migrates the coldest unpinned files whenever the pool
    fill fraction exceeds ``high_water``, until it drops to ``low_water``.
``write_through``
    Every stored file is *additionally* archived to tape at ingest time
    (archive copy).  Migration then only needs to drop the disk replica —
    cheap, at the cost of doubling write traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.simkit.core import Simulator
from repro.simkit.events import Event
from repro.telemetry.hub import TelemetryHub
from repro.storage.devices import StorageError
from repro.storage.pool import StoragePool, StoredFile
from repro.storage.tape import TapeLibrary


@dataclass
class HsmConfig:
    """Tunables of the HSM policy."""

    high_water: float = 0.85
    low_water: float = 0.70
    scan_interval: float = 3600.0
    #: Seconds since last access before a file is migration-eligible.
    min_age: float = 0.0
    #: "watermark" or "write_through".
    mode: str = "watermark"

    def __post_init__(self) -> None:
        if not (0.0 < self.low_water < self.high_water <= 1.0):
            raise ValueError("require 0 < low_water < high_water <= 1")
        if self.scan_interval <= 0:
            raise ValueError("scan_interval must be > 0")
        if self.mode not in ("watermark", "write_through"):
            raise ValueError(f"unknown HSM mode {self.mode!r}")


class HsmSystem:
    """Manages file lifecycle between a :class:`StoragePool` and a
    :class:`TapeLibrary`."""

    def __init__(
        self,
        sim: Simulator,
        pool: StoragePool,
        tape: TapeLibrary,
        config: Optional[HsmConfig] = None,
        start_daemon: bool = True,
    ):
        self.sim = sim
        self.pool = pool
        self.tape = tape
        self.config = config or HsmConfig()
        # One labelled family for both lifecycle directions; the attribute
        # names (`migrations`, `recalls`) remain the subsystem API.
        reg = TelemetryHub.for_sim(sim).registry
        self.migrations = reg.counter(
            "hsm.migrations_total", "File moves between tiers",
            direction="to_tape")
        self.recalls = reg.counter("hsm.migrations_total", direction="to_disk")
        self.stage_latency = reg.summary(
            "hsm.stage_latency_seconds", "Tape -> disk stage-in latency",
            unit="seconds")
        self.archive_copies = reg.counter(
            "hsm.archive_copies_total",
            "Write-through archive copies laid at ingest")
        self._migrating = False
        if start_daemon:
            self.sim.process(self._daemon(), name="hsm.daemon")

    # -- public API --------------------------------------------------------
    def store(self, file_id: str, nbytes: float) -> Event:
        """Ingest a file; in write-through mode also lays the tape copy."""
        return self.sim.process(self._store(file_id, nbytes), name="hsm.store")

    def access(self, file_id: str) -> Event:
        """Read a file, staging it back from tape first when necessary.

        The event value is the total access latency (stage + read).
        """
        return self.sim.process(self._access(file_id), name="hsm.access")

    def migrate_now(self) -> Event:
        """Force one migration pass immediately (used by tests/benches)."""
        return self.sim.process(self._migrate_pass(), name="hsm.migrate_now")

    def tier_of(self, file_id: str) -> str:
        """Current tier of a file: ``disk`` or ``tape``."""
        return self.pool.lookup(file_id).tier

    # -- internals -----------------------------------------------------------
    def _store(self, file_id: str, nbytes: float) -> Generator:
        yield self.pool.write(file_id, nbytes)
        if self.config.mode == "write_through":
            yield self.tape.archive(file_id, nbytes)
            self.pool.lookup(file_id).tape_copy = True
            self.archive_copies.add(1)
        return file_id

    def _access(self, file_id: str) -> Generator:
        start = self.sim.now
        record = self.pool.lookup(file_id)
        if record.tier == "tape":
            yield self.sim.process(self._stage_in(record))
        yield self.pool.read(file_id)
        return self.sim.now - start

    def _stage_in(self, record: StoredFile) -> Generator:
        start = self.sim.now
        yield self.tape.recall(record.file_id)
        # Re-admit to disk; may require evicting colder files first.
        if self.pool.free < record.size:
            yield self.sim.process(self._migrate_pass(target_free=record.size))
        array = self.pool.choose_array(record.size)
        record.array = array.name
        record.tier = "disk"
        record.last_access = self.sim.now
        yield array.write(record.size)
        self.recalls.add(1)
        self.stage_latency.record(self.sim.now - start)

    def _daemon(self) -> Generator:
        while True:
            yield self.sim.timeout(self.config.scan_interval)
            if self.pool.fill_fraction > self.config.high_water:
                yield self.sim.process(self._migrate_pass())

    def _eligible(self) -> list[StoredFile]:
        now = self.sim.now
        files = [
            f
            for f in self.pool.files_on_disk()
            if not f.pinned and (now - f.last_access) >= self.config.min_age
        ]
        files.sort(key=lambda f: (f.last_access, f.file_id))  # coldest first
        return files

    def _migrate_pass(self, target_free: float = 0.0) -> Generator:
        """Migrate coldest files until fill <= low_water (and ``target_free``
        bytes are available)."""
        if self._migrating:
            return 0
        self._migrating = True
        migrated = 0
        try:
            for record in self._eligible():
                below_water = self.pool.fill_fraction <= self.config.low_water
                enough_free = self.pool.free >= target_free
                if below_water and enough_free:
                    break
                yield self.sim.process(self._migrate_one(record))
                migrated += 1
        finally:
            self._migrating = False
        return migrated

    def _migrate_one(self, record: StoredFile) -> Generator:
        array = self.pool.arrays[record.array]
        if record.tape_copy:
            # Archive copy already on tape: just drop the disk replica.
            array.delete(record.size)
        else:
            yield array.read(record.size)
            try:
                yield self.tape.archive(record.file_id, record.size)
            except StorageError:
                return  # already archived by a concurrent path
            array.delete(record.size)
        record.tier = "tape"
        self.migrations.add(1)
