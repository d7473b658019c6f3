"""Transfer agents: DAQ buffer -> network -> storage -> metadata.

A :class:`TransferAgent` is one concurrent ingest stream: it takes frames
from the DAQ buffer (optionally batching them into one network flow),
transfers the batch from the DAQ host to the chosen storage system over the
facility network, writes each frame to the array, spends CPU time
checksumming, and registers the frame in the metadata repository with its
acquisition parameters as basic metadata.

With a :class:`~repro.resilience.ResilienceKit` attached, the agent
*survives* the faults the chaos framework injects: transient route loss,
array brown-outs and metadata outages are retried under the kit's
:class:`~repro.resilience.RetryPolicy`, repeated failures trip a per-array
circuit breaker and divert placement to a healthy array, and a batch is
spilled to the dead-letter queue only after every attempt is exhausted — so
every acquired frame is either registered or dead-lettered, never silently
lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Optional

from repro.simkit.core import Simulator
from repro.telemetry.hub import TelemetryHub
from repro.netsim.network import Network
from repro.netsim.topology import NoRouteError
from repro.storage.devices import StorageError
from repro.storage.pool import StoragePool
from repro.metadata.errors import MetadataUnavailableError
from repro.metadata.store import MetadataStore
from repro.resilience.errors import DeadlineExceededError
from repro.resilience.kit import ResilienceKit
from repro.resilience.timeout import with_timeout
from repro.ingest.daq import DaqBuffer
from repro.ingest.microscope import ImageDescriptor

#: Exceptions the resilient ingest path treats as recoverable.
_RECOVERABLE = (NoRouteError, StorageError, DeadlineExceededError,
                MetadataUnavailableError)


@dataclass
class StorageSink:
    """Where ingested data lands: a pool plus array-name -> network-node map."""

    pool: StoragePool
    array_nodes: dict[str, str]

    def __post_init__(self) -> None:
        missing = set(self.pool.arrays) - set(self.array_nodes)
        if missing:
            raise ValueError(f"no network node mapped for arrays: {sorted(missing)}")

    def choose(self, nbytes: float, exclude: Optional[Iterable[str]] = None) -> tuple[str, str]:
        """(array name, its network node) for an incoming object.

        ``exclude`` names arrays to route around (tripped breakers,
        failed attempts); see :meth:`StoragePool.choose_array`.
        """
        array = self.pool.choose_array(nbytes, exclude=exclude)
        return array.name, self.array_nodes[array.name]


class TransferAgent:
    """One ingest stream from a DAQ host into the facility.

    Parameters
    ----------
    sim, net:
        Simulator and facility network.
    buffer:
        The DAQ buffer to drain.
    src_node:
        Topology node of the DAQ host.
    sink:
        Target pool + node mapping.
    store:
        Metadata repository (frames are registered on arrival); ``None``
        skips registration (ablation: "invisible data").
    project:
        Metadata project name for registration.
    batch_size:
        Frames per network flow (amortises per-flow latency).
    checksum_rate:
        Checksum CPU throughput at the intake node, bytes/s.
    resilience:
        Optional :class:`~repro.resilience.ResilienceKit`; when attached
        (and enabled) batches are retried, failed over and dead-lettered
        instead of crashing the stream.
    transfer_timeout:
        Optional per-batch network-transfer deadline (seconds); a stalled
        flow counts as a failed attempt under the resilient path.
    on_error:
        Behaviour without an (enabled) kit when a batch fails: ``"raise"``
        (seed behaviour — the error escalates and kills the run) or
        ``"drop"`` (the batch is counted lost and the stream continues) —
        the ablation arm that shows what resilience buys.
    bulk_writes:
        Land a multi-frame batch on storage with one aggregate
        :meth:`~repro.storage.pool.StoragePool.write_bulk` instead of one
        write per frame (the chunked path; registration, accounting
        and resilience are the same either way).
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        buffer: DaqBuffer,
        src_node: str,
        sink: StorageSink,
        store: Optional[MetadataStore] = None,
        project: str = "zebrafish",
        batch_size: int = 16,
        checksum_rate: float = 400e6,
        name: str = "agent",
        resilience: Optional[ResilienceKit] = None,
        transfer_timeout: Optional[float] = None,
        on_error: str = "raise",
        bulk_writes: bool = False,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if on_error not in ("raise", "drop"):
            raise ValueError(f"unknown on_error policy {on_error!r}")
        self.sim = sim
        self.net = net
        self.buffer = buffer
        self.src_node = src_node
        self.sink = sink
        self.store = store
        self.project = project
        self.batch_size = batch_size
        self.checksum_rate = float(checksum_rate)
        self.name = name
        self.resilience = resilience
        self.transfer_timeout = transfer_timeout
        self.on_error = on_error
        # Per-agent series on the facility telemetry spine; the attribute
        # names are the stable subsystem API (reports and tests read them).
        reg = TelemetryHub.for_sim(sim).registry
        self.ingested = reg.counter(
            "ingest.frames_total", "Frames registered by transfer agents",
            agent=name)
        self.bytes_moved = reg.counter(
            "ingest.bytes_total", "Bytes ingested into the facility",
            unit="bytes", agent=name)
        self.latency = reg.summary(
            "ingest.latency_seconds", "Acquire -> registered latency",
            unit="seconds", agent=name)
        self.retried = reg.counter(
            "ingest.retries_total", "Batch retry attempts", agent=name)
        self.failovers = reg.counter(
            "ingest.failovers_total", "Failovers to an alternate array",
            agent=name)
        self.dead_lettered = reg.counter(
            "ingest.dead_lettered_total",
            "Frames spilled to the DLQ after retry exhaustion", agent=name)
        self.lost = reg.counter(
            "ingest.frames_lost_total",
            'Frames dropped by the on_error="drop" ablation', agent=name)
        self.bulk_writes = bulk_writes
        self._stop = False

    def start(self):
        """Launch the agent's drain loop (runs until :meth:`stop`)."""
        return self.sim.process(self._run(), name=f"ingest:{self.name}")

    def stop(self) -> None:
        """Ask the loop to exit after the current batch."""
        self._stop = True

    # -- internals ---------------------------------------------------------
    def _run(self) -> Generator:
        buffer = self.buffer
        while not self._stop:
            while not buffer.backlog_frames:
                yield buffer.wait()
            # Whatever is queued, up to one batch, moves as one flow.
            batch = buffer.pop(self.batch_size)
            kit = self.resilience
            if kit is not None and kit.enabled:
                yield from self._ingest_resilient(batch, kit)
            else:
                yield from self._ingest_once(batch)
        return self.ingested.value

    def _write_frames(self, frames: list[ImageDescriptor],
                      exclude=None) -> list:
        """Storage-write events for a batch: one per frame, or a single
        aggregate write under :attr:`bulk_writes`."""
        if self.bulk_writes and len(frames) > 1:
            items = [(f.image_id, f.size) for f in frames]
            return [self.sink.pool.write_bulk(items, exclude=exclude)]
        return [self.sink.pool.write(f.image_id, f.size, exclude=exclude)
                for f in frames]

    def _ingest_once(self, batch: list[ImageDescriptor]) -> Generator:
        """The straight-line (pre-resilience) ingest of one batch; a
        recoverable failure follows the ``on_error`` policy."""
        try:
            total = float(sum(f.size for f in batch))
            _array_name, dst_node = self.sink.choose(total)
            # One network flow for the whole batch.
            yield self.net.transfer(self.src_node, dst_node, total,
                                    name=f"{self.name}.batch")
            # Storage writes + checksum per frame (writes share the array's
            # bandwidth; checksums are CPU at the intake and overlap them).
            writes = self._write_frames(batch)
            checksum_time = total / self.checksum_rate
            if checksum_time > 0:
                writes.append(self.sim.timeout(checksum_time))
            yield self.sim.all_of(writes)
            for frame in batch:
                self._register(frame)
        except _RECOVERABLE:
            if self.on_error == "raise":
                raise
            # Ablation: the batch is lost but the stream survives.
            self.lost.add(len(batch))

    def _ingest_resilient(self, batch: list[ImageDescriptor],
                          kit: ResilienceKit) -> Generator:
        """Retry / failover / dead-letter ingest of one batch."""
        policy = kit.policy
        pending = list(batch)  # frames not yet registered
        attempts: list[tuple[float, str]] = []
        excluded: set[str] = set()  # arrays that failed *this batch*
        prev_array: Optional[str] = None
        attempt = 1
        while True:
            target: Optional[str] = None
            desperate = False
            try:
                # Frames already durably written (by an earlier attempt that
                # then failed) skip the network/write leg and only need
                # registration.
                to_move = [f for f in pending
                           if not self.sink.pool.contains(f.image_id)]
                nbytes = float(sum(f.size for f in to_move))
                if to_move:
                    array_name, dst_node, effective, desperate = (
                        self._choose_destination(nbytes, excluded, kit))
                    target = array_name
                    if prev_array is not None and array_name != prev_array:
                        self.failovers.add(1)
                        kit.reroutes.add(1)
                    prev_array = array_name
                    xfer = self.net.transfer(self.src_node, dst_node, nbytes,
                                             name=f"{self.name}.batch")
                    if self.transfer_timeout is not None:
                        xfer = with_timeout(self.sim, xfer, self.transfer_timeout,
                                            label=f"{self.name}.batch")
                    yield xfer
                    writes = self._write_frames(to_move, exclude=effective)
                    checksum_time = nbytes / self.checksum_rate
                    if checksum_time > 0:
                        writes.append(self.sim.timeout(checksum_time))
                    yield self.sim.all_of(writes)
                for frame in list(pending):
                    self._register(frame)  # raises during a metadata outage
                    pending.remove(frame)
                if target is not None and not desperate:
                    # A desperate probe (open breaker bypassed because no
                    # array was eligible) must not short-circuit the reset
                    # clock: the breaker closes through a real half-open
                    # probe once the timeout elapses.
                    kit.breakers.breaker(target).record_success()
                if attempt > 1:
                    kit.recovered_bytes.add(sum(f.size for f in batch))
                return
            except _RECOVERABLE as exc:
                attempts.append((self.sim.now, f"{type(exc).__name__}: {exc}"))
                if isinstance(exc, DeadlineExceededError):
                    kit.timeouts.add(1)
                if target is not None and not isinstance(exc, MetadataUnavailableError):
                    # The destination array (or the path to it) failed.
                    kit.breakers.breaker(target).record_failure()
                    excluded.add(target)
                if attempt >= policy.max_attempts:
                    self._dead_letter(pending, exc, attempts, kit)
                    return
                self.retried.add(1)
                kit.retries.add(1)
                backoff = policy.delay(attempt, kit.rng)
                attempt += 1
                if backoff > 0:
                    yield self.sim.timeout(backoff)

    def _choose_destination(
        self, nbytes: float, excluded: set[str], kit: ResilienceKit
    ) -> tuple[str, str, set[str], bool]:
        """Pick (array, node) routing around tripped breakers and past
        failures; falls back to the full pool when exclusions leave nothing
        (a desperate probe beats certain dead-lettering).  Returns the
        exclusion set actually honoured so writes can match it, plus whether
        this was such a desperate fallback."""
        skip = set(excluded) | kit.breakers.open_targets()
        try:
            array_name, node = self.sink.choose(nbytes, exclude=skip)
            return array_name, node, skip, False
        except StorageError:
            if not skip:
                raise
            array_name, node = self.sink.choose(nbytes)
            return array_name, node, set(), True

    def _register(self, frame: ImageDescriptor) -> None:
        """Make one written frame *visible* and account for it."""
        if self.store is not None:
            self.store.register_dataset(
                dataset_id=frame.image_id,
                project=self.project,
                url=f"adal://lsdf/{self.project}/plate{frame.plate}/"
                    f"{frame.well}/t{frame.timepoint:04d}/z{frame.z_plane}"
                    f"/c{frame.channel}/{frame.image_id}.tif",
                size=frame.size,
                checksum=f"sim-{frame.image_id}",
                basic={
                    "plate": frame.plate,
                    "well": frame.well,
                    "channel": frame.channel,
                    "wavelength": frame.wavelength,
                    "z_plane": frame.z_plane,
                    "timepoint": frame.timepoint,
                    "microscope": frame.microscope,
                },
                created=self.sim.now,
            )
        self.ingested.add(1)
        self.bytes_moved.add(frame.size)
        self.latency.record(self.sim.now - frame.acquired)

    def _dead_letter(self, frames: list[ImageDescriptor], exc: BaseException,
                     attempts: list[tuple[float, str]], kit: ResilienceKit) -> None:
        """Spill the batch's unregistered remainder to the DLQ."""
        error = f"{type(exc).__name__}: {exc}"
        for frame in frames:
            kit.dlq.push(frame, error=error, attempts=attempts,
                         source=self.name, time=self.sim.now, nbytes=frame.size)
            self.dead_lettered.add(1)
            kit.lost_bytes.add(frame.size)
