"""The three seeded workloads: ``poll``, ``provision`` and ``local-churn``.

Every workload drives the public API only (``repro.open_connection``,
``Connection``, ``Domain``, ``StoragePool``, ``Volume``; ``Libvirtd``
for set-up) on a ``VirtualClock``, so modelled sleeps return at once and
wall time is the Python stack's own cost plus thread handoffs.  All
inputs (guest names, XML documents, image bytes, the operation
sequence) are generated from the seed before anything is timed.

* ``poll`` -- remote monitoring.  One client thread, one tcp
  connection, no client cache, closed loop over a seeded read mix on a
  daemon with a state directory (journal plus durable flight recorder)
  hosting 200 guests, half of them running.  Nearly all work is the
  remote path; nothing journals or streams.
* ``provision`` -- writes beside reads over unix.  A closed-loop
  provisioner repeats a guest cycle (volume create, 1 MiB upload over a
  stream, define, start, suspend, resume, set memory, destroy,
  undefine, volume delete) while an open-loop poller on its own cached,
  event-subscribed connection reads on a fixed schedule, each read
  timed from when it was due.
* ``local-churn`` -- the embedded driver (``qemu:///system``
  in-process): no daemon, RPC or journal.  One thread repeats define,
  start, suspend, resume, set memory, info, destroy, undefine.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
import threading
import time
import uuid
from array import array
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.bench.workloads import build_backend
from repro.core.states import DomainState
from repro.daemon import Libvirtd
from repro.daemon.registry import reset_daemons
from repro.drivers import nodes
from repro.drivers.qemu import QemuDriver
from repro.errors import VirtError
from repro.util.clock import VirtualClock
from repro.xmlconfig import DomainConfig, StoragePoolConfig, VolumeConfig

from stats import OpenLoop, Speed, calibration_slice, slice_factor, summarize

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: the seeded read mix: info() ~50%, state() ~30%, xml_desc() ~15%,
#: list_domains() ~5% -- small, medium and large replies
READ_MIX = (("info", 50), ("state", 30), ("xml_desc", 15), ("list", 5))
KINDS = ("read", "mutate", "upload")


@dataclass(frozen=True)
class Size:
    """How big one run of a workload is."""

    poll_guests: int = 200
    #: guests the provision poller reads (half running)
    base_guests: int = 24
    #: daemon restarts timed for setup_s (median reported)
    restarts: int = 8
    #: local driver constructions timed for setup_s on local-churn
    local_setups: int = 41
    warmup_ops: int = 400
    warmup_cycles: int = 40
    warmup_prov_cycles: int = 4
    #: operations/cycles in the traced window (fixed, so the counts in
    #: the single-client ledgers repeat exactly on a fixed seed)
    traced_ops: int = 2000
    traced_cycles: int = 600
    traced_prov_cycles: int = 60
    #: open-loop rate of the provision poller, reads per second
    poller_rate: float = 50.0
    image_bytes: int = MIB
    #: distinct guest/volume documents a cycling workload rotates through
    cycle_specs: int = 32
    seq_len: int = 1 << 15


FULL = Size()
#: the smoke-test size: every code path, a fraction of a second each
TINY = replace(
    FULL, poll_guests=8, base_guests=4, restarts=2, local_setups=3,
    warmup_ops=10, warmup_cycles=2, warmup_prov_cycles=1, traced_ops=40,
    traced_cycles=10, traced_prov_cycles=3, image_bytes=300 * KIB,
    cycle_specs=4, seq_len=256,
)

FAILED = object()


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuestSpec:
    name: str
    memory_kib: int
    running: bool
    xml: str
    #: balloon target for the set-memory step of a cycle
    target_kib: int
    volume_xml: str = ""
    volume: str = ""


def guest_specs(rng: random.Random, prefix: str, count: int, with_volumes: bool = False,
                image_bytes: int = MIB) -> List[GuestSpec]:
    specs = []
    running = set(rng.sample(range(count), count // 2))
    for i in range(count):
        name = f"{prefix}{i:03d}"
        memory_kib = rng.choice((256, 512, 768, 1024)) * KIB
        config = DomainConfig(
            name=name,
            domain_type="kvm",
            uuid=str(uuid.UUID(int=rng.getrandbits(128), version=4)),
            memory_kib=memory_kib,
            vcpus=rng.choice((1, 2)),
        )
        volume = f"{name}.img" if with_volumes else ""
        specs.append(GuestSpec(
            name=name,
            memory_kib=memory_kib,
            running=i in running,
            xml=config.to_xml(),
            target_kib=memory_kib - rng.choice((64, 128)) * KIB,
            volume_xml=VolumeConfig(name=volume, capacity_bytes=4 * image_bytes).to_xml()
            if with_volumes else "",
            volume=volume,
        ))
    return specs


def read_sequence(rng: random.Random, guests: int, length: int) -> List[Tuple[str, int]]:
    ops = rng.choices([op for op, _ in READ_MIX], weights=[w for _, w in READ_MIX], k=length)
    return [(op, rng.randrange(guests)) for op in ops]


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------


class Tally:
    """The API calls one client thread completed -- kind (read, mutate or
    upload), operation, start and latency (ns) of each -- plus failure
    counts."""

    def __init__(self) -> None:
        # compact storage: the samples must not weigh on rss_peak_mib
        self.kinds: List[str] = []
        self.ops: List[str] = []
        self.starts = array("q")
        self.latencies = array("q")
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.cycles = 0
        self.uploaded_bytes = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def check(self, ok: bool, why: str) -> None:
        if not ok:
            self.fail(why)

    def record(self, kind: str, op: str, start: int, latency: int) -> None:
        self.kinds.append(kind)
        self.ops.append(op)
        self.starts.append(start)
        self.latencies.append(latency)

    def call(self, kind: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Time one API call; a raised VirtError counts as failed and
        returns :data:`FAILED`."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        except VirtError as exc:
            self.fail(f"{fn.__name__}: {exc}")
            return FAILED
        self.record(kind, fn.__name__, start, time.perf_counter_ns() - start)
        return result

    def merge(self, other: "Tally") -> None:
        self.kinds += other.kinds
        self.ops += other.ops
        self.starts += other.starts
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[: 20 - len(self.failures)]
        self.cycles += other.cycles
        self.uploaded_bytes += other.uploaded_bytes


@dataclass
class Phase:
    """What one measured window produced."""

    tally: Tally
    seconds: float
    cpu_seconds: float
    #: calibration slices taken through the window
    speed: Speed = field(default_factory=Speed)
    #: open-loop generator lateness, ns (provision only)
    lateness: Sequence[int] = ()
    #: peak resident memory when the window ended, before any summarizing
    rss_peak_mib: float = 0.0


def rss_peak_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_check(tally: Tally, op: str, spec: GuestSpec, result: Any,
               names: Sequence[str]) -> None:
    """Does a read reply name, or describe, the guest that was asked for?"""
    if result is FAILED:
        return
    expected = DomainState.RUNNING if spec.running else DomainState.SHUTOFF
    if op == "info":
        tally.check(result.state == expected and result.max_memory_kib == spec.memory_kib,
                    f"info({spec.name}) = {result}")
    elif op == "state":
        tally.check(result == expected, f"state({spec.name}) = {result}")
    elif op == "xml_desc":
        tally.check(f"<name>{spec.name}</name>" in result, f"xml_desc({spec.name}) names another guest")
    else:
        tally.check(set(names) <= {d.name for d in result}, "list_domains() misses seeded guests")


def do_read(conn: Any, op: str, domain: Any) -> Callable[[], Any]:
    if op == "info":
        return domain.info
    if op == "state":
        return domain.state
    if op == "xml_desc":
        return domain.xml_desc
    return conn.list_domains


def timed_setup(fn: Callable[[], Any]) -> Tuple[float, float]:
    """Seconds ``fn`` took, and the speed factor of calibration slices
    taken right before and after it."""
    before = calibration_slice()
    start = time.perf_counter()
    fn()
    seconds = time.perf_counter() - start
    return seconds, slice_factor(before, calibration_slice())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One workload: set-up, warm-up, measured windows, checks."""

    name = ""

    def __init__(self, seed: int, size: Size, workdir: str) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        #: end-state check failures
        self.problems: List[str] = []

    def setup(self) -> List[Tuple[float, float]]:
        """Build the workload; returns the timed set-up samples as
        ``(seconds, speed factor)`` pairs."""
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def window(self, seconds: Optional[float] = None, count: Optional[int] = None) -> Phase:
        """Measure for ``seconds``, or for exactly ``count`` operations
        (``poll``) or guest cycles (the others)."""
        raise NotImplementedError

    def restart(self) -> None:
        """Restart the daemon on its state directory (daemon workloads) and
        rewind the seeded sequences, so what follows repeats exactly."""

    def verify(self) -> None:
        """End-state checks; failures land in :attr:`problems`."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """The program's own public counters, for the ledger."""
        return {}

    def close(self) -> None:
        raise NotImplementedError

    def problem(self, ok: bool, why: str) -> None:
        if not ok:
            self.problems.append(why)

    def _closed_loop(self, step: Callable[[Tally], None], done: Callable[[Tally], int],
                     seconds: Optional[float], count: Optional[int]) -> Phase:
        """Repeat ``step`` until ``seconds`` pass or ``done`` reaches
        ``count``, with calibration slices in between."""
        tally, speed = Tally(), Speed()
        end = time.perf_counter() + float(seconds or 0.0)
        speed.tick(force=True)
        wall, cpu, skip = time.perf_counter(), time.process_time(), speed.wall_ns
        while done(tally) < count if count is not None else time.perf_counter() < end:
            step(tally)
            speed.tick()
        # the calibration slices are the benchmark's work, not the program's
        elapsed = time.perf_counter() - wall - (speed.wall_ns - skip) / 1e9
        cpu_used = time.process_time() - cpu - sum(speed.slice_ns[1:]) / 1e9
        speed.tick(force=True)
        return Phase(tally, elapsed, cpu_used, speed, rss_peak_mib=rss_peak_mib())


class DaemonHost:
    """A simulated host whose backend outlives daemon incarnations, so a
    restart re-adopts running guests instead of restarting them."""

    def __init__(self, hostname: str, transport: str, state_dir: str, guests: int) -> None:
        self.hostname = hostname
        self.transport = transport
        self.state_dir = state_dir
        self.clock = VirtualClock()
        self.backend = build_backend(
            "kvm", clock=self.clock, cpus=max(64, 2 * guests), memory_gib=max(64, guests)
        )
        self.daemon: Optional[Libvirtd] = None

    @property
    def uri(self) -> str:
        return f"qemu+{self.transport}://{self.hostname}/system"

    def start(self) -> Libvirtd:
        qemu = QemuDriver(self.backend)
        self.daemon = Libvirtd(
            hostname=self.hostname,
            drivers={"qemu": qemu, "kvm": qemu},
            clock=self.clock,
            state_dir=self.state_dir,
        )
        self.daemon.listen(self.transport)
        return self.daemon

    def stop(self) -> None:
        if self.daemon is not None:
            self.daemon.shutdown()
            self.daemon = None

    def restarts(self, count: int, connect: Callable[[], Any],
                 disconnect: Callable[[], None]) -> List[Tuple[float, float]]:
        """Time ``count`` non-intrusive restarts: a fresh daemon on the same
        state directory and backend (journal and flight-recorder
        recovery, re-adopting running guests), listen, connect.  The last
        incarnation and its connection stay up."""
        samples = []
        for _ in range(count):
            disconnect()
            self.stop()
            samples.append(timed_setup(lambda: (self.start(), connect())))
        return samples


class Poll(Workload):
    name = "poll"

    def __init__(self, seed: int, size: Size, workdir: str) -> None:
        super().__init__(seed, size, workdir)
        self.specs = guest_specs(self.rng, f"mon{seed % 1000:03d}-", size.poll_guests)
        self.sequence = read_sequence(self.rng, len(self.specs), size.seq_len)
        self.names = sorted(s.name for s in self.specs)
        self.host = DaemonHost(f"poll-{seed}", "tcp", os.path.join(workdir, "poll-state"), len(self.specs))
        self.conn: Any = None
        self.domains: List[Any] = []
        self.cursor = 0

    def _connect(self) -> None:
        self.conn = repro.open_connection(self.host.uri)

    def _disconnect(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def setup(self) -> List[Tuple[float, float]]:
        self.host.start()
        self._connect()
        for spec in self.specs:
            domain = self.conn.define_domain(spec.xml)
            if spec.running:
                domain.start()
        samples = self.host.restarts(self.size.restarts, self._connect, self._disconnect)
        self._handles()
        return samples

    def _handles(self) -> None:
        self.domains = [self.conn.lookup_domain(spec.name) for spec in self.specs]

    def restart(self) -> None:
        self.host.restarts(1, self._connect, self._disconnect)
        self._handles()
        self.cursor = 0

    def _read(self, tally: Tally) -> None:
        op, idx = self.sequence[self.cursor % len(self.sequence)]
        self.cursor += 1
        result = tally.call("read", do_read(self.conn, op, self.domains[idx]))
        read_check(tally, op, self.specs[idx], result, self.names)

    def warmup(self) -> None:
        tally = Tally()
        for _ in range(self.size.warmup_ops):
            self._read(tally)
        self.problems += tally.failures

    def window(self, seconds: Optional[float] = None, count: Optional[int] = None) -> Phase:
        return self._closed_loop(self._read, lambda t: t.attempted, seconds, count)

    def verify(self) -> None:
        conn = self.conn
        running = sorted(s.name for s in self.specs if s.running)
        self.problem([d.name for d in conn.list_domains(active=True)] == running,
                     "running guests differ from the seeded inventory")
        self.problem([d.name for d in conn.list_domains()] == self.names,
                     "defined guests differ from the seeded inventory")
        daemon = self.host.daemon
        self.problem(conn._driver.client.streams_open == 0, "client streams left open")
        self.problem(daemon.rpc.active_streams() == 0, "daemon streams left open")
        self.problem(daemon.rpc.inflight_calls() == 0, "daemon calls left in flight")

    def counters(self) -> Dict[str, float]:
        return daemon_counters(self.host.daemon, [self.conn])

    def close(self) -> None:
        self._disconnect()
        self.host.stop()


def daemon_counters(daemon: Libvirtd, conns: Sequence[Any]) -> Dict[str, float]:
    """Public counters of the daemon and the client connections."""
    rpc = daemon.server_stats()["rpc"]
    counters = {
        "rpc_calls": sum(c._driver.client.calls_made for c in conns),
        "retries": sum(c._driver.retries for c in conns),
        "queued_calls": rpc["calls_queued"],
        "rejected_calls": rpc["calls_rejected"],
        "flightrec_compactions": daemon.flight_recorder.compactions,
        "events_dropped": daemon.drivers["qemu"].events.dropped,
    }
    for conn in conns:
        cache = conn.cache_stats()
        if cache and cache["enabled"]:
            counters["cache_hits"] = cache["hits"]
            counters["cache_misses"] = cache["misses"]
            counters["cache_invalidations"] = cache["invalidations"]
    return counters


class Provision(Workload):
    name = "provision"

    def __init__(self, seed: int, size: Size, workdir: str) -> None:
        super().__init__(seed, size, workdir)
        self.base = guest_specs(self.rng, f"base{seed % 1000:03d}-", size.base_guests)
        self.cycle_specs = guest_specs(
            self.rng, f"prov{seed % 1000:03d}-", size.cycle_specs,
            with_volumes=True, image_bytes=size.image_bytes,
        )
        self.images = [self.rng.randbytes(size.image_bytes) for _ in range(4)]
        self.digests = [hashlib.sha256(image).hexdigest() for image in self.images]
        self.sequence = read_sequence(self.rng, len(self.base), size.seq_len)
        self.base_names = sorted(s.name for s in self.base)
        self.host = DaemonHost(
            f"prov-{seed}", "unix", os.path.join(workdir, "provision-state"), len(self.base) + 8
        )
        self.writer: Any = None
        self.reader: Any = None
        self.pool: Any = None
        self.read_domains: List[Any] = []
        self.events_seen = 0
        self._events_lock = threading.Lock()
        self.cycle_cursor = 0
        self.read_cursor = 0

    def _connect(self) -> None:
        self.writer = repro.open_connection(self.host.uri)

    def _disconnect(self) -> None:
        for conn in (self.reader, self.writer):
            if conn is not None:
                conn.close()
        self.reader = self.writer = None

    def _open_reader(self) -> None:
        self.reader = repro.open_connection(self.host.uri + "?cache=1")
        self.reader.subscribe_events(self._on_event)
        self.pool = self.writer.lookup_storage_pool("bench")
        self.read_domains = [self.reader.lookup_domain(s.name) for s in self.base]

    def _on_event(self, record: Dict[str, Any]) -> None:
        with self._events_lock:
            self.events_seen += 1

    def setup(self) -> List[Tuple[float, float]]:
        self.host.start()
        self._connect()
        pool = self.writer.define_storage_pool(StoragePoolConfig(name="bench", capacity_bytes=64 * GIB))
        pool.start()
        for spec in self.base:
            domain = self.writer.define_domain(spec.xml)
            if spec.running:
                domain.start()
        samples = self.host.restarts(self.size.restarts, self._connect, self._disconnect)
        self._open_reader()
        return samples

    def restart(self) -> None:
        self.host.restarts(1, self._connect, self._disconnect)
        self._open_reader()
        self.cycle_cursor = self.read_cursor = 0

    def _cycle(self, tally: Tally, verify_image: bool = False) -> None:
        index = self.cycle_cursor
        self.cycle_cursor += 1
        tally.cycles += 1
        spec = self.cycle_specs[index % len(self.cycle_specs)]
        image = self.images[index % len(self.images)]
        volume = tally.call("mutate", self.pool.create_volume, spec.volume_xml)
        if volume is FAILED:
            return
        info = tally.call("upload", volume.upload, image)
        if info is not FAILED:
            tally.uploaded_bytes += len(image)
            tally.check(info.allocation_bytes >= len(image), f"upload to {spec.volume} lost bytes")
        if verify_image:
            data = volume.download(0, len(image))
            tally.check(hashlib.sha256(data).hexdigest() == self.digests[index % len(self.images)],
                        f"download of {spec.volume} differs from the uploaded image")
        domain = tally.call("mutate", self.writer.define_domain, spec.xml)
        if domain is not FAILED:
            tally.check(domain.name == spec.name, f"define returned {domain.name} for {spec.name}")
            for step in (domain.start, domain.suspend, domain.resume):
                tally.call("mutate", step)
            tally.call("mutate", domain.set_memory, spec.target_kib)
            tally.call("mutate", domain.destroy)
            tally.call("mutate", domain.undefine)
        tally.call("mutate", volume.delete)

    def _read(self, tally: Tally) -> str:
        """One poller read, checked; the open loop times it from its due
        time.  Returns the operation."""
        op, idx = self.sequence[self.read_cursor % len(self.sequence)]
        self.read_cursor += 1
        domain = self.read_domains[idx]
        tally.attempted += 1
        try:
            result = do_read(self.reader, op, domain)()
        except VirtError as exc:
            tally.fail(f"{op}({domain.name}): {exc}")
            return op
        read_check(tally, op, self.base[idx], result, self.base_names)
        return op

    def warmup(self) -> None:
        tally = Tally()
        for i in range(self.size.warmup_prov_cycles):
            self._cycle(tally, verify_image=i == 0)
        for _ in range(20):
            self._read(tally)
        self.problems += tally.failures

    def window(self, seconds: Optional[float] = None, count: Optional[int] = None) -> Phase:
        """The provisioner runs the closed loop on this thread (taking the
        calibration slices between cycles); the poller reads on its own
        thread until the provisioner stops."""
        reader_tally = Tally()
        issued: List[str] = []
        writer_done = threading.Event()
        loop = OpenLoop(self.size.poller_rate)
        start_ns = time.perf_counter_ns()
        errors: List[BaseException] = []

        def poller() -> None:
            try:
                loop.run(lambda k: issued.append(self._read(reader_tally)), start_ns,
                         lambda due: not writer_done.is_set())
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        thread = threading.Thread(target=poller, name="perfbench-poller")
        thread.start()
        try:
            phase = self._closed_loop(self._cycle, lambda t: t.cycles, seconds, count)
        finally:
            writer_done.set()
            thread.join(timeout=60)
        if thread.is_alive() or errors:
            raise RuntimeError(f"provision poller did not finish cleanly: {errors}")
        for k, (op, latency) in enumerate(zip(issued, loop.latencies)):
            reader_tally.record("read", op, start_ns + int(k * loop.interval_ns), latency)
        phase.tally.merge(reader_tally)
        phase.lateness = list(loop.lateness)
        phase.rss_peak_mib = rss_peak_mib()
        return phase

    def verify(self) -> None:
        # one sampled cycle after the window: its image must read back intact
        tally = Tally()
        self._cycle(tally, verify_image=True)
        self.problems += tally.failures
        writer = self.writer
        names = [d.name for d in writer.list_domains()]
        self.problem(names == self.base_names, f"guests left behind: {sorted(set(names) - set(self.base_names))}")
        running = sorted(s.name for s in self.base if s.running)
        self.problem([d.name for d in writer.list_domains(active=True)] == running,
                     "running guests differ from the seeded inventory")
        self.problem(self.pool.list_volumes() == [], "volumes left behind in the pool")
        daemon = self.host.daemon
        for conn in (self.writer, self.reader):
            self.problem(conn._driver.client.streams_open == 0, "client streams left open")
        self.problem(daemon.rpc.active_streams() == 0, "daemon streams left open")
        self.problem(daemon.rpc.inflight_calls() == 0, "daemon calls left in flight")
        with self._events_lock:
            self.problem(self.events_seen > 0, "the subscribed poller saw no events")

    def counters(self) -> Dict[str, float]:
        return daemon_counters(self.host.daemon, [self.writer, self.reader])

    def close(self) -> None:
        self._disconnect()
        self.host.stop()


class LocalChurn(Workload):
    name = "local-churn"

    def __init__(self, seed: int, size: Size, workdir: str) -> None:
        super().__init__(seed, size, workdir)
        self.specs = guest_specs(self.rng, f"churn{seed % 1000:03d}-", size.cycle_specs)
        self.conn: Any = None
        self.cursor = 0

    def _open(self) -> None:
        nodes.reset_nodes()
        self.conn = repro.open_connection("qemu:///system")

    def setup(self) -> List[Tuple[float, float]]:
        # set-up here is driver and backend construction: the first open
        # of qemu:///system in a process builds both
        samples = []
        for _ in range(self.size.local_setups):
            if self.conn is not None:
                self.conn.close()
            samples.append(timed_setup(self._open))
        return samples

    def _cycle(self, tally: Tally) -> None:
        spec = self.specs[self.cursor % len(self.specs)]
        self.cursor += 1
        tally.cycles += 1
        domain = tally.call("mutate", self.conn.define_domain, spec.xml)
        if domain is FAILED:
            return
        tally.check(domain.name == spec.name, f"define returned {domain.name} for {spec.name}")
        for step in (domain.start, domain.suspend, domain.resume):
            tally.call("mutate", step)
        tally.call("mutate", domain.set_memory, spec.target_kib)
        info = tally.call("read", domain.info)
        if info is not FAILED:
            tally.check(info.state == DomainState.RUNNING and info.memory_kib == spec.target_kib,
                        f"info({spec.name}) = {info}")
        tally.call("mutate", domain.destroy)
        tally.call("mutate", domain.undefine)

    def warmup(self) -> None:
        tally = Tally()
        for _ in range(self.size.warmup_cycles):
            self._cycle(tally)
        self.problems += tally.failures

    def window(self, seconds: Optional[float] = None, count: Optional[int] = None) -> Phase:
        return self._closed_loop(self._cycle, lambda t: t.cycles, seconds, count)

    def verify(self) -> None:
        self.problem(self.conn.list_domains() == [], "guests left behind on the local driver")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        nodes.reset_nodes()


WORKLOADS = {cls.name: cls for cls in (Poll, Provision, LocalChurn)}


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def mix_median(ops: Sequence[str], values: Sequence[float]) -> Optional[float]:
    """Per-operation medians weighted by how often each operation ran: a
    typical latency of a mix of operation types that, unlike the median
    of the mixture, does not jump across the gaps between types."""
    by_op: Dict[str, List[float]] = {}
    for op, value in zip(ops, values):
        by_op.setdefault(op, []).append(value)
    if not by_op:
        return None
    return sum(len(v) * statistics.median(v) for v in by_op.values()) / len(values)


def end_to_end(phase: Phase, setup: Sequence[Tuple[float, float]]) -> Dict[str, Any]:
    """Every end-to-end figure of one window as measured, plus (under
    ``"gated"``) the metrics BENCHMARK.json gates, stated at the reference
    interpreter speed.  Each timing is a summary dict (median, tail
    percentile, count).

    Medians and tails of the mixed workloads move between runs with
    thread scheduling (the provision poller waits behind the provisioner
    for the interpreter lock; poll's long list calls meet the daemon's
    worker wake-ups) and, for mixtures, with the gaps between operation
    types; they are printed, not gated.  The gate takes the mix-weighted
    median and CPU time per operation, which hold still.
    """
    t, speed = phase.tally, phase.speed
    us = [v / 1000.0 for v in t.latencies]
    scaled = speed.scale(t.starts, us)

    def of(kind: str) -> List[float]:
        return [v for k, v in zip(t.kinds, us) if k == kind]

    ops = len(us)
    upload_s = sum(of("upload")) / 1e6
    factor = speed.mean_factor()
    figures: Dict[str, Any] = {
        "read": summarize(of("read")),
        "mutate": summarize(of("mutate")),
        "op": summarize(us),
        "mix_p50_us": mix_median(t.ops, us),
        "reads_per_s": len(of("read")) / phase.seconds,
        "ops_per_s": ops / phase.seconds,
        "cycles_per_s": t.cycles / phase.seconds if t.cycles else None,
        "upload_mib_s": (t.uploaded_bytes / MIB) / upload_s if upload_s else None,
        "cpu_us_per_op": phase.cpu_seconds * 1e6 / ops if ops else None,
        "setup_s": statistics.median(s for s, _ in setup) if setup else None,
        "setup_n": len(setup),
        "failed_frac": t.failed / t.attempted if t.attempted else None,
        "rss_peak_mib": phase.rss_peak_mib,
        "generator_late": summarize([v / 1e6 for v in phase.lateness]) if phase.lateness else None,
        "speed_factor": factor,
        "op_mean_us": sum(scaled) / ops if ops else None,
    }
    figures["gated"] = {
        "mix_p50_us": mix_median(t.ops, scaled),
        "cpu_us_per_op": figures["cpu_us_per_op"] * factor if ops else None,
        "setup_s": statistics.median(s * f for s, f in setup) if setup else None,
        "rss_peak_mib": figures["rss_peak_mib"],
    }
    return figures


def prepare_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)


def reset_registries() -> None:
    reset_daemons()
    nodes.reset_nodes()
