"""The per-layer ledger: spans recorded from outside the program.

Wrappers installed on each layer's public entry points (classes and
module functions of ``repro``) record one span per call: layer, entry
point, start and end (``perf_counter_ns``), the span that caused it and
the API operation (root span) it belongs to.  Nothing inside the
program is changed; :meth:`Recorder.restore` puts every original back,
so untraced runs measure unpatched code.

The daemon answers calls on workerpool threads.  The wrapper on
``WorkerPool.submit`` carries the submitting span across the handoff:
the time from submit until a worker picks the job up becomes a
``util.threadpool`` wait span and the job itself a ``daemon.libvirtd``
span, both children of the submitter, so worker-side spans join the
calling operation's trace.

A span's self time is its duration minus the part of it covered by its
descendants.  Descendants are used rather than only children because a
job that runs on a worker after its submitter returned still accounts
for time its caller spent waiting.  With that rule the self times of one
trace add up to the root's duration (up to cross-thread overlap).
"""

from __future__ import annotations

import inspect
import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from stats import interval_union, percentile_value, safe_ratio, tail_percentile

#: layers in call order; the ledger table follows this order
LAYERS = (
    "core",
    "drivers.remote",
    "rpc.protocol",
    "rpc.xdr",
    "rpc.transport",
    "rpc.server",
    "util.threadpool",
    "daemon.libvirtd",
    "observability.flightrec",
    "observability.tracing",
    "observability.metrics",
    "drivers.stateful",
    "hypervisors",
    "xmlconfig",
    "state.journal",
    "state.statedir",
    "core.events",
    "stream",
)

#: StatefulDriver entry points that only read state
_READ_PREFIXES = (
    "get_", "list_", "num_of_", "features", "domain_lookup", "domain_get_",
    "domain_has_", "snapshot_list", "checkpoint_list", "checkpoint_get_",
    "network_list", "network_lookup", "network_get_", "network_dhcp_",
    "storage_pool_list", "storage_pool_lookup", "storage_pool_get_",
    "storage_vol_list", "storage_vol_get_", "storage_vol_download",
)


class Span:
    """One timed call into a layer."""

    __slots__ = ("layer", "name", "parent", "root", "phase", "start", "end", "nbytes")

    def __init__(self, layer: str, name: str, parent: "Optional[Span]", phase: str) -> None:
        self.layer = layer
        self.name = name
        self.parent = parent
        #: the API operation this span belongs to (the outermost core span)
        self.root = parent.root if parent is not None else (self if layer == "core" else None)
        self.phase = phase
        self.start = 0
        self.end = 0
        self.nbytes = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


def is_read(method: str) -> bool:
    return method.startswith(_READ_PREFIXES)


class Recorder:
    """Installs the span wrappers and keeps the spans in memory."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: tag stamped on every new span (set between phases of a run)
        self.phase = "loop"
        self._tls = threading.local()
        self._patches: List[Tuple[Any, str, bool, Any]] = []

    # -- span stack --------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def timed(
        self,
        layer: str,
        name: str,
        fn: Callable[..., Any],
        size: "Optional[Callable[[tuple, Any, Any], int]]" = None,
        pre: "Optional[Callable[[tuple], Any]]" = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped so each call records a span.  ``size(args,
        result, pre(args))`` gives the bytes the call moved, if any."""
        spans = self.spans
        clock = self.clock
        stack_of = self._stack
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span = Span(layer, name, stack[-1] if stack else None, recorder.phase)
            before = pre(args) if pre is not None else None
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if size is not None:
                span.nbytes = size(args, result, before)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def carried_submit(self, submit: Callable[..., Any]) -> Callable[..., Any]:
        """``WorkerPool.submit`` wrapped to carry the submitting span
        across the thread handoff (see the module docstring)."""
        spans = self.spans
        clock = self.clock
        recorder = self

        def wrapper(pool: Any, func: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            parent = recorder.current()
            wait = Span("util.threadpool", "WorkerPool.wait", parent, recorder.phase)
            job = Span("daemon.libvirtd", "WorkerPool.job", parent, recorder.phase)

            def carried(*job_args: Any, **job_kwargs: Any) -> Any:
                job.start = wait.end = clock()
                spans.append(wait)
                saved = getattr(recorder._tls, "stack", None)
                recorder._tls.stack = [job]
                try:
                    return func(*job_args, **job_kwargs)
                finally:
                    job.end = clock()
                    recorder._tls.stack = saved
                    spans.append(job)

            wait.start = clock()
            return submit(pool, carried, *args, **kwargs)

        wrapper.__wrapped__ = submit  # type: ignore[attr-defined]
        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace ``owner.attr`` by ``make(original)``, keeping static and
        class methods what they were; remembered for :meth:`restore`."""
        own = attr in vars(owner)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, own, raw))
        setattr(owner, attr, new)

    def patch_layer(
        self,
        layer: str,
        owner: Any,
        attrs: Iterable[str],
        size: "Optional[Callable[[tuple, Any, Any], int]]" = None,
        pre: "Optional[Callable[[tuple], Any]]" = None,
    ) -> None:
        label = getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]
        for attr in attrs:
            self.patch(
                owner, attr,
                lambda fn, attr=attr: self.timed(layer, f"{label}.{attr}", fn, size, pre),
            )

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, own, raw = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def write(self, path: str) -> int:
        """Write the spans out as JSON lines; returns how many."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps([
                    i, span.layer, span.name, span.phase, span.start, span.end,
                    ids.get(id(span.parent)), ids.get(id(span.root)), span.nbytes,
                ], separators=(",", ":")))
                out.write("\n")
        return len(self.spans)


def public_methods(cls: type) -> List[str]:
    """Names of the plain, static and class methods a class defines itself."""
    names = []
    for name, raw in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
            names.append(name)
    return sorted(names)


def _nbytes(args: tuple, result: Any, before: Any) -> int:
    return len(result)


def _arg_nbytes(index: int) -> Callable[[tuple, Any, Any], int]:
    def size(args: tuple, result: Any, before: Any) -> int:
        return len(args[index]) if len(args) > index else 0

    return size


def _decoded_before(args: tuple) -> Any:
    data = args[0]
    return data.remaining() if hasattr(data, "remaining") else len(data)


def _decoded_nbytes(args: tuple, result: Any, before: Any) -> int:
    data = args[0]
    return before - data.remaining() if hasattr(data, "remaining") else before


def install_entry_points(rec: Recorder) -> None:
    """The outside-in instrumentation: wrap each layer's public entry
    points in ``repro``; :meth:`Recorder.restore` undoes all of it."""
    from repro.core.connection import Connection
    from repro.core.domain import Domain
    from repro.core.events import EventBroker, EventBus
    from repro.core.storage import StoragePool, Volume
    from repro.drivers.remote import RemoteDriver
    from repro.drivers.stateful import StatefulDriver
    from repro.hypervisors.base import Backend
    from repro.hypervisors.diskimage import ImageStore
    from repro.hypervisors.host import SimHost
    from repro.hypervisors.qemu_backend import QemuBackend, QmpMonitor, SimQemuProcess
    from repro.observability import tracing
    from repro.observability.flightrec import FlightRecorder
    from repro.observability.metrics import MetricFamily
    from repro.rpc import protocol
    from repro.rpc.server import RPCServer
    from repro.rpc.transport import Channel, ServerConnection
    from repro.state.journal import StateJournal
    from repro.state.statedir import StateDir
    from repro.stream.core import ClientStream, ServerStream
    from repro.util.threadpool import WorkerPool
    from repro.xmlconfig.domain import DomainConfig
    from repro.xmlconfig.storage import StoragePoolConfig, VolumeConfig

    for cls in (Connection, Domain, StoragePool, Volume):
        rec.patch_layer("core", cls, public_methods(cls))
    rec.patch_layer("drivers.remote", RemoteDriver, public_methods(RemoteDriver))
    rec.patch_layer("rpc.protocol", protocol.RPCMessage, ("pack", "unpack"))
    # the codec is called through the protocol module's own names
    rec.patch_layer("rpc.xdr", protocol, ("encode_value",), size=_nbytes)
    rec.patch_layer("rpc.xdr", protocol, ("decode_value",), size=_decoded_nbytes, pre=_decoded_before)
    rec.patch_layer("rpc.transport", Channel, ("send_request", "send_oneway"), size=_arg_nbytes(1))
    rec.patch_layer(
        "rpc.transport", Channel, ("send_batch",),
        size=lambda args, result, before: sum(len(frame) for frame in args[1]),
    )
    rec.patch_layer("rpc.transport", ServerConnection, ("send_reply", "push"), size=_arg_nbytes(1))
    rec.patch_layer("rpc.server", RPCServer, ("dispatch",))
    rec.patch(WorkerPool, "submit", rec.carried_submit)
    rec.patch_layer("observability.flightrec", FlightRecorder, ("record", "flush"))
    rec.patch_layer("observability.tracing", tracing.Tracer, ("span", "start_span", "finish_span"))
    # a ``with tracer.span(...)`` block finishes its span on exit
    rec.patch_layer("observability.tracing", tracing._SpanContextManager, ("__exit__",))
    rec.patch_layer("observability.metrics", MetricFamily, ("labels",))
    rec.patch_layer("drivers.stateful", StatefulDriver, public_methods(StatefulDriver))
    for cls in (Backend, QemuBackend, QmpMonitor, SimQemuProcess, SimHost, ImageStore):
        rec.patch_layer("hypervisors", cls, public_methods(cls))
    for cls in (DomainConfig, StoragePoolConfig, VolumeConfig):
        rec.patch_layer("xmlconfig", cls, ("from_xml", "to_xml"))
    rec.patch_layer("state.journal", StateJournal, ("put", "delete", "checkpoint"))
    rec.patch_layer("state.statedir", StateDir, ("append", "write_atomic"), size=_arg_nbytes(2))
    rec.patch_layer("core.events", EventBus, ("publish", "emit"))
    rec.patch_layer("core.events", EventBroker, ("emit",))
    rec.patch_layer("stream", ClientStream, ("send", "finish"))
    rec.patch_layer("stream", ServerStream, ("handle_frame",))


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time of every span (keyed by ``id(span)``): its duration minus
    the union of its descendants' intervals clipped to it.

    Same-thread children nest inside their parent, so for them this is
    the usual "duration minus children".  A child on another thread may
    outlast its parent; the part outside the parent still counts against
    every ancestor it overlaps.
    """
    children: Dict[int, List[Span]] = {}
    present = {id(span) for span in spans}
    roots: List[Span] = []
    for span in spans:
        if span.parent is not None and id(span.parent) in present:
            children.setdefault(id(span.parent), []).append(span)
        else:
            roots.append(span)
    result: Dict[int, int] = {}
    # extent(span): merged intervals covered by the span and its subtree
    extent: Dict[int, List[Tuple[int, int]]] = {}
    order: List[Span] = []
    todo = list(roots)
    while todo:
        span = todo.pop()
        order.append(span)
        todo.extend(children.get(id(span), ()))
    for span in reversed(order):  # children before parents
        covered: List[Tuple[int, int]] = []
        for child in children.get(id(span), ()):
            covered.extend(extent[id(child)])
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in covered
            if e > span.start and s < span.end
        ]
        result[id(span)] = span.duration - interval_union(clipped)
        outside = [(s, e) for s, e in covered if s < span.start or e > span.end]
        extent[id(span)] = _merge([(span.start, span.end)] + outside)
    return result


def _merge(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------


def _outermost(spans: Iterable[Span]) -> List[Span]:
    """The given spans that have no ancestor among them."""
    chosen = list(spans)
    ids = {id(span) for span in chosen}
    out = []
    for span in chosen:
        parent = span.parent
        while parent is not None and id(parent) not in ids:
            parent = parent.parent
        if parent is None:
            out.append(span)
    return out


def _under(span: Span, layer: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.layer == layer:
            return True
        parent = parent.parent
    return False


def _us(ns: float) -> float:
    return ns / 1000.0


def ledger(
    spans: Sequence[Span],
    ops: int,
    cycles: int,
    counters: Dict[str, float],
) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """Per-layer metrics and the per-layer self-time table.

    ``spans`` are the traced window's spans, ``ops`` the API operations
    completed in it and ``cycles`` the guest cycles (0 for ``poll``,
    where a "cycle" is one operation).  ``counters`` carries the
    program's own public counters, read before and after the window.
    """
    per_cycle = cycles or ops
    selfs = self_times(spans)
    by_layer: Dict[str, List[Span]] = {layer: [] for layer in LAYERS}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)

    def self_sum(layer: str) -> int:
        return sum(selfs[id(s)] for s in by_layer[layer])

    def total(layer: str, names: Tuple[str, ...] = ("",)) -> int:
        """Inclusive time of the layer's matching calls, nested ones once."""
        chosen = [s for s in by_layer[layer] if s.name.endswith(names)]
        return sum(s.duration for s in _outermost(chosen))

    def count(layer: str, names: Tuple[str, ...]) -> int:
        return sum(1 for s in by_layer[layer] if s.name.endswith(names))

    def nbytes(layer: str, names: Tuple[str, ...] = ("",)) -> int:
        return sum(s.nbytes for s in by_layer[layer] if s.name.endswith(names))

    roots = [s for s in spans if s.parent is None and s.layer == "core"]
    root_ns = sum(s.duration for s in roots)
    self_total = sum(self_sum(layer) for layer in by_layer)

    stateful = _outermost(by_layer["drivers.stateful"])
    reads = [s for s in stateful if is_read(s.name.rsplit(".", 1)[-1])]
    stateful_mutates = [s for s in by_layer["drivers.stateful"] if not is_read(s.name.rsplit(".", 1)[-1])]
    waits = sorted(s.duration for s in by_layer["util.threadpool"] if s.name == "WorkerPool.wait")
    wait_p99 = tail_percentile(len(waits))
    journal_appends = [s for s in by_layer["state.journal"] if s.name.endswith((".put", ".delete"))]
    checkpoints = [s for s in by_layer["state.journal"] if s.name.endswith(".checkpoint")]
    statedir_appends = [s for s in by_layer["state.statedir"] if s.name.endswith(".append")]
    flight_bytes = sum(s.nbytes for s in by_layer["state.statedir"] if _under(s, "observability.flightrec"))
    journal_bytes = sum(s.nbytes for s in by_layer["state.statedir"] if _under(s, "state.journal"))
    uploaded_mib = counters.get("uploaded_bytes", 0) / (1024 * 1024)
    chunks = counters.get("upload_chunks", 0)

    metrics: Dict[str, float] = {
        "core.self_us_per_call": _us(safe_ratio(self_sum("core"), ops)),
        "drivers.remote.self_us_per_call": _us(safe_ratio(self_sum("drivers.remote"), ops)),
        "drivers.remote.rpc_calls_per_op": safe_ratio(counters.get("rpc_calls", 0), ops),
        "drivers.remote.retries": counters.get("retries", 0),
        "rpc.protocol.pack_us_per_call": _us(safe_ratio(total("rpc.protocol", (".pack",)), ops)),
        "rpc.protocol.unpack_us_per_call": _us(safe_ratio(total("rpc.protocol", (".unpack",)), ops)),
        "rpc.protocol.unpacks_per_call": safe_ratio(count("rpc.protocol", (".unpack",)), ops),
        "rpc.xdr.encode_us_per_call": _us(safe_ratio(total("rpc.xdr", (".encode_value",)), ops)),
        "rpc.xdr.decode_us_per_call": _us(safe_ratio(total("rpc.xdr", (".decode_value",)), ops)),
        "rpc.xdr.bytes_per_call": safe_ratio(nbytes("rpc.xdr"), ops),
        "rpc.transport.self_us_per_call": _us(safe_ratio(self_sum("rpc.transport"), ops)),
        # a coalesced send_batch write counts as one frame here
        "rpc.transport.frames_per_op": safe_ratio(len(by_layer["rpc.transport"]), ops),
        "rpc.transport.wire_bytes_per_op": safe_ratio(nbytes("rpc.transport"), ops),
        "rpc.server.dispatch_us_per_call": _us(safe_ratio(total("rpc.server"), ops)),
        "rpc.server.queued_calls": counters.get("queued_calls", 0),
        "rpc.server.rejected_calls": counters.get("rejected_calls", 0),
        "util.threadpool.wait_us_p50": _us(statistics.median(waits)) if waits else 0.0,
        "util.threadpool.wait_us_p99": _us(percentile_value(waits, wait_p99)) if wait_p99 else 0.0,
        "util.threadpool.jobs_per_call": safe_ratio(len(waits), ops),
        "daemon.handler_self_us_per_call": _us(safe_ratio(self_sum("daemon.libvirtd"), ops)),
        "observability.flightrec.records_per_call": safe_ratio(count("observability.flightrec", (".record",)), ops),
        "observability.flightrec.bytes_per_call": safe_ratio(flight_bytes, ops),
        "observability.flightrec.record_us_per_call": _us(
            safe_ratio(total("observability.flightrec", (".record",)), ops)
        ),
        "observability.flightrec.compactions": counters.get("flightrec_compactions", 0),
        "observability.tracing.spans_per_call": safe_ratio(
            count("observability.tracing", (".span", ".start_span")), ops
        ),
        "observability.tracing.span_us_per_call": _us(safe_ratio(total("observability.tracing"), ops)),
        "observability.metrics.labels_per_call": safe_ratio(len(by_layer["observability.metrics"]), ops),
        "drivers.stateful.read_us_per_call": _us(safe_ratio(sum(s.duration for s in reads), len(reads))),
        "drivers.stateful.mutate_self_us_per_call": _us(
            safe_ratio(sum(selfs[id(s)] for s in stateful_mutates), len(_outermost(stateful_mutates)))
        ),
        "hypervisors.self_us_per_call": _us(safe_ratio(self_sum("hypervisors"), ops)),
        "xmlconfig.parses_per_cycle": safe_ratio(count("xmlconfig", (".from_xml",)), per_cycle),
        "xmlconfig.formats_per_cycle": safe_ratio(count("xmlconfig", (".to_xml",)), per_cycle),
        "xmlconfig.format_us_per_cycle": _us(safe_ratio(total("xmlconfig", (".to_xml",)), per_cycle)),
        "xmlconfig.parse_us_per_cycle": _us(safe_ratio(total("xmlconfig", (".from_xml",)), per_cycle)),
        "state.journal.appends_per_cycle": safe_ratio(len(journal_appends), per_cycle),
        "state.journal.bytes_per_cycle": safe_ratio(journal_bytes, per_cycle),
        "state.journal.append_us_p50": _us(statistics.median(s.duration for s in journal_appends))
        if journal_appends else 0.0,
        "state.journal.checkpoints": float(len(checkpoints)),
        "state.journal.checkpoint_ms_max": max((s.duration for s in checkpoints), default=0) / 1e6,
        "state.journal.recovery_ms": counters.get("recovery_ms", 0.0),
        "state.statedir.appends_per_op": safe_ratio(len(statedir_appends), ops),
        "state.statedir.atomic_writes": float(count("state.statedir", (".write_atomic",))),
        "state.statedir.bytes_per_op": safe_ratio(nbytes("state.statedir"), ops),
        "state.statedir.append_us_per_op": _us(safe_ratio(sum(s.duration for s in statedir_appends), ops)),
        "core.events.published_per_cycle": safe_ratio(count("core.events", (".publish",)), per_cycle),
        "core.events.publish_us_per_cycle": _us(safe_ratio(total("core.events", (".publish",)), per_cycle)),
        "core.events.pushed_frames": float(count("rpc.transport", (".push",))),
        "core.events.dropped": counters.get("events_dropped", 0),
        "core.cache.hit_ratio": counters.get("cache_hit_ratio", 0.0),
        "core.cache.invalidations_per_cycle": safe_ratio(counters.get("cache_invalidations", 0), per_cycle),
        "stream.frames_per_mib": safe_ratio(count("stream", (".handle_frame",)), uploaded_mib),
        "stream.send_us_per_chunk": _us(safe_ratio(total("stream", (".send",)), chunks)),
        "bench.generator_late_p99_ms": counters.get("generator_late_p99_ms", 0.0),
        "bench.trace_overhead_frac": counters.get("trace_overhead_frac", 0.0),
        "bench.ledger_sum_frac": safe_ratio(self_total, root_ns),
    }
    metrics["bench.traced_us_per_op"] = _us(safe_ratio(root_ns, ops))
    table = []
    for layer in by_layer:
        share = safe_ratio(self_sum(layer), root_ns)
        metrics[f"{layer}.self_share"] = share
        table.append({
            "layer": layer,
            "calls_per_op": safe_ratio(len(by_layer[layer]), ops),
            "self_us_per_op": _us(safe_ratio(self_sum(layer), ops)),
            "share": share,
        })
    table.append({
        "layer": "total (traced per-op time)",
        "calls_per_op": 1.0,
        "self_us_per_op": _us(safe_ratio(root_ns, ops)),
        "share": safe_ratio(self_total, root_ns),
    })
    return metrics, table
