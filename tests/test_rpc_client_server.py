"""Integration tests for the RPC client/server pair."""

import threading

import pytest

from repro.errors import (
    ConnectionClosedError,
    NoDomainError,
    RPCError,
    VirtError,
)
from repro.rpc.client import RPCClient
from repro.rpc.protocol import EVENT_DOMAIN_LIFECYCLE, MessageType, RPCMessage
from repro.rpc.server import RPCServer
from repro.rpc.transport import Listener
from repro.util.clock import VirtualClock
from repro.util.threadpool import WorkerPool


@pytest.fixture()
def clock():
    return VirtualClock()


def make_pair(clock, pool=None, handlers=None):
    server = RPCServer(pool=pool)
    for name, fn in (handlers or {}).items():
        server.register(name, fn)
    listener = Listener("unix", clock=clock)
    channel = listener.connect()
    server.attach(channel._server_conn)
    client = RPCClient(channel)
    return client, server, channel


class TestCalls:
    def test_simple_call(self, clock):
        client, server, _ = make_pair(
            clock, handlers={"connect.ping": lambda conn, body: {"pong": body}}
        )
        assert client.call("connect.ping", "hello") == {"pong": "hello"}
        assert server.calls_served == 1
        assert client.calls_made == 1

    def test_handler_sees_identity(self, clock):
        seen = {}

        def handler(conn, body):
            seen.update(conn.identity)
            return None

        server = RPCServer()
        server.register("connect.ping", handler)
        listener = Listener("unix", clock=clock)
        channel = listener.connect({"username": "root", "uid": 0})
        server.attach(channel._server_conn)
        RPCClient(channel).call("connect.ping")
        assert seen["username"] == "root"
        assert seen["unix_user_id"] == 0

    def test_virt_error_propagates_with_class(self, clock):
        def handler(conn, body):
            raise NoDomainError("no such domain 'web1'")

        client, _, _ = make_pair(clock, handlers={"domain.lookup_by_name": handler})
        with pytest.raises(NoDomainError, match="web1"):
            client.call("domain.lookup_by_name", {"name": "web1"})

    def test_internal_error_wrapped(self, clock):
        def handler(conn, body):
            raise KeyError("oops")

        client, server, _ = make_pair(clock, handlers={"connect.ping": handler})
        with pytest.raises(VirtError, match="internal error"):
            client.call("connect.ping")
        assert server.calls_failed == 1

    def test_unregistered_procedure(self, clock):
        client, _, _ = make_pair(clock)
        with pytest.raises(RPCError, match="not registered"):
            client.call("connect.ping")

    def test_unknown_procedure_name_client_side(self, clock):
        client, _, _ = make_pair(clock)
        with pytest.raises(RPCError, match="unknown RPC procedure"):
            client.call("domain.levitate")

    def test_serials_increment(self, clock):
        client, _, _ = make_pair(
            clock, handlers={"connect.ping": lambda conn, body: None}
        )
        for _ in range(5):
            client.call("connect.ping")
        assert client.calls_made == 5

    def test_call_after_close(self, clock):
        client, _, _ = make_pair(
            clock, handlers={"connect.ping": lambda conn, body: None}
        )
        client.close()
        with pytest.raises(ConnectionClosedError):
            client.call("connect.ping")

    def test_non_call_message_rejected_by_server(self, clock):
        client, server, channel = make_pair(clock)
        rogue = RPCMessage(1, MessageType.REPLY, 9).pack()
        raw = channel._server_conn.handle(rogue)
        reply = RPCMessage.unpack(raw)
        assert reply.body["message"].startswith("expected CALL")

    def test_garbage_bytes_answered_with_error(self, clock):
        client, server, channel = make_pair(clock)
        raw = channel._server_conn.handle(b"\x00\x00\x00\x10garbagegarbage..")
        reply = RPCMessage.unpack(raw)
        assert reply.status.name == "ERROR"


class TestWithWorkerPool:
    def test_calls_execute_through_pool(self, clock):
        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, server, _ = make_pair(
                clock,
                pool=pool,
                handlers={"connect.ping": lambda conn, body: threading.current_thread().name},
            )
            result = client.call("connect.ping")
            assert "worker" in result
            # the job ends after its handler has sent the reply; poll
            import time

            deadline = time.monotonic() + 5
            while pool.jobs_completed < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert pool.jobs_completed >= 1

    def test_pooled_call_decodes_each_frame_once(self, clock, monkeypatch):
        """One call through a pooled server unpacks two frames: the CALL
        on the server and the REPLY on the client, which hands the
        message it demultiplexed to the waiting caller."""
        unpack = RPCMessage.unpack
        decoded = []

        def counting_unpack(data):
            message = unpack(data)
            decoded.append(message.mtype)
            return message

        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, _, _ = make_pair(
                clock,
                pool=pool,
                handlers={"connect.ping": lambda conn, body: {"pong": body}},
            )
            assert client.call("connect.ping", "warm") == {"pong": "warm"}
            monkeypatch.setattr(RPCMessage, "unpack", staticmethod(counting_unpack))
            assert client.call("connect.ping", "x") == {"pong": "x"}
        assert decoded == [MessageType.CALL, MessageType.REPLY]

    def test_priority_procedure_uses_priority_lane(self, clock):
        gate = threading.Event()
        with WorkerPool(min_workers=1, max_workers=1, prio_workers=1) as pool:
            server = RPCServer(pool=pool)
            server.register("connect.ping", lambda conn, body: gate.wait(5))
            server.register(
                "domain.destroy",
                lambda conn, body: "destroyed",
                priority=True,
            )
            listener = Listener("unix", clock=clock)

            ch1 = listener.connect()
            server.attach(ch1._server_conn)
            slow_client = RPCClient(ch1)

            ch2 = listener.connect()
            server.attach(ch2._server_conn)
            fast_client = RPCClient(ch2)

            blocker = threading.Thread(
                target=lambda: slow_client.call("connect.ping")
            )
            blocker.start()
            # wait until the single ordinary worker is stuck on the gate
            import time

            deadline = time.monotonic() + 5
            while pool.stats()["freeWorkers"] > 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            # the critical op still completes via the priority lane
            assert fast_client.call("domain.destroy") == "destroyed"
            gate.set()
            blocker.join(timeout=5)


class TestEvents:
    def test_event_dispatched_to_handler(self, clock):
        client, server, channel = make_pair(clock)
        events = []
        client.on_event(EVENT_DOMAIN_LIFECYCLE, events.append)
        server.emit_event(
            channel._server_conn, EVENT_DOMAIN_LIFECYCLE, {"domain": "web1", "event": "started"}
        )
        assert events == [{"domain": "web1", "event": "started"}]

    def test_unregistered_event_ignored(self, clock):
        client, server, channel = make_pair(clock)
        server.emit_event(channel._server_conn, EVENT_DOMAIN_LIFECYCLE, {"x": 1})
        # no handler, no crash

    def test_deregistered_handler_not_called(self, clock):
        client, server, channel = make_pair(clock)
        events = []
        client.on_event(EVENT_DOMAIN_LIFECYCLE, events.append)
        client.remove_event_handler(EVENT_DOMAIN_LIFECYCLE)
        server.emit_event(channel._server_conn, EVENT_DOMAIN_LIFECYCLE, {"x": 1})
        assert events == []


class TestTimingRealism:
    def test_remote_call_costs_more_than_local_dispatch(self, clock):
        """Transport ordering survives end-to-end through the RPC stack."""
        times = {}
        for transport in ("unix", "tcp", "tls"):
            local_clock = VirtualClock()
            server = RPCServer()
            server.register("connect.ping", lambda conn, body: body)
            listener = Listener(transport, clock=local_clock)
            channel = listener.connect()
            server.attach(channel._server_conn)
            client = RPCClient(channel)
            t0 = local_clock.now()
            client.call("connect.ping", "x" * 256)
            times[transport] = local_clock.now() - t0
        assert times["unix"] < times["tcp"] < times["tls"]
