"""Tests for message framing (repro.rpc.protocol)."""

import pytest

from repro.errors import RPCError
from repro.rpc.protocol import (
    HEADER_BYTES,
    PROCEDURES,
    MessageType,
    ReplyStatus,
    RPCMessage,
    procedure_name,
    procedure_number,
    split_frames,
)


class TestProcedureTable:
    def test_numbers_are_unique(self):
        numbers = list(PROCEDURES.values())
        assert len(numbers) == len(set(numbers))

    def test_name_number_round_trip(self):
        for name, number in PROCEDURES.items():
            assert procedure_number(name) == number
            assert procedure_name(number) == name

    def test_unknown_name_rejected(self):
        with pytest.raises(RPCError):
            procedure_number("domain.levitate")

    def test_unknown_number_rejected(self):
        with pytest.raises(RPCError):
            procedure_name(999999)


class TestMessage:
    def test_pack_unpack_round_trip(self):
        msg = RPCMessage(
            procedure_number("domain.create"),
            MessageType.CALL,
            serial=7,
            body={"name": "web1", "flags": 0},
        )
        rebuilt = RPCMessage.unpack(msg.pack())
        assert rebuilt.procedure == msg.procedure
        assert rebuilt.mtype == MessageType.CALL
        assert rebuilt.serial == 7
        assert rebuilt.status == ReplyStatus.OK
        assert rebuilt.body == {"name": "web1", "flags": 0}

    def test_error_reply_round_trip(self):
        msg = RPCMessage(
            5, MessageType.REPLY, 3, ReplyStatus.ERROR, {"code": 10, "message": "gone"}
        )
        rebuilt = RPCMessage.unpack(msg.pack())
        assert rebuilt.status == ReplyStatus.ERROR
        assert rebuilt.body["code"] == 10

    def test_none_body(self):
        msg = RPCMessage(1, MessageType.CALL, 1)
        assert RPCMessage.unpack(msg.pack()).body is None

    def test_length_prefix_matches(self):
        data = RPCMessage(1, MessageType.CALL, 1, body="x").pack()
        assert int.from_bytes(data[:4], "big") == len(data)

    def test_short_buffer_rejected(self):
        with pytest.raises(RPCError, match="short message"):
            RPCMessage.unpack(b"\x00\x00")

    def test_wrong_length_rejected(self):
        data = bytearray(RPCMessage(1, MessageType.CALL, 1).pack())
        data[3] += 1  # corrupt the length word
        with pytest.raises(RPCError, match="frame length"):
            RPCMessage.unpack(bytes(data))

    def test_wrong_program_rejected(self):
        data = bytearray(RPCMessage(1, MessageType.CALL, 1).pack())
        data[4] = 0xFF
        with pytest.raises(RPCError, match="unknown program"):
            RPCMessage.unpack(bytes(data))

    def test_wrong_version_rejected(self):
        data = bytearray(RPCMessage(1, MessageType.CALL, 1).pack())
        data[11] = 9
        with pytest.raises(RPCError, match="unsupported protocol version"):
            RPCMessage.unpack(bytes(data))

    def test_bad_type_rejected(self):
        data = bytearray(RPCMessage(1, MessageType.CALL, 1).pack())
        data[19] = 9
        with pytest.raises(RPCError, match="bad message type"):
            RPCMessage.unpack(bytes(data))


class TestFraming:
    def test_split_exact_frames(self):
        a = RPCMessage(1, MessageType.CALL, 1, body="a").pack()
        b = RPCMessage(2, MessageType.CALL, 2, body="b").pack()
        frames, rest = split_frames(a + b)
        assert frames == [a, b]
        assert rest == b""

    def test_split_partial_frame_buffered(self):
        a = RPCMessage(1, MessageType.CALL, 1, body="a").pack()
        b = RPCMessage(2, MessageType.CALL, 2, body="b").pack()
        stream = a + b[: len(b) // 2]
        frames, rest = split_frames(stream)
        assert frames == [a]
        assert rest == b[: len(b) // 2]
        frames2, rest2 = split_frames(rest + b[len(b) // 2 :])
        assert frames2 == [b]
        assert rest2 == b""

    def test_split_tiny_prefix(self):
        frames, rest = split_frames(b"\x00\x00")
        assert frames == []
        assert rest == b"\x00\x00"

    def test_insane_length_rejected(self):
        with pytest.raises(RPCError, match="insane frame length"):
            split_frames(b"\x00\x00\x00\x01rest")

    def test_header_size_constant(self):
        data = RPCMessage(1, MessageType.CALL, 1).pack()
        # body is encode_value(None) == 4 bytes
        assert len(data) == HEADER_BYTES + 4


class TestFramingBoundaries:
    """Edge geometry: frames at the size cap, torn headers, and STREAM
    frames threaded between out-of-order replies."""

    def test_frame_exactly_at_max_message(self):
        from repro.rpc.protocol import MAX_MESSAGE, peek_message_type
        from repro.stream import stream_frame

        probe = stream_frame(1, 1, ReplyStatus.CONTINUE, b"")
        overhead = len(probe)
        frame = stream_frame(1, 1, ReplyStatus.CONTINUE, b"\xaa" * (MAX_MESSAGE - overhead))
        assert len(frame) == MAX_MESSAGE
        frames, rest = split_frames(frame)
        assert frames == [frame]
        assert rest == b""
        message = RPCMessage.unpack(memoryview(frame))
        assert peek_message_type(frame) == MessageType.STREAM
        assert len(message.body) == MAX_MESSAGE - overhead

    def test_frame_one_byte_over_the_cap_rejected(self):
        from repro.rpc.protocol import MAX_MESSAGE
        from repro.stream import stream_frame

        overhead = len(stream_frame(1, 1, ReplyStatus.CONTINUE, b""))
        with pytest.raises(RPCError, match="too large"):
            stream_frame(1, 1, ReplyStatus.CONTINUE, b"\xaa" * (MAX_MESSAGE - overhead + 1))

    def test_split_rejects_length_word_over_the_cap(self):
        from repro.rpc.protocol import MAX_MESSAGE

        header = (MAX_MESSAGE + 1).to_bytes(4, "big") + b"\x00" * 24
        with pytest.raises(RPCError, match="insane frame length"):
            split_frames(header)

    def test_truncated_header_is_buffered_not_parsed(self):
        frame = RPCMessage(1, MessageType.CALL, 1, body="x").pack()
        for cut in range(1, HEADER_BYTES):
            frames, rest = split_frames(frame[:cut])
            assert frames == []
            assert rest == frame[:cut]

    def test_unpack_rejects_truncated_header(self):
        frame = RPCMessage(1, MessageType.CALL, 1, body="x").pack()
        with pytest.raises(RPCError, match="short message"):
            RPCMessage.unpack(frame[: HEADER_BYTES - 1])

    def test_peek_returns_none_on_short_or_garbage_input(self):
        from repro.rpc.protocol import peek_message_type

        assert peek_message_type(b"\x00" * (HEADER_BYTES - 1)) is None
        garbage = bytearray(RPCMessage(1, MessageType.CALL, 1).pack())
        garbage[16:20] = (99).to_bytes(4, "big")
        assert peek_message_type(bytes(garbage)) is None

    def test_stream_frame_interleaved_between_out_of_order_replies(self):
        from repro.rpc.protocol import peek_message_type
        from repro.stream import stream_frame

        reply2 = RPCMessage(
            1, MessageType.REPLY, 2, ReplyStatus.OK, body="second"
        ).pack()
        chunk = stream_frame(5, 1, ReplyStatus.CONTINUE, b"stream bytes")
        reply1 = RPCMessage(
            1, MessageType.REPLY, 1, ReplyStatus.OK, body="first"
        ).pack()
        wire = reply2 + chunk + reply1
        # tear at an arbitrary boundary inside the stream frame
        frames, rest = split_frames(wire[: len(reply2) + 10])
        assert frames == [reply2]
        frames2, rest2 = split_frames(rest + wire[len(reply2) + 10 :])
        assert frames2 == [chunk, reply1]
        assert rest2 == b""
        types = [peek_message_type(f) for f in (reply2, chunk, reply1)]
        assert types == [MessageType.REPLY, MessageType.STREAM, MessageType.REPLY]
        # the demux routes on (type, serial): serial survives the peek path
        decoded = [RPCMessage.unpack(f) for f in frames + frames2]
        assert [(m.mtype, m.serial) for m in decoded] == [
            (MessageType.REPLY, 2),
            (MessageType.STREAM, 1),
            (MessageType.REPLY, 1),
        ]
        assert bytes(decoded[1].body) == b"stream bytes"


# ---------------------------------------------------------------------------
# Golden wire bytes
# ---------------------------------------------------------------------------

_GOLDEN_XML = (
    "<domain type='kvm'>\n"
    "  <name>golden</name>\n"
    "  <uuid>123e4567-e89b-42d3-a456-426614174000</uuid>\n"
    "  <memory unit='KiB'>1048576</memory>\n"
    "  <vcpu>2</vcpu>\n"
    "  <os><type arch='x86_64'>hvm</type></os>\n"
    "  <devices><disk type='file'><target dev='vda'/></disk></devices>\n"
    "</domain>\n"
)
#: 256 KiB of a fixed byte pattern: one default-sized stream chunk
_GOLDEN_CHUNK = bytes(range(256)) * 1024


def _golden_messages():
    """One message per frame shape the daemon and client exchange."""
    from repro.rpc.protocol import EVENT_BUS_RECORD, make_ping, make_pong
    from repro.util.typedparams import ParamType, TypedParameter, TypedParamList

    traced = RPCMessage(
        procedure_number("domain.get_info"), MessageType.CALL, 41, body={"name": "web1"}
    )
    traced.trace = {"trace_id": 0x1234567890ABCDEF, "span_id": 7}
    params = TypedParamList(
        [
            TypedParameter("cpu_shares", ParamType.ULLONG, 2**63 + 5),
            TypedParameter("vcpu_quota", ParamType.LLONG, -(2**40)),
            TypedParameter("minWorkers", ParamType.UINT, 5),
            TypedParameter("delta", ParamType.INT, -3),
            TypedParameter("ratio", ParamType.DOUBLE, 0.75),
            TypedParameter("enabled", ParamType.BOOLEAN, True),
            TypedParameter("label", ParamType.STRING, "produkce-č"),
        ]
    )
    return {
        "call_with_trace": traced,
        "reply_info_dict": RPCMessage(
            procedure_number("domain.get_info"),
            MessageType.REPLY,
            41,
            body={
                "state": 1,
                "max_memory_kib": 1048576,
                "memory_kib": 524288,
                "vcpus": 2,
                "cpu_seconds": 12.5,
            },
        ),
        "reply_state": RPCMessage(
            procedure_number("domain.get_state"), MessageType.REPLY, 42, body=1
        ),
        "reply_xml": RPCMessage(
            procedure_number("domain.get_xml_desc"), MessageType.REPLY, 43, body=_GOLDEN_XML
        ),
        "reply_name_list": RPCMessage(
            procedure_number("connect.list_defined_domains"),
            MessageType.REPLY,
            44,
            body=[f"guest-{i:03d}" + "x" * (i % 4) for i in range(200)],
        ),
        "reply_error": RPCMessage(
            procedure_number("domain.create"),
            MessageType.REPLY,
            45,
            ReplyStatus.ERROR,
            {"code": 42, "domain": 10, "level": 2, "message": "domain 'ghost' not found"},
        ),
        "call_typed_params": RPCMessage(
            procedure_number("domain.set_scheduler_params"),
            MessageType.CALL,
            46,
            body={"name": "web1", "params": params, "empty": TypedParamList(), "flags": 0},
        ),
        "stream_chunk_256k": RPCMessage(
            procedure_number("storage.vol_upload"),
            MessageType.STREAM,
            47,
            ReplyStatus.CONTINUE,
            memoryview(_GOLDEN_CHUNK),
        ),
        "keepalive_ping": make_ping(48),
        "keepalive_pong": make_pong(48),
        "event_bus_record": RPCMessage(
            EVENT_BUS_RECORD,
            MessageType.EVENT,
            0,
            body={
                "seq": 9,
                "kind": "domain",
                "domain": "web1",
                "event": 2,
                "detail": 0,
                "payload": None,
                "persistent": True,
                "tags": ["a", "", "b\x00c"],
                "blob": b"\x01\x02\x03\x04\x05",
            },
        ),
    }


#: sha256 and length of every golden frame; pinned so any codec rewrite
#: must keep the wire format byte for byte
GOLDEN_FRAMES = {
    "call_typed_params": ("6f96f9fd2bfbf6b14c54544b1304049fc556e1c65b372f7f9131a3658c71bac0", 296),
    "call_with_trace": ("6329cac0880572ae1a78a3a90275b292d48e98f16705d4595e658a6c0fddf34e", 112),
    "event_bus_record": ("8e1413e3f311688528fed6c0998a5ab762422073a9294fc1428bf10055f23172", 260),
    "keepalive_ping": ("05740827fcb4377e661ebe195eaa5849eaae92e1e2a7fd5814c2dea5501f74bb", 32),
    "keepalive_pong": ("0d1d2963baa415f6cb13acc39617e20ed4b1b5d858e1e79877a28a78f903d9c6", 32),
    "reply_error": ("1e4bca7347ccc4e5d02b5f6e057d18d458c8f91d00bb9118d04dd9e3abbf8671", 148),
    "reply_info_dict": ("63b76919ef7896c59167cf4f0e1d506e3e0fdaa912ebe18d92dcfe16e30be9ed", 172),
    "reply_name_list": ("311dc6b6b4215d3a3a0cfdaca24d5d97976000846687a1e54708d41d47635887", 4036),
    "reply_state": ("cd20df1b2532bd4c66bb22064a2d95ebe739d8e8e95ea8902b33a46d6f744fbe", 40),
    "reply_xml": ("8c3f5237e4eeeec9c7367a88e2ccf2542863f693fcbca90d090ca2cd757d7ebf", 304),
    "stream_chunk_256k": ("06f15c5de8a6f14791bb9628ccdb8cd458520449347c1838a79e91ed84ca71b1", 262180),
}


class TestGoldenWireBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_frame_bytes_are_pinned(self, name):
        import hashlib

        frame = _golden_messages()[name].pack()
        digest, length = GOLDEN_FRAMES[name]
        assert len(frame) == length
        assert hashlib.sha256(frame).hexdigest() == digest

    def test_corpus_covers_every_golden_frame(self):
        assert set(_golden_messages()) == set(GOLDEN_FRAMES)

    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_frame_round_trips(self, name):
        message = _golden_messages()[name]
        frame = message.pack()
        for buffer in (frame, memoryview(frame)):
            decoded = RPCMessage.unpack(buffer)
            assert (decoded.program, decoded.version) == (message.program, message.version)
            assert (decoded.procedure, decoded.mtype, decoded.serial, decoded.status) == (
                message.procedure,
                message.mtype,
                message.serial,
                message.status,
            )
            assert decoded.body == message.body
            assert decoded.trace == message.trace
            assert decoded.pack() == frame

    def test_stream_frame_packs_the_golden_chunk(self):
        from repro.stream import stream_frame

        message = _golden_messages()["stream_chunk_256k"]
        frame = stream_frame(
            message.procedure, message.serial, ReplyStatus.CONTINUE, memoryview(_GOLDEN_CHUNK)
        )
        assert frame == message.pack()
