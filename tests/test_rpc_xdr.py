"""Tests for XDR serialization (repro.rpc.xdr)."""

import struct

import pytest

from repro.errors import RPCError
from repro.rpc.xdr import XdrDecoder, XdrEncoder, decode_value, encode_value
from repro.core.states import DomainState
from repro.util.typedparams import ParamType, TypedParameter


class _Name(str):
    pass


class _Count(int):
    pass


class _Ratio(float):
    pass


class _Blob(bytes):
    pass


class _Record(dict):
    pass


class _Names(list):
    pass


class TestPrimitives:
    def test_int_round_trip(self):
        for value in (0, 1, -1, 2**31 - 1, -(2**31)):
            enc = XdrEncoder().pack_int(value)
            assert XdrDecoder(enc.data()).unpack_int() == value

    def test_int_out_of_range(self):
        with pytest.raises(RPCError):
            XdrEncoder().pack_int(2**31)
        with pytest.raises(RPCError):
            XdrEncoder().pack_uint(-1)

    def test_uint_is_big_endian_4_bytes(self):
        data = XdrEncoder().pack_uint(0x01020304).data()
        assert data == b"\x01\x02\x03\x04"

    def test_hyper_round_trip(self):
        for value in (0, -(2**63), 2**63 - 1):
            enc = XdrEncoder().pack_hyper(value)
            assert XdrDecoder(enc.data()).unpack_hyper() == value

    def test_uhyper_round_trip(self):
        enc = XdrEncoder().pack_uhyper(2**64 - 1)
        assert XdrDecoder(enc.data()).unpack_uhyper() == 2**64 - 1

    def test_bool_encoding(self):
        assert XdrEncoder().pack_bool(True).data() == b"\x00\x00\x00\x01"
        assert XdrDecoder(b"\x00\x00\x00\x00").unpack_bool() is False

    def test_bool_rejects_other_values(self):
        with pytest.raises(RPCError):
            XdrDecoder(b"\x00\x00\x00\x02").unpack_bool()

    def test_double_round_trip(self):
        for value in (0.0, -1.5, 3.141592653589793, 1e308):
            enc = XdrEncoder().pack_double(value)
            assert XdrDecoder(enc.data()).unpack_double() == value

    def test_double_wire_format(self):
        data = XdrEncoder().pack_double(1.0).data()
        assert data == struct.pack(">d", 1.0)

    def test_string_padded_to_four(self):
        data = XdrEncoder().pack_string("abcde").data()
        assert len(data) == 4 + 8  # length word + 5 bytes padded to 8
        assert data[4:9] == b"abcde"
        assert data[9:] == b"\x00\x00\x00"

    def test_string_round_trip_unicode(self):
        text = "žluťoučký kůň 🐴"
        enc = XdrEncoder().pack_string(text)
        assert XdrDecoder(enc.data()).unpack_string() == text

    def test_opaque_round_trip(self):
        payload = bytes(range(7))
        enc = XdrEncoder().pack_opaque(payload)
        dec = XdrDecoder(enc.data())
        assert dec.unpack_opaque() == payload
        dec.done()

    def test_fixed_opaque(self):
        enc = XdrEncoder().pack_fixed_opaque(b"abc", 3)
        assert len(enc.data()) == 4  # padded
        assert XdrDecoder(enc.data()).unpack_fixed_opaque(3) == b"abc"

    def test_fixed_opaque_wrong_size_rejected(self):
        with pytest.raises(RPCError):
            XdrEncoder().pack_fixed_opaque(b"abc", 4)

    def test_underrun_detected(self):
        with pytest.raises(RPCError, match="underrun"):
            XdrDecoder(b"\x00\x00").unpack_int()

    def test_trailing_bytes_detected(self):
        dec = XdrDecoder(b"\x00\x00\x00\x01\xff")
        dec.unpack_uint()
        with pytest.raises(RPCError, match="trailing"):
            dec.done()

    def test_nonzero_padding_rejected(self):
        # length 1, byte 'a', bad padding
        data = b"\x00\x00\x00\x01a\x01\x00\x00"
        with pytest.raises(RPCError, match="padding"):
            XdrDecoder(data).unpack_opaque()

    def test_insane_opaque_length_rejected(self):
        data = b"\xff\xff\xff\xff"
        with pytest.raises(RPCError, match="exceeds limit"):
            XdrDecoder(data).unpack_opaque()

    def test_encoder_length(self):
        enc = XdrEncoder().pack_uint(1).pack_hyper(2)
        assert len(enc) == 12


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -42,
            2**62,
            1.5,
            "",
            "hello world",
            b"\x00\x01\x02",
            [],
            [1, "two", None, 3.0],
            {},
            {"a": 1, "b": [True, {"c": "d"}]},
            {"nested": {"deep": {"deeper": [1, 2, 3]}}},
            DomainState.CRASHED,
            _Name("sub-str"),
            [False, True, DomainState.PMSUSPENDED, _Name("x")],
        ],
    )
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_typed_params_round_trip(self):
        params = [
            TypedParameter("minWorkers", ParamType.UINT, 5),
            TypedParameter("name", ParamType.STRING, "libvirtd"),
            TypedParameter("delta", ParamType.INT, -3),
            TypedParameter("big", ParamType.ULLONG, 2**63),
            TypedParameter("neg", ParamType.LLONG, -(2**40)),
            TypedParameter("ratio", ParamType.DOUBLE, 0.25),
            TypedParameter("enabled", ParamType.BOOLEAN, True),
        ]
        decoded = decode_value(encode_value(params))
        assert decoded == params
        assert all(isinstance(p, TypedParameter) for p in decoded)

    def test_dict_of_typed_params(self):
        params = [TypedParameter("x", ParamType.UINT, 1)]
        value = {"params": params, "flags": 0}
        decoded = decode_value(encode_value(value))
        assert decoded["params"] == params
        assert decoded["flags"] == 0

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(RPCError, match="keys must be strings"):
            encode_value({1: "x"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(RPCError, match="cannot XDR-encode"):
            encode_value(object())

    def test_unknown_tag_rejected(self):
        data = XdrEncoder().pack_uint(99).data()
        with pytest.raises(RPCError, match="unknown XDR value tag"):
            decode_value(data)

    def test_trailing_garbage_rejected(self):
        data = encode_value(42) + b"\x00"
        with pytest.raises(RPCError, match="trailing"):
            decode_value(data)

    def test_truncated_list_rejected(self):
        data = encode_value([1, 2, 3])[:-4]
        with pytest.raises(RPCError):
            decode_value(data)

    def test_encode_into_a_fresh_encoder_keeps_the_output(self):
        # an empty encoder has len() 0 and so is falsy; it must still be
        # the one written to
        enc = XdrEncoder()
        data = encode_value("hi", enc)
        assert enc.data() == data == XdrEncoder().pack_uint(5).pack_string("hi").data()

    def test_encode_appends_to_a_used_encoder(self):
        enc = XdrEncoder().pack_uint(7)
        data = encode_value(None, enc)
        assert data == b"\x00\x00\x00\x07" + b"\x00\x00\x00\x00"
        assert len(enc) == 8

    @pytest.mark.parametrize(
        "value, plain",
        [
            (DomainState.RUNNING, int(DomainState.RUNNING)),
            (ParamType.ULLONG, 4),
            (_Name("web1"), "web1"),
            ({"state": DomainState.PAUSED, "name": _Name("db")}, {"state": 3, "name": "db"}),
            ([True, _Name(""), DomainState.SHUTOFF, False], [True, "", 5, False]),
            (_Count(-3), -3),
            (_Ratio(0.5), 0.5),
            (_Blob(b"abcde"), b"abcde"),
            (_Record(a=_Name("x")), {"a": "x"}),
            (_Names(["a", "bc"]), ["a", "bc"]),
        ],
    )
    def test_subclasses_encode_like_their_base_type(self, value, plain):
        """Exact-type fast paths must send subclasses (IntEnum, str
        subclasses, bool) down the same tags as the plain values."""
        assert encode_value(value) == encode_value(plain)
        decoded = decode_value(encode_value(value))
        assert decoded == plain
        assert type(decoded) is type(plain)

    def test_bool_not_confused_with_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)) is not True
