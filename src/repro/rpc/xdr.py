"""XDR (RFC 4506) serialization.

Libvirt's wire protocol serializes everything with XDR.  This module
implements the primitive codecs — 4-byte alignment, big-endian, padded
opaques — and, on top of them, a tagged *value* codec (a discriminated
union in XDR terms) that can carry the JSON-like structures the RPC
layer passes around: None, bools, integers, doubles, strings, bytes,
lists, string-keyed maps, and typed-parameter lists.

One pass each way: every word goes through a precompiled
``struct.Struct``.  The value encoder appends parts to one list that the
caller joins once (a frame joins header, body and trace parts in a
single ``b"".join``); the value decoder walks the caller's buffer with
``unpack_from`` at an offset, keeping buffer and position in locals.

Zero-copy opaque path: the encoder accepts ``memoryview``/``bytearray``
payloads and keeps them *by reference* until the final join, and a
decoder constructed over a ``memoryview`` hands opaques back as
sub-views of the caller's buffer.  Stream frames use both directions so
a bulk chunk is copied once on send (at the join) and never on receive.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import RPCError
from repro.util.typedparams import ParamType, TypedParameter, TypedParamList

#: zero padding that brings a length up to the next multiple of 4
_PADS = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")

#: value-codec type tags (the union discriminants)
_TAG_NULL = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_HYPER = 3
_TAG_DOUBLE = 4
_TAG_STRING = 5
_TAG_BYTES = 6
_TAG_LIST = 7
_TAG_DICT = 8
_TAG_TYPED_PARAMS = 9

#: hard cap on string/opaque sizes, guards against corrupt length words
MAX_OPAQUE = 64 * 1024 * 1024

_INT32 = struct.Struct(">i")
_UINT32 = struct.Struct(">I")
_INT64 = struct.Struct(">q")
_UINT64 = struct.Struct(">Q")
_DOUBLE = struct.Struct(">d")
#: a tag followed by a length/count word, a hyper, or a double
_TAG_AND_U32 = struct.Struct(">II")
_TAG_AND_I64 = struct.Struct(">Iq")
_TAG_AND_F64 = struct.Struct(">Id")

_NULL_WORD = _UINT32.pack(_TAG_NULL)
_TRUE_WORD = _UINT32.pack(_TAG_TRUE)
_FALSE_WORD = _UINT32.pack(_TAG_FALSE)

_u32_from = _UINT32.unpack_from
_i64_from = _INT64.unpack_from

_INT32_RANGE = (-(2**31), 2**31 - 1)
_UINT32_RANGE = (0, 2**32 - 1)
_INT64_RANGE = (-(2**63), 2**63 - 1)
_UINT64_RANGE = (0, 2**64 - 1)


def _pack_word(packer: struct.Struct, kind: str, bounds: Tuple[int, int], value: Any) -> bytes:
    """One range-checked word; ``struct.error`` surfaces as RPCError."""
    if not bounds[0] <= value <= bounds[1]:
        raise RPCError(f"{kind} out of range: {value}")
    try:
        return packer.pack(value)
    except struct.error as exc:
        raise RPCError(f"cannot XDR-encode {value!r} as {kind}: {exc}") from exc


class XdrEncoder:
    """Append-only XDR stream writer."""

    def __init__(self) -> None:
        # may hold memoryview/bytearray entries (zero-copy opaque path);
        # bytes.join accepts any buffer object at materialization time
        self._parts: "List[bytes | bytearray | memoryview]" = []

    def data(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(map(len, self._parts))

    # -- primitives -----------------------------------------------------

    def pack_int(self, value: int) -> "XdrEncoder":
        self._parts.append(_pack_word(_INT32, "int32", _INT32_RANGE, value))
        return self

    def pack_uint(self, value: int) -> "XdrEncoder":
        self._parts.append(_pack_word(_UINT32, "uint32", _UINT32_RANGE, value))
        return self

    def pack_hyper(self, value: int) -> "XdrEncoder":
        self._parts.append(_pack_word(_INT64, "int64", _INT64_RANGE, value))
        return self

    def pack_uhyper(self, value: int) -> "XdrEncoder":
        self._parts.append(_pack_word(_UINT64, "uint64", _UINT64_RANGE, value))
        return self

    def pack_bool(self, value: bool) -> "XdrEncoder":
        return self.pack_uint(1 if value else 0)

    def pack_double(self, value: float) -> "XdrEncoder":
        try:
            self._parts.append(_DOUBLE.pack(value))
        except struct.error as exc:
            raise RPCError(f"cannot XDR-encode {value!r} as double: {exc}") from exc
        return self

    def pack_opaque(self, value: "bytes | bytearray | memoryview") -> "XdrEncoder":
        """Variable-length opaque: uint32 length + data + pad to 4.

        Buffer-typed payloads (``memoryview``, ``bytearray``) are held
        by reference — the bytes are only touched once, at the final
        :meth:`data` join, never copied per pack call.
        """
        _append_opaque(self._parts.append, value)
        return self

    def pack_fixed_opaque(self, value: bytes, size: int) -> "XdrEncoder":
        """Fixed-length opaque: no length word, padded to 4."""
        if len(value) != size:
            raise RPCError(f"fixed opaque needs {size} bytes, got {len(value)}")
        self._parts.append(value)
        if size & 3:
            self._parts.append(_PADS[size & 3])
        return self

    def pack_string(self, value: str) -> "XdrEncoder":
        return self.pack_opaque(value.encode("utf-8"))


def _append_opaque(append: Callable[[Any], None], value: Any) -> None:
    """Length word + the payload by reference + padding."""
    size = len(value)
    if size > MAX_OPAQUE:
        raise RPCError(f"opaque too large: {size} bytes")
    append(_UINT32.pack(size))
    append(value)
    if size & 3:
        append(_PADS[size & 3])


class XdrDecoder:
    """Sequential XDR stream reader; raises :class:`RPCError` on underrun.

    ``offset`` starts the read inside the buffer, so a frame's body is
    decoded in place rather than from a sliced copy.
    """

    def __init__(self, data: "bytes | memoryview", offset: int = 0) -> None:
        # a memoryview input makes every read a zero-copy sub-view of
        # the caller's buffer (the stream receive path relies on this)
        self._data = data
        self._pos = offset

    def _take(self, count: int) -> bytes:
        pos = self._pos
        end = pos + count
        if end > len(self._data):
            raise _underrun(count, pos, len(self._data))
        self._pos = end
        return self._data[pos:end]

    def _word(self, packer: struct.Struct) -> Any:
        pos = self._pos
        try:
            (value,) = packer.unpack_from(self._data, pos)
        except struct.error:
            raise _underrun(packer.size, pos, len(self._data)) from None
        self._pos = pos + packer.size
        return value

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def done(self) -> None:
        """Assert the stream was fully consumed."""
        if self.remaining():
            raise RPCError(f"{self.remaining()} trailing bytes after XDR decode")

    # -- primitives -----------------------------------------------------

    def unpack_int(self) -> int:
        return self._word(_INT32)

    def unpack_uint(self) -> int:
        return self._word(_UINT32)

    def unpack_hyper(self) -> int:
        return self._word(_INT64)

    def unpack_uhyper(self) -> int:
        return self._word(_UINT64)

    def unpack_bool(self) -> bool:
        value = self.unpack_uint()
        if value not in (0, 1):
            raise RPCError(f"bool must be 0 or 1, got {value}")
        return bool(value)

    def unpack_double(self) -> float:
        return self._word(_DOUBLE)

    def unpack_opaque(self) -> bytes:
        value, self._pos = _opaque_at(self._data, self._pos)
        return value

    def unpack_fixed_opaque(self, size: int) -> bytes:
        value = self._take(size)
        if size & 3:
            if self._take(4 - (size & 3)) != _PADS[size & 3]:
                raise RPCError("non-zero XDR padding")
        return value

    def unpack_string(self) -> str:
        value, self._pos = _string_at(self._data, self._pos)
        return value


def _underrun(count: int, pos: int, size: int) -> RPCError:
    return RPCError(
        f"XDR underrun: need {count} bytes at offset {pos}, have {size - pos}"
    )


def _opaque_at(data: Any, pos: int) -> "Tuple[Any, int]":
    """The opaque at ``pos`` (a slice of ``data``) and the padded end."""
    try:
        (length,) = _u32_from(data, pos)
    except struct.error:
        raise _underrun(4, pos, len(data)) from None
    if length > MAX_OPAQUE:
        raise RPCError(f"opaque length {length} exceeds limit")
    pos += 4
    end = pos + length
    stop = end + (-length & 3)
    if stop > len(data):
        if end > len(data):
            raise _underrun(length, pos, len(data))
        raise _underrun(stop - end, end, len(data))
    if stop != end and data[end:stop] != _PADS[length & 3]:
        raise RPCError("non-zero XDR padding")
    return data[pos:end], stop


def _string_at(data: Any, pos: int) -> "Tuple[str, int]":
    raw, pos = _opaque_at(data, pos)
    try:
        return str(raw, "utf-8"), pos
    except UnicodeDecodeError as exc:
        raise RPCError(f"invalid UTF-8 in XDR string: {exc}") from exc


# -- tagged value codec ---------------------------------------------------


def encode_value(value: Any, encoder: "XdrEncoder | None" = None) -> bytes:
    """Serialize a JSON-like value (plus typed params) to XDR bytes.

    With ``encoder``, the value is appended to it and the encoder's
    whole contents are returned."""
    enc = XdrEncoder() if encoder is None else encoder
    encode_parts(enc._parts.append, value)
    return enc.data()


def encode_parts(append: Callable[[Any], None], value: Any) -> None:
    """Append the XDR parts of ``value`` through ``append`` (typically a
    list's bound ``append``); the caller joins them once.

    Exact built-in types take the fast branches; subclasses (``bool``
    aside, which is matched by identity) fall through to
    :func:`_encode_subclass`, which routes them to the same tags."""
    kind = type(value)
    if kind is str:
        data = value.encode("utf-8")
        size = len(data)
        if size > MAX_OPAQUE:
            raise RPCError(f"opaque too large: {size} bytes")
        append(_TAG_AND_U32.pack(_TAG_STRING, size))
        append(data)
        if size & 3:
            append(_PADS[size & 3])
    elif kind is int:
        try:
            append(_TAG_AND_I64.pack(_TAG_HYPER, value))
        except struct.error:
            raise RPCError(f"int64 out of range: {value}") from None
    elif kind is dict:
        _encode_dict(append, value)
    elif value is None:
        append(_NULL_WORD)
    elif value is True:
        append(_TRUE_WORD)
    elif value is False:
        append(_FALSE_WORD)
    elif kind is list or kind is tuple:
        _encode_sequence(append, value)
    elif kind is bytes or kind is memoryview or kind is bytearray:
        append(_UINT32.pack(_TAG_BYTES))
        _append_opaque(append, value)
    elif kind is float:
        append(_TAG_AND_F64.pack(_TAG_DOUBLE, value))
    else:
        _encode_subclass(append, value)


def _encode_dict(append: Callable[[Any], None], value: Any) -> None:
    append(_TAG_AND_U32.pack(_TAG_DICT, len(value)))
    for key, item in value.items():
        if not isinstance(key, str):
            raise RPCError(f"dict keys must be strings, got {key!r}")
        _append_opaque(append, key.encode("utf-8"))
        encode_parts(append, item)


def _encode_sequence(append: Callable[[Any], None], value: Any) -> None:
    if value and all(isinstance(v, TypedParameter) for v in value):
        _encode_typed_params(append, value)
        return
    append(_TAG_AND_U32.pack(_TAG_LIST, len(value)))
    for item in value:
        encode_parts(append, item)


def _encode_subclass(append: Callable[[Any], None], value: Any) -> None:
    """The isinstance-ordered route for anything not an exact built-in."""
    if isinstance(value, int):
        append(_UINT32.pack(_TAG_HYPER))
        append(_pack_word(_INT64, "int64", _INT64_RANGE, value))
    elif isinstance(value, float):
        append(_TAG_AND_F64.pack(_TAG_DOUBLE, value))
    elif isinstance(value, str):
        append(_UINT32.pack(_TAG_STRING))
        _append_opaque(append, value.encode("utf-8"))
    elif isinstance(value, (bytes, bytearray, memoryview)):
        append(_UINT32.pack(_TAG_BYTES))
        _append_opaque(append, value)
    elif isinstance(value, TypedParamList):
        if not all(isinstance(v, TypedParameter) for v in value):
            raise RPCError("TypedParamList may only hold TypedParameter items")
        _encode_typed_params(append, value)
    elif isinstance(value, (list, tuple)):
        _encode_sequence(append, value)
    elif isinstance(value, dict):
        _encode_dict(append, value)
    else:
        raise RPCError(f"cannot XDR-encode value of type {type(value).__name__}")


#: integer typed-parameter type -> (word packer, name, range)
_PARAM_WORDS = {
    ParamType.INT: (_INT32, "int32", _INT32_RANGE),
    ParamType.UINT: (_UINT32, "uint32", _UINT32_RANGE),
    ParamType.LLONG: (_INT64, "int64", _INT64_RANGE),
    ParamType.ULLONG: (_UINT64, "uint64", _UINT64_RANGE),
}


def _encode_typed_params(append: Callable[[Any], None], params: Any) -> None:
    append(_TAG_AND_U32.pack(_TAG_TYPED_PARAMS, len(params)))
    for param in params:
        _append_opaque(append, param.field.encode("utf-8"))
        ptype = param.type
        append(_pack_word(_UINT32, "uint32", _UINT32_RANGE, int(ptype)))
        word = _PARAM_WORDS.get(ptype)
        if word is not None:
            append(_pack_word(word[0], word[1], word[2], param.value))
        elif ptype == ParamType.DOUBLE:
            append(_DOUBLE.pack(param.value))
        elif ptype == ParamType.BOOLEAN:
            append(_UINT32.pack(1 if param.value else 0))
        else:  # STRING
            _append_opaque(append, param.value.encode("utf-8"))


def decode_value(data: "bytes | memoryview | XdrDecoder") -> Any:
    """Inverse of :func:`encode_value`.

    When given raw bytes, the whole buffer must be consumed.  Given an
    :class:`XdrDecoder`, one value is read from its position onward.
    """
    try:
        if isinstance(data, XdrDecoder):
            value, data._pos = _decode_at(data._data, data._pos)
            return value
        value, pos = _decode_at(data, 0)
    except struct.error as exc:
        # unpack_from ran past the end of the buffer
        raise RPCError(f"XDR underrun: {exc}") from None
    if pos != len(data):
        raise RPCError(f"{len(data) - pos} trailing bytes after XDR decode")
    return value


def _decode_at(data: Any, pos: int) -> "Tuple[Any, int]":
    """The value at ``pos`` of ``data`` and the offset just past it."""
    (tag,) = _u32_from(data, pos)
    pos += 4
    if tag == _TAG_STRING:
        return _string_at(data, pos)
    if tag == _TAG_HYPER:
        return _i64_from(data, pos)[0], pos + 8
    if tag == _TAG_DICT:
        (count,) = _u32_from(data, pos)
        pos += 4
        result: Dict[str, Any] = {}
        for _ in range(count):
            key, pos = _string_at(data, pos)
            result[key], pos = _decode_at(data, pos)
        return result, pos
    if tag == _TAG_NULL:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_LIST:
        (count,) = _u32_from(data, pos)
        pos += 4
        items = []
        append = items.append
        for _ in range(count):
            item, pos = _decode_at(data, pos)
            append(item)
        return items, pos
    if tag == _TAG_BYTES:
        return _opaque_at(data, pos)
    if tag == _TAG_DOUBLE:
        return _DOUBLE.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_TYPED_PARAMS:
        dec = XdrDecoder(data, pos)
        params = _decode_typed_params(dec)
        return params, dec._pos
    raise RPCError(f"unknown XDR value tag {tag}")


def _decode_typed_params(dec: XdrDecoder) -> "TypedParamList":
    count = dec.unpack_uint()
    params = TypedParamList()
    for _ in range(count):
        field = dec.unpack_string()
        ptype = ParamType(dec.unpack_uint())
        if ptype == ParamType.INT:
            value: Any = dec.unpack_int()
        elif ptype == ParamType.UINT:
            value = dec.unpack_uint()
        elif ptype == ParamType.LLONG:
            value = dec.unpack_hyper()
        elif ptype == ParamType.ULLONG:
            value = dec.unpack_uhyper()
        elif ptype == ParamType.DOUBLE:
            value = dec.unpack_double()
        elif ptype == ParamType.BOOLEAN:
            value = dec.unpack_bool()
        else:
            value = dec.unpack_string()
        params.append(TypedParameter(field, ptype, value))
    return params
