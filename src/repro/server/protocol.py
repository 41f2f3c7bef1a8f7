"""Wire protocol for the block-storage service: length-prefixed frames.

Every message — request or response — travels as one frame::

    u32 length  | body            (length = len(body), big-endian)

Request body::

    u8 opcode | u32 request_id | payload [| u64 trace_id]

    READ  payload:  u64 lpn
    WRITE payload:  u64 lpn | u32 nbits | ceil(nbits / 8) packed data bytes
    TRIM  payload:  u64 lpn
    STAT  payload:  (empty)
    HELLO payload:  u16 tenant | u16 version

Response body::

    u8 status | u32 request_id | payload

    OK READ  payload:  u32 nbits | packed data bytes
    OK STAT  payload:  UTF-8 JSON object (device + server state)
    OK HELLO payload:  u16 version (min of the offered and the server's)
    OK WRITE/TRIM:     (empty)
    any error status:  UTF-8 message

Trace context
-------------
An *optional* trace-context field lets one wire-level trace id stitch
client issue -> admission -> batch flush -> ack across processes.  A
request carrying trace context sets the high bit of the opcode byte
(``TRACE_FLAG``) and appends a trailing ``u64 trace_id`` after its normal
payload; requests without the bit carry no trailer.  The flag makes the
field self-describing, so servers decode it without per-connection state.

Page data crosses the wire bit-packed (``np.packbits``), so a 4 KB page's
2048-bit dataword costs 256 payload bytes.  ``request_id`` is an opaque
client-chosen correlation token: responses may be delivered out of order
relative to *other* connections, but each connection's requests are
executed in arrival order, so pipelining is safe.

``HELLO`` declares which tenant the connection's subsequent requests bill
against (per-tenant admission credits and QoS accounting); connections
that never send it belong to tenant 0.

Framing errors are unrecoverable for a stream (the receiver can no longer
find the next frame boundary), so oversized and truncated frames raise
:class:`~repro.errors.ProtocolError` and the connection is closed.
Malformed *bodies* inside a well-framed message keep the stream aligned;
servers answer those with ``Status.BAD_REQUEST`` instead of dropping the
connection.
"""

from __future__ import annotations

import asyncio
import enum
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTO_VERSION",
    "TRACE_FLAG",
    "Opcode",
    "Status",
    "Request",
    "Response",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "frame",
    "read_frame",
    "pack_bits",
    "unpack_bits",
]

#: Hard ceiling on one frame's body size.  Generous for any page geometry
#: this simulator supports (a 4 KB page's packed dataword is < 1 KB) while
#: keeping a misbehaving peer from ballooning server memory.
MAX_FRAME_BYTES = 1 << 20

#: The protocol version this build speaks, offered and echoed in HELLO.
PROTO_VERSION = 1

#: High bit of the request opcode byte: "a u64 trace_id trails the payload".
TRACE_FLAG = 0x80

_LEN = struct.Struct("!I")
_REQ_HEAD = struct.Struct("!BI")  # opcode, request_id
_RESP_HEAD = struct.Struct("!BI")  # status, request_id
_LPN = struct.Struct("!Q")
_NBITS = struct.Struct("!I")
_HELLO = struct.Struct("!HH")  # tenant, offered version
_VERSION = struct.Struct("!H")
_TRACE = struct.Struct("!Q")


class Opcode(enum.IntEnum):
    """Request operation codes."""

    READ = 1
    WRITE = 2
    TRIM = 3
    STAT = 4
    HELLO = 5


class Status(enum.IntEnum):
    """Response status codes (``OK`` or one typed failure)."""

    OK = 0
    BAD_REQUEST = 1     # malformed body, wrong dataword size, bad opcode
    OUT_OF_RANGE = 2    # LPN outside the device's logical address space
    READ_ONLY = 3       # device latched end-of-life read-only mode
    UNCORRECTABLE = 4   # read exhausted the recovery ladder
    BUSY = 5            # admission control shed the request (reject mode)
    INTERNAL = 6        # unexpected server-side failure
    RECOVERING = 7      # server is replaying its journal; retry shortly


@dataclass(frozen=True)
class Request:
    """One decoded request frame."""

    opcode: Opcode
    request_id: int
    lpn: int = 0
    data: np.ndarray | None = None  # unpacked bits for WRITE
    tenant: int = 0                 # tenant tag for HELLO
    version: int = PROTO_VERSION    # protocol version offered in HELLO
    trace_id: int = 0               # wire trace context (0 = untraced)


@dataclass(frozen=True)
class Response:
    """One decoded response frame."""

    status: Status
    request_id: int
    data: np.ndarray | None = None   # unpacked bits for OK READ
    message: str = ""                # error detail for non-OK statuses
    stat: dict = field(default_factory=dict)  # decoded JSON for OK STAT
    version: int = 0                 # negotiated version echoed on OK HELLO


def pack_bits(bits: np.ndarray) -> bytes:
    """Bit array -> packed payload bytes (big-endian bit order)."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bits(payload: bytes, nbits: int) -> np.ndarray:
    """Packed payload bytes -> bit array of exactly ``nbits`` entries."""
    if len(payload) != (nbits + 7) // 8:
        raise ProtocolError(
            f"payload holds {len(payload)} bytes but {nbits} bits were "
            f"declared ({(nbits + 7) // 8} bytes expected)"
        )
    return np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8), count=nbits
    ).astype(np.uint8)


def frame(body: bytes) -> bytes:
    """Wrap a message body in its length prefix."""
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LEN.pack(len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """Read one frame body; ``None`` on clean EOF at a frame boundary.

    EOF in the middle of a frame (a truncated write) and oversized length
    prefixes both raise :class:`~repro.errors.ProtocolError` — in either
    case the stream cannot be resynchronized and must be closed.
    """
    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of "
            f"{_LEN.size} length-prefix bytes)"
        ) from None
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of "
            f"{length} body bytes)"
        ) from None


# -- requests ----------------------------------------------------------------


def encode_request(request: Request) -> bytes:
    """Request -> framed bytes ready to write to a stream."""
    traced_op = request.trace_id and request.opcode is not Opcode.HELLO
    raw_opcode = int(request.opcode) | (TRACE_FLAG if traced_op else 0)
    body = _REQ_HEAD.pack(raw_opcode, request.request_id)
    if request.opcode in (Opcode.READ, Opcode.TRIM):
        body += _LPN.pack(request.lpn)
    elif request.opcode is Opcode.WRITE:
        if request.data is None:
            raise ProtocolError("WRITE requests carry a data payload")
        nbits = int(np.asarray(request.data).shape[0])
        body += _LPN.pack(request.lpn) + _NBITS.pack(nbits)
        body += pack_bits(request.data)
    elif request.opcode is Opcode.HELLO:
        body += _HELLO.pack(request.tenant, request.version)
    elif request.opcode is not Opcode.STAT:
        raise ProtocolError(f"unknown opcode {request.opcode!r}")
    if traced_op:
        body += _TRACE.pack(request.trace_id)
    return frame(body)


def decode_request(body: bytes) -> Request:
    """Framed request body -> :class:`Request` (raises on malformed bodies)."""
    if len(body) < _REQ_HEAD.size:
        raise ProtocolError(f"request body of {len(body)} bytes is too short")
    raw_opcode, request_id = _REQ_HEAD.unpack_from(body)
    traced_op = bool(raw_opcode & TRACE_FLAG)
    try:
        opcode = Opcode(raw_opcode & ~TRACE_FLAG)
    except ValueError:
        raise ProtocolError(f"unknown opcode {raw_opcode}") from None
    rest = body[_REQ_HEAD.size:]
    trace_id = 0
    if traced_op:
        if opcode is Opcode.HELLO:
            raise ProtocolError("HELLO requests carry no trace context")
        if len(rest) < _TRACE.size:
            raise ProtocolError("trace context is truncated")
        (trace_id,) = _TRACE.unpack(rest[-_TRACE.size:])
        rest = rest[:-_TRACE.size]
    if opcode in (Opcode.READ, Opcode.TRIM):
        if len(rest) != _LPN.size:
            raise ProtocolError(f"{opcode.name} payload must be one u64 LPN")
        (lpn,) = _LPN.unpack(rest)
        return Request(opcode, request_id, lpn=lpn, trace_id=trace_id)
    if opcode is Opcode.WRITE:
        head = _LPN.size + _NBITS.size
        if len(rest) < head:
            raise ProtocolError("WRITE payload is truncated")
        (lpn,) = _LPN.unpack_from(rest)
        (nbits,) = _NBITS.unpack_from(rest, _LPN.size)
        data = unpack_bits(rest[head:], nbits)
        return Request(opcode, request_id, lpn=lpn, data=data,
                       trace_id=trace_id)
    if opcode is Opcode.HELLO:
        if len(rest) != _HELLO.size:
            raise ProtocolError(
                "HELLO payload must be one u16 tenant + one u16 version"
            )
        tenant, version = _HELLO.unpack(rest)
        if version < 1:
            raise ProtocolError("HELLO must offer protocol version 1 or later")
        return Request(opcode, request_id, tenant=tenant, version=version)
    if rest:
        raise ProtocolError("STAT requests carry no payload")
    return Request(opcode, request_id, trace_id=trace_id)


# -- responses ---------------------------------------------------------------


def encode_response(response: Response) -> bytes:
    """Response -> framed bytes ready to write to a stream."""
    body = _RESP_HEAD.pack(int(response.status), response.request_id)
    if response.status is not Status.OK:
        body += response.message.encode("utf-8")
    elif response.data is not None:
        nbits = int(np.asarray(response.data).shape[0])
        body += _NBITS.pack(nbits) + pack_bits(response.data)
    elif response.stat:
        body += json.dumps(response.stat, sort_keys=True).encode("utf-8")
    elif response.version:
        body += _VERSION.pack(response.version)
    return frame(body)


def decode_response(body: bytes, expect: Opcode | None = None) -> Response:
    """Framed response body -> :class:`Response`.

    ``expect`` names the opcode of the request this response answers (the
    client knows it from its ``request_id`` bookkeeping) and disambiguates
    the OK payload shapes: ``Opcode.READ`` decodes page bits,
    ``Opcode.STAT`` the JSON object, ``Opcode.HELLO`` the settled version,
    anything else expects an empty payload.
    """
    if len(body) < _RESP_HEAD.size:
        raise ProtocolError(f"response body of {len(body)} bytes is too short")
    raw_status, request_id = _RESP_HEAD.unpack_from(body)
    try:
        status = Status(raw_status)
    except ValueError:
        raise ProtocolError(f"unknown status {raw_status}") from None
    rest = body[_RESP_HEAD.size:]
    if status is not Status.OK:
        return Response(status, request_id, message=rest.decode("utf-8"))
    if expect is Opcode.HELLO:
        if len(rest) != _VERSION.size:
            raise ProtocolError(
                "HELLO response payload must be one u16 version"
            )
        (version,) = _VERSION.unpack(rest)
        return Response(status, request_id, version=version)
    if not rest:
        return Response(status, request_id)
    if expect is Opcode.STAT:
        try:
            return Response(status, request_id, stat=json.loads(rest))
        except json.JSONDecodeError:
            raise ProtocolError("STAT payload is not valid JSON") from None
    if expect in (Opcode.WRITE, Opcode.TRIM):
        raise ProtocolError(f"{expect.name} responses carry no payload")
    if len(rest) < _NBITS.size:
        raise ProtocolError("READ payload is truncated")
    (nbits,) = _NBITS.unpack_from(rest)
    return Response(
        status, request_id, data=unpack_bits(rest[_NBITS.size:], nbits)
    )
