"""Wire-protocol tests: round trips, framing, malformed-body rejection."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.protocol import Opcode, Request, Response, Status


def _bits(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)


def _body(framed: bytes) -> bytes:
    """Strip the length prefix off one encoded frame."""
    return framed[4:]


class TestPackBits:
    def test_round_trip_odd_width(self) -> None:
        for nbits in (1, 7, 8, 9, 36, 4096):
            bits = _bits(nbits, seed=nbits)
            assert np.array_equal(
                protocol.unpack_bits(protocol.pack_bits(bits), nbits), bits
            )

    def test_wrong_byte_count_rejected(self) -> None:
        payload = protocol.pack_bits(_bits(16))
        with pytest.raises(ProtocolError):
            protocol.unpack_bits(payload, 24)
        with pytest.raises(ProtocolError):
            protocol.unpack_bits(payload + b"\0", 16)


class TestRequestRoundTrip:
    def test_read_and_trim(self) -> None:
        for opcode in (Opcode.READ, Opcode.TRIM):
            request = Request(opcode, 42, lpn=7)
            back = protocol.decode_request(_body(protocol.encode_request(request)))
            assert back.opcode is opcode
            assert back.request_id == 42 and back.lpn == 7
            assert back.data is None

    def test_write_carries_bits(self) -> None:
        data = _bits(36)
        request = Request(Opcode.WRITE, 9, lpn=3, data=data)
        back = protocol.decode_request(_body(protocol.encode_request(request)))
        assert back.lpn == 3 and np.array_equal(back.data, data)

    def test_stat_is_empty(self) -> None:
        back = protocol.decode_request(
            _body(protocol.encode_request(Request(Opcode.STAT, 1)))
        )
        assert back.opcode is Opcode.STAT

    def test_write_without_data_rejected_at_encode(self) -> None:
        with pytest.raises(ProtocolError):
            protocol.encode_request(Request(Opcode.WRITE, 1, lpn=0))


class TestRequestMalformedBodies:
    def test_unknown_opcode(self) -> None:
        with pytest.raises(ProtocolError, match="opcode"):
            protocol.decode_request(bytes([99]) + b"\0\0\0\x01" + b"\0" * 8)

    def test_short_body(self) -> None:
        with pytest.raises(ProtocolError, match="too short"):
            protocol.decode_request(b"\x01\x00")

    def test_read_with_truncated_lpn(self) -> None:
        body = _body(protocol.encode_request(Request(Opcode.READ, 1, lpn=0)))
        with pytest.raises(ProtocolError):
            protocol.decode_request(body[:-1])

    def test_write_with_wrong_bit_count(self) -> None:
        body = _body(
            protocol.encode_request(Request(Opcode.WRITE, 1, lpn=0, data=_bits(16)))
        )
        with pytest.raises(ProtocolError):
            protocol.decode_request(body + b"\0")

    def test_stat_with_payload(self) -> None:
        body = _body(protocol.encode_request(Request(Opcode.STAT, 1)))
        with pytest.raises(ProtocolError):
            protocol.decode_request(body + b"x")


class TestResponseRoundTrip:
    def test_ok_read(self) -> None:
        data = _bits(36, seed=3)
        back = protocol.decode_response(
            _body(protocol.encode_response(Response(Status.OK, 5, data=data))),
            expect=Opcode.READ,
        )
        assert back.status is Status.OK and np.array_equal(back.data, data)

    def test_ok_write_is_empty(self) -> None:
        back = protocol.decode_response(
            _body(protocol.encode_response(Response(Status.OK, 5))),
            expect=Opcode.WRITE,
        )
        assert back.status is Status.OK and back.data is None

    def test_ok_stat_carries_json(self) -> None:
        stat = {"scheme": "wom", "logical_pages": 10}
        back = protocol.decode_response(
            _body(protocol.encode_response(Response(Status.OK, 5, stat=stat))),
            expect=Opcode.STAT,
        )
        assert back.stat == stat

    def test_every_error_status_carries_message(self) -> None:
        for status in Status:
            if status is Status.OK:
                continue
            back = protocol.decode_response(
                _body(protocol.encode_response(
                    Response(status, 8, message="boom")
                )),
                expect=Opcode.READ,
            )
            assert back.status is status and back.message == "boom"

    def test_unexpected_payload_on_write_ack(self) -> None:
        body = _body(protocol.encode_response(
            Response(Status.OK, 1, data=_bits(8))
        ))
        with pytest.raises(ProtocolError):
            protocol.decode_response(body, expect=Opcode.WRITE)

    def test_unknown_status(self) -> None:
        with pytest.raises(ProtocolError, match="status"):
            protocol.decode_response(bytes([200]) + b"\0\0\0\x01")


class TestFraming:
    def _read(self, wire: bytes):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(wire)
            reader.feed_eof()
            return await protocol.read_frame(reader)

        return asyncio.run(go())

    def test_frame_round_trip(self) -> None:
        assert self._read(protocol.frame(b"hello")) == b"hello"

    def test_clean_eof_returns_none(self) -> None:
        assert self._read(b"") is None

    def test_truncated_length_prefix_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="mid-frame"):
            self._read(b"\x00\x00")

    def test_truncated_body_rejected(self) -> None:
        wire = protocol.frame(b"hello")[:-2]
        with pytest.raises(ProtocolError, match="mid-frame"):
            self._read(wire)

    def test_oversized_frame_rejected(self) -> None:
        length = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="limit"):
            self._read(length + b"x")

    def test_oversized_body_rejected_at_encode(self) -> None:
        with pytest.raises(ProtocolError):
            protocol.frame(b"\0" * (protocol.MAX_FRAME_BYTES + 1))

    def test_back_to_back_frames(self) -> None:
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(protocol.frame(b"one") + protocol.frame(b"two"))
            reader.feed_eof()
            first = await protocol.read_frame(reader)
            second = await protocol.read_frame(reader)
            third = await protocol.read_frame(reader)
            return first, second, third

        assert asyncio.run(go()) == (b"one", b"two", None)


class TestTraceContext:
    def test_traced_ops_round_trip(self) -> None:
        trace_id = 0xDEADBEEF12345678
        for opcode, kwargs in (
            (Opcode.READ, {"lpn": 7}),
            (Opcode.WRITE, {"lpn": 3, "data": _bits(36)}),
            (Opcode.TRIM, {"lpn": 1}),
            (Opcode.STAT, {}),
        ):
            request = Request(opcode, 11, trace_id=trace_id, **kwargs)
            back = protocol.decode_request(
                _body(protocol.encode_request(request))
            )
            assert back.opcode is opcode
            assert back.trace_id == trace_id

    def test_untraced_frames_carry_no_trailer(self) -> None:
        traced = protocol.encode_request(Request(Opcode.READ, 1, lpn=2,
                                                 trace_id=99))
        plain = protocol.encode_request(Request(Opcode.READ, 1, lpn=2))
        assert len(traced) == len(plain) + 8
        assert _body(plain)[0] & protocol.TRACE_FLAG == 0
        assert _body(traced)[0] & protocol.TRACE_FLAG

    def test_truncated_trace_id_rejected(self) -> None:
        wire = _body(protocol.encode_request(
            Request(Opcode.READ, 1, lpn=2, trace_id=99)
        ))
        with pytest.raises(ProtocolError):
            protocol.decode_request(wire[:-3])

    def test_hello_must_not_carry_trace_context(self) -> None:
        # The encoder never sets the flag on HELLO...
        wire = _body(protocol.encode_request(
            Request(Opcode.HELLO, 1, tenant=0, trace_id=99)
        ))
        assert wire[0] & protocol.TRACE_FLAG == 0
        # ...and the decoder rejects a hand-forged one.
        forged = bytes([wire[0] | protocol.TRACE_FLAG]) + wire[1:] + b"\0" * 8
        with pytest.raises(ProtocolError, match="HELLO"):
            protocol.decode_request(forged)


class TestVersionNegotiation:
    def test_v1_hello_round_trips_tenant_and_version(self) -> None:
        request = Request(Opcode.HELLO, 4, tenant=3,
                          version=protocol.PROTO_VERSION)
        back = protocol.decode_request(_body(protocol.encode_request(request)))
        assert back.tenant == 3
        assert back.version == protocol.PROTO_VERSION

    def test_hello_always_carries_tenant_and_version(self) -> None:
        wire = _body(protocol.encode_request(Request(Opcode.HELLO, 4, tenant=2)))
        assert len(wire) == 1 + 4 + 2 + 2  # opcode, request_id, tenant, version
        assert protocol.decode_request(wire).version == protocol.PROTO_VERSION
        with pytest.raises(ProtocolError, match="HELLO"):
            protocol.decode_request(wire[:-2])  # the retired tenant-only form
        with pytest.raises(ProtocolError, match="version"):
            protocol.decode_request(wire[:-2] + b"\0\0")  # offers version 0

    def test_hello_with_odd_payload_rejected(self) -> None:
        good = _body(protocol.encode_request(
            Request(Opcode.HELLO, 4, tenant=2, version=1)
        ))
        with pytest.raises(ProtocolError, match="HELLO"):
            protocol.decode_request(good + b"\0")

    def test_ok_hello_response_echoes_version(self) -> None:
        back = protocol.decode_response(
            _body(protocol.encode_response(Response(Status.OK, 7, version=1))),
            expect=Opcode.HELLO,
        )
        assert back.version == 1

    def test_hello_response_with_junk_payload_rejected(self) -> None:
        body = _body(protocol.encode_response(Response(Status.OK, 7, version=1)))
        for bad in (body + b"\0", body[:-2]):  # trailing junk; no version
            with pytest.raises(ProtocolError, match="HELLO"):
                protocol.decode_response(bad, expect=Opcode.HELLO)
