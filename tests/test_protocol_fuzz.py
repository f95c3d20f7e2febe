"""Malformed frames against the gateway's wire decoders.

Whatever bytes arrive — a truncated or oversized prefix, an unknown
format tag, a header that does not decode or is not a map, descriptors
with bad dtypes, sizes or offsets, a payload too short for them, a shm
handle naming no segment — ``decode_prefix``, ``decode_frame_parts``
and ``unpack_matrices`` either return a well-formed result or raise a
``GatewayError`` (``RequestInvalid`` for request content).  A live
gateway answers a truncated frame with a typed error or by closing the
connection, promptly and without leaking a shared-memory segment.
"""

import copy
import json
import os
import socket
import time
import uuid

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.formats.csc import CSCMatrix
from repro.serve import GatewayConfig, start_in_thread
from repro.serve import protocol
from repro.serve.protocol import (
    PREFIX_BYTES,
    AttachedSegments,
    GatewayError,
    decode_frame_parts,
    decode_prefix,
    encode_frame,
    pack_matrices,
    unpack_matrices,
)
from tests.conftest import own_segments, random_collection

FUZZ = dict(
    deadline=None, max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 70), 2 ** 70)
    | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(**FUZZ)
@given(st.binary(max_size=2 * PREFIX_BYTES))
def test_decode_prefix(prefix):
    try:
        tag, header_len, payload_len = decode_prefix(prefix)
    except GatewayError:
        return
    assert len(prefix) == PREFIX_BYTES and len(tag) == 1
    assert header_len + payload_len <= protocol.MAX_FRAME_BYTES


def test_decode_prefix_refuses_oversized_frames():
    prefix = protocol._PREFIX.pack(b"J", protocol.MAX_FRAME_BYTES, 1)
    try:
        decode_prefix(prefix)
    except GatewayError as err:
        assert "refusing" in str(err)
    else:
        raise AssertionError("an oversized frame was accepted")


@settings(**FUZZ)
@given(
    st.sampled_from([b"J", b"M", b"X", b"\x00"]),
    st.one_of(
        st.binary(max_size=64),
        JSON_VALUES.map(lambda v: json.dumps(v).encode()),
        JSON_VALUES.map(lambda v: json.dumps(v).encode()[:-1]),
    ),
    st.binary(max_size=16),
)
def test_decode_frame_parts(tag, header_raw, payload):
    try:
        header, got_payload = decode_frame_parts(tag, header_raw, payload)
    except GatewayError:
        return
    assert isinstance(header, dict) and got_payload == payload


def test_frames_round_trip():
    frame = encode_frame({"op": "ping", "id": 3}, b"xyz")
    tag, h, p = decode_prefix(frame[:PREFIX_BYTES])
    header, payload = decode_frame_parts(
        tag, frame[PREFIX_BYTES:PREFIX_BYTES + h],
        frame[PREFIX_BYTES + h:PREFIX_BYTES + h + p],
    )
    assert header == {"op": "ping", "id": 3} and payload == b"xyz"


GOOD_MATS = random_collection(seed=5, m=16, n=4, k=2)
GOOD_ENTRIES, GOOD_PAYLOAD = pack_matrices(GOOD_MATS)

DESCRIPTOR_VALUES = st.one_of(
    st.integers(-(2 ** 40), 2 ** 40),
    st.sampled_from([
        "<i4", "<i8", "<f8", "|b1", "<c16", "|O", "<U4", "|V0", "|V8",
        "(2,)<f8", "not a dtype", "", ">i8",
    ]),
    JSON_VALUES,
)


@st.composite
def mangled_request(draw):
    """A valid two-matrix request with some of its pieces broken."""
    shape = [16, 4]
    entries = copy.deepcopy(GOOD_ENTRIES)
    payload = GOOD_PAYLOAD
    for _ in range(draw(st.integers(1, 4))):
        what = draw(st.sampled_from(
            ["truncate", "field", "drop", "shm", "entry", "shape", "pad"]
        ))
        i = draw(st.integers(0, len(entries) - 1))
        name = draw(st.sampled_from(["indptr", "indices", "data"]))
        if what == "truncate":
            payload = payload[:draw(st.integers(0, len(payload)))]
        elif what == "pad":
            payload = payload + draw(st.binary(max_size=16))
        elif what == "field" and isinstance(entries[i], dict) and isinstance(
                entries[i].get(name), dict):
            key = draw(st.sampled_from(["dtype", "size", "offset"]))
            entries[i][name][key] = draw(DESCRIPTOR_VALUES)
        elif what == "drop" and isinstance(entries[i], dict):
            entries[i].pop(name, None)
        elif what == "shm" and isinstance(entries[i], dict):
            # A handle naming no live segment (the sender is gone).
            entries[i][name] = {"shm": {
                "name": draw(st.sampled_from([
                    f"repro_shm_dangling_{uuid.uuid4().hex[:8]}", "",
                    "a/b", "x" * 300, "nul\x00name",
                ])),
                "dtype": "<i8", "size": 5, "offset": 0,
            }}
        elif what == "entry":
            entries[i] = draw(JSON_VALUES)
        elif what == "shape":
            shape = draw(st.one_of(
                st.lists(st.integers(-3, 40), min_size=0, max_size=3),
                JSON_VALUES,
            ))
    return shape, entries, payload


@settings(**FUZZ)
@given(mangled_request())
def test_unpack_matrices(request):
    shape, entries, payload = request
    before = own_segments()
    with AttachedSegments() as attachments:
        try:
            mats = unpack_matrices(shape, entries, payload, attachments)
        except GatewayError:
            mats = None
        for A in mats or ():
            assert isinstance(A, CSCMatrix)
            A.validate()
        del mats
    assert own_segments() == before


@pytest.mark.parametrize("shape", [
    [float("inf"), 4], [16, float("-inf")], [float("nan"), 4], ["16x", 4],
])
def test_unpack_matrices_rejects_non_integral_shape(shape):
    # JSON headers decode ``Infinity``/``NaN`` to floats int() refuses.
    with pytest.raises(protocol.RequestInvalid, match="malformed shape"):
        unpack_matrices(shape, GOOD_ENTRIES, GOOD_PAYLOAD)


def test_unpack_matrices_round_trips():
    got = unpack_matrices([16, 4], GOOD_ENTRIES, GOOD_PAYLOAD)
    for a, b in zip(got, GOOD_MATS):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_live_gateway_drops_a_truncated_frame():
    cfg = GatewayConfig(
        socket_path=f"/tmp/repro-gw-{os.getpid()}-{uuid.uuid4().hex[:8]}.sock",
        threads=2, batch_window_s=0.05,
    )
    before = own_segments()
    with start_in_thread(cfg):
        frame = encode_frame({"op": "ping", "id": 1})
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(2.0)
        try:
            sock.connect(cfg.socket_path)
            sock.sendall(frame[:-3])
            sock.shutdown(socket.SHUT_WR)
            t0 = time.monotonic()
            reply = b""
            while True:
                chunk = sock.recv(4096)  # socket.timeout fails the test
                if not chunk:
                    break
                reply += chunk
            assert time.monotonic() - t0 < 2.0
        finally:
            sock.close()
        if reply:
            tag, h, _ = decode_prefix(reply[:PREFIX_BYTES])
            header, _ = decode_frame_parts(
                tag, reply[PREFIX_BYTES:PREFIX_BYTES + h], b"")
            assert header.get("code") == "invalid", header
    assert own_segments() == before
