"""Wire protocol of the SpKAdd gateway: length-prefixed binary frames.

One frame travels as::

    1 byte   format tag: b"J" (JSON header) or b"M" (msgpack header)
    4 bytes  big-endian header length  H
    4 bytes  big-endian payload length P
    H bytes  encoded header (a flat dict of metadata — never array data)
    P bytes  payload: the frame's array buffers, back to back

The header is msgpack when the ``msgpack`` module is importable and
JSON otherwise — the tag byte lets either side decode frames from a
peer with the opposite capability, so the container does not need the
optional dependency installed to serve or to call.  Array *data* never
rides in the header: inline arrays are raw little-ordered buffers in
the payload section, described by ``{"dtype", "size", "offset"}``
descriptors, and co-located clients can replace the buffers entirely
with **shared-memory segment handles** (``{"shm": {"name", "dtype",
"size", "offset"}}``) so a request or response moves zero bytes through
the socket.

Requests and responses are matched by ``id``; every request op gets
exactly one response frame except ``release`` (fire-and-forget).  Error
responses are *typed*: ``code`` maps back onto the library's exception
family (:class:`~repro.parallel.resilience.DeadlineExceeded` for an
expired request budget, :class:`~repro.parallel.resilience.ExecutorUnusable`
for an exhausted degradation chain, :class:`ShedError` for admission-
control load shedding, :class:`RequestInvalid` for a malformed request),
so a gateway client sees the same exceptions an in-process caller
would.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.formats.csc import CSCMatrix
from repro.parallel.resilience import DeadlineExceeded, ExecutorUnusable

try:  # optional: the baked image may or may not carry it
    import msgpack  # type: ignore
except ImportError:  # pragma: no cover - exercised via _encode_header fallback
    msgpack = None

#: frame prefix: format tag + header length + payload length.
_PREFIX = struct.Struct(">cII")

#: refuse to allocate for frames claiming more than this (a corrupt or
#: hostile length prefix must not OOM the server).
MAX_FRAME_BYTES = 1 << 31

#: protocol revision, echoed by ``ping`` so clients can detect skew.
PROTOCOL_VERSION = 1


# ---------------------------------------------------------------------------
# Typed gateway errors.
# ---------------------------------------------------------------------------


class GatewayError(RuntimeError):
    """Base class of gateway-side request failures."""


class ShedError(GatewayError):
    """The gateway refused the request: its admission queue is full.

    Back off and retry — shedding is the overload contract, not a bug;
    an unbounded queue would instead convert overload into unbounded
    latency for every queued request.
    """


class RequestInvalid(GatewayError, ValueError):
    """The request was malformed (bad shapes, unknown method, a
    ``threads`` count the kernels reject, ...)."""


class GatewayConnectionError(GatewayError, ConnectionError):
    """The transport failed and the client could not recover it."""


class ResultReleased(GatewayError):
    """A shm result lease was used after :meth:`ShmResult.release`
    (or after its owning connection closed)."""


#: error-code wire names -> exception types raised client-side.  The
#: resilience family maps onto the *library's* exceptions so a gateway
#: caller handles the same types an in-process caller would.
ERROR_TYPES = {
    "shed": ShedError,
    "invalid": RequestInvalid,
    "deadline": DeadlineExceeded,
    "unusable": ExecutorUnusable,
    "internal": GatewayError,
}


def error_code_for(exc: BaseException) -> str:
    """The wire code a server-side exception travels as."""
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    if isinstance(exc, ExecutorUnusable):
        return "unusable"
    if isinstance(exc, ShedError):
        return "shed"
    if isinstance(exc, (RequestInvalid, ValueError, TypeError, KeyError)):
        return "invalid"
    return "internal"


def raise_for_error(header: Dict) -> None:
    """Raise the typed exception an error response encodes (no-op for
    non-error frames)."""
    if header.get("status") != "error":
        return
    code = header.get("code", "internal")
    exc_type = ERROR_TYPES.get(code, GatewayError)
    raise exc_type(header.get("message", f"gateway error [{code}]"))


# ---------------------------------------------------------------------------
# Frame encode/decode.
# ---------------------------------------------------------------------------


def _encode_header(header: Dict) -> Tuple[bytes, bytes]:
    if msgpack is not None:
        return b"M", msgpack.packb(header, use_bin_type=True)
    return b"J", json.dumps(header, separators=(",", ":")).encode("utf-8")


def _loads(tag: bytes, raw: bytes) -> object:
    if tag == b"M":
        if msgpack is None:
            raise GatewayError(
                "peer sent a msgpack header but the msgpack module is not "
                "importable here; restart the peer without msgpack or "
                "install it"
            )
        return msgpack.unpackb(raw, raw=False)
    if tag == b"J":
        return json.loads(raw.decode("utf-8"))
    raise GatewayError(f"unknown frame format tag {tag!r}")


def _decode_header(tag: bytes, raw: bytes) -> Dict:
    """The header map of a frame; a ``GatewayError`` for an unknown tag,
    bytes that do not decode, or a header that is not a map."""
    try:
        header = _loads(tag, raw)
    except GatewayError:
        raise
    except Exception as err:  # msgpack documents no closed error family
        raise GatewayError(f"undecodable frame header: {err}") from None
    if not isinstance(header, dict):
        raise GatewayError(
            f"frame header is a {type(header).__name__}, not a map"
        )
    return header


def encode_frame(header: Dict, payload: bytes = b"") -> bytes:
    """Serialize one frame (header dict + raw payload bytes)."""
    tag, raw = _encode_header(header)
    return _PREFIX.pack(tag, len(raw), len(payload)) + raw + payload


def decode_prefix(prefix: bytes) -> Tuple[bytes, int, int]:
    """Split the 9-byte frame prefix; validates the claimed lengths."""
    if len(prefix) != _PREFIX.size:
        raise GatewayError(
            f"truncated frame prefix: {len(prefix)} of {_PREFIX.size} bytes"
        )
    tag, header_len, payload_len = _PREFIX.unpack(prefix)
    if header_len + payload_len > MAX_FRAME_BYTES:
        raise GatewayError(
            f"frame claims {header_len + payload_len} bytes "
            f"(> {MAX_FRAME_BYTES} limit); refusing"
        )
    return tag, header_len, payload_len


PREFIX_BYTES = _PREFIX.size


def decode_frame_parts(
    tag: bytes, header_raw: bytes, payload: bytes
) -> Tuple[Dict, bytes]:
    return _decode_header(tag, header_raw), payload


async def read_frame(reader) -> Tuple[Dict, bytes]:
    """Read one frame from an ``asyncio.StreamReader``."""
    prefix = await reader.readexactly(PREFIX_BYTES)
    tag, header_len, payload_len = decode_prefix(prefix)
    header_raw = await reader.readexactly(header_len)
    payload = await reader.readexactly(payload_len) if payload_len else b""
    return _decode_header(tag, header_raw), payload


def read_frame_sync(sock) -> Tuple[Dict, bytes]:
    """Read one frame from a blocking socket (client side)."""
    prefix = _recv_exact(sock, PREFIX_BYTES)
    tag, header_len, payload_len = decode_prefix(prefix)
    header_raw = _recv_exact(sock, header_len)
    payload = _recv_exact(sock, payload_len) if payload_len else b""
    return _decode_header(tag, header_raw), payload


def _recv_exact(sock, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            raise ConnectionError("gateway connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# Matrix packing: inline buffers or shm segment handles.
# ---------------------------------------------------------------------------


def _array_descriptor(arr: np.ndarray, chunks: List[bytes], cursor: int):
    buf = np.ascontiguousarray(arr).tobytes()
    desc = {"dtype": arr.dtype.str, "size": int(arr.size), "offset": cursor}
    chunks.append(buf)
    return desc, cursor + len(buf)


def pack_matrices(mats: Sequence[CSCMatrix]) -> Tuple[List[Dict], bytes]:
    """Inline encoding: per-matrix descriptors + one payload blob."""
    chunks: List[bytes] = []
    cursor = 0
    headers = []
    for A in mats:
        entry = {"sorted": bool(A.sorted)}
        for name in ("indptr", "indices", "data"):
            entry[name], cursor = _array_descriptor(
                getattr(A, name), chunks, cursor
            )
        headers.append(entry)
    return headers, b"".join(chunks)


def _array_dtype(desc: Dict) -> np.dtype:
    """The dtype a descriptor names: a plain number type."""
    dtype = np.dtype(desc["dtype"])
    if dtype.kind not in "biufc" or dtype.shape:
        raise RequestInvalid(f"array dtype {dtype} is not a number type")
    return dtype


def _array_size(desc: Dict) -> int:
    size = int(desc["size"])
    if size < 0:
        raise RequestInvalid(f"array size {size} is negative")
    return size


def _array_from_payload(desc: Dict, payload: bytes) -> np.ndarray:
    dtype = _array_dtype(desc)
    size = _array_size(desc)
    offset = int(desc["offset"])
    end = offset + size * dtype.itemsize
    if offset < 0 or end > len(payload):
        raise RequestInvalid(
            f"array descriptor [{offset}:{end}] outside the "
            f"{len(payload)}-byte payload"
        )
    # frombuffer over bytes is zero-copy and read-only; the kernels
    # treat inputs as immutable, so no defensive copy is made.
    return np.frombuffer(payload, dtype=dtype, count=size, offset=offset)


class AttachedSegments:
    """Reader-side attachments to shm-handle arrays (close after use)."""

    def __init__(self) -> None:
        self._segments: Dict[str, object] = {}

    def array(self, desc: Dict) -> np.ndarray:
        from multiprocessing import shared_memory

        name = desc["name"]
        seg = self._segments.get(name)
        if seg is None:
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                raise RequestInvalid(
                    f"shm segment {name!r} does not exist (sender unlinked "
                    "it before the call completed?)"
                ) from None
            self._segments[name] = seg
        arr = np.ndarray(
            (_array_size(desc),),
            dtype=_array_dtype(desc),
            buffer=seg.buf,
            offset=int(desc["offset"]),
        )
        arr.flags.writeable = False
        return arr

    def close(self) -> None:
        segments, self._segments = self._segments, {}
        for seg in segments.values():
            try:
                seg.close()
            except BufferError:  # pragma: no cover - a view still alive
                pass

    def __enter__(self) -> "AttachedSegments":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def unpack_matrices(
    shape: Sequence[int],
    entries: Sequence[Dict],
    payload: bytes,
    attachments: Optional[AttachedSegments] = None,
) -> List[CSCMatrix]:
    """Rebuild the request's CSC matrices from descriptors.

    Each array descriptor is either inline (``dtype/size/offset`` into
    ``payload``) or a shared-segment handle (``{"shm": {...}}``); shm
    arrays attach through ``attachments``, whose ``close()`` the caller
    owns — segment-backed views must not outlive the call.
    """
    try:
        m, n = int(shape[0]), int(shape[1])
    except (TypeError, ValueError, IndexError, KeyError,
            OverflowError) as err:  # OverflowError: an infinite float
        raise RequestInvalid(f"malformed shape {shape!r}: {err}") from None
    if not isinstance(entries, (list, tuple)):
        raise RequestInvalid("matrix entries must be a list")
    mats = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise RequestInvalid("a matrix entry must be a map")
        try:
            arrays = {
                name: _entry_array(entry[name], payload, attachments)
                for name in ("indptr", "indices", "data")
            }
        except RequestInvalid:
            raise
        except (KeyError, TypeError, ValueError, OverflowError,
                OSError) as err:
            raise RequestInvalid(f"malformed array descriptor: {err!r}") from None
        if arrays["indptr"].size != n + 1:
            raise RequestInvalid(
                f"indptr has {arrays['indptr'].size} entries for "
                f"{n} columns"
            )
        try:
            mats.append(
                CSCMatrix(
                    (m, n),
                    arrays["indptr"],
                    arrays["indices"],
                    arrays["data"],
                    sorted=bool(entry.get("sorted", True)),
                    check=True,
                )
            )
        except (ValueError, TypeError, IndexError, OverflowError) as err:
            raise RequestInvalid(f"malformed CSC arrays: {err}") from err
    return mats


def _entry_array(
    desc: Dict, payload: bytes, attachments: Optional[AttachedSegments]
) -> np.ndarray:
    """One array of a request entry: inline or a shm handle."""
    if "shm" in desc:
        if attachments is None:
            raise RequestInvalid("shm array handles need an attachment context")
        return attachments.array(desc["shm"])
    return _array_from_payload(desc, payload)


def pack_result(matrix: CSCMatrix) -> Tuple[Dict, bytes]:
    """Inline response encoding for one result matrix."""
    entries, payload = pack_matrices([matrix])
    entry = entries[0]
    return (
        {
            "shape": [int(matrix.shape[0]), int(matrix.shape[1])],
            "sorted": entry["sorted"],
            "indptr": entry["indptr"],
            "indices": entry["indices"],
            "data": entry["data"],
        },
        payload,
    )


def unpack_result(result: Dict, payload: bytes) -> CSCMatrix:
    m, n = result["shape"]
    return CSCMatrix(
        (int(m), int(n)),
        _array_from_payload(result["indptr"], payload).copy(),
        _array_from_payload(result["indices"], payload),
        _array_from_payload(result["data"], payload),
        sorted=bool(result.get("sorted", True)),
        check=False,
    )


__all__ = [
    "AttachedSegments",
    "ERROR_TYPES",
    "GatewayConnectionError",
    "GatewayError",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "RequestInvalid",
    "ResultReleased",
    "ShedError",
    "encode_frame",
    "error_code_for",
    "pack_matrices",
    "pack_result",
    "raise_for_error",
    "read_frame",
    "read_frame_sync",
    "unpack_matrices",
    "unpack_result",
]
