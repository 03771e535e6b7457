"""Length-prefixed binary protocol between camera nodes and the server.

Frame layout: 4-byte magic ``MVSP``, 1-byte version, 1-byte message type,
4-byte little-endian payload length, payload. All payload integers and
floats are little-endian; block bitmaps are row-major with little-endian
bit order inside each byte. Messages are immutable after construction and
safe to hand across threads.

Wire version 6 has three message types: a camera's ``Hello`` (its camera
id and the SHA-256 of its run config), its ``BlockUpdate`` per frame (the
block bitmap alone) and the server's ``ServerFeedback`` per frame (target
tau and the detections the server's detector made in the camera's view,
each record a box, its ground point and a flag byte: stale in bit 0,
assigned to the view in bit 1). A run ends with the last frame's feedback;
there is no end-of-sequence message. A NaN or infinite float on the wire
does not decode.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from ..detector import Detection
from ..geometry import BBox, GroundPoint

MAGIC = b"MVSP"
VERSION = 6

TYPE_HELLO = 1
TYPE_BLOCK_UPDATE = 2
TYPE_SERVER_FEEDBACK = 3

_HEADER = struct.Struct("<4sBBI")
_HELLO = struct.Struct("<H32s")  # camera id, SHA-256 of the run config
_UPDATE_HEAD = struct.Struct("<IHBB")  # frame, camera, rows, cols
_FEEDBACK_HEAD = struct.Struct("<IHdH")  # frame, camera, tau, detections
_DET = struct.Struct("<6dB")  # bbox x,y,w,h + ground x,y + flags
_STALE, _ASSIGNED = 1, 2  # flag bits


class ProtocolError(Exception):
    pass


class BadMagic(ProtocolError):
    pass


class VersionMismatch(ProtocolError):
    pass


class UnknownType(ProtocolError):
    pass


class TruncatedFrame(ProtocolError):
    pass


class MalformedPayload(ProtocolError):
    pass


class FrameTooLarge(ProtocolError):
    """The header declares more payload than its message type can hold."""


@dataclass(frozen=True)
class Hello:
    """Camera self-identification, sent once after connecting: the camera id
    and the 32-byte SHA-256 of its run config with ``network`` at its
    defaults, which the server compares with its own."""

    camera_id: int
    config_digest: bytes

    def __post_init__(self):
        if len(self.config_digest) != 32:
            raise ValueError(f"config digest of {len(self.config_digest)} bytes, expected 32")


@dataclass(frozen=True, eq=False)
class BlockUpdate:
    """Camera -> server, one per frame: the blocks the camera processed.

    The per-fresh-block pixel payload is modeled analytically by
    ``account_traffic``.
    """

    frame_id: int
    camera_id: int
    actions: np.ndarray  # (rows, cols) in {0, 1}

    @property
    def payload_blocks(self) -> int:
        """Fresh-block payload count; always the popcount of the bitmap."""
        return int(np.count_nonzero(self.actions))

    def __eq__(self, other):
        return (
            isinstance(other, BlockUpdate)
            and self.frame_id == other.frame_id
            and self.camera_id == other.camera_id
            and np.array_equal(self.actions, other.actions)
        )


@dataclass(frozen=True)
class ServerFeedback:
    """Server -> camera, one per frame: the view's processing target and the
    detections made in the view, in detector order, each flagged whether it
    is among the top-K assigned to the view. The camera derives the
    assigned boxes' block mask on its own grid."""

    frame_id: int
    camera_id: int
    tau: float
    detections: tuple[Detection, ...]
    assigned: tuple[bool, ...]  # one flag per detection

    @property
    def assigned_boxes(self) -> tuple[BBox, ...]:
        return tuple(d.bbox for d, a in zip(self.detections, self.assigned, strict=True) if a)


Message = Hello | BlockUpdate | ServerFeedback


def _pack_bitmap(grid_array: np.ndarray) -> bytes:
    flat = np.asarray(grid_array, dtype=np.uint8).reshape(-1)
    return np.packbits(flat, bitorder="little").tobytes()


def _bitmap_nbytes(rows: int, cols: int) -> int:
    return (rows * cols + 7) // 8


# What the encoding can express: grid rows and cols are one byte each, and a
# camera id and every record count are a uint16. A run config outside these
# limits is rejected before any frame is encoded.
MAX_GRID_SIDE = 0xFF
MAX_CAMERA_ID = 0xFFFF
_MAX_COUNT = 0xFFFF
_MAX_BITMAP = _bitmap_nbytes(MAX_GRID_SIDE, MAX_GRID_SIDE)
# Largest payload of each message type.
MAX_PAYLOAD = {
    TYPE_HELLO: _HELLO.size,
    TYPE_BLOCK_UPDATE: _UPDATE_HEAD.size + _MAX_BITMAP,
    TYPE_SERVER_FEEDBACK: _FEEDBACK_HEAD.size + _MAX_COUNT * _DET.size,
}


def _encode_detections(dets: tuple[Detection, ...], assigned: tuple[bool, ...]) -> bytes:
    out = bytearray()
    for d, a in zip(dets, assigned, strict=True):
        flags = (_STALE if d.stale else 0) | (_ASSIGNED if a else 0)
        out += _DET.pack(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, d.ground.x, d.ground.y, flags)
    return bytes(out)


def _check_finite(what: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise MalformedPayload(f"{what}: non-finite value in {values}")


def _decode_detections(
    data: bytes, off: int, count: int, camera_id: int
) -> tuple[tuple[Detection, ...], tuple[bool, ...]]:
    dets, assigned = [], []
    for i in range(count):
        x, y, w, h, gx, gy, flags = _DET.unpack_from(data, off + i * _DET.size)
        if flags > _STALE | _ASSIGNED:
            raise MalformedPayload(f"detection {i}: flag byte {flags}")
        _check_finite(f"detection {i}", x, y, w, h, gx, gy)
        try:
            box = BBox(x, y, w, h)
        except ValueError as exc:
            raise MalformedPayload(f"detection {i}: {exc}") from exc
        dets.append(Detection(camera_id, box, GroundPoint(gx, gy), bool(flags & _STALE)))
        assigned.append(bool(flags & _ASSIGNED))
    return tuple(dets), tuple(assigned)


def encode_message(msg: Message) -> bytes:
    if isinstance(msg, Hello):
        payload = _HELLO.pack(msg.camera_id, msg.config_digest)
        mtype = TYPE_HELLO
    elif isinstance(msg, BlockUpdate):
        rows, cols = msg.actions.shape
        payload = _UPDATE_HEAD.pack(msg.frame_id, msg.camera_id, rows, cols)
        payload += _pack_bitmap(msg.actions)
        mtype = TYPE_BLOCK_UPDATE
    elif isinstance(msg, ServerFeedback):
        payload = _FEEDBACK_HEAD.pack(msg.frame_id, msg.camera_id, msg.tau, len(msg.detections))
        payload += _encode_detections(msg.detections, msg.assigned)
        mtype = TYPE_SERVER_FEEDBACK
    else:
        raise TypeError(f"not a protocol message: {type(msg)!r}")
    return _HEADER.pack(MAGIC, VERSION, mtype, len(payload)) + payload


def _decode_block_update(payload: bytes) -> BlockUpdate:
    """A fixed head, then the block bitmap of the grid the head declares.
    Only the canonical encoding decodes: the bitmap's padding bits must be
    zero and the payload must end with the bitmap."""
    frame_id, camera_id, rows, cols = _UPDATE_HEAD.unpack_from(payload)
    if rows == 0 or cols == 0:
        raise MalformedPayload("empty block grid")
    off = _UPDATE_HEAD.size + _bitmap_nbytes(rows, cols)
    if len(payload) < off:
        raise TruncatedFrame("bitmap truncated")
    if len(payload) > off:
        raise MalformedPayload(f"{len(payload) - off} bytes after the bitmap")
    bitmap = np.frombuffer(payload, np.uint8, off - _UPDATE_HEAD.size, _UPDATE_HEAD.size)
    bits = np.unpackbits(bitmap, bitorder="little")
    if bits[rows * cols :].any():
        raise MalformedPayload("nonzero bitmap padding bits")
    return BlockUpdate(frame_id, camera_id, bits[: rows * cols].reshape(rows, cols))


def _decode_server_feedback(payload: bytes) -> ServerFeedback:
    """A fixed head, then records up to the payload's end."""
    frame_id, camera_id, tau, n_dets = _FEEDBACK_HEAD.unpack_from(payload)
    _check_finite("feedback tau", tau)
    off = _FEEDBACK_HEAD.size
    end = off + n_dets * _DET.size
    if len(payload) < end:
        raise TruncatedFrame("records shorter than their counts")
    if len(payload) > end:
        raise MalformedPayload(f"{len(payload) - end} bytes after the last record")
    dets, assigned = _decode_detections(payload, off, n_dets, camera_id)
    return ServerFeedback(frame_id, camera_id, tau, dets, assigned)


def _parse_header(data: bytes) -> tuple[int, int]:
    """(message type, payload length) of the frame header at the head of
    ``data``, checked against ``MAX_PAYLOAD`` before any payload is read."""
    if len(data) < _HEADER.size:
        raise TruncatedFrame(f"need {_HEADER.size} header bytes, have {len(data)}")
    magic, version, mtype, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise VersionMismatch(f"version {version}, expected {VERSION}")
    if mtype not in MAX_PAYLOAD:
        raise UnknownType(f"unknown message type {mtype}")
    if length > MAX_PAYLOAD[mtype]:
        raise FrameTooLarge(f"type {mtype} payload of {length} bytes, limit {MAX_PAYLOAD[mtype]}")
    return mtype, length


def decode_message(data: bytes) -> tuple[Message, int]:
    """Decode one frame from the head of ``data``; returns (message, bytes
    consumed). Every malformed prefix raises a ProtocolError subclass, and
    only canonical frames decode: re-encoding the message gives back exactly
    the consumed bytes."""
    mtype, length = _parse_header(data)
    if len(data) < _HEADER.size + length:
        raise TruncatedFrame(f"payload length {length} exceeds buffer")
    payload = data[_HEADER.size : _HEADER.size + length]
    try:
        if mtype == TYPE_HELLO:
            msg: Message = Hello(*_HELLO.unpack_from(payload))
        elif mtype == TYPE_BLOCK_UPDATE:
            msg = _decode_block_update(payload)
        else:
            msg = _decode_server_feedback(payload)
    except struct.error as exc:  # a payload shorter than its fixed head
        raise TruncatedFrame(str(exc)) from exc
    return msg, _HEADER.size + length


def read_message(sock) -> Message:
    """Blocking read of exactly one protocol frame from a socket. The header
    is checked first, so a bad one raises before any payload is received and
    no read is larger than ``MAX_PAYLOAD`` allows."""
    header = _recv_exact(sock, _HEADER.size)
    _, length = _parse_header(header)
    body = _recv_exact(sock, length) if length else b""
    msg, _ = decode_message(header + body)
    return msg


def send_message(sock, msg: Message) -> None:
    sock.sendall(encode_message(msg))


def _recv_exact(sock, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise TruncatedFrame(f"connection closed with {remaining} bytes pending")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def block_payload_bytes(block_size: int) -> int:
    """Raw bytes of one RGB block at full resolution."""
    return 3 * block_size * block_size


def account_traffic(update: BlockUpdate, cfg) -> float:
    """Modeled camera->server bytes for one frame of one camera.

    The update's wire frame (header and bitmap) is counted at its encoded
    size; the per-fresh-block pixel payload is modeled as raw RGB divided by
    the configured compression factor. Affine in the bitmap popcount. The
    downlink, the feedback's detection records, is not counted.
    """
    wire = len(encode_message(update))
    payload = update.payload_blocks * block_payload_bytes(cfg.block_size) / cfg.compression_factor
    return wire + payload
