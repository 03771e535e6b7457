"""Length-prefixed binary protocol between camera nodes and the server.

Frame layout: 4-byte magic ``MVSP``, 1-byte version, 1-byte message type,
4-byte little-endian payload length, payload. All payload integers and
floats are little-endian; block bitmaps are row-major with little-endian
bit order inside each byte. Messages are immutable after construction and
safe to hand across threads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..detector import Detection
from ..geometry import BBox, GroundPoint

MAGIC = b"MVSP"
VERSION = 2

TYPE_HELLO = 1
TYPE_BLOCK_UPDATE = 2
TYPE_SERVER_FEEDBACK = 3
TYPE_END_OF_SEQUENCE = 4

_HEADER = struct.Struct("<4sBBI")
_CAMERA_ID = struct.Struct("<H")  # the whole payload of hello and end-of-sequence
_UPDATE_HEAD = struct.Struct("<IHBBH")  # frame, camera, rows, cols, detections
_FEEDBACK_HEAD = struct.Struct("<IHBBdH")  # frame, camera, rows, cols, tau, boxes
_DET = struct.Struct("<6ddB")  # bbox x,y,w,h + ground x,y + score + stale flag
_BOX = struct.Struct("<4d")


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
    """Camera self-identification, sent once after connecting."""

    camera_id: int


@dataclass(frozen=True)
class EndOfSequence:
    camera_id: int


@dataclass(frozen=True, eq=False)
class BlockUpdate:
    """Camera -> server, one per frame: actions plus the view's detections.

    The simulated pipeline transmits detection records; the per-fresh-block
    pixel payload is modeled analytically by ``account_traffic``.
    """

    frame_id: int
    camera_id: int
    actions: np.ndarray  # (rows, cols) in {0, 1}
    detections: tuple[Detection, ...]

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
            and self.detections == other.detections
        )


@dataclass(frozen=True, eq=False)
class ServerFeedback:
    """Server -> camera, one per frame: the view's processing target, its
    top-K assigned boxes and their induced block mask."""

    frame_id: int
    camera_id: int
    tau: float
    topk_boxes: tuple[BBox, ...]
    mask: np.ndarray  # (rows, cols) in {0, 1}

    def __eq__(self, other):
        return (
            isinstance(other, ServerFeedback)
            and self.frame_id == other.frame_id
            and self.camera_id == other.camera_id
            and self.tau == other.tau
            and self.topk_boxes == other.topk_boxes
            and np.array_equal(self.mask, other.mask)
        )


Message = Hello | EndOfSequence | BlockUpdate | ServerFeedback


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
    TYPE_HELLO: _CAMERA_ID.size,
    TYPE_END_OF_SEQUENCE: _CAMERA_ID.size,
    TYPE_BLOCK_UPDATE: _UPDATE_HEAD.size + _MAX_BITMAP + _MAX_COUNT * _DET.size,
    TYPE_SERVER_FEEDBACK: _FEEDBACK_HEAD.size + _MAX_BITMAP + _MAX_COUNT * _BOX.size,
}


def _encode_detections(dets: tuple[Detection, ...]) -> bytes:
    out = bytearray()
    for d in dets:
        out += _DET.pack(
            d.bbox.x,
            d.bbox.y,
            d.bbox.w,
            d.bbox.h,
            d.ground.x,
            d.ground.y,
            d.score,
            1 if d.stale else 0,
        )
    return bytes(out)


def _decode_detections(
    data: bytes, off: int, count: int, camera_id: int
) -> tuple[Detection, ...]:
    dets = []
    for i in range(count):
        x, y, w, h, gx, gy, score, stale = _DET.unpack_from(data, off + i * _DET.size)
        if stale > 1:
            raise MalformedPayload(f"detection {i}: stale flag {stale}")
        try:
            box = BBox(x, y, w, h)
        except ValueError as exc:
            raise MalformedPayload(f"detection {i}: {exc}") from exc
        dets.append(Detection(camera_id, box, GroundPoint(gx, gy), score, bool(stale)))
    return tuple(dets)


def encode_message(msg: Message) -> bytes:
    if isinstance(msg, (Hello, EndOfSequence)):
        mtype = TYPE_HELLO if isinstance(msg, Hello) else TYPE_END_OF_SEQUENCE
        payload = _CAMERA_ID.pack(msg.camera_id)
    elif isinstance(msg, BlockUpdate):
        rows, cols = msg.actions.shape
        payload = _UPDATE_HEAD.pack(msg.frame_id, msg.camera_id, rows, cols, len(msg.detections))
        payload += _pack_bitmap(msg.actions)
        payload += _encode_detections(msg.detections)
        mtype = TYPE_BLOCK_UPDATE
    elif isinstance(msg, ServerFeedback):
        rows, cols = msg.mask.shape
        payload = _FEEDBACK_HEAD.pack(
            msg.frame_id, msg.camera_id, rows, cols, msg.tau, len(msg.topk_boxes)
        )
        payload += _pack_bitmap(msg.mask)
        for b in msg.topk_boxes:
            payload += _BOX.pack(b.x, b.y, b.w, b.h)
        mtype = TYPE_SERVER_FEEDBACK
    else:
        raise TypeError(f"not a protocol message: {type(msg)!r}")
    return _HEADER.pack(MAGIC, VERSION, mtype, len(payload)) + payload


def _decode_grid_payload(payload: bytes, head: struct.Struct, record_size: int):
    """Shared layout of updates and feedback: a fixed head whose fields 2 and
    3 are the grid rows and cols and whose last field counts the records of
    ``record_size`` bytes, then the block bitmap, then the records.

    Returns (head fields, bitmap, offset of the first record). Only the
    canonical encoding decodes: the bitmap's padding bits must be zero and
    the payload must end at the last record.
    """
    if len(payload) < head.size:
        raise TruncatedFrame("payload shorter than its fixed header")
    fields = head.unpack_from(payload)
    rows, cols = fields[2], fields[3]
    if rows == 0 or cols == 0:
        raise MalformedPayload("empty block grid")
    off = head.size + _bitmap_nbytes(rows, cols)
    if len(payload) < off:
        raise TruncatedFrame("bitmap truncated")
    bitmap = np.frombuffer(payload, np.uint8, off - head.size, head.size)
    bits = np.unpackbits(bitmap, bitorder="little")
    if bits[rows * cols :].any():
        raise MalformedPayload("nonzero bitmap padding bits")
    end = off + fields[-1] * record_size
    if len(payload) < end:
        raise TruncatedFrame("records shorter than their counts")
    if len(payload) > end:
        raise MalformedPayload(f"{len(payload) - end} bytes after the last record")
    return fields, bits[: rows * cols].reshape(rows, cols), off


def _decode_block_update(payload: bytes) -> BlockUpdate:
    fields, actions, off = _decode_grid_payload(payload, _UPDATE_HEAD, _DET.size)
    frame_id, camera_id, _, _, n_dets = fields
    dets = _decode_detections(payload, off, n_dets, camera_id)
    return BlockUpdate(frame_id, camera_id, actions, dets)


def _decode_server_feedback(payload: bytes) -> ServerFeedback:
    fields, mask, off = _decode_grid_payload(payload, _FEEDBACK_HEAD, _BOX.size)
    frame_id, camera_id, _, _, tau, n_topk = fields
    boxes = []
    for i in range(n_topk):
        x, y, w, h = _BOX.unpack_from(payload, off + _BOX.size * i)
        try:
            boxes.append(BBox(x, y, w, h))
        except ValueError as exc:
            raise MalformedPayload(f"feedback box {i}: {exc}") from exc
    return ServerFeedback(frame_id, camera_id, tau, tuple(boxes), mask)


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
        if mtype in (TYPE_HELLO, TYPE_END_OF_SEQUENCE):
            if len(payload) < _CAMERA_ID.size:
                raise TruncatedFrame("camera-id payload too short")
            (camera_id,) = _CAMERA_ID.unpack_from(payload)
            msg: Message = (Hello if mtype == TYPE_HELLO else EndOfSequence)(camera_id)
        elif mtype == TYPE_BLOCK_UPDATE:
            msg = _decode_block_update(payload)
        else:
            msg = _decode_server_feedback(payload)
    except struct.error as exc:
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

    Wire framing, bitmap and detection records are counted at their encoded
    size; the per-fresh-block pixel payload is modeled as raw RGB divided by
    the configured compression factor. Affine in the bitmap popcount.
    """
    wire = len(encode_message(update))
    payload = update.payload_blocks * block_payload_bytes(cfg.block_size) / cfg.compression_factor
    return wire + payload
