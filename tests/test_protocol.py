import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsparse.detector import Detection
from mvsparse.geometry import BBox, GroundPoint
from mvsparse.runtime.config import RunConfig
from mvsparse.runtime.protocol import (
    VERSION,
    BadMagic,
    BlockUpdate,
    EndOfSequence,
    FrameTooLarge,
    Hello,
    MalformedPayload,
    ProtocolError,
    ServerFeedback,
    TruncatedFrame,
    UnknownType,
    VersionMismatch,
    account_traffic,
    block_payload_bytes,
    decode_message,
    encode_message,
    read_message,
    send_message,
)


def sample_update(popcount=7, n_dets=3, frame_id=12):
    rng = np.random.default_rng(popcount + n_dets)
    actions = np.zeros((5, 9), dtype=np.uint8)
    idx = rng.choice(45, size=popcount, replace=False)
    actions.flat[idx] = 1
    dets = tuple(
        Detection(
            2,
            BBox(rng.uniform(0, 1000), rng.uniform(0, 500), rng.uniform(5, 80), rng.uniform(5, 120)),
            GroundPoint(rng.uniform(0, 12), rng.uniform(0, 36)),
            float(rng.uniform(0, 1)),
            bool(rng.random() < 0.5),
        )
        for _ in range(n_dets)
    )
    return BlockUpdate(frame_id, 2, actions, dets)


def sample_feedback():
    rng = np.random.default_rng(5)
    mask = (rng.random((5, 9)) < 0.4).astype(np.uint8)
    boxes = tuple(BBox(10.0 * i + 1, 5.0 * i + 1, 30.0, 60.0) for i in range(4))
    return ServerFeedback(9, 1, 0.625, boxes, mask)


class TestRoundTrip:
    def test_hello(self):
        msg, used = decode_message(encode_message(Hello(3)))
        assert msg == Hello(3)
        assert used == len(encode_message(Hello(3)))

    def test_end_of_sequence(self):
        msg, _ = decode_message(encode_message(EndOfSequence(2)))
        assert msg == EndOfSequence(2)

    def test_block_update(self):
        update = sample_update()
        msg, used = decode_message(encode_message(update))
        assert msg == update
        assert used == len(encode_message(update))

    def test_block_update_empty(self):
        update = BlockUpdate(0, 0, np.zeros((5, 9), dtype=np.uint8), ())
        msg, _ = decode_message(encode_message(update))
        assert msg == update

    def test_server_feedback(self):
        fb = sample_feedback()
        msg, _ = decode_message(encode_message(fb))
        assert msg == fb

    def test_concatenated_frames(self):
        a, b = encode_message(Hello(1)), encode_message(sample_update())
        msg1, used = decode_message(a + b)
        assert msg1 == Hello(1)
        msg2, _ = decode_message((a + b)[used:])
        assert msg2 == sample_update()

    def test_payload_blocks_is_popcount(self):
        update = sample_update(popcount=11)
        assert update.payload_blocks == 11


class TestTypedErrors:
    def test_bad_magic(self):
        data = bytearray(encode_message(Hello(1)))
        data[0] = ord(b"X")
        with pytest.raises(BadMagic):
            decode_message(bytes(data))

    def test_version_mismatch(self):
        data = bytearray(encode_message(Hello(1)))
        data[4] = 99
        with pytest.raises(VersionMismatch):
            decode_message(bytes(data))

    def test_version_1_feedback_rejected(self):
        # version 1 feedback carried fused ground points after the boxes
        assert VERSION == 2
        data = bytearray(encode_message(sample_feedback()))
        data[4] = 1
        with pytest.raises(VersionMismatch):
            decode_message(bytes(data))

    def test_unknown_type(self):
        data = bytearray(encode_message(Hello(1)))
        data[5] = 200
        with pytest.raises(UnknownType):
            decode_message(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(TruncatedFrame):
            decode_message(b"MVS")

    def test_length_field_exceeds_stream(self):
        data = encode_message(sample_update())
        with pytest.raises(TruncatedFrame):
            decode_message(data[:-5])

    def test_truncated_detection_records(self):
        data = bytearray(encode_message(sample_update(n_dets=2)))
        # shrink payload but fix up the declared length to stay consistent
        cut = 20
        del data[-cut:]
        new_len = len(data) - 10
        data[6:10] = int(new_len).to_bytes(4, "little")
        with pytest.raises(TruncatedFrame):
            decode_message(bytes(data))

    def test_fuzz_random_bytes_yield_typed_errors(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            blob = rng.integers(0, 256, size=rng.integers(0, 120)).astype(np.uint8).tobytes()
            try:
                decode_message(blob)
            except ProtocolError:
                pass

    def test_fuzz_corrupted_valid_frames(self):
        rng = np.random.default_rng(1)
        base = encode_message(sample_update())
        for _ in range(2000):
            data = bytearray(base)
            for _ in range(rng.integers(1, 6)):
                data[rng.integers(len(data))] = rng.integers(256)
            n = rng.integers(0, len(data) + 1)
            try:
                decode_message(bytes(data[:n]))
            except ProtocolError:
                pass


def _header(magic=b"MVSP", version=VERSION, mtype=2, length=0):
    return struct.pack("<4sBBI", magic, version, mtype, length)


@pytest.fixture
def sock_pair():
    a, b = socket.socketpair()
    b.settimeout(5.0)
    yield a, b
    a.close()
    b.close()


class TestReadMessage:
    def test_round_trip_over_socket(self, sock_pair):
        a, b = sock_pair
        send_message(a, sample_update())
        send_message(a, Hello(4))
        assert read_message(b) == sample_update()
        assert read_message(b) == Hello(4)

    def test_oversized_length_rejected_before_body_read(self, sock_pair):
        a, b = sock_pair
        a.sendall(_header(length=0xFFFFFFFF) + b"rest")
        with pytest.raises(FrameTooLarge):
            read_message(b)
        # nothing past the header was consumed
        assert b.recv(16) == b"rest"

    def test_bad_magic_rejected_before_body_read(self, sock_pair):
        a, b = sock_pair
        a.sendall(_header(magic=b"XXXX", length=0xFFFFFFFF) + b"rest")
        with pytest.raises(BadMagic):
            read_message(b)
        assert b.recv(16) == b"rest"

    def test_decode_applies_the_same_bound(self):
        with pytest.raises(FrameTooLarge):
            decode_message(_header(mtype=1, length=3) + b"\x00" * 3)


def _with_payload(frame: bytes, payload: bytes) -> bytes:
    """The frame's header with its length fixed up, followed by ``payload``."""
    return frame[:6] + len(payload).to_bytes(4, "little") + payload


class TestCanonicalFrames:
    """Only the canonical encoding of a message decodes."""

    def test_trailing_update_bytes_rejected(self):
        data = encode_message(sample_update())
        with pytest.raises(MalformedPayload, match="after the last record"):
            decode_message(_with_payload(data, data[10:] + b"\x00" * 8))

    def test_trailing_feedback_bytes_rejected(self):
        data = encode_message(sample_feedback())
        with pytest.raises(MalformedPayload, match="after the last record"):
            decode_message(_with_payload(data, data[10:] + b"\x00"))

    def test_bitmap_padding_bit_rejected(self):
        # 5x9 grid: 45 bits in 6 bytes, so bit 7 of the sixth byte is padding
        data = bytearray(encode_message(sample_update()))
        data[10 + 10 + 5] |= 0x80
        with pytest.raises(MalformedPayload, match="padding"):
            decode_message(bytes(data))

    def test_stale_flag_above_one_rejected(self):
        data = bytearray(encode_message(sample_update(n_dets=1)))
        data[-1] = 2  # the stale flag is the last byte of a detection record
        with pytest.raises(MalformedPayload, match="stale flag"):
            decode_message(bytes(data))


VALID_FRAMES = [
    encode_message(m)
    for m in (
        Hello(3),
        EndOfSequence(2),
        sample_update(),
        sample_update(popcount=0, n_dets=0),
        sample_feedback(),
    )
]


def assert_canonical_or_typed_error(data: bytes) -> None:
    """Either a ProtocolError, or a message that re-encodes to exactly the
    bytes it was decoded from."""
    try:
        msg, used = decode_message(data)
    except ProtocolError:
        return
    assert encode_message(msg) == data[:used]


@st.composite
def mutated_frames(draw):
    data = bytearray(draw(st.sampled_from(VALID_FRAMES)))
    for _ in range(draw(st.integers(0, 6))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):  # keep the declared length consistent
        return _with_payload(bytes(data), bytes(data[10:]) + draw(st.binary(max_size=9)))
    return bytes(data[: draw(st.integers(0, len(data)))]) + draw(st.binary(max_size=16))


class TestDecodeProperties:
    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        assert_canonical_or_typed_error(data)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 4), st.binary(max_size=120))
    def test_valid_header_arbitrary_payload(self, mtype, payload):
        assert_canonical_or_typed_error(_header(mtype=mtype, length=len(payload)) + payload)

    @settings(max_examples=1000, deadline=None)
    @given(mutated_frames())
    def test_mutated_valid_frames(self, data):
        assert_canonical_or_typed_error(data)


class TestAccountTraffic:
    def test_full_frame_arithmetic(self):
        cfg = RunConfig(mode="full", frames=1).with_overrides(compression_factor=1.0)
        update = BlockUpdate(0, 0, np.ones((5, 9), dtype=np.uint8), ())
        per_cam = account_traffic(update, cfg)
        wire = len(encode_message(update))
        assert per_cam == pytest.approx(wire + 45 * 49152)
        assert 4 * per_cam == pytest.approx(8_847_360, rel=0.001)

    def test_zero_fresh_blocks_counts_wire_only(self):
        cfg = RunConfig(mode="full", frames=1)
        update = BlockUpdate(0, 0, np.zeros((5, 9), dtype=np.uint8), ())
        assert account_traffic(update, cfg) == len(encode_message(update))

    def test_affine_in_popcount(self):
        cfg = RunConfig(mode="full", frames=1)
        per_block = block_payload_bytes(cfg.block_size) / cfg.compression_factor
        prev = None
        for popcount in (0, 1, 5, 20, 45):
            actions = np.zeros(45, dtype=np.uint8)
            actions[:popcount] = 1
            update = BlockUpdate(0, 0, actions.reshape(5, 9), sample_update().detections)
            total = account_traffic(update, cfg)
            if prev is not None:
                assert total - prev[1] == pytest.approx((popcount - prev[0]) * per_block)
            prev = (popcount, total)

    def test_block_ratio_matches_reported_traffic_ratio(self):
        # selected/full block ratio 14.43/45 should match the reported
        # 0.86/2.66 MB ratio within 2 percent under the traffic model
        cfg = RunConfig(mode="full", frames=1)
        per_block = block_payload_bytes(cfg.block_size) / cfg.compression_factor
        wire = len(encode_message(sample_update(popcount=14, n_dets=5)))
        sparse = wire + 14.43 * per_block
        full = wire + 45.0 * per_block
        assert sparse / full == pytest.approx(0.86 / 2.66, rel=0.02)
