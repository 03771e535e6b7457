import math
import socket
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsparse.detector import Detection
from mvsparse.geometry import BBox, GroundPoint
from mvsparse.runtime.config import RunConfig
from mvsparse.runtime.protocol import (
    _DET,
    VERSION,
    BadMagic,
    BlockUpdate,
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


DIGEST = bytes(range(32))  # a config digest: any 32 bytes


def sample_update(popcount=7, frame_id=12):
    rng = np.random.default_rng(popcount)
    actions = np.zeros((5, 9), dtype=np.uint8)
    idx = rng.choice(45, size=popcount, replace=False)
    actions.flat[idx] = 1
    return BlockUpdate(frame_id, 2, actions)


def sample_feedback(n_dets=4):
    """Feedback to camera 1 whose records take all four flag bytes."""
    rng = np.random.default_rng(n_dets)
    dets = tuple(
        Detection(
            1,
            BBox(rng.uniform(0, 1000), rng.uniform(0, 500), rng.uniform(5, 80), rng.uniform(5, 120)),
            GroundPoint(rng.uniform(0, 12), rng.uniform(0, 36)),
            i % 2 == 1,
        )
        for i in range(n_dets)
    )
    return ServerFeedback(9, 1, 0.625, dets, tuple(i // 2 % 2 == 1 for i in range(n_dets)))


class TestRoundTrip:
    def test_hello(self):
        msg, used = decode_message(encode_message(Hello(3, DIGEST)))
        assert msg == Hello(3, DIGEST)
        assert used == len(encode_message(Hello(3, DIGEST)))

    def test_block_update(self):
        update = sample_update()
        msg, used = decode_message(encode_message(update))
        assert msg == update
        assert used == len(encode_message(update))

    def test_block_update_empty(self):
        update = BlockUpdate(0, 0, np.zeros((5, 9), dtype=np.uint8))
        msg, _ = decode_message(encode_message(update))
        assert msg == update

    def test_server_feedback(self):
        fb = sample_feedback()
        msg, _ = decode_message(encode_message(fb))
        assert msg == fb
        assert [(d.stale, a) for d, a in zip(msg.detections, msg.assigned)] == [
            (False, False), (True, False), (False, True), (True, True)
        ]
        assert msg.assigned_boxes == tuple(fb.detections[i].bbox for i in (2, 3))

    def test_feedback_needs_one_flag_per_detection(self):
        fb = sample_feedback()
        short = ServerFeedback(9, 1, 0.625, fb.detections, fb.assigned[:-1])
        for use in (encode_message, lambda msg: msg.assigned_boxes):
            with pytest.raises(ValueError, match="zip"):
                use(short)

    def test_concatenated_frames(self):
        a, b = encode_message(Hello(1, DIGEST)), encode_message(sample_update())
        msg1, used = decode_message(a + b)
        assert msg1 == Hello(1, DIGEST)
        msg2, _ = decode_message((a + b)[used:])
        assert msg2 == sample_update()

    def test_detection_record_is_49_bytes(self):
        # box and ground point as six doubles, then the flag byte
        assert _DET.size == 49
        three, none = (encode_message(sample_feedback(n_dets=n)) for n in (3, 0))
        assert len(three) - len(none) == 3 * 49

    def test_update_is_the_bitmap_alone(self):
        # header, frame, camera, rows, cols, then 45 bits in 6 bytes
        assert len(encode_message(sample_update())) == 10 + 8 + 6

    def test_payload_blocks_is_popcount(self):
        update = sample_update(popcount=11)
        assert update.payload_blocks == 11


class TestTypedErrors:
    def test_bad_magic(self):
        data = bytearray(encode_message(Hello(1, DIGEST)))
        data[0] = ord(b"X")
        with pytest.raises(BadMagic):
            decode_message(bytes(data))

    def test_version_mismatch(self):
        data = bytearray(encode_message(Hello(1, DIGEST)))
        data[4] = 99
        with pytest.raises(VersionMismatch):
            decode_message(bytes(data))

    def test_version_2_feedback_rejected(self):
        # version 2 feedback also carried the grid and the boxes' block bitmap
        boxes = [d.bbox for d in sample_feedback().detections]
        payload = struct.pack("<IHBBdH", 9, 1, 5, 9, 0.625, len(boxes)) + bytes(6)
        payload += b"".join(struct.pack("<4d", b.x, b.y, b.w, b.h) for b in boxes)
        with pytest.raises(VersionMismatch):
            decode_message(_header(version=2, mtype=3, length=len(payload)) + payload)

    def test_version_3_hello_rejected(self):
        # a version 3 hello carried the camera id alone
        with pytest.raises(VersionMismatch):
            decode_message(_header(version=3, mtype=1, length=2) + b"\x00\x00")

    def test_version_4_update_rejected(self):
        # a version 4 detection record also carried a score: 57 bytes
        payload = _v5_update_payload(struct.pack("<6ddB", 10, 20, 30, 60, 1.5, 2.5, 0.9, 0))
        with pytest.raises(VersionMismatch):
            decode_message(_header(version=4, mtype=2, length=len(payload)) + payload)

    def test_version_5_update_rejected(self):
        # a version 5 update carried the camera's 49-byte detection records
        payload = _v5_update_payload(struct.pack("<6dB", 10, 20, 30, 60, 1.5, 2.5, 0))
        with pytest.raises(VersionMismatch):
            decode_message(_header(version=5, mtype=2, length=len(payload)) + payload)

    def test_hello_digest_must_be_32_bytes(self):
        with pytest.raises(ValueError, match="32"):
            Hello(0, b"short")

    def test_type_4_is_unknown(self):
        # version 2's end-of-sequence; later versions have no such message
        with pytest.raises(UnknownType):
            decode_message(_header(mtype=4, length=2) + b"\x02\x00")

    def test_unknown_type(self):
        data = bytearray(encode_message(Hello(1, DIGEST)))
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
        data = bytearray(encode_message(sample_feedback(n_dets=2)))
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


def _v5_update_payload(record: bytes) -> bytes:
    """A version 5 update: frame 0 of camera 0 on a 1x1 grid, its block
    fresh, with one detection record."""
    return struct.pack("<IHBBH", 0, 0, 1, 1, 1) + b"\x01" + record


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
        send_message(a, Hello(4, DIGEST))
        assert read_message(b) == sample_update()
        assert read_message(b) == Hello(4, DIGEST)

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
            # one byte over the 34-byte hello payload
            decode_message(_header(mtype=1, length=35) + b"\x00" * 35)


def _with_payload(frame: bytes, payload: bytes) -> bytes:
    """The frame's header with its length fixed up, followed by ``payload``."""
    return frame[:6] + len(payload).to_bytes(4, "little") + payload


class TestCanonicalFrames:
    """Only the canonical encoding of a message decodes."""

    def test_trailing_update_bytes_rejected(self):
        data = encode_message(sample_update())
        with pytest.raises(MalformedPayload, match="after the bitmap"):
            decode_message(_with_payload(data, data[10:] + b"\x00" * 8))

    def test_trailing_feedback_bytes_rejected(self):
        data = encode_message(sample_feedback())
        with pytest.raises(MalformedPayload, match="after the last record"):
            decode_message(_with_payload(data, data[10:] + b"\x00"))

    def test_bitmap_padding_bit_rejected(self):
        # 5x9 grid: 45 bits in 6 bytes, so bit 7 of the sixth byte is padding
        data = bytearray(encode_message(sample_update()))
        data[10 + 8 + 5] |= 0x80
        with pytest.raises(MalformedPayload, match="padding"):
            decode_message(bytes(data))

    def test_flag_byte_above_three_rejected(self):
        data = bytearray(encode_message(sample_feedback(n_dets=1)))
        for flags in (4, 0x80, 0xFF):
            data[-1] = flags  # the flag byte is the last byte of a detection record
            with pytest.raises(MalformedPayload, match="flag byte"):
                decode_message(bytes(data))


def _feedback_frame(tau, x, y, w, h, gx, gy):
    """Feedback with one record, stale and assigned: both flag bits set."""
    payload = struct.pack("<IHdH", 0, 0, tau, 1) + struct.pack("<6dB", x, y, w, h, gx, gy, 3)
    return _header(mtype=3, length=len(payload)) + payload


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_FINITE = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf])
# the strategy of each double of a feedback frame: tau, box, ground point
RECORD = [FINITE, FINITE, FINITE, POSITIVE, POSITIVE, FINITE, FINITE]


class TestNonFiniteValues:
    """A NaN or an infinity in any double of a record does not decode."""

    @pytest.mark.parametrize(
        "frame",
        [
            _feedback_frame(0.5, 10.0, 20.0, math.nan, 60.0, 1.5, 2.5),
            _feedback_frame(0.5, 10.0, 20.0, 30.0, 60.0, math.inf, 2.5),
            _feedback_frame(math.nan, 10.0, 20.0, 30.0, 60.0, 1.5, 2.5),
            _feedback_frame(0.5, -math.inf, 20.0, 30.0, 60.0, 1.5, 2.5),
        ],
        ids=["feedback-box-w-nan", "feedback-ground-x-inf", "feedback-tau-nan", "feedback-box-x-minus-inf"],
    )
    def test_refused(self, frame):
        with pytest.raises(MalformedPayload, match="non-finite"):
            decode_message(frame)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_finite_records_round_trip_and_any_non_finite_double_is_refused(self, data):
        values = [data.draw(f) for f in RECORD]
        frame = _feedback_frame(*values)
        msg, used = decode_message(frame)
        assert used == len(frame) and encode_message(msg) == frame
        assert msg.detections[0].stale and msg.assigned == (True,)
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(NON_FINITE)
        with pytest.raises(MalformedPayload):
            decode_message(_feedback_frame(*values))


VALID_FRAMES = [
    encode_message(m)
    for m in (
        Hello(3, DIGEST),
        sample_update(),
        sample_update(popcount=0),
        sample_feedback(),
        sample_feedback(n_dets=0),
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
        update = BlockUpdate(0, 0, np.ones((5, 9), dtype=np.uint8))
        per_cam = account_traffic(update, cfg)
        wire = len(encode_message(update))
        assert per_cam == pytest.approx(wire + 45 * 49152)
        assert 4 * per_cam == pytest.approx(8_847_360, rel=0.001)

    def test_zero_fresh_blocks_counts_wire_only(self):
        cfg = RunConfig(mode="full", frames=1)
        update = BlockUpdate(0, 0, np.zeros((5, 9), dtype=np.uint8))
        assert account_traffic(update, cfg) == len(encode_message(update))

    def test_affine_in_popcount(self):
        cfg = RunConfig(mode="full", frames=1)
        per_block = block_payload_bytes(cfg.block_size) / cfg.compression_factor
        prev = None
        for popcount in (0, 1, 5, 20, 45):
            actions = np.zeros(45, dtype=np.uint8)
            actions[:popcount] = 1
            update = BlockUpdate(0, 0, actions.reshape(5, 9))
            total = account_traffic(update, cfg)
            if prev is not None:
                assert total - prev[1] == pytest.approx((popcount - prev[0]) * per_block)
            prev = (popcount, total)

    def test_block_ratio_matches_reported_traffic_ratio(self):
        # selected/full block ratio 14.43/45 should match the reported
        # 0.86/2.66 MB ratio within 2 percent under the traffic model
        cfg = RunConfig(mode="full", frames=1)
        per_block = block_payload_bytes(cfg.block_size) / cfg.compression_factor
        wire = len(encode_message(sample_update(popcount=14)))
        sparse = wire + 14.43 * per_block
        full = wire + 45.0 * per_block
        assert sparse / full == pytest.approx(0.86 / 2.66, rel=0.02)


def test_readme_names_the_wire_version():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert f"wire version {VERSION}" in readme.read_text()
