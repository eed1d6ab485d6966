"""The CRC frame codec shared by the job journal and the L3 cache log.

``frame`` writes ``magic | length:u32 | crc32:u32 | payload``; ``scan``
yields every good payload with its offset, reports each bad stretch with
its offset and a reason, and resynchronizes on the next magic marker, so
one bad frame never costs the frames after it.
"""

from __future__ import annotations

import struct
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.frames import HEADER, frame, scan

MAGIC = b"TEST1\0"


def _scanned(data):
    return [
        (offset, None if payload is None else bytes(payload), reason)
        for offset, payload, reason in scan(data, MAGIC)
    ]


class TestFrameCodec:
    def test_frame_layout(self):
        payload = b"hello"
        assert frame(MAGIC, payload) == (
            MAGIC + struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        )
        assert HEADER.size == 8

    def test_good_frames_scan_in_order_with_offsets(self):
        first, second = frame(MAGIC, b"a" * 10), frame(MAGIC, b"")
        data = first + second + frame(MAGIC, b"c")
        assert _scanned(data) == [
            (0, b"a" * 10, None),
            (len(first), b"", None),
            (len(first) + len(second), b"c", None),
        ]
        assert _scanned(b"") == []

    def test_short_payload_resyncs_on_the_next_frame(self):
        """A frame torn mid-payload, then a frame shorter than the torn
        one's missing part: the scan reports the torn frame and still
        yields the one appended after it."""
        torn = frame(MAGIC, b"x" * 400)[:200]
        data = torn + frame(MAGIC, b"late")
        assert _scanned(data) == [(0, None, "torn frame"), (len(torn), b"late", None)]

    def test_every_kind_of_damage_costs_only_itself(self):
        good = frame(MAGIC, b"good")
        flipped = bytearray(frame(MAGIC, b"flipped"))
        flipped[-1] ^= 0xFF
        parts = [b"junk", good, bytes(flipped), good, MAGIC + b"\x01"]
        data = b"".join(parts)
        offsets = [sum(len(p) for p in parts[:i]) for i in range(len(parts))]
        assert _scanned(data) == [
            (offsets[0], None, "unframed bytes"),
            (offsets[1], b"good", None),
            (offsets[2], None, "CRC mismatch"),
            (offsets[3], b"good", None),
            (offsets[4], None, "torn frame header"),
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=40), min_size=1, max_size=6),
        torn=st.integers(min_value=0),
        cut=st.integers(min_value=1),
    )
    def test_one_torn_frame_costs_only_itself(self, payloads, torn, cut):
        """Cut any one frame short anywhere: every other payload still
        scans, in order, and exactly one bad stretch is reported."""
        frames = [frame(MAGIC, payload) for payload in payloads]
        torn %= len(frames)
        frames[torn] = frames[torn][: cut % len(frames[torn])]
        if MAGIC in frames[torn][1:] or not frames[torn]:
            return  # a cut that left no bytes or a stray magic: nothing to pin
        scanned = _scanned(b"".join(frames))
        assert [p for _, p, r in scanned if r is None] == [
            payload for i, payload in enumerate(payloads) if i != torn
        ]
        assert sum(r is not None for _, _, r in scanned) == 1
