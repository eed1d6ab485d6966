"""CRC-framed append-only logs: one codec under the job journal and the L3 cache log.

A log is a run of frames::

    magic | length:u32 | crc32:u32 | payload

(lengths and CRCs little-endian).  A writer killed mid-append leaves a
torn last frame, and a flipped bit fails its frame's CRC.  :func:`scan`
reports each bad stretch and resynchronizes on the next magic marker, so
one bad frame costs only itself: frames appended after a torn one, or
after garbage, still load.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Optional, Tuple

#: length and CRC32 of the payload, after the magic
HEADER = struct.Struct("<II")


def frame(magic: bytes, payload: bytes) -> bytes:
    """One frame around ``payload``."""
    return magic + HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan(data: bytes, magic: bytes) -> Iterator[Tuple[int, Optional[memoryview], Optional[str]]]:
    """Every frame of ``data``, oldest first, never raising on damage.

    Yields ``(offset, payload, None)`` for each good frame and
    ``(offset, None, reason)`` for each bad stretch — bytes that do not
    start with ``magic``, a header or payload cut short, or a CRC
    mismatch.  After a bad stretch the scan resumes at the next
    ``magic`` past its offset.
    """
    view = memoryview(data)
    size = len(data)
    pos = 0
    while pos < size:
        start = pos + len(magic) + HEADER.size
        if not data.startswith(magic, pos):
            reason = "unframed bytes"
        elif start > size:
            reason = "torn frame header"
        else:
            length, crc = HEADER.unpack_from(data, pos + len(magic))
            end = start + length
            if end > size:
                reason = "torn frame"
            elif zlib.crc32(view[start:end]) != crc:
                reason = "CRC mismatch"
            else:
                yield pos, view[start:end], None
                pos = end
                continue
        yield pos, None, reason
        pos = data.find(magic, pos + 1)
        if pos < 0:
            return
