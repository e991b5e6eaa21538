"""The front ↔ worker wire protocol: length-prefixed binary frames.

The event loop talks to each worker shard over the worker subprocess's
stdin/stdout pipes.  Frames are deliberately minimal — a fixed 16-byte
header followed by an opaque payload::

    <request_id: uint64 LE> <kind: uint32 LE> <length: uint32 LE> <payload: length bytes>

Requests carry a command kind (:data:`OPTIMIZE` ...) and a JSON payload
(usually the HTTP request body, relayed verbatim so the front never
re-serialises what the client already encoded).  Responses echo the
request id, carry the **HTTP status code** as their kind, and their
payload is the final JSON response body — the front writes it into the
HTTP response without inspecting it, so a warm hit costs the worker one
``json.dumps`` of a small dict (the plan tree's text is encoded once per
plan and spliced in) and the front zero.

Both ends parse with :func:`feed`: the worker on what it reads from
stdin, the front on what its subprocess protocol is handed from the
worker's stdout — each complete reply frame goes straight to the
callback waiting on its request id.

Frames also deliberately batch: the worker answers every complete frame
in its read buffer before flushing one write, and the front coalesces
same-iteration sends per worker — under load the pipe syscall and
context-switch cost amortises over the burst.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Tuple

HEADER = struct.Struct("<QII")
HEADER_SIZE = HEADER.size

#: largest accepted frame payload (matches the HTTP body bound upstream,
#: with headroom for batch responses carrying many plan trees).
MAX_FRAME_BYTES = 64 * 1024 * 1024

# -- request kinds (responses use HTTP status codes instead) ----------------
OPTIMIZE = 1
EXPLAIN = 2
BATCH = 3
STATS = 4
SNAPSHOT = 5
EXIT = 6
STATS_UPDATE = 7
EXECUTE = 8

#: worker → front boot announcement (sent once, request_id 0).
HELLO = 100


def pack(request_id: int, kind: int, payload: bytes) -> bytes:
    """One frame as bytes (header + payload)."""
    return HEADER.pack(request_id, kind, len(payload)) + payload


def feed(buffer: bytearray) -> Iterator[Tuple[int, int, bytes]]:
    """Yield every complete ``(request_id, kind, payload)`` in *buffer*.

    Consumed bytes are deleted from *buffer* in one slice at the end —
    callers keep appending received chunks and re-calling.  Raises
    ``ValueError`` on an over-size frame (a corrupt stream: resyncing is
    impossible, the connection must be dropped).
    """
    offset = 0
    total = len(buffer)
    frames: List[Tuple[int, int, bytes]] = []
    while total - offset >= HEADER_SIZE:
        request_id, kind, length = HEADER.unpack_from(buffer, offset)
        if length > MAX_FRAME_BYTES:
            raise ValueError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
        if total - offset - HEADER_SIZE < length:
            break
        start = offset + HEADER_SIZE
        frames.append((request_id, kind, bytes(buffer[start:start + length])))
        offset = start + length
    if offset:
        del buffer[:offset]
    return iter(frames)
