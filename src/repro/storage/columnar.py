"""Compressed columnar adjacency blocks: delta + varint neighbor columns.

The entry-per-edge layouts pay one KV pair — key bytes, record framing,
per-entry decode — for every edge. The columnar layout stores one value per
``(vertex, edge label)`` holding *all* of that label's neighbors as a single
delta-encoded varint column (swh-graph compresses billion-edge graphs to a
few bits per edge with exactly this trick), so a whole adjacency list is one
point lookup plus one decode.

Block wire format (:func:`encode_block`, the id column)::

    0xC7                      magic byte
    varint(count)             number of neighbor ids
    zigzag-varint * count     first id, then deltas from the previous id
    crc32:4 BE                over everything before it

Deltas are *zigzag*-encoded, so the codec round-trips any id sequence
exactly — unsorted and duplicate-bearing inputs included (a duplicate is a
zero delta, an inversion a negative one). Sorted lists, the layout's case,
get the small-positive-delta packing the compression relies on.

:class:`AdjacencyBlock` wraps the id column together with a parallel edge
property column (elided entirely in the overwhelmingly common all-empty
case) under the same framing and CRC.

Every decode failure raises :class:`~repro.errors.CorruptAdjacencyBlock` —
a truncated varint, a count overrunning the payload, trailing bytes, a
bit-flip caught by the CRC. Never silent garbage.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Sequence

from repro.errors import CorruptAdjacencyBlock
from repro.storage.encoding import pack_props, unpack_props

#: magic byte opening every id-column block
BLOCK_MAGIC = 0xC7
#: magic byte opening every AdjacencyBlock (ids + props columns)
ADJ_MAGIC = 0xC8

_CRC = struct.Struct(">I")


# -- varint / zigzag primitives ----------------------------------------------


def zigzag_encode(n: int) -> int:
    """Map signed → unsigned so small-magnitude deltas stay small."""
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def zigzag_decode(u: int) -> int:
    return (u >> 1) if (u & 1) == 0 else -((u + 1) >> 1)


def encode_varints(values: Sequence[int], out: bytearray) -> None:
    """Append LEB128 varints for non-negative ``values`` to ``out``."""
    append = out.append
    for v in values:
        while v >= 0x80:
            append((v & 0x7F) | 0x80)
            v >>= 7
        append(v)


def decode_varints(buf: bytes, offset: int, count: int) -> tuple[list[int], int]:
    """Read ``count`` varints starting at ``offset``; (values, next offset).

    Raises :class:`~repro.errors.CorruptAdjacencyBlock` when a varint runs
    past the end of ``buf``.
    """
    stop = offset + count
    if stop <= len(buf):
        chunk = buf[offset:stop]
        if not chunk or max(chunk) < 0x80:  # every value a single byte
            return list(chunk), stop
    out: list[int] = []
    append = out.append
    end = len(buf)
    for _ in range(count):
        if offset >= end:
            raise CorruptAdjacencyBlock(
                f"truncated varint: column needs {count} values, "
                f"buffer ended after {len(out)}"
            )
        b = buf[offset]
        offset += 1
        if b < 0x80:  # single-byte fast path: the common small delta
            append(b)
            continue
        result = b & 0x7F
        shift = 7
        while True:
            if offset >= end:
                raise CorruptAdjacencyBlock(
                    "truncated varint: continuation bit set at end of buffer"
                )
            if shift > 70:
                raise CorruptAdjacencyBlock("varint wider than 10 bytes")
            b = buf[offset]
            offset += 1
            result |= (b & 0x7F) << shift
            if b < 0x80:
                break
            shift += 7
        append(result)
    return out, offset


def _decode_one_varint(buf: bytes, offset: int) -> tuple[int, int]:
    values, offset = decode_varints(buf, offset, 1)
    return values[0], offset


# -- id-column codec ----------------------------------------------------------


def encode_block(neighbors: Sequence[int]) -> bytes:
    """Encode a neighbor-id list into one delta/varint column with CRC.

    Round-trips *exactly*: :func:`decode_block` returns the ids in the
    order given, duplicates and inversions included.
    """
    out = bytearray([BLOCK_MAGIC])
    encode_varints((len(neighbors),), out)
    deltas = []
    prev = 0
    for vid in neighbors:
        deltas.append(zigzag_encode(vid - prev))
        prev = vid
    encode_varints(deltas, out)
    out += _CRC.pack(zlib.crc32(out))
    return bytes(out)


def decode_block(buf: bytes) -> list[int]:
    """Inverse of :func:`encode_block`.

    Raises :class:`~repro.errors.CorruptAdjacencyBlock` on any framing or
    integrity violation.
    """
    if len(buf) < 6:  # magic + count + crc is the minimum (empty block)
        raise CorruptAdjacencyBlock(
            f"block of {len(buf)} bytes is shorter than the minimal frame"
        )
    if buf[0] != BLOCK_MAGIC:
        raise CorruptAdjacencyBlock(
            f"bad magic byte {buf[0]:#04x}, expected {BLOCK_MAGIC:#04x}"
        )
    body, crc_bytes = buf[:-4], buf[-4:]
    if zlib.crc32(body) != _CRC.unpack(crc_bytes)[0]:
        raise CorruptAdjacencyBlock("block CRC32 mismatch")
    count, offset = _decode_one_varint(body, 1)
    deltas, offset = decode_varints(body, offset, count)
    if offset != len(body):
        raise CorruptAdjacencyBlock(
            f"{len(body) - offset} trailing bytes after {count} ids"
        )
    out: list[int] = []
    append = out.append
    prev = 0
    for d in deltas:
        prev += zigzag_decode(d)
        append(prev)
    return out


def block_entry_count(buf: bytes) -> int:
    """Edge count of an encoded block without decoding the columns.

    Accepts either frame (:func:`encode_block` or
    :meth:`AdjacencyBlock.encode`); used by the storage layer's bytes/edge
    accounting when blocks move wholesale (migration import, deletes).
    """
    if not buf or buf[0] not in (BLOCK_MAGIC, ADJ_MAGIC):
        raise CorruptAdjacencyBlock("not an adjacency block")
    count, _ = _decode_one_varint(buf, 1)
    return count


# -- full adjacency blocks (ids + edge-property column) -----------------------


@dataclass(frozen=True)
class AdjacencyBlock:
    """One ``(vertex, edge label)`` adjacency block: parallel columns of
    neighbor ids and edge-property dicts."""

    vertex: int
    label: str
    targets: tuple[int, ...]
    props: tuple[dict[str, Any], ...] = field(default=())

    def __post_init__(self):
        if self.props and len(self.props) != len(self.targets):
            raise CorruptAdjacencyBlock(
                f"props column has {len(self.props)} entries for "
                f"{len(self.targets)} targets"
            )

    @classmethod
    def from_edges(
        cls, vertex: int, label: str, edges: Sequence[tuple[int, dict[str, Any]]]
    ) -> "AdjacencyBlock":
        """Build a block from ``(dst, props)`` pairs, sorted by destination
        id (stable, so same-destination parallel edges keep their relative
        order). Sorting is what makes the deltas small."""
        ordered = sorted(edges, key=lambda e: e[0])
        targets = tuple(dst for dst, _ in ordered)
        if any(p for _, p in ordered):
            return cls(vertex, label, targets, tuple(dict(p) for _, p in ordered))
        return cls(vertex, label, targets)

    def pairs(self) -> list[tuple[int, dict[str, Any]]]:
        """Materialize ``(dst, props)`` pairs in stored order."""
        if self.props:
            return [(dst, dict(p)) for dst, p in zip(self.targets, self.props)]
        return [(dst, {}) for dst in self.targets]

    def encode(self) -> bytes:
        """Wire format: magic, id column, then a props column that is a
        single 0 byte when every edge has empty properties (the dominant
        case — the whole column costs one byte) or 1 followed by per-edge
        length-prefixed :func:`~repro.storage.encoding.pack_props` blobs."""
        out = bytearray([ADJ_MAGIC])
        encode_varints((len(self.targets),), out)
        deltas = []
        prev = 0
        for vid in self.targets:
            deltas.append(zigzag_encode(vid - prev))
            prev = vid
        encode_varints(deltas, out)
        if self.props:
            out.append(1)
            for p in self.props:
                blob = pack_props(p)
                encode_varints((len(blob),), out)
                out += blob
        else:
            out.append(0)
        out += _CRC.pack(zlib.crc32(out))
        return bytes(out)

    @classmethod
    def decode(
        cls, vertex: int, label: str, buf: bytes, props: bool = True
    ) -> "AdjacencyBlock":
        """Inverse of :meth:`encode`. With ``props=False`` the props column
        after its flag byte is skipped (the CRC still covers it) and the
        block comes back with an empty props column: the ids-only read of a
        traversal step that filters no edge property."""
        if len(buf) < 7:
            raise CorruptAdjacencyBlock(
                f"adjacency block of {len(buf)} bytes is shorter than the "
                "minimal frame"
            )
        if buf[0] != ADJ_MAGIC:
            raise CorruptAdjacencyBlock(
                f"bad adjacency magic {buf[0]:#04x}, expected {ADJ_MAGIC:#04x}"
            )
        body, crc_bytes = buf[:-4], buf[-4:]
        if zlib.crc32(body) != _CRC.unpack(crc_bytes)[0]:
            raise CorruptAdjacencyBlock("adjacency block CRC32 mismatch")
        count, offset = _decode_one_varint(body, 1)
        # the first id is a full-width value, the sorted deltas after it
        # mostly single bytes (decode_varints' fast path)
        deltas, offset = decode_varints(body, offset, min(count, 1))
        rest, offset = decode_varints(body, offset, count - len(deltas))
        deltas += rest
        # inlined zigzag_decode: (u >> 1) ^ -(u & 1)
        targets = accumulate((d >> 1) ^ -(d & 1) for d in deltas)
        if offset >= len(body):
            raise CorruptAdjacencyBlock("adjacency block missing props flag")
        flag = body[offset]
        offset += 1
        columns: tuple[dict[str, Any], ...] = ()
        if flag == 1 and not props:
            offset = len(body)
        elif flag == 1:
            decoded = []
            for _ in range(count):
                blen, offset = _decode_one_varint(body, offset)
                if offset + blen > len(body):
                    raise CorruptAdjacencyBlock(
                        "props blob runs past the end of the block"
                    )
                try:
                    p, used = unpack_props(body, offset)
                except Exception as exc:
                    raise CorruptAdjacencyBlock(
                        f"undecodable props blob: {exc}"
                    ) from exc
                if used != offset + blen:
                    raise CorruptAdjacencyBlock(
                        f"props blob length {blen} disagrees with its payload"
                    )
                decoded.append(p)
                offset += blen
            columns = tuple(decoded)
        elif flag != 0:
            raise CorruptAdjacencyBlock(f"unknown props-column flag {flag}")
        if offset != len(body):
            raise CorruptAdjacencyBlock(
                f"{len(body) - offset} trailing bytes after props column"
            )
        return cls(vertex, label, tuple(targets), columns)
