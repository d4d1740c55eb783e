"""Generative round-trip + corruption suite for the columnar adjacency codec.

The encode/decode pair must be an exact bijection on its domain — arbitrary
id sequences, sorted or not, duplicates and all — and every way a block can
be damaged (truncated varint, bit-flip anywhere, wrong magic, trailing
bytes) must raise the typed :class:`~repro.errors.CorruptAdjacencyBlock`.
Never silent garbage: a decode either returns exactly what was encoded or
raises.

Runs under a fixed, derandomized hypothesis profile so tier-1 stays
deterministic in CI.
"""

from __future__ import annotations

import struct
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import CorruptAdjacencyBlock
from repro.storage.columnar import (
    AdjacencyBlock,
    block_entry_count,
    decode_block,
    encode_block,
    zigzag_decode,
    zigzag_encode,
)

# Fixed profile: derandomized (same examples every run, so tier-1 stays
# deterministic in CI) and without the wall-clock deadline (CI machines jitter).
settings.register_profile(
    "columnar-fixed", settings(derandomize=True, deadline=None, max_examples=60)
)
settings.load_profile("columnar-fixed")

#: arbitrary id sequences: unsorted, duplicate-bearing, empty, negative
ids_lists = st.lists(
    st.integers(min_value=-(2**62), max_value=2**62), max_size=64
)
#: realistic neighbor columns: non-negative vertex ids
vid_lists = st.lists(st.integers(min_value=0, max_value=2**62), max_size=64)

scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)
props_dicts = st.dictionaries(st.text(min_size=1, max_size=8), scalar, max_size=4)


def reframe(body: bytes) -> bytes:
    """Re-seal a (possibly damaged) body under a *valid* CRC, so decode
    failures exercise the framing checks rather than the checksum."""
    return body + struct.pack(">I", zlib.crc32(body))


# -- round-trip properties ----------------------------------------------------


@given(st.integers(min_value=-(2**62), max_value=2**62))
def test_zigzag_roundtrip(n):
    assert zigzag_decode(zigzag_encode(n)) == n
    assert zigzag_encode(n) >= 0


@given(ids_lists)
def test_id_column_roundtrips_exactly(ids):
    """Arbitrary sequences — unsorted, duplicates, negatives, empty — come
    back exactly, in order."""
    assert decode_block(encode_block(ids)) == list(ids)


@given(vid_lists)
def test_sorted_column_roundtrips_and_counts(vids):
    ordered = sorted(vids)
    buf = encode_block(ordered)
    assert decode_block(buf) == ordered
    assert block_entry_count(buf) == len(ordered)


def test_empty_block_roundtrip():
    buf = encode_block([])
    assert decode_block(buf) == []
    assert block_entry_count(buf) == 0


def test_duplicates_and_inversions_roundtrip():
    ids = [7, 7, 3, 3, 3, 900, 1]
    assert decode_block(encode_block(ids)) == ids


@given(vid_lists, st.data())
def test_adjacency_block_roundtrips(vids, data):
    """Full blocks (ids + per-edge property column) round-trip through
    encode/decode, both all-empty-props (elided column) and mixed."""
    props = tuple(data.draw(props_dicts) for _ in vids)
    if not any(props):
        props = ()
    block = AdjacencyBlock(5, "cites", tuple(vids), props)
    back = AdjacencyBlock.decode(5, "cites", block.encode())
    assert back.targets == tuple(vids)
    assert back.pairs() == block.pairs()


@given(vid_lists, st.data())
def test_ids_only_decode_matches_full_decode(vids, data):
    """``props=False`` returns the same id column with an empty props
    column, and still rejects a damaged block (the CRC covers the skipped
    props column)."""
    props = tuple(data.draw(props_dicts) for _ in vids)
    if not any(props):
        props = ()
    buf = AdjacencyBlock(5, "cites", tuple(vids), props).encode()
    ids_only = AdjacencyBlock.decode(5, "cites", buf, props=False)
    assert ids_only.targets == tuple(vids)
    assert ids_only.props == ()
    flip = data.draw(st.integers(min_value=0, max_value=len(buf) * 8 - 1))
    damaged = bytearray(buf)
    damaged[flip // 8] ^= 1 << (flip % 8)
    with pytest.raises(CorruptAdjacencyBlock):
        AdjacencyBlock.decode(5, "cites", bytes(damaged), props=False)


@given(vid_lists)
def test_from_edges_sorts_by_destination(vids):
    block = AdjacencyBlock.from_edges(1, "ref", [(v, {}) for v in vids])
    assert list(block.targets) == sorted(vids)


def test_sorted_dense_ids_compress():
    """The point of the layout: sorted neighbor columns take far fewer
    bytes than 8-byte-per-id storage."""
    ids = list(range(1000, 2000))
    assert len(encode_block(ids)) < 8 * len(ids) / 3


# -- corruption: every damage mode raises the typed error --------------------


@given(ids_lists.filter(lambda l: len(l) > 0), st.data())
def test_any_bitflip_raises_typed_error(ids, data):
    """CRC32 catches every single-bit flip; magic/frame checks catch the
    rest. No flip may ever decode silently."""
    buf = bytearray(encode_block(ids))
    i = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    buf[i] ^= 1 << bit
    with pytest.raises(CorruptAdjacencyBlock):
        decode_block(bytes(buf))


@given(ids_lists, st.data())
def test_any_truncation_raises_typed_error(ids, data):
    buf = encode_block(ids)
    cut = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
    with pytest.raises(CorruptAdjacencyBlock):
        decode_block(buf[:cut])


def test_truncated_varint_specifically():
    """Cut the delta column mid-varint under a *valid* CRC: the varint
    decoder itself must catch the truncation."""
    body = encode_block([1, 300, 70_000])[:-4]
    for cut in range(2, len(body)):
        with pytest.raises(CorruptAdjacencyBlock):
            decode_block(reframe(body[:cut]))


def test_count_overrunning_payload():
    """A count claiming more ids than the payload holds is truncation."""
    body = bytearray(encode_block([4, 9])[:-4])
    body[1] = 7  # count varint says 7, only 2 deltas follow
    with pytest.raises(CorruptAdjacencyBlock):
        decode_block(reframe(bytes(body)))


def test_trailing_bytes_rejected():
    body = encode_block([4, 9])[:-4] + b"\x00\x00"
    with pytest.raises(CorruptAdjacencyBlock):
        decode_block(reframe(body))


def test_wrong_magic_rejected():
    buf = bytearray(encode_block([1]))
    buf[0] = 0x00
    with pytest.raises(CorruptAdjacencyBlock):
        decode_block(bytes(buf))
    with pytest.raises(CorruptAdjacencyBlock):
        block_entry_count(bytes(buf))


def test_short_frames_rejected():
    for n in range(6):
        with pytest.raises(CorruptAdjacencyBlock):
            decode_block(b"\xc7" + b"\x00" * n)


@given(vid_lists.filter(lambda l: len(l) > 0), st.data())
def test_adjacency_block_bitflip_raises(vids, data):
    block = AdjacencyBlock.from_edges(3, "link", [(v, {"w": 1}) for v in vids])
    buf = bytearray(block.encode())
    i = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    buf[i] ^= 1 << bit
    with pytest.raises(CorruptAdjacencyBlock):
        AdjacencyBlock.decode(3, "link", bytes(buf))


def test_adjacency_block_bad_props_flag():
    block = AdjacencyBlock(1, "x", (2, 3))
    body = bytearray(block.encode()[:-4])
    body[-1] = 9  # props flag must be 0 or 1
    with pytest.raises(CorruptAdjacencyBlock):
        AdjacencyBlock.decode(1, "x", reframe(bytes(body)))


def test_props_length_mismatch_rejected():
    with pytest.raises(CorruptAdjacencyBlock):
        AdjacencyBlock(1, "x", (2, 3), ({"a": 1},))
