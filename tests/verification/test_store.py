"""Unit tests for the flat fingerprint table.

The table is the explorer's only record of where it has been; a silent
bug here (a lost entry, a corrupted mask, a bad merge) would turn
"verified exhaustively" into a lie, so the edge cases get direct tests:
the zero-fingerprint alias, growth past the load factor, overflow masks
wider than 63 bits, and the merge rule parallel workers rely on.
"""

from __future__ import annotations

import random

from repro.verification.store import FingerprintTable


def test_put_get_roundtrip():
    table = FingerprintTable(capacity=8)
    table.put(42, 0b1011)
    table.put(-7, 0)
    assert table.get(42) == 0b1011
    assert table.get(-7) == 0
    assert table.get(99) is None
    assert 42 in table and -7 in table and 99 not in table
    assert len(table) == 2


def test_overwrite_does_not_grow_count():
    table = FingerprintTable(capacity=8)
    table.put(5, 1)
    table.put(5, 3)
    assert len(table) == 1
    assert table.get(5) == 3


def test_zero_fingerprint_is_a_valid_key():
    # 0 marks an empty slot internally; a real fingerprint of 0 must
    # still store and read back (it is remapped to a fixed alias).
    table = FingerprintTable(capacity=8)
    assert table.get(0) is None
    table.put(0, 7)
    assert table.get(0) == 7
    assert 0 in table
    assert len(table) == 1


def test_growth_preserves_every_entry():
    rng = random.Random(1)
    entries = {rng.getrandbits(63) - 2**62: i for i in range(5_000)}
    table = FingerprintTable(capacity=16)  # forces many growth steps
    for key, mask in entries.items():
        table.put(key, mask)
    assert len(table) == len(entries)
    for key, mask in entries.items():
        assert table.get(key) == mask
    # load factor stays under the probing cliff after growth
    assert len(table) <= 0.66 * table.capacity


def test_wide_masks_spill_to_overflow():
    table = FingerprintTable(capacity=8)
    wide = 1 << 70 | 1
    table.put(11, wide)
    assert table.get(11) == wide
    # narrowing the mask again must clear the overflow entry
    table.put(11, 3)
    assert table.get(11) == 3
    assert not table._overflow


def test_merge_keeps_weaker_mask():
    ours = FingerprintTable(capacity=8)
    theirs = FingerprintTable(capacity=8)
    ours.put(1, 0b110)
    theirs.put(1, 0b011)  # conflict: intersection 0b010 is the weaker claim
    theirs.put(2, 0b111)  # only theirs
    ours.put(3, 0b001)  # only ours
    ours.merge(theirs)
    assert ours.get(1) == 0b010
    assert ours.get(2) == 0b111
    assert ours.get(3) == 0b001
    assert len(ours) == 3


def test_packed_unpacked_roundtrip():
    table = FingerprintTable(capacity=8)
    table.put(0, 5)
    table.put(123, 1 << 70)
    table.put(-9, 2)
    clone = FingerprintTable.unpacked(table.packed())
    assert len(clone) == len(table)
    for key in (0, 123, -9):
        assert clone.get(key) == table.get(key)
    # a table that has grown keeps its count, capacity and entries too
    rng = random.Random(2)
    entries = {rng.getrandbits(63) - 2**62: i for i in range(3_000)}
    for key, mask in entries.items():
        table.put(key, mask)
    assert table.capacity > 8
    clone = FingerprintTable.unpacked(table.packed())
    assert len(clone) == len(table) == len(entries) + 3
    assert clone.capacity == table.capacity
    for key, mask in entries.items():
        assert clone.get(key) == mask
    assert clone.get(123) == 1 << 70
    clone.put(1, 1)  # and keeps inserting like the original
    assert len(clone) == len(table) + 1


def test_bytes_used_tracks_flat_footprint():
    table = FingerprintTable(capacity=1 << 10)
    assert table.bytes_used() == 16 * (1 << 10)
