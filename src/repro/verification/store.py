"""A flat, preallocated visited-state table for 64-bit fingerprints.

The PR 1 explorer kept ``dict[bytes16, frozenset[Action]]`` — every visited
state cost a 16-byte digest object, a dict entry and (usually) a frozenset
of tuples.  At a million states that is hundreds of MB of pointer-chasing.
:class:`FingerprintTable` replaces it with two parallel ``array('q')``
columns — open addressing with linear probing over a power-of-two capacity
— so each visited state occupies exactly 16 bytes of flat memory: the
8-byte hash-compacted fingerprint and an 8-byte *sleep mask*.

The sleep mask packs the stored sleep set of Godefroid's state-matching
rule as a bitmask over the search's action order
(:func:`repro.verification.explore.action_bit`): wake-up ``p`` is bit
``p`` and the ``n·(n−1)`` links follow in sorted order, so a complete
network at N=6 needs ``6 + 30 = 36`` bits, comfortably inside 63.  From
N ≥ 8 on (``n² > 63`` action bits) a mask may not fit; such a mask spills
into a small overflow dict rather than corrupting the column.

Masks are stored intersected with the *currently enabled* action set —
sound because the stored sleep set is only ever (a) intersected with
enabled-action subsets on revisit and (b) shrunk further; bits for actions
not enabled at the state can never be read.

The explorer's DFS probes the key column inline, once per arrival (the
probe loop of :meth:`FingerprintTable.get`), and writes through
:meth:`FingerprintTable.put_at` at the slot that probe found; ``get`` and
``put`` stay the reference API for merges and tests.

``merge`` unions another table in (parallel workers return their private
tables; the parent deduplicates), keeping the *smaller* mask-population on
conflict — the weaker sleep constraint, which is the sound direction when
two searches met the same state with different sleep sets.
"""

from __future__ import annotations

from array import array

#: Fingerprint 0 marks an empty slot; a real fingerprint of 0 is remapped
#: (one fixed alias among 2^64 values — absorbed into the hash-compaction
#: collision budget).
_EMPTY = 0
_ZERO_ALIAS = -(2**63)  # valid 'q' value no Python hash() ever returns twice

#: Grow when load factor crosses this; linear probing degrades sharply past
#: ~0.7 occupancy.
_MAX_LOAD = 0.66


class FingerprintTable:
    """Open-addressed ``fingerprint -> sleep mask`` map in flat arrays."""

    __slots__ = ("_keys", "_values", "_mask", "_count", "_overflow")

    def __init__(self, capacity: int = 1 << 14) -> None:
        size = 1
        while size < capacity:
            size <<= 1
        self._keys = array("q", bytes(8 * size))
        self._values = array("q", bytes(8 * size))
        self._mask = size - 1
        self._count = 0
        #: fingerprint -> mask, for masks too wide for a 63-bit slot.
        self._overflow: dict[int, int] = {}

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        return self._mask + 1

    def bytes_used(self) -> int:
        """Flat storage footprint (both columns), for the benchmarks."""
        return 16 * (self._mask + 1)

    @staticmethod
    def _normalize(fingerprint: int) -> int:
        return _ZERO_ALIAS if fingerprint == _EMPTY else fingerprint

    def _slot(self, key: int) -> int:
        """Index of ``key``'s slot, or of the empty slot to insert it at."""
        keys = self._keys
        mask = self._mask
        index = key & mask
        while True:
            present = keys[index]
            if present == key or present == _EMPTY:
                return index
            index = (index + 1) & mask

    def get(self, fingerprint: int) -> int | None:
        """The stored sleep mask, or None when the state is unvisited."""
        # The explorer's DFS runs this same probe inline (see put_at).
        key = fingerprint if fingerprint != _EMPTY else _ZERO_ALIAS
        keys = self._keys
        mask = self._mask
        index = key & mask
        while True:
            present = keys[index]
            if present == key:
                value = self._values[index]
                return self._overflow[key] if value == -1 else value
            if present == _EMPTY:
                return None
            index = (index + 1) & mask

    def put(self, fingerprint: int, mask: int) -> None:
        """Insert or overwrite one entry."""
        key = self._normalize(fingerprint)
        self.put_at(self._slot(key), key, mask)

    def put_at(self, index: int, key: int, mask: int) -> None:
        """Write ``mask`` for the normalised ``key`` at the slot a probe
        for it found: its own slot, or the empty slot ending its run."""
        if self._keys[index] == _EMPTY:
            self._keys[index] = key
            self._count += 1
            if self._count > _MAX_LOAD * (self._mask + 1):
                self._grow()
                index = self._slot(key)
        if mask < 2**63:
            if self._values[index] == -1:
                self._overflow.pop(key, None)
            self._values[index] = mask
        else:
            self._values[index] = -1
            self._overflow[key] = mask

    def _grow(self) -> None:
        old_keys, old_values = self._keys, self._values
        size = (self._mask + 1) << 2
        self._keys = array("q", bytes(8 * size))
        self._values = array("q", bytes(8 * size))
        self._mask = size - 1
        for index, key in enumerate(old_keys):
            if key != _EMPTY:
                new_index = self._slot(key)
                self._keys[new_index] = key
                self._values[new_index] = old_values[index]

    def __contains__(self, fingerprint: int) -> bool:
        key = self._normalize(fingerprint)
        return self._keys[self._slot(key)] != _EMPTY

    def merge(self, other: "FingerprintTable") -> None:
        """Union ``other`` in, keeping the weaker sleep mask on conflict."""
        for index, key in enumerate(other._keys):
            if key == _EMPTY:
                continue
            other_value = other._values[index]
            other_mask = (
                other._overflow[key] if other_value == -1 else other_value
            )
            mine = self.get(key)
            if mine is None:
                self.put(key, other_mask)
            else:
                # Fewer mask bits = fewer actions asserted as covered
                # elsewhere = the safe union of the two visits.
                merged = mine & other_mask
                if merged != mine:
                    self.put(key, merged)

    def packed(self) -> tuple[bytes, bytes, dict[int, int]]:
        """Picklable flat form for cheap worker-to-parent transfer."""
        return (
            self._keys.tobytes(),
            self._values.tobytes(),
            dict(self._overflow),
        )

    @classmethod
    def unpacked(
        cls, packed: tuple[bytes, bytes, dict[int, int]]
    ) -> "FingerprintTable":
        keys_bytes, values_bytes, overflow = packed
        table = cls.__new__(cls)
        table._keys = array("q")
        table._keys.frombytes(keys_bytes)
        table._values = array("q")
        table._values.frombytes(values_bytes)
        table._mask = len(table._keys) - 1
        table._count = len(table._keys) - table._keys.count(_EMPTY)
        table._overflow = dict(overflow)
        return table
