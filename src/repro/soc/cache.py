"""Set-associative cache model with LRU replacement and dirty tracking.

The model operates at cache-line granularity.  It supports the operations
the coherence-mode data paths need:

* ``access_range`` — read or write a byte range, reporting hits, misses,
  and the dirty lines evicted by the fills (which become write-back traffic
  towards the next level);
* ``install_range`` — warm the cache with data without reporting traffic
  (used to model the CPU having initialised accelerator inputs before the
  invocation, so that the data is "warm" as in the paper's Section 3);
* ``flush_all`` / ``flush_range`` — software flush, returning how many
  lines had to be written back and how many were simply invalidated;
* ``invalidate_line`` / ``recall_line`` — directory-initiated removal of a
  single line, used by the coherent-DMA recall mechanism.

This module is on the hot path of every simulated DMA transfer, so the
range operations are written for speed: geometry values are hoisted into
locals, a resident-line counter keeps empty-cache operations O(1), and
``flush_range`` walks whichever is smaller — the address range or the
cache contents — so flushing a huge buffer through a small cache costs
O(resident lines), not O(buffer size).  ``repro.perf`` benchmarks these
paths and ``tests/test_perf_equivalence.py`` checks them against a
deliberately naive per-line oracle.

Each set is a plain ``dict`` mapping line address to dirty bit, and
insertion order *is* the recency order (the first entry is the LRU
line).  A hit is a single ``pop``-and-reinsert pair: re-adding an entry
lands it in MRU position, and ``None`` is a safe miss sentinel because
stored values are always booleans.  An eviction pops ``next(iter(set))``,
and the range walks replace the per-line address multiply/modulo with an
incrementing address and a rotating set index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Sentinel bounds of an empty cache (no address can satisfy lo <= a <= hi).
_EMPTY_LO = 1 << 62
_EMPTY_HI = -1


@dataclass
class CacheStats:
    """Cumulative counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    writebacks: int = 0
    flush_writebacks: int = 0
    flush_invalidations: int = 0
    recalls: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "writebacks": self.writebacks,
            "flush_writebacks": self.flush_writebacks,
            "flush_invalidations": self.flush_invalidations,
            "recalls": self.recalls,
        }

    @property
    def accesses(self) -> int:
        """Total number of line accesses."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed."""
        return self.misses / self.accesses if self.accesses else 0.0


class RangeAccessResult:
    """Outcome of accessing a byte range through the cache."""

    __slots__ = ("lines", "hits", "misses", "evicted_dirty", "evicted_clean")

    def __init__(
        self,
        lines: int = 0,
        hits: int = 0,
        misses: int = 0,
        evicted_dirty: Optional[List[int]] = None,
        evicted_clean: int = 0,
    ) -> None:
        self.lines = lines
        self.hits = hits
        self.misses = misses
        self.evicted_dirty = evicted_dirty if evicted_dirty is not None else []
        self.evicted_clean = evicted_clean

    def merge(self, other: "RangeAccessResult") -> None:
        """Accumulate ``other`` into this result."""
        self.lines += other.lines
        self.hits += other.hits
        self.misses += other.misses
        self.evicted_dirty.extend(other.evicted_dirty)
        self.evicted_clean += other.evicted_clean

    @property
    def writeback_lines(self) -> int:
        """Number of dirty lines evicted (write-back traffic)."""
        return len(self.evicted_dirty)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RangeAccessResult(lines={self.lines}, hits={self.hits}, "
            f"misses={self.misses}, evicted_dirty={self.evicted_dirty!r}, "
            f"evicted_clean={self.evicted_clean})"
        )


class SetAssociativeCache:
    """LRU set-associative cache tracking valid and dirty lines."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        line_bytes: int,
        ways: int,
    ) -> None:
        if size_bytes <= 0 or line_bytes <= 0 or ways <= 0:
            raise ConfigurationError("cache geometry parameters must be positive")
        num_lines = size_bytes // line_bytes
        if num_lines == 0:
            raise ConfigurationError(
                f"cache {name!r}: size {size_bytes} smaller than one line"
            )
        ways = min(ways, num_lines)
        if num_lines % ways:
            # Round the number of sets down so the geometry stays consistent.
            num_lines = (num_lines // ways) * ways
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = max(num_lines // ways, 1)
        self.stats = CacheStats()
        # One mapping per set: {line_address: dirty}.  Insertion order is
        # the recency order, so the first entry is the least recently used
        # line.
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self.num_sets)]
        # Resident-line count, kept in sync by every mutation so that
        # emptiness checks and contents-vs-range walk decisions are O(1).
        self._num_valid = 0
        # Conservative bounds on resident line addresses ([lo, hi], only
        # widened on insert, reset when the cache empties).  Flush and
        # recall scans over address ranges that cannot intersect the
        # contents return immediately — the common case when many threads
        # work on disjoint buffers.
        self._addr_lo = _EMPTY_LO
        self._addr_hi = _EMPTY_HI

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_bytes) % self.num_sets

    def line_address(self, byte_addr: int) -> int:
        """Return the aligned line address containing ``byte_addr``."""
        return (byte_addr // self.line_bytes) * self.line_bytes

    def lines_in_range(self, start: int, nbytes: int) -> range:
        """Return the line addresses covering ``[start, start + nbytes)``."""
        if nbytes <= 0:
            return range(0)
        line = self.line_bytes
        first = (start // line) * line
        last = ((start + nbytes - 1) // line) * line
        return range(first, last + line, line)

    # ------------------------------------------------------------------
    # Single-line operations
    # ------------------------------------------------------------------
    def access_line(
        self, line_addr: int, write: bool, allocate: bool = True
    ) -> Tuple[bool, Optional[int], bool]:
        """Access one line.

        Returns ``(hit, evicted_line_or_None, evicted_dirty)``.
        """
        line = self.line_bytes
        line_addr = (line_addr // line) * line
        cache_set = self._sets[(line_addr // line) % self.num_sets]
        stats = self.stats
        prev = cache_set.pop(line_addr, None)
        if prev is not None:
            stats.hits += 1
            cache_set[line_addr] = prev or write
            return True, None, False

        stats.misses += 1
        if not allocate:
            return False, None, False
        evicted_line: Optional[int] = None
        evicted_dirty = False
        if len(cache_set) >= self.ways:
            evicted_line = next(iter(cache_set))
            evicted_dirty = cache_set.pop(evicted_line)
            stats.evictions += 1
            if evicted_dirty:
                stats.dirty_evictions += 1
                stats.writebacks += 1
        else:
            self._num_valid += 1
        cache_set[line_addr] = write
        if line_addr < self._addr_lo:
            self._addr_lo = line_addr
        if line_addr > self._addr_hi:
            self._addr_hi = line_addr
        return False, evicted_line, evicted_dirty

    def contains(self, byte_addr: int) -> bool:
        """Whether the line containing ``byte_addr`` is present."""
        line_addr = self.line_address(byte_addr)
        return line_addr in self._sets[self._set_index(line_addr)]

    def is_dirty(self, byte_addr: int) -> bool:
        """Whether the line containing ``byte_addr`` is present and dirty."""
        line_addr = self.line_address(byte_addr)
        return bool(self._sets[self._set_index(line_addr)].get(line_addr, False))

    def invalidate_line(self, byte_addr: int) -> bool:
        """Drop the line containing ``byte_addr``; return whether it was dirty."""
        line_addr = self.line_address(byte_addr)
        cache_set = self._sets[self._set_index(line_addr)]
        dirty = cache_set.pop(line_addr, None)
        if dirty is not None:
            self._num_valid -= 1
            if not self._num_valid:
                self._addr_lo = _EMPTY_LO
                self._addr_hi = _EMPTY_HI
        return bool(dirty)

    def recall_line(self, byte_addr: int) -> bool:
        """Directory recall: invalidate the line and count the recall.

        Returns whether the recalled line was dirty (and therefore had to be
        written back to the LLC).
        """
        self.stats.recalls += 1
        return self.invalidate_line(byte_addr)

    # ------------------------------------------------------------------
    # Range operations
    # ------------------------------------------------------------------
    def access_range(
        self, start: int, nbytes: int, write: bool, allocate: bool = True
    ) -> RangeAccessResult:
        """Access every line in ``[start, start + nbytes)``."""
        result = RangeAccessResult()
        if nbytes <= 0:
            return result
        line = self.line_bytes
        num_sets = self.num_sets
        ways = self.ways
        sets = self._sets
        stats = self.stats
        evicted_dirty_lines = result.evicted_dirty
        append_dirty = evicted_dirty_lines.append
        hits = misses = evicted_clean = evictions = installed = 0
        first_index = start // line
        last_index = (start + nbytes - 1) // line
        if allocate:
            if first_index * line < self._addr_lo:
                self._addr_lo = first_index * line
            if last_index * line > self._addr_hi:
                self._addr_hi = last_index * line
        line_addr = first_index * line
        set_index = first_index % num_sets
        for _ in range(last_index - first_index + 1):
            cache_set = sets[set_index]
            set_index += 1
            if set_index == num_sets:
                set_index = 0
            # One pop + one reinsert does the whole hit: the reinsert lands
            # the line in MRU position, and `prev or write` is the
            # sticky-dirty rule (dirty stays dirty, a write access dirties
            # a clean line).
            prev = cache_set.pop(line_addr, None)
            if prev is not None:
                hits += 1
                cache_set[line_addr] = prev or write
                line_addr += line
                continue
            misses += 1
            if allocate:
                if len(cache_set) >= ways:
                    evicted_line = next(iter(cache_set))
                    was_dirty = cache_set.pop(evicted_line)
                    evictions += 1
                    if was_dirty:
                        append_dirty(evicted_line)
                    else:
                        evicted_clean += 1
                else:
                    installed += 1
                cache_set[line_addr] = write
            line_addr += line
        result.lines = last_index - first_index + 1
        result.hits = hits
        result.misses = misses
        result.evicted_clean = evicted_clean
        self._num_valid += installed
        dirty_evictions = len(evicted_dirty_lines)
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.dirty_evictions += dirty_evictions
        stats.writebacks += dirty_evictions
        return result

    def access_line_run(
        self, start: int, nbytes: int, write: bool
    ) -> Tuple[int, int, List[int], List[int]]:
        """Access every line in ``[start, start + nbytes)``, reporting misses.

        Returns ``(hits, misses, miss_lines, evicted_dirty_lines)`` — the
        batch equivalent of calling :meth:`access_line` per line, used by
        the fully-coherent datapath, which needs the missing line addresses
        (to fetch them from the LLC) and the dirty victims (to write them
        back).  Statistics are updated exactly as per-line calls would.

        Both returned lists are in walk order — the datapath feeds them to
        the LLC sequentially, so the order is part of the simulated
        result.
        """
        hits = 0
        miss_lines: List[int] = []
        evicted_dirty: List[int] = []
        if nbytes <= 0:
            return 0, 0, miss_lines, evicted_dirty
        line = self.line_bytes
        num_sets = self.num_sets
        ways = self.ways
        sets = self._sets
        stats = self.stats
        first_index = start // line
        last_index = (start + nbytes - 1) // line
        if first_index * line < self._addr_lo:
            self._addr_lo = first_index * line
        if last_index * line > self._addr_hi:
            self._addr_hi = last_index * line
        append_miss = miss_lines.append
        append_dirty = evicted_dirty.append
        evictions = installed = 0
        line_addr = first_index * line
        set_index = first_index % num_sets
        for _ in range(last_index - first_index + 1):
            cache_set = sets[set_index]
            set_index += 1
            if set_index == num_sets:
                set_index = 0
            prev = cache_set.pop(line_addr, None)
            if prev is not None:
                hits += 1
                cache_set[line_addr] = prev or write
                line_addr += line
                continue
            append_miss(line_addr)
            if len(cache_set) >= ways:
                evicted_line = next(iter(cache_set))
                was_dirty = cache_set.pop(evicted_line)
                evictions += 1
                if was_dirty:
                    append_dirty(evicted_line)
            else:
                installed += 1
            cache_set[line_addr] = write
            line_addr += line
        misses = len(miss_lines)
        dirty_evictions = len(evicted_dirty)
        self._num_valid += installed
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.dirty_evictions += dirty_evictions
        stats.writebacks += dirty_evictions
        return hits, misses, miss_lines, evicted_dirty

    def access_lines(
        self, line_addrs: List[int], write: bool
    ) -> Tuple[int, int, int]:
        """Access a list of (aligned) line addresses.

        Returns ``(hits, misses, evicted_dirty_count)`` — the batch
        equivalent of calling :meth:`access_line` per address when the
        caller only needs the aggregate counts (the LLC side of the
        fully-coherent miss path).  Statistics are updated identically.
        """
        if not line_addrs:
            return 0, 0, 0
        hits = 0
        misses = 0
        evicted_dirty = 0
        line = self.line_bytes
        num_sets = self.num_sets
        ways = self.ways
        sets = self._sets
        stats = self.stats
        lo = min(line_addrs)
        hi = max(line_addrs)
        if lo < self._addr_lo:
            self._addr_lo = lo
        if hi > self._addr_hi:
            self._addr_hi = hi
        evictions = installed = 0
        for line_addr in line_addrs:
            cache_set = sets[(line_addr // line) % num_sets]
            prev = cache_set.pop(line_addr, None)
            if prev is not None:
                hits += 1
                cache_set[line_addr] = prev or write
                continue
            misses += 1
            if len(cache_set) >= ways:
                was_dirty = cache_set.pop(next(iter(cache_set)))
                evictions += 1
                if was_dirty:
                    evicted_dirty += 1
            else:
                installed += 1
            cache_set[line_addr] = write
        self._num_valid += installed
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.dirty_evictions += evicted_dirty
        stats.writebacks += evicted_dirty
        return hits, misses, evicted_dirty

    def install_range(self, start: int, nbytes: int, dirty: bool = True) -> int:
        """Warm the cache with ``[start, start + nbytes)`` without statistics.

        Returns the number of lines installed.  Evictions caused by the
        warm-up are silently dropped (the corresponding traffic happened
        before the measured window).
        """
        if nbytes <= 0:
            return 0
        line = self.line_bytes
        num_sets = self.num_sets
        ways = self.ways
        sets = self._sets
        first_index = start // line
        last_index = (start + nbytes - 1) // line
        if first_index * line < self._addr_lo:
            self._addr_lo = first_index * line
        if last_index * line > self._addr_hi:
            self._addr_hi = last_index * line
        installed = last_index - first_index + 1
        num_valid = self._num_valid
        line_addr = first_index * line
        set_index = first_index % num_sets
        for _ in range(installed):
            cache_set = sets[set_index]
            set_index += 1
            if set_index == num_sets:
                set_index = 0
            prev = cache_set.pop(line_addr, None)
            if prev is None:
                if len(cache_set) >= ways:
                    del cache_set[next(iter(cache_set))]
                else:
                    num_valid += 1
                cache_set[line_addr] = dirty
            else:
                cache_set[line_addr] = prev or dirty
            line_addr += line
        self._num_valid = num_valid
        return installed

    # ------------------------------------------------------------------
    # Flushes
    # ------------------------------------------------------------------
    def flush_all(self) -> Tuple[int, int]:
        """Flush the whole cache; return ``(writebacks, invalidations)``."""
        writebacks = 0
        invalidations = 0
        for cache_set in self._sets:
            for _line, dirty in cache_set.items():
                invalidations += 1
                if dirty:
                    writebacks += 1
            cache_set.clear()
        self._num_valid = 0
        self._addr_lo = _EMPTY_LO
        self._addr_hi = _EMPTY_HI
        self.stats.flush_writebacks += writebacks
        self.stats.flush_invalidations += invalidations
        return writebacks, invalidations

    def flush_range(self, start: int, nbytes: int) -> Tuple[int, int]:
        """Flush only the given range; return ``(writebacks, invalidations)``."""
        writebacks = 0
        invalidations = 0
        if nbytes > 0 and self._num_valid:
            line = self.line_bytes
            first = (start // line) * line
            last = ((start + nbytes - 1) // line) * line
            if last < self._addr_lo or first > self._addr_hi:
                return 0, 0
            range_lines = (last - first) // line + 1
            if range_lines <= self._num_valid:
                # Few lines in the range: walk the address range.
                num_sets = self.num_sets
                sets = self._sets
                for line_index in range(first // line, last // line + 1):
                    dirty = sets[line_index % num_sets].pop(line_index * line, None)
                    if dirty is None:
                        continue
                    invalidations += 1
                    if dirty:
                        writebacks += 1
            else:
                # Range larger than the cache contents: walk the (small)
                # resident set instead — flushing a huge buffer costs
                # O(resident lines), not O(buffer size).
                for cache_set in self._sets:
                    in_range = [
                        addr for addr in cache_set if first <= addr <= last
                    ]
                    for addr in in_range:
                        invalidations += 1
                        if cache_set.pop(addr):
                            writebacks += 1
            self._num_valid -= invalidations
            if not self._num_valid:
                self._addr_lo = _EMPTY_LO
                self._addr_hi = _EMPTY_HI
        self.stats.flush_writebacks += writebacks
        self.stats.flush_invalidations += invalidations
        return writebacks, invalidations

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def valid_lines(self) -> int:
        """Number of valid lines currently resident."""
        return self._num_valid

    def dirty_lines(self) -> int:
        """Number of dirty lines currently resident."""
        return sum(sum(1 for dirty in cache_set.values() if dirty) for cache_set in self._sets)

    def occupancy_bytes(self) -> int:
        """Bytes of valid data currently resident."""
        return self._num_valid * self.line_bytes

    def occupancy_fraction(self) -> float:
        """Fraction of the cache capacity currently valid."""
        capacity_lines = self.num_sets * self.ways
        return self._num_valid / capacity_lines if capacity_lines else 0.0

    def resident_lines_in_range(self, start: int, nbytes: int) -> int:
        """Number of lines of ``[start, start + nbytes)`` currently resident."""
        if nbytes <= 0 or not self._num_valid:
            return 0
        line = self.line_bytes
        first = (start // line) * line
        last = ((start + nbytes - 1) // line) * line
        if last < self._addr_lo or first > self._addr_hi:
            return 0
        range_lines = (last - first) // line + 1
        if range_lines <= self._num_valid:
            num_sets = self.num_sets
            sets = self._sets
            return sum(
                1
                for line_index in range(first // line, last // line + 1)
                if line_index * line in sets[line_index % num_sets]
            )
        return sum(
            1
            for cache_set in self._sets
            for addr in cache_set
            if first <= addr <= last
        )

    def resident_lines_within(self, start: int, nbytes: int) -> List[int]:
        """Return resident line addresses falling inside ``[start, start+nbytes)``.

        This walks the (small) cache contents rather than the (potentially
        huge) address range, which is what the coherent-DMA recall logic
        needs: it only cares about the few lines a private cache actually
        holds.  An empty cache returns immediately.
        """
        if nbytes <= 0 or not self._num_valid:
            return []
        end = start + nbytes
        if end <= self._addr_lo or start >= self._addr_hi + self.line_bytes:
            return []
        lo = start - self.line_bytes
        # A line overlaps [start, end) iff lo < addr < end (addr > lo is the
        # same as addr + line_bytes > start for aligned addresses).
        return [
            addr
            for cache_set in self._sets
            for addr in cache_set
            if lo < addr < end
        ]

    def clear(self) -> None:
        """Drop all contents and statistics (used between experiments)."""
        for cache_set in self._sets:
            cache_set.clear()
        self._num_valid = 0
        self._addr_lo = _EMPTY_LO
        self._addr_hi = _EMPTY_HI
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache(name={self.name!r}, size={self.size_bytes}, "
            f"line={self.line_bytes}, ways={self.ways}, sets={self.num_sets})"
        )


def flush_cost_cycles(
    writebacks: int,
    invalidations: int,
    flush_base_cycles: float,
    flush_cycles_per_line: float,
) -> float:
    """Cycle cost of a software flush given its outcome.

    The cost model charges a fixed issue cost plus a per-line walk cost for
    every line touched; write-backs are additionally charged by the caller
    as DRAM (or LLC) traffic through the normal resources.
    """
    touched = max(invalidations, writebacks)
    return flush_base_cycles + flush_cycles_per_line * touched
