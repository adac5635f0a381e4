"""Property tests: optimized hot paths match naive reference implementations.

The profile-guided optimisations of the simulation core (contents-
proportional flushes, batched line accesses, address-bound early exits,
bisect-based buffer slicing, interned RL states) all promise *bit-identical*
behaviour — the performance contract of ``docs/performance.md``.  These
tests hold them to it: each optimized operation is replayed against a
straightforward reference implementation (the seed's original per-line
algorithms) on randomized inputs, and every observable — return values,
statistics counters, and the full final cache state — must agree.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import (
    LEVELS_PER_ATTRIBUTE,
    NUM_ATTRIBUTES,
    CoherenceState,
    intern_state,
)
from repro.soc.address import Buffer, BufferSegment
from repro.soc.cache import SetAssociativeCache

# ----------------------------------------------------------------------
# Reference cache: the seed's original, naive per-line algorithms.
# ----------------------------------------------------------------------


class ReferenceCache:
    """LRU set-associative cache implemented the slow, obvious way."""

    def __init__(self, size_bytes: int, line_bytes: int, ways: int) -> None:
        num_lines = size_bytes // line_bytes
        ways = min(ways, num_lines)
        if num_lines % ways:
            num_lines = (num_lines // ways) * ways
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = max(num_lines // ways, 1)
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = self.misses = self.evictions = 0
        self.dirty_evictions = self.writebacks = 0
        self.flush_writebacks = self.flush_invalidations = 0
        self.recalls = 0

    def _set(self, line_addr):
        return self.sets[(line_addr // self.line_bytes) % self.num_sets]

    def _lines(self, start, nbytes):
        if nbytes <= 0:
            return range(0)
        line = self.line_bytes
        first = (start // line) * line
        last = ((start + nbytes - 1) // line) * line
        return range(first, last + line, line)

    def access_line(self, line_addr, write, allocate=True):
        line_addr = (line_addr // self.line_bytes) * self.line_bytes
        cache_set = self._set(line_addr)
        if line_addr in cache_set:
            self.hits += 1
            dirty = cache_set.pop(line_addr)
            cache_set[line_addr] = dirty or write
            return True, None, False
        self.misses += 1
        if not allocate:
            return False, None, False
        evicted, evicted_dirty = None, False
        if len(cache_set) >= self.ways:
            evicted, evicted_dirty = cache_set.popitem(last=False)
            self.evictions += 1
            if evicted_dirty:
                self.dirty_evictions += 1
                self.writebacks += 1
        cache_set[line_addr] = write
        return False, evicted, evicted_dirty

    def access_range(self, start, nbytes, write, allocate=True):
        hits = misses = evicted_clean = 0
        evicted_dirty = []
        for line_addr in self._lines(start, nbytes):
            hit, evicted, was_dirty = self.access_line(line_addr, write, allocate)
            if hit:
                hits += 1
            else:
                misses += 1
            if evicted is not None:
                if was_dirty:
                    evicted_dirty.append(evicted)
                else:
                    evicted_clean += 1
        return hits, misses, evicted_dirty, evicted_clean

    def access_line_run(self, start, nbytes, write):
        hits, miss_lines, evicted_dirty = 0, [], []
        for line_addr in self._lines(start, nbytes):
            hit, evicted, was_dirty = self.access_line(line_addr, write)
            if hit:
                hits += 1
            else:
                miss_lines.append(line_addr)
            if was_dirty:
                evicted_dirty.append(evicted)
        return hits, len(miss_lines), miss_lines, evicted_dirty

    def access_lines(self, line_addrs, write):
        hits = misses = dirty = 0
        for line_addr in line_addrs:
            hit, _evicted, was_dirty = self.access_line(line_addr, write)
            hits += hit
            misses += not hit
            dirty += was_dirty
        return hits, misses, dirty

    def install_range(self, start, nbytes, dirty):
        lines = self._lines(start, nbytes)
        for line_addr in lines:
            cache_set = self._set(line_addr)
            if line_addr in cache_set:
                was = cache_set.pop(line_addr)
                cache_set[line_addr] = was or dirty
            else:
                if len(cache_set) >= self.ways:
                    cache_set.popitem(last=False)
                cache_set[line_addr] = dirty
        return len(lines)

    def invalidate_line(self, byte_addr):
        line_addr = (byte_addr // self.line_bytes) * self.line_bytes
        return bool(self._set(line_addr).pop(line_addr, False))

    def recall_line(self, byte_addr):
        self.recalls += 1
        return self.invalidate_line(byte_addr)

    def flush_all(self):
        writebacks = invalidations = 0
        for cache_set in self.sets:
            invalidations += len(cache_set)
            writebacks += sum(cache_set.values())
            cache_set.clear()
        self.flush_writebacks += writebacks
        self.flush_invalidations += invalidations
        return writebacks, invalidations

    def flush_range(self, start, nbytes):
        writebacks = invalidations = 0
        for line_addr in self._lines(start, nbytes):
            dirty = self._set(line_addr).pop(line_addr, None)
            if dirty is None:
                continue
            invalidations += 1
            if dirty:
                writebacks += 1
        self.flush_writebacks += writebacks
        self.flush_invalidations += invalidations
        return writebacks, invalidations

    def resident_lines_within(self, start, nbytes):
        """Every resident line overlapping the range: sets in order, LRU first."""
        if nbytes <= 0:
            return []
        end = start + nbytes
        found = []
        for cache_set in self.sets:
            for addr in cache_set:
                if start - self.line_bytes < addr < end and addr + self.line_bytes > start:
                    found.append(addr)
        return found

    def resident_lines_in_range(self, start, nbytes):
        return sum(1 for addr in self._lines(start, nbytes) if addr in self._set(addr))

    def state(self):
        return [list(cache_set.items()) for cache_set in self.sets]

    def stats(self):
        """The counters in :meth:`CacheStats.as_dict` form."""
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


def _state_of(cache: SetAssociativeCache):
    return [list(cache_set.items()) for cache_set in cache._sets]


#: One randomized cache operation: (kind, start, nbytes, flag).
_op = st.tuples(
    st.sampled_from(["read", "write", "install", "flush", "invalidate", "resident"]),
    st.integers(min_value=0, max_value=4096),
    st.integers(min_value=0, max_value=2048),
    st.booleans(),
)


_LINE = 64
#: Address window of :data:`_any_op`: 256 lines through an 8 KiB 2-way
#: cache (64 sets), so every set thrashes.
_SPAN = 256 * _LINE
_addr = st.integers(min_value=0, max_value=_SPAN)
_nbytes = st.integers(min_value=1, max_value=24 * _LINE)

#: Any cache operation as ``(method, *args)``, with the arguments the
#: datapath passes (``access_lines`` takes aligned line addresses).  The
#: residency queries compare their lists in order: the coherent-DMA recall
#: installs recalled dirty lines in the LLC in that order.
_any_op = st.one_of(
    st.tuples(st.just("access_range"), _addr, _nbytes, st.booleans(), st.booleans()),
    st.tuples(st.just("access_line_run"), _addr, _nbytes, st.booleans()),
    st.tuples(
        st.just("access_lines"),
        st.lists(_addr.map(lambda a: (a // _LINE) * _LINE), min_size=1, max_size=12),
        st.booleans(),
    ),
    st.tuples(st.just("install_range"), _addr, _nbytes, st.booleans()),
    st.tuples(st.just("access_line"), _addr, st.booleans(), st.booleans()),
    st.tuples(st.just("flush_range"), _addr, _nbytes),
    st.tuples(st.just("invalidate_line"), _addr),
    st.tuples(st.just("recall_line"), _addr),
    st.tuples(st.just("resident_lines_within"), _addr, _nbytes),
    st.tuples(st.just("resident_lines_in_range"), _addr, _nbytes),
    st.tuples(st.just("flush_all")),
)


def _range_outcome(result):
    """A :class:`RangeAccessResult` in :meth:`ReferenceCache.access_range` form."""
    return result.hits, result.misses, result.evicted_dirty, result.evicted_clean


def _replay_against_oracle(ops):
    """Apply ``ops`` to a cache and the oracle, comparing after every call."""
    cache = SetAssociativeCache("cache", size_bytes=8 * 1024, line_bytes=_LINE, ways=2)
    ref = ReferenceCache(size_bytes=8 * 1024, line_bytes=_LINE, ways=2)
    for method, *args in ops:
        outcome = getattr(cache, method)(*args)
        if method == "access_range":
            assert outcome.lines == len(ref._lines(args[0], args[1]))
            outcome = _range_outcome(outcome)
        assert outcome == getattr(ref, method)(*args), method
        assert _state_of(cache) == ref.state()
    assert cache.num_valid == sum(len(s) for s in ref.sets)
    assert cache.dirty_lines() == sum(sum(s.values()) for s in ref.sets)
    assert cache.stats.as_dict() == ref.stats()


class TestCacheEquivalence:
    """The optimized cache replays identically to the reference cache."""

    @given(
        ops=st.lists(_op, max_size=30),
        ways=st.integers(min_value=1, max_value=4),
        size=st.sampled_from([256, 512, 1024]),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_operation_sequences(self, ops, ways, size):
        """Counters, results, and final state agree after any op sequence."""
        line = 64
        fast = SetAssociativeCache("fast", size_bytes=size, line_bytes=line, ways=ways)
        ref = ReferenceCache(size_bytes=size, line_bytes=line, ways=ways)

        for kind, start, nbytes, flag in ops:
            if kind in ("read", "write"):
                result = fast.access_range(start, nbytes, write=(kind == "write"))
                assert _range_outcome(result) == ref.access_range(
                    start, nbytes, write=(kind == "write")
                )
            elif kind == "install":
                fast.install_range(start, nbytes, dirty=flag)
                ref.install_range(start, nbytes, dirty=flag)
            elif kind == "flush":
                assert fast.flush_range(start, nbytes) == ref.flush_range(start, nbytes)
            elif kind == "invalidate":
                assert fast.invalidate_line(start) == ref.invalidate_line(start)
            else:
                assert fast.resident_lines_within(start, nbytes) == ref.resident_lines_within(
                    start, nbytes
                )
            assert _state_of(fast) == ref.state()
            assert fast.num_valid == sum(len(s) for s in ref.sets)

        assert fast.stats.as_dict() == ref.stats()

    @given(ops=st.lists(_any_op, min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_every_operation_matches_the_oracle(self, ops):
        """Each call's result, and the recency order after it, match."""
        _replay_against_oracle(ops)

    @pytest.mark.slow
    @given(ops=st.lists(_any_op, min_size=1, max_size=40))
    @settings(max_examples=1000, deadline=None)
    def test_every_operation_matches_the_oracle_fleet(self, ops):
        """The same property over 12.5x the examples (the slow fleet)."""
        _replay_against_oracle(ops)

    def test_eviction_order_is_lru_in_walk_order(self):
        # Overfilling one set evicts its oldest lines first, in walk order.
        cache = SetAssociativeCache("lru", 4 * _LINE, _LINE, ways=2)
        ref = ReferenceCache(4 * _LINE, _LINE, ways=2)
        assert cache.num_sets == ref.num_sets == 2
        # Lines 0, 2, 4 and 6 map to set 0: fill it, then overflow it twice.
        for addr in (0, 2 * _LINE):
            assert cache.access_line(addr, True) == ref.access_line(addr, True)
        result = cache.access_range(4 * _LINE, 4 * _LINE, write=False)
        assert result.evicted_dirty == [0, 2 * _LINE]
        assert _range_outcome(result) == ref.access_range(4 * _LINE, 4 * _LINE, False)
        assert _state_of(cache) == ref.state()

    @given(
        ops=st.lists(_op.filter(lambda o: o[0] in ("read", "write", "install")), max_size=10),
        start=st.integers(min_value=0, max_value=4096),
        nbytes=st.integers(min_value=0, max_value=2048),
        write=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_batched_line_accesses_match_per_line_calls(self, ops, start, nbytes, write):
        """access_line_run/access_lines equal a per-line access_line loop."""
        line = 64
        fast = SetAssociativeCache("fast", size_bytes=512, line_bytes=line, ways=2)
        slow = SetAssociativeCache("slow", size_bytes=512, line_bytes=line, ways=2)
        for kind, op_start, op_nbytes, flag in ops:
            for cache in (fast, slow):
                if kind == "install":
                    cache.install_range(op_start, op_nbytes, dirty=flag)
                else:
                    cache.access_range(op_start, op_nbytes, write=(kind == "write"))

        hits, misses, miss_lines, evicted_dirty = fast.access_line_run(
            start, nbytes, write=write
        )
        ref_hits = ref_misses = 0
        ref_miss_lines, ref_evicted = [], []
        for line_addr in slow.lines_in_range(start, nbytes):
            hit, evicted, was_dirty = slow.access_line(line_addr, write=write)
            if hit:
                ref_hits += 1
            else:
                ref_misses += 1
                ref_miss_lines.append(line_addr)
            if evicted is not None and was_dirty:
                ref_evicted.append(evicted)
        assert (hits, misses) == (ref_hits, ref_misses)
        assert miss_lines == ref_miss_lines
        assert evicted_dirty == ref_evicted
        assert _state_of(fast) == _state_of(slow)

        lhits, lmisses, ldirty = fast.access_lines(list(miss_lines), write=True)
        ref_lhits = ref_lmisses = ref_ldirty = 0
        for line_addr in ref_miss_lines:
            hit, evicted, was_dirty = slow.access_line(line_addr, write=True)
            if hit:
                ref_lhits += 1
            else:
                ref_lmisses += 1
            if evicted is not None and was_dirty:
                ref_ldirty += 1
        assert (lhits, lmisses, ldirty) == (ref_lhits, ref_lmisses, ref_ldirty)
        assert _state_of(fast) == _state_of(slow)


# ----------------------------------------------------------------------
# Buffer slicing: bisect decode vs the original linear scan.
# ----------------------------------------------------------------------


def _reference_slice(buffer: Buffer, offset: int, nbytes: int):
    """The seed's linear-scan slice (kept verbatim as the oracle)."""
    result = []
    remaining = nbytes
    cursor = offset
    covered = 0
    for segment in buffer.segments:
        seg_lo = covered
        seg_hi = covered + segment.size
        if cursor < seg_hi and remaining > 0:
            inner = max(cursor, seg_lo) - seg_lo
            take = min(segment.size - inner, remaining)
            result.append(
                BufferSegment(
                    mem_tile=segment.mem_tile, start=segment.start + inner, size=take
                )
            )
            remaining -= take
            cursor += take
        covered = seg_hi
        if remaining == 0:
            break
    return result


@st.composite
def _buffers(draw):
    sizes = draw(st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=8))
    segments = []
    base = 0
    for index, size in enumerate(sizes):
        segments.append(BufferSegment(mem_tile=index % 3, start=base + index * 64, size=size))
        base += size + 1024
    return Buffer(name="b", size=sum(sizes), segments=tuple(segments))


class TestBufferSliceEquivalence:
    """The bisect-based slice matches the linear-scan reference."""

    @given(
        buffer=_buffers(),
        offset_frac=st.floats(min_value=0.0, max_value=1.0),
        nbytes=st.integers(min_value=0, max_value=2048),
    )
    @settings(max_examples=200, deadline=None)
    def test_slice_matches_linear_scan(self, buffer, offset_frac, nbytes):
        """Random slices of random segment layouts decode identically."""
        offset = int(offset_frac * buffer.size)
        nbytes = min(nbytes, buffer.size - offset)
        assert buffer.slice(offset, nbytes) == _reference_slice(buffer, offset, nbytes)

    @given(buffer=_buffers(), nbytes=st.integers(min_value=1, max_value=2048))
    @settings(max_examples=100, deadline=None)
    def test_footprint_within_matches_slice_sum(self, buffer, nbytes):
        """The memoized footprint map equals a recomputation from slice()."""
        nbytes = min(nbytes, buffer.size)
        expected = {}
        for segment in _reference_slice(buffer, 0, nbytes):
            expected[segment.mem_tile] = expected.get(segment.mem_tile, 0) + segment.size
        assert buffer.footprint_within(nbytes) == expected
        # Second call returns the memoized mapping with identical content.
        assert buffer.footprint_within(nbytes) == expected


# ----------------------------------------------------------------------
# Interned RL states: shared instances encode exactly like fresh ones.
# ----------------------------------------------------------------------

_attr = st.integers(min_value=0, max_value=LEVELS_PER_ATTRIBUTE - 1)


class TestStateInterningEquivalence:
    """intern_state and the cached index agree with first-principles encoding."""

    @given(values=st.tuples(_attr, _attr, _attr, _attr, _attr))
    @settings(max_examples=200, deadline=None)
    def test_interned_state_matches_fresh_state(self, values):
        """Interned and directly-constructed states are equal, same index."""
        interned = intern_state(*values)
        fresh = CoherenceState(*values)
        assert interned == fresh
        assert interned.as_tuple() == values
        # The cached index equals the base-3 encoding computed from scratch.
        expected = 0
        for value in values:
            expected = expected * LEVELS_PER_ATTRIBUTE + value
        assert interned.index == expected == fresh.index
        assert CoherenceState.from_index(expected).as_tuple() == values
        # Interning is idempotent: the same attributes share one instance.
        assert intern_state(*values) is interned

    def test_all_states_round_trip(self):
        """Every one of the 3^5 states round-trips through its index."""
        seen = set()
        for index in range(LEVELS_PER_ATTRIBUTE**NUM_ATTRIBUTES):
            state = CoherenceState.from_index(index)
            assert state.index == index
            seen.add(state.as_tuple())
        assert len(seen) == LEVELS_PER_ATTRIBUTE**NUM_ATTRIBUTES
