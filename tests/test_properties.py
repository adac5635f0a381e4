"""Property-based tests (hypothesis) for the core data structures.

These check structural invariants that must hold for *any* input: cache
capacity and LRU behaviour, allocator segment consistency, Q-table update
contraction, reward boundedness, state-index bijectivity, and the
discrete-event engine's time monotonicity.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qtable import QTable
from repro.core.reward import RewardTracker, RewardWeights
from repro.core.state import NUM_STATES, CoherenceState
from repro.sim.engine import Engine
from repro.sim.resources import BandwidthResource
from repro.soc.address import AddressMap, Allocator
from repro.soc.cache import SetAssociativeCache
from repro.soc.coherence import COHERENCE_MODES
from repro.units import MB

from tests.test_state_reward import make_result


# ----------------------------------------------------------------------
# Cache invariants
# ----------------------------------------------------------------------

@st.composite
def cache_and_accesses(draw):
    size = draw(st.sampled_from([1024, 4096, 16384]))
    ways = draw(st.sampled_from([1, 2, 4, 8]))
    accesses = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 20),
                st.booleans(),
            ),
            min_size=1,
            max_size=200,
        )
    )
    return size, ways, accesses


@given(cache_and_accesses())
@settings(max_examples=60, deadline=None)
def test_cache_never_exceeds_capacity_and_counts_are_consistent(data):
    size, ways, accesses = data
    cache = SetAssociativeCache("prop", size_bytes=size, line_bytes=64, ways=ways)
    capacity_lines = cache.num_sets * cache.ways
    for address, write in accesses:
        cache.access_line(address, write=write)
        assert cache.num_valid <= capacity_lines
        assert cache.dirty_lines() <= cache.num_valid
    assert cache.stats.hits + cache.stats.misses == len(accesses)


@given(cache_and_accesses())
@settings(max_examples=40, deadline=None)
def test_cache_flush_removes_everything_and_reports_dirty_lines(data):
    size, ways, accesses = data
    cache = SetAssociativeCache("prop", size_bytes=size, line_bytes=64, ways=ways)
    for address, write in accesses:
        cache.access_line(address, write=write)
    dirty_before = cache.dirty_lines()
    valid_before = cache.num_valid
    writebacks, invalidations = cache.flush_all()
    assert writebacks == dirty_before
    assert invalidations == valid_before
    assert cache.num_valid == 0


@given(
    st.integers(min_value=0, max_value=1 << 18),
    st.integers(min_value=1, max_value=8192),
)
@settings(max_examples=60, deadline=None)
def test_access_range_touches_exactly_the_covered_lines(start, nbytes):
    cache = SetAssociativeCache("prop", size_bytes=64 * 1024, line_bytes=64, ways=8)
    result = cache.access_range(start, nbytes, write=False)
    first_line = (start // 64) * 64
    last_line = ((start + nbytes - 1) // 64) * 64
    expected_lines = (last_line - first_line) // 64 + 1
    assert result.lines == expected_lines
    assert result.hits + result.misses == result.lines


# ----------------------------------------------------------------------
# Allocator invariants
# ----------------------------------------------------------------------

@given(st.lists(st.integers(min_value=1, max_value=3 * MB), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_allocator_segments_are_disjoint_and_cover_requested_size(sizes):
    allocator = Allocator(AddressMap(num_mem_tiles=4, partition_bytes=64 * MB))
    intervals = []
    for index, size in enumerate(sizes):
        buffer = allocator.allocate(size, name=f"b{index}")
        assert sum(segment.size for segment in buffer.segments) >= buffer.size
        for segment in buffer.segments:
            assert 0 <= segment.mem_tile < 4
            intervals.append((segment.start, segment.end))
    intervals.sort()
    for (start_a, end_a), (start_b, end_b) in zip(intervals, intervals[1:]):
        assert end_a <= start_b, "allocated segments overlap"


@given(
    st.integers(min_value=1, max_value=2 * MB),
    st.integers(min_value=0, max_value=2 * MB),
    st.integers(min_value=1, max_value=2 * MB),
)
@settings(max_examples=60, deadline=None)
def test_buffer_slice_preserves_size_and_bounds(buffer_size, offset, length):
    allocator = Allocator(AddressMap(num_mem_tiles=2, partition_bytes=64 * MB))
    buffer = allocator.allocate(buffer_size)
    offset = min(offset, buffer.size - 1)
    length = min(length, buffer.size - offset)
    if length <= 0:
        return
    segments = buffer.slice(offset, length)
    assert sum(segment.size for segment in segments) == length
    allowed = {(s.start, s.end) for s in buffer.segments}
    for segment in segments:
        assert any(start <= segment.start and segment.end <= end for start, end in allowed)


# ----------------------------------------------------------------------
# Q-table and reward invariants
# ----------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=NUM_STATES - 1),
            st.sampled_from(list(COHERENCE_MODES)),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=50, deadline=None)
def test_qtable_values_stay_within_reward_bounds(updates):
    table = QTable()
    for state, mode, reward, alpha in updates:
        table.update(state, mode, reward, alpha)
    values = [value for row in table.values for value in row]
    assert min(values) >= 0.0
    assert max(values) <= 1.0


@given(st.integers(min_value=0, max_value=NUM_STATES - 1))
@settings(max_examples=100, deadline=None)
def test_state_index_bijection(index):
    state = CoherenceState.from_index(index)
    assert state.index == index
    assert all(0 <= value <= 2 for value in state.as_tuple())


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=1e7, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    ),
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
@settings(max_examples=50, deadline=None)
def test_reward_is_always_in_unit_interval(observations, raw_weights):
    exec_w, comm_w, mem_w = raw_weights
    if exec_w + comm_w + mem_w == 0.0:
        exec_w = 1.0
    tracker = RewardTracker(RewardWeights(exec_w, comm_w, mem_w))
    for cycles, comm_ratio, mem in observations:
        components = tracker.evaluate(
            make_result(cycles=cycles, comm=comm_ratio, mem=mem)
        )
        assert 0.0 <= components.r_exec <= 1.0 + 1e-9
        assert 0.0 <= components.r_comm <= 1.0 + 1e-9
        assert -1e-9 <= components.r_mem <= 1.0 + 1e-9
        assert -1e-9 <= components.total <= 1.0 + 1e-9


# ----------------------------------------------------------------------
# Engine and resource invariants
# ----------------------------------------------------------------------

@given(
    st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1, max_size=10),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=50, deadline=None)
def test_engine_time_is_monotone_and_all_processes_finish(delay_lists):
    engine = Engine()
    observed = []

    def proc(delays):
        for delay in delays:
            now = yield delay
            observed.append(now)

    for index, delays in enumerate(delay_lists):
        engine.spawn(f"p{index}", proc(delays))
    engine.run()
    assert engine.all_finished()
    assert observed == sorted(observed)
    assert engine.now >= max(sum(delays) for delays in delay_lists) - 1e-9


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            st.integers(min_value=0, max_value=100_000),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=50, deadline=None)
def test_resource_completions_never_precede_requests(requests):
    resource = BandwidthResource("prop", bytes_per_cycle=4.0, latency=10.0)
    previous_finish = 0.0
    for now, nbytes in sorted(requests, key=lambda item: item[0]):
        finish = resource.serve(now, nbytes)
        assert finish >= now + 10.0 - 1e-9
        assert finish >= previous_finish - 1e-9
        previous_finish = finish
