"""Property-based tests for the executor's stream-window helpers.

``_stream_windows`` splits an accelerator's virtual input/output stream into
per-iteration windows; ``_stream_pieces`` maps a window of the (repeating)
virtual stream onto a finite buffer region, as wrap pieces of physical
segments.  The DMA traffic the executor generates is exactly the union of
these pieces, so their invariants — the windows partition the stream, the
wrap pieces cover exactly ``nbytes`` — guarantee no byte is transferred
twice or skipped.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from test_perf_equivalence import _buffers

from repro.runtime.executor import InvocationExecutor, _stream_pieces, _stream_windows
from repro.soc.address import Buffer, BufferSegment


def _wrap(offset, nbytes, region):
    """The wrap pieces of a window as ``(region offset, size)`` pairs.

    The region is a one-segment buffer at physical address 0, so each piece
    is one segment whose start is its offset within the region.
    """
    size = max(region, 1)
    buffer = Buffer(name="b", size=size, segments=(BufferSegment(0, 0, size),))
    return [
        (start, size)
        for ((_tile, start, size),) in _stream_pieces(buffer, 0, region)(offset, nbytes)
    ]


class TestStreamWindows:
    @given(
        total=st.integers(min_value=0, max_value=1 << 24),
        iterations=st.integers(min_value=1, max_value=2 * InvocationExecutor.MAX_ITERATIONS),
    )
    @settings(max_examples=200, deadline=None)
    def test_windows_partition_the_stream(self, total, iterations):
        windows = _stream_windows(total, iterations)
        assert len(windows) == iterations
        assert all(size >= 0 for _start, size in windows)
        assert sum(size for _start, size in windows) == total
        # Consecutive windows tile the stream without gaps or overlap.
        cursor = 0
        for start, size in windows:
            if size > 0:
                assert start == cursor
                cursor = start + size
        assert cursor == total

    @given(total=st.integers(min_value=1, max_value=1 << 24))
    @settings(max_examples=100, deadline=None)
    def test_single_iteration_is_the_whole_stream(self, total):
        assert _stream_windows(total, 1) == [(0, total)]

    @given(
        total=st.integers(min_value=0, max_value=1 << 24),
        iterations=st.integers(min_value=1, max_value=2 * InvocationExecutor.MAX_ITERATIONS),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_are_the_rounded_shares(self, total, iterations):
        # Window i runs from round(i * total / iterations) to the same bound
        # at i + 1, exactly: every digest depends on these integers.
        bounds = [round(index * total / iterations) for index in range(iterations + 1)]
        expected = [(bounds[i], bounds[i + 1] - bounds[i]) for i in range(iterations)]
        assert _stream_windows(total, iterations) == expected

    @given(
        total=st.integers(min_value=0, max_value=1 << 20),
        iterations=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_sizes_are_balanced(self, total, iterations):
        # round()-based splitting keeps every window within one byte of the
        # ideal total/iterations share.
        windows = _stream_windows(total, iterations)
        ideal = total / iterations
        assert all(abs(size - ideal) <= 1.0 for _start, size in windows)


class TestWrapRegion:
    @given(
        offset=st.integers(min_value=0, max_value=1 << 24),
        nbytes=st.integers(min_value=1, max_value=1 << 20),
        region=st.integers(min_value=1, max_value=1 << 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_pieces_cover_exactly_nbytes(self, offset, nbytes, region):
        pieces = _wrap(offset, nbytes, region)
        assert sum(size for _cursor, size in pieces) == nbytes
        assert all(size > 0 for _cursor, size in pieces)

    @given(
        offset=st.integers(min_value=0, max_value=1 << 24),
        nbytes=st.integers(min_value=1, max_value=1 << 20),
        region=st.integers(min_value=1, max_value=1 << 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_pieces_stay_inside_the_region(self, offset, nbytes, region):
        pieces = _wrap(offset, nbytes, region)
        for cursor, size in pieces:
            assert 0 <= cursor < region
            assert cursor + size <= region

    @given(
        offset=st.integers(min_value=0, max_value=1 << 24),
        nbytes=st.integers(min_value=1, max_value=1 << 20),
        region=st.integers(min_value=1, max_value=1 << 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_first_piece_starts_at_wrapped_offset_then_zero(self, offset, nbytes, region):
        pieces = _wrap(offset, nbytes, region)
        assert pieces[0][0] == offset % region
        # Every subsequent piece restarts at the region origin (the wrap).
        assert all(cursor == 0 for cursor, _size in pieces[1:])
        # Only the first and last pieces may be partial; middle pieces span
        # the whole region.
        assert all(size == region for _cursor, size in pieces[1:-1])

    @given(
        offset=st.integers(min_value=0, max_value=1 << 16),
        nbytes=st.integers(max_value=0, min_value=-(1 << 10)),
        region=st.integers(min_value=1, max_value=1 << 16),
    )
    @settings(max_examples=50, deadline=None)
    def test_empty_window_yields_no_pieces(self, offset, nbytes, region):
        assert _wrap(offset, nbytes, region) == []

    def test_degenerate_region_yields_no_pieces(self):
        assert _wrap(5, 10, 0) == []
        assert _wrap(5, 10, -1) == []

    @given(
        buffer=_buffers(),
        base_frac=st.floats(min_value=0.0, max_value=1.0),
        region_frac=st.floats(min_value=0.0, max_value=1.0),
        offset=st.integers(min_value=0, max_value=1 << 16),
        nbytes=st.integers(min_value=1, max_value=1 << 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_piece_segments_equal_buffer_slice(
        self, buffer, base_frac, region_frac, offset, nbytes
    ):
        # One- and multi-segment buffers alike: each piece's segments are
        # exactly what Buffer.slice resolves for that piece.
        base = int(base_frac * (buffer.size - 1))
        region = max(int(region_frac * (buffer.size - base)), 1)
        pieces = _stream_pieces(buffer, base, region)(offset, nbytes)
        cursor = offset % region
        for segments in pieces:
            size = min(region - cursor, nbytes)
            assert list(segments) == buffer.slice(base + cursor, size)
            nbytes -= size
            cursor = 0
        assert nbytes == 0
