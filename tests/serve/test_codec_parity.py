"""Batch-kernel parity: chunked codecs == offline whole-stream transforms.

Every streaming codec encodes a chunk as NumPy batch kernels (the invert
codes through :func:`_invert_state_walk`).  The ground truth is the
offline per-word (scalar) transform of :mod:`repro.coding` applied to
the whole stream: for the invert codes
:func:`~repro.coding.businvert.bus_invert_encode` /
:func:`~repro.coding.businvert.coupling_invert_encode` with the flag
packed in band as bit ``width``.  This suite proves the codecs
bit-identical to it on hypothesis-random words, widths and chunk splits —
including the carried decision state across chunks, ``reset()``, and the
wide-bus fallbacks (SWAR popcount past the bus-invert table, vectorized
coupling costs past the coupling table).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.coding.businvert import bus_invert_encode, coupling_invert_encode
from repro.coding.correlator import correlate_words
from repro.coding.gray import gray_encode_words
from repro.serve.codecs import (
    _MAX_COST_TABLE_LINES,
    _MAX_POPCOUNT_TABLE_BITS,
    BusInvertCodec,
    CorrelatorCodec,
    CouplingInvertCodec,
    GrayCodec,
)


def in_band(encode, words, width):
    """Offline invert transform of a whole stream, flag packed as bit ``width``."""
    coded, flags = encode(words, width)
    return coded.astype(np.int64) | (flags.astype(np.int64) << width)


def encode_chunked(codec, words, cuts):
    """Encode one stream through a codec at the given chunk cut points."""
    edges = [0] + sorted(set(cuts)) + [len(words)]
    pieces = [
        codec.encode(words[a:b]) for a, b in zip(edges[:-1], edges[1:])
    ]
    pieces = [p for p in pieces if len(p)]
    if not pieces:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(pieces)


def word_stream(width, min_size=0, max_size=120):
    return st.lists(
        st.integers(0, (1 << width) - 1),
        min_size=min_size, max_size=max_size,
    ).map(lambda ws: np.asarray(ws, dtype=np.int64))


def cut_points(max_cuts=5):
    return st.lists(st.integers(0, 120), max_size=max_cuts)


def assert_state_carries_then_reset_forgets(codec, encode, first, second):
    """Chunk two continues chunk one's stream; after reset() it starts anew."""
    width = codec.width_in
    codec.encode(first)
    whole = in_band(encode, np.concatenate([first, second]), width)
    np.testing.assert_array_equal(codec.encode(second), whole[len(first):])
    codec.reset()
    np.testing.assert_array_equal(
        codec.encode(second), in_band(encode, second, width)
    )


class TestBusInvertParity:
    @settings(max_examples=120, deadline=None)
    @given(
        width=st.integers(1, 16),
        words=st.data(),
        cuts=cut_points(),
    )
    def test_batch_matches_scalar_under_any_split(self, width, words, cuts):
        stream = words.draw(word_stream(width))
        codec = BusInvertCodec(width)
        want = in_band(bus_invert_encode, stream, width)
        np.testing.assert_array_equal(
            encode_chunked(codec, stream, cuts), want
        )
        if len(stream):
            assert codec._enc_prev == int(want[-1]) & ((1 << width) - 1)
            assert codec._enc_flag == bool(want[-1] >> width)

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(1, 12), words=st.data())
    def test_state_carries_then_reset_forgets(self, width, words):
        first = words.draw(word_stream(width, min_size=1))
        second = words.draw(word_stream(width, min_size=1))
        assert_state_carries_then_reset_forgets(
            BusInvertCodec(width), bus_invert_encode, first, second
        )

    def test_wide_bus_swar_fallback_matches_scalar(self):
        width = _MAX_POPCOUNT_TABLE_BITS + 4
        stream = np.random.default_rng(3).integers(
            0, 1 << width, 400, dtype=np.int64
        )
        codec = BusInvertCodec(width)
        assert codec._popcount is None
        np.testing.assert_array_equal(
            encode_chunked(codec, stream, [13, 250]),
            in_band(bus_invert_encode, stream, width),
        )

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(1, 12), words=st.data(), cuts=cut_points())
    def test_round_trip_and_flag_in_band(self, width, words, cuts):
        stream = words.draw(word_stream(width))
        codec = BusInvertCodec(width)
        coded = encode_chunked(codec, stream, cuts)
        np.testing.assert_array_equal(codec.decode(coded), stream)
        assert len(coded) == 0 or int(coded.max()) < 1 << (width + 1)


class TestCouplingInvertParity:
    @settings(max_examples=120, deadline=None)
    @given(
        width=st.integers(1, _MAX_COST_TABLE_LINES - 1),
        words=st.data(),
        cuts=cut_points(),
    )
    def test_batch_matches_scalar_under_any_split(self, width, words, cuts):
        stream = words.draw(word_stream(width))
        codec = CouplingInvertCodec(width)
        want = in_band(coupling_invert_encode, stream, width)
        np.testing.assert_array_equal(
            encode_chunked(codec, stream, cuts), want
        )
        if len(stream):
            assert codec._enc_prev == int(want[-1])

    @settings(max_examples=20, deadline=None)
    @given(words=st.data(), cuts=cut_points())
    def test_wide_bus_cost_kernel_matches_scalar(self, words, cuts):
        width = _MAX_COST_TABLE_LINES + 2
        stream = words.draw(word_stream(width, max_size=80))
        codec = CouplingInvertCodec(width)
        assert codec._table is None
        np.testing.assert_array_equal(
            encode_chunked(codec, stream, cuts),
            in_band(coupling_invert_encode, stream, width),
        )

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(1, 8), words=st.data())
    def test_state_carries_then_reset_forgets(self, width, words):
        first = words.draw(word_stream(width, min_size=1))
        second = words.draw(word_stream(width, min_size=1))
        assert_state_carries_then_reset_forgets(
            CouplingInvertCodec(width), coupling_invert_encode, first, second
        )

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(1, 8), words=st.data(), cuts=cut_points())
    def test_round_trip(self, width, words, cuts):
        stream = words.draw(word_stream(width))
        codec = CouplingInvertCodec(width)
        coded = encode_chunked(codec, stream, cuts)
        np.testing.assert_array_equal(codec.decode(coded), stream)


class TestStatelessKernelsAgainstOffline:
    """Gray/correlator kernels vs the offline whole-stream transforms."""

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(1, 20),
        negated=st.booleans(),
        words=st.data(),
        cuts=cut_points(),
    )
    def test_gray_chunked_matches_offline(self, width, negated, words, cuts):
        stream = words.draw(word_stream(width))
        codec = GrayCodec(width, negated=negated)
        np.testing.assert_array_equal(
            encode_chunked(codec, stream, cuts),
            gray_encode_words(stream, width, negated=negated),
        )
        coded = codec.encode(stream)
        np.testing.assert_array_equal(codec.decode(coded), stream)

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(1, 16),
        n_channels=st.integers(1, 5),
        negated=st.booleans(),
        words=st.data(),
        cuts=cut_points(),
    )
    def test_correlator_chunked_matches_offline(
        self, width, n_channels, negated, words, cuts
    ):
        stream = words.draw(word_stream(width))
        codec = CorrelatorCodec(width, n_channels=n_channels, negated=negated)
        np.testing.assert_array_equal(
            encode_chunked(codec, stream, cuts),
            correlate_words(
                stream, width, n_channels=n_channels, negated=negated
            ),
        )
        codec.reset()
        coded = encode_chunked(codec, stream, cuts)
        decoded = encode_chunked_decode(codec, coded, cuts)
        np.testing.assert_array_equal(decoded, stream)


def encode_chunked_decode(codec, words, cuts):
    """Decode one stream chunk by chunk at the given cut points."""
    edges = [0] + sorted(set(cuts)) + [len(words)]
    pieces = [
        codec.decode(words[a:b]) for a, b in zip(edges[:-1], edges[1:])
    ]
    pieces = [p for p in pieces if len(p)]
    if not pieces:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(pieces)
