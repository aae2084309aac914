"""The byte-level bit expansion, one-gather routing and single-block
energy account against the shift- and loop-based implementations they
replaced, kept here as oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.assignment import SignedPermutation
from repro.core.fastpower import CompiledPowerModel
from repro.datagen.util import words_to_bits
from repro.experiments.common import cap_model_for
from repro.serve.metrics import EnergyAccount
from repro.stats.switching import BitStatistics
from repro.tsv.geometry import TSVArrayGeometry

INT_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]


def shift_words_to_bits(words, width):
    """The shift-based expansion, evaluated in Python integers.

    Same checks and arithmetic as before the byte-level rewrite; the
    object dtype keeps ``words + (1 << width)`` from overflowing the
    input dtype, which the original raised on at widths 63 and 64.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    words = np.asarray(words)
    if words.ndim != 1:
        raise ValueError(f"word stream must be 1-D, got {words.ndim}-D")
    if not np.issubdtype(words.dtype, np.integer):
        raise ValueError(f"word stream must be integer, got {words.dtype}")
    words = words.astype(object)
    lo, hi = -(2 ** (width - 1)), 2**width
    if ((words < lo) | (words >= hi)).any():
        raise ValueError(f"words outside representable range for width {width}")
    unsigned = np.where(words < 0, words + (1 << width), words).astype(np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    return ((unsigned[:, None] >> shifts) & 1).astype(np.uint8)


def loop_apply_to_bits(assignment, bits):
    """The per-bit column loop of ``SignedPermutation.apply_to_bits``."""
    bits = np.asarray(bits)
    out = np.empty_like(bits)
    for bit, (line, inv) in enumerate(
        zip(assignment.line_of_bit, assignment.inverted)
    ):
        column = bits[:, bit]
        out[:, line] = (1 - column) if inv else column
    return out


def words_for(dtype, width, rng, n=64):
    """Words of ``dtype`` spanning the whole range that fits ``width``."""
    info = np.iinfo(dtype)
    lo = max(info.min, -(2 ** (width - 1)))
    hi = min(info.max, 2**width - 1)
    edges = [lo, hi, 0, min(hi, 1), max(lo, -1)]
    draws = [int(x) for x in rng.integers(lo, hi, n, endpoint=True,
                                          dtype=dtype)]
    return np.array(edges + draws, dtype=dtype)


class TestWordsToBitsParity:
    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_every_width(self, dtype):
        rng = np.random.default_rng(np.dtype(dtype).num)
        for width in range(1, 65):
            words = words_for(dtype, width, rng)
            new = words_to_bits(words, width)
            assert new.dtype == np.uint8
            assert new.shape == (len(words), width)
            np.testing.assert_array_equal(
                new, shift_words_to_bits(words, width), err_msg=str(width)
            )

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_non_contiguous_views(self, dtype):
        rng = np.random.default_rng(3)
        base = words_for(dtype, 8, rng, n=200)
        for view in (base[::3], base[::-1], base.reshape(-1, 5)[:, 2]):
            assert not view.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(
                words_to_bits(view, 8), shift_words_to_bits(view, 8)
            )

    def test_big_endian_input(self):
        words = np.array([1, -2, 300], dtype=">i4")
        np.testing.assert_array_equal(
            words_to_bits(words, 16), shift_words_to_bits(words, 16)
        )

    @pytest.mark.parametrize("bad", [
        (np.array([8]), 3),
        (np.array([-5]), 3),
        (np.array([1.5]), 3),
        (np.zeros((2, 2), dtype=int), 3),
        (np.array([0]), 0),
        (np.array([np.iinfo(np.uint64).max], dtype=np.uint64), 63),
    ])
    def test_rejects_what_the_oracle_rejects(self, bad):
        words, width = bad
        with pytest.raises(ValueError):
            shift_words_to_bits(words, width)
        with pytest.raises(ValueError):
            words_to_bits(words, width)

    def test_empty_stream(self):
        out = words_to_bits(np.array([], dtype=np.int64), 5)
        assert out.shape == (0, 5) and out.dtype == np.uint8


class TestWordsToBitsFullWidth:
    """Widths 63 and 64 used to overflow ``1 << width`` in the word dtype."""

    @pytest.mark.parametrize("width", [63, 64])
    def test_int64(self, width):
        words = np.array(
            [-(2 ** (width - 1)), -1, 0, 1, np.iinfo(np.int64).max],
            dtype=np.int64,
        )
        bits = words_to_bits(words, width)
        expected = [
            [(int(w) % 2**width) >> k & 1 for k in range(width)]
            for w in words
        ]
        np.testing.assert_array_equal(bits, expected)
        assert bits[1].all() and not bits[2].any()

    @pytest.mark.parametrize("width", [63, 64])
    def test_uint64(self, width):
        top = 2**width - 1
        words = np.array([0, 1, 2 ** (width - 1), top], dtype=np.uint64)
        bits = words_to_bits(words, width)
        expected = [[int(w) >> k & 1 for k in range(width)] for w in words]
        np.testing.assert_array_equal(bits, expected)
        assert bits[3].all()

    def test_uint64_above_width_63_is_rejected(self):
        with pytest.raises(ValueError):
            words_to_bits(np.array([2**63], dtype=np.uint64), 63)

    def test_wider_than_a_word_sign_extends(self):
        bits = words_to_bits(np.array([-1, 5], dtype=np.int64), 70)
        assert bits[0].all()
        np.testing.assert_array_equal(
            bits[1], [1, 0, 1] + [0] * 67
        )


class TestApplyToBitsParity:
    @pytest.mark.parametrize(
        "dtype", INT_DTYPES + [np.float32, np.float64, bool]
    )
    def test_dtype_preserved_and_values_equal(self, dtype):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, (300, 12)).astype(dtype)
        for _ in range(5):
            assignment = SignedPermutation.random(12, rng)
            routed = assignment.apply_to_bits(bits)
            assert routed.dtype == bits.dtype
            np.testing.assert_array_equal(
                routed, loop_apply_to_bits(assignment, bits)
            )

    def test_non_contiguous_and_fortran_input(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, (400, 16)).astype(np.uint8)
        assignment = SignedPermutation.random(8, rng)
        for view in (bits[::2, ::2], bits[::-1, 8:], np.asfortranarray(
                bits[:, :8])):
            np.testing.assert_array_equal(
                assignment.apply_to_bits(view),
                loop_apply_to_bits(assignment, view),
            )

    def test_identity_and_all_inverted(self):
        bits = np.random.default_rng(7).integers(0, 2, (50, 9))
        identity = SignedPermutation.identity(9)
        np.testing.assert_array_equal(identity.apply_to_bits(bits), bits)
        flipped = SignedPermutation.from_sequence(range(9), [True] * 9)
        np.testing.assert_array_equal(flipped.apply_to_bits(bits), 1 - bits)

    def test_empty_stream(self):
        assignment = SignedPermutation.random(4, np.random.default_rng(8))
        routed = assignment.apply_to_bits(np.zeros((0, 4), dtype=np.uint8))
        assert routed.shape == (0, 4) and routed.dtype == np.uint8


GEOMETRY = TSVArrayGeometry(rows=2, cols=3, pitch=4.0e-6, radius=1.0e-6)


def assert_matches_offline(account, stream):
    offline = BitStatistics.from_stream(np.asarray(stream, dtype=np.uint8))
    online = account.statistics()
    np.testing.assert_array_equal(online.coupling, offline.coupling)
    np.testing.assert_array_equal(online.probabilities, offline.probabilities)
    assert online.n_samples == offline.n_samples
    assert account.normalized_power() == CompiledPowerModel(
        offline, cap_model_for(GEOMETRY)
    ).power()


class TestEnergyAccountBatches:
    def test_one_row_batches(self):
        bits = np.random.default_rng(9).integers(0, 2, (120, 6))
        account = EnergyAccount(6, cap_model_for(GEOMETRY))
        for row in bits:
            account.update(row[None, :])
        assert_matches_offline(account, bits)

    def test_strided_batches(self):
        base = np.random.default_rng(10).integers(0, 2, (600, 12)).astype(
            np.uint8
        )
        views = [base[::2, ::2], base[::-3, 1::2], np.asfortranarray(
            base[:200, :6])]
        for view in views:
            account = EnergyAccount(6, cap_model_for(GEOMETRY))
            for lo in range(0, len(view), 37):
                account.update(view[lo:lo + 37])
            assert_matches_offline(account, view)

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([np.uint8, np.int64, np.float32, bool]),
        st.lists(st.integers(0, 200), max_size=6),
    )
    def test_input_dtype_does_not_matter(self, dtype, cuts):
        bits = np.random.default_rng(11).integers(0, 2, (200, 6))
        account = EnergyAccount(6, cap_model_for(GEOMETRY))
        edges = [0] + sorted(set(cuts)) + [len(bits)]
        for a, b in zip(edges[:-1], edges[1:]):
            account.update(bits[a:b].astype(dtype))
        assert_matches_offline(account, bits)
        assert account.state_dict()["last"] == [int(x) for x in bits[-1]]
