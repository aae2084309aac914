"""Stateful streaming codecs over the offline :mod:`repro.coding` transforms.

The offline functions transform a complete word stream at once; a serving
link sees the same stream in arbitrary request-sized chunks. Each codec
here carries exactly the history its scheme needs across chunk boundaries
(the correlator's previous same-channel words, the invert codes' last
transmitted bus state) so that

* **chunk invariance** holds: encoding a stream chunk by chunk, under any
  split, is bit-identical to the offline transform of the whole stream;
* **exact inversion** holds: ``decode(encode(x)) == x`` for every codec
  and every chain of codecs, with the decode side keeping its own
  independent history (one codec instance can serve both directions of
  the same link).

Invert-code flags travel *in band*: the flag occupies bit ``width`` of
the coded word (the MSB-adjacent line, matching
:func:`repro.coding.businvert.coded_bit_stream`), so every codec is a
plain ``words -> words`` map and codecs compose into a
:class:`CodecChain`.

Codecs are built from JSON-able *specs* (``{"kind": "gray",
"negated": true}``); :func:`parse_codec_spec` additionally accepts the
CLI shorthand ``"correlator:channels=4,negated"``.

Every codec encodes a chunk as NumPy batch kernels — no per-word Python
loop. The gray/correlator transforms are array ops outright; the invert
codes' sequential decisions collapse to :func:`_invert_state_walk`, a
prefix scan over the one-bit decision state. The parity suite proves
every kernel bit-identical to the offline per-word transform of the whole
stream under random chunk splits.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.coding.businvert import _popcount, coupling_transition_costs
from repro.coding.gray import gray_decode_words, gray_encode_words
from repro.datagen.util import MAX_WORD_WIDTH, check_unsigned_words, words_to_bits
from repro.tsv.geometry import TSVArrayGeometry

#: Widest bus for which the coupling-invert codec precomputes its
#: transition-cost table (``(2^(w+1))^2`` int8 entries; 10 lines = 1 MiB).
_MAX_COST_TABLE_LINES = 10

#: Widest bus for which the bus-invert codec precomputes its popcount
#: table (``2^w`` int64 entries; 20 bits = 8 MiB).
_MAX_POPCOUNT_TABLE_BITS = 20


def _state_int(
    state: Mapping[str, object], key: str, lo: int, hi: int
) -> int:
    """One validated integer field of a codec state snapshot."""
    try:
        value = state[key]
    except KeyError:
        raise ValueError(f"codec state is missing field {key!r}") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"codec state field {key!r} must be an int, got {value!r}"
        )
    if not lo <= value <= hi:
        raise ValueError(
            f"codec state field {key!r} must be in {lo}..{hi}, got {value}"
        )
    return int(value)


def _state_bool(state: Mapping[str, object], key: str) -> bool:
    """One validated boolean field of a codec state snapshot."""
    try:
        value = state[key]
    except KeyError:
        raise ValueError(f"codec state is missing field {key!r}") from None
    if not isinstance(value, bool):
        raise ValueError(
            f"codec state field {key!r} must be a bool, got {value!r}"
        )
    return value


def _state_int_list(
    state: Mapping[str, object], key: str, length: int, lo: int, hi: int
) -> np.ndarray:
    """One validated per-channel integer list of a codec state snapshot."""
    try:
        value = state[key]
    except KeyError:
        raise ValueError(f"codec state is missing field {key!r}") from None
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ValueError(f"codec state field {key!r} must be a list")
    if len(value) != length:
        raise ValueError(
            f"codec state field {key!r} must have {length} entries, "
            f"got {len(value)}"
        )
    out = np.empty(length, dtype=np.int64)
    for index, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, int):
            raise ValueError(
                f"codec state field {key!r}[{index}] must be an int, "
                f"got {item!r}"
            )
        if not lo <= item <= hi:
            raise ValueError(
                f"codec state field {key!r}[{index}] must be in "
                f"{lo}..{hi}, got {item}"
            )
        out[index] = item
    return out


def _state_bool_list(
    state: Mapping[str, object], key: str, length: int
) -> np.ndarray:
    """One validated per-channel boolean list of a codec state snapshot."""
    try:
        value = state[key]
    except KeyError:
        raise ValueError(f"codec state is missing field {key!r}") from None
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ValueError(f"codec state field {key!r} must be a list")
    if len(value) != length:
        raise ValueError(
            f"codec state field {key!r} must have {length} entries, "
            f"got {len(value)}"
        )
    out = np.empty(length, dtype=bool)
    for index, item in enumerate(value):
        if not isinstance(item, bool):
            raise ValueError(
                f"codec state field {key!r}[{index}] must be a bool, "
                f"got {item!r}"
            )
        out[index] = item
    return out


def _invert_state_walk(
    if_plain: np.ndarray, if_inverted: np.ndarray, carry: bool
) -> np.ndarray:
    """Resolve a chain of sequential invert decisions in O(T) array ops.

    The invert codes decide per word whether to transmit the complement,
    and each decision conditions on the *previous* decision (through the
    previously transmitted bus state). That recurrence looks inherently
    serial, but the state is a single bit, so word ``t`` is fully
    described by two precomputable booleans: ``if_plain[t]`` /
    ``if_inverted[t]``, its decision assuming word ``t - 1`` went out
    plain / inverted (position 0 conditions on ``carry``, the flag that
    crossed the chunk boundary). Each position is then one of four
    transfer functions of the previous flag — constant 0, constant 1,
    hold, or toggle — and composing transfer functions collapses to a
    prefix scan: an XOR-parity accumulate over the toggles, re-anchored
    at each position's most recent *constant* (found with a running
    ``np.int64`` maximum over constant positions).
    """
    toggle = if_plain & ~if_inverted
    parity = np.bitwise_xor.accumulate(toggle)
    constant = if_plain == if_inverted
    positions = np.where(
        constant, np.arange(len(if_plain), dtype=np.int64), np.int64(-1)
    )
    anchor = np.maximum.accumulate(positions)
    anchored = anchor >= 0
    idx = np.maximum(anchor, 0)
    base = np.where(anchored, if_plain[idx], np.bool_(carry))
    base_parity = np.where(anchored, parity[idx], np.bool_(False))
    return base ^ parity ^ base_parity


class StreamCodec:
    """One stage of a streaming codec chain.

    Concrete codecs define :attr:`width_in`/:attr:`width_out` (payload and
    coded word widths) and implement chunk-wise :meth:`encode` /
    :meth:`decode`. Encode-side and decode-side history are independent.
    """

    #: Spec ``kind`` of this codec (registry key).
    kind: str = ""

    def __init__(self, width_in: int, width_out: int) -> None:
        self.width_in = int(width_in)
        self.width_out = int(width_out)

    def encode(self, words: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decode(self, words: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop both directions' histories (start of a new stream)."""

    def spec(self) -> Dict[str, object]:
        """The JSON-able spec reconstructing this codec."""
        return {"kind": self.kind}

    # -- state round-trip ---------------------------------------------------
    #
    # Failover (see ``repro.serve.fleet``) moves a link between worker
    # processes by snapshotting *exactly* the history each codec carries
    # across chunk boundaries.  ``state_dict`` must therefore return a
    # JSON-able dict of plain ints/bools (JSON round-trips those exactly)
    # and ``load_state_dict`` must rebuild a codec whose next chunk is
    # bit-identical to the next chunk of the snapshotted one.

    def state_dict(self) -> Dict[str, object]:
        """JSON-able snapshot of the codec's streaming history.

        Stateless codecs return ``{}``; every entry of a stateful codec's
        dict is an int or bool so the snapshot survives JSON and the
        checkpoint store without any loss.
        """
        return {}

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot; exact inverse of it.

        Raises :class:`ValueError` when the snapshot does not fit this
        codec (wrong fields, wrong channel count, out-of-range words).
        """
        if not isinstance(state, Mapping):
            raise ValueError(
                f"codec state must be a mapping, got {type(state).__name__}"
            )
        if state:
            raise ValueError(
                f"{self.kind} codec carries no state, got fields "
                f"{sorted(state)}"
            )


class GrayCodec(StreamCodec):
    """Binary <-> Gray conversion; stateless (``y = x ^ (x >> 1)``).

    ``negated=True`` is the paper's Sec. 6 XNOR variant.
    """

    kind = "gray"

    def __init__(self, width: int, negated: bool = False) -> None:
        super().__init__(width, width)
        self.negated = bool(negated)

    def encode(self, words: np.ndarray) -> np.ndarray:
        return gray_encode_words(words, self.width_in, negated=self.negated)

    def decode(self, words: np.ndarray) -> np.ndarray:
        return gray_decode_words(words, self.width_out, negated=self.negated)

    def spec(self) -> Dict[str, object]:
        return {"kind": self.kind, "negated": self.negated}


class CorrelatorCodec(StreamCodec):
    """Temporal XOR (de)correlator with per-channel history (paper Sec. 7).

    Each word is XORed with the previous word of the same mux channel;
    the overall first word of each channel passes through unchanged (and,
    with ``negated=True``, un-negated — matching
    :func:`repro.coding.correlator.correlate_words` on the whole stream).
    """

    kind = "correlator"

    def __init__(
        self, width: int, n_channels: int = 1, negated: bool = False
    ) -> None:
        if n_channels < 1:
            raise ValueError(f"n_channels must be >= 1, got {n_channels}")
        super().__init__(width, width)
        self.n_channels = int(n_channels)
        self.negated = bool(negated)
        self.reset()

    def reset(self) -> None:
        nc = self.n_channels
        self._enc_prev = np.zeros(nc, dtype=np.int64)
        self._enc_primed = np.zeros(nc, dtype=bool)
        self._enc_phase = 0
        self._dec_prev = np.zeros(nc, dtype=np.int64)
        self._dec_primed = np.zeros(nc, dtype=bool)
        self._dec_phase = 0

    def encode(self, words: np.ndarray) -> np.ndarray:
        words = check_unsigned_words(words, self.width_in)
        length = len(words)
        if length == 0:
            return words
        nc = self.n_channels
        mask = (1 << self.width_in) - 1
        # Chunk position i (< nc) belongs to channel (phase + i) % nc; the
        # first nc positions pull their predecessor from the carried
        # per-channel history, everything after from the chunk itself.
        head = min(nc, length)
        head_channels = (self._enc_phase + np.arange(head)) % nc
        primed = self._enc_primed[head_channels]
        prev = np.empty(length, dtype=np.int64)
        prev[:head] = np.where(primed, self._enc_prev[head_channels], 0)
        if length > nc:
            prev[nc:] = words[:-nc]
        out = words ^ prev
        if self.negated:
            out ^= mask
            # The overall first word of each channel passes un-negated.
            out[np.flatnonzero(~primed)] ^= mask
        # The last occurrence of each channel in the chunk sits in the
        # final min(nc, length) positions, one position per channel; those
        # words become the carried history.
        last = length - 1 - np.arange(head)
        last_channels = (self._enc_phase + last) % nc
        self._enc_prev[last_channels] = words[last]
        self._enc_primed[last_channels] = True
        self._enc_phase = (self._enc_phase + length) % nc
        return out

    def decode(self, coded: np.ndarray) -> np.ndarray:
        coded = check_unsigned_words(coded, self.width_out)
        length = len(coded)
        if length == 0:
            return coded
        nc = self.n_channels
        mask = (1 << self.width_out) - 1
        head = min(nc, length)
        head_channels = (self._dec_phase + np.arange(head)) % nc
        primed = self._dec_primed[head_channels]
        if self.negated:
            values = coded ^ mask
            # The overall first word of each channel arrived un-negated.
            values[np.flatnonzero(~primed)] ^= mask
        else:
            values = coded
        # Decoding is a per-channel running XOR of the (un-negated) coded
        # words: ``x[t] = y'[t] ^ x[t - nc]`` telescopes to an XOR prefix
        # scan with the stored channel history as carry-in. Laid out as a
        # zero-padded (rounds, nc) grid — column j is channel
        # (phase + j) % nc — all channels scan in one accumulate, with the
        # histories as row 0.
        rounds = -(-length // nc)
        grid = np.zeros((rounds + 1, nc), dtype=np.int64)
        grid[0, :head] = np.where(primed, self._dec_prev[head_channels], 0)
        grid[1:].reshape(-1)[:length] = values
        out = np.bitwise_xor.accumulate(grid, axis=0)[1:].reshape(-1)[:length]
        last = length - 1 - np.arange(head)
        last_channels = (self._dec_phase + last) % nc
        self._dec_prev[last_channels] = out[last]
        self._dec_primed[last_channels] = True
        self._dec_phase = (self._dec_phase + length) % nc
        return out

    def spec(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "n_channels": self.n_channels,
            "negated": self.negated,
        }

    def state_dict(self) -> Dict[str, object]:
        return {
            "enc_prev": [int(x) for x in self._enc_prev],
            "enc_primed": [bool(x) for x in self._enc_primed],
            "enc_phase": int(self._enc_phase),
            "dec_prev": [int(x) for x in self._dec_prev],
            "dec_primed": [bool(x) for x in self._dec_primed],
            "dec_phase": int(self._dec_phase),
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        if not isinstance(state, Mapping):
            raise ValueError(
                f"codec state must be a mapping, got {type(state).__name__}"
            )
        nc = self.n_channels
        top = (1 << self.width_in) - 1
        enc_prev = _state_int_list(state, "enc_prev", nc, 0, top)
        enc_primed = _state_bool_list(state, "enc_primed", nc)
        enc_phase = _state_int(state, "enc_phase", 0, nc - 1)
        dec_prev = _state_int_list(state, "dec_prev", nc, 0, top)
        dec_primed = _state_bool_list(state, "dec_primed", nc)
        dec_phase = _state_int(state, "dec_phase", 0, nc - 1)
        self._enc_prev = enc_prev
        self._enc_primed = enc_primed
        self._enc_phase = enc_phase
        self._dec_prev = dec_prev
        self._dec_primed = dec_primed
        self._dec_phase = dec_phase


class BusInvertCodec(StreamCodec):
    """Classic bus-invert with the flag in band on line ``width``.

    The per-word decision — invert when ``2 * distance > width``, the
    integer tie-exact form of "Hamming distance to the previously
    *transmitted* word exceeds ``width / 2``" — conditions on the
    previous decision, but only through one bit (whether word ``t - 1``
    went out inverted), so a chunk encodes as a batch kernel: the raw
    word-to-word distances price both branches of every decision at once
    (popcount table for buses up to ``_MAX_POPCOUNT_TABLE_BITS`` bits,
    SWAR popcount beyond) and :func:`_invert_state_walk` resolves the
    decision chain without a Python loop.
    """

    kind = "businvert"

    def __init__(self, width: int) -> None:
        if width >= MAX_WORD_WIDTH:
            raise ValueError(
                f"bus-invert adds a flag line; width must be < "
                f"{MAX_WORD_WIDTH}, got {width}"
            )
        super().__init__(width, width + 1)
        self._popcount: Optional[np.ndarray] = None
        if width <= _MAX_POPCOUNT_TABLE_BITS:
            self._popcount = np.asarray(
                _popcount(np.arange(1 << width, dtype=np.int64)),
                dtype=np.int64,
            )
        self.reset()

    def reset(self) -> None:
        self._enc_prev = 0  # previously transmitted data word
        self._enc_flag = False  # whether it was the complement

    def encode(self, words: np.ndarray) -> np.ndarray:
        words = check_unsigned_words(words, self.width_in)
        if len(words) == 0:
            return words
        width = self.width_in
        mask = (1 << width) - 1
        flag_bit = 1 << width
        # Distances between consecutive *raw* words; position 0 uses the
        # carried word with its inversion undone. The distance to the
        # actually transmitted predecessor is then ``d`` or ``width - d``
        # depending on the previous flag — which is exactly the two-branch
        # input of the state walk.
        prev_raw = np.empty(len(words), dtype=np.int64)
        prev_raw[0] = self._enc_prev ^ (mask if self._enc_flag else 0)
        prev_raw[1:] = words[:-1]
        diff = prev_raw ^ words
        if self._popcount is not None:
            doubled = 2 * self._popcount[diff]
        else:
            doubled = 2 * _popcount(diff)
        invert = _invert_state_walk(
            doubled > width, doubled < width, self._enc_flag
        )
        out = np.where(invert, (words ^ mask) | flag_bit, words)
        self._enc_prev = int(out[-1]) & mask
        self._enc_flag = bool(invert[-1])
        return out

    def decode(self, coded: np.ndarray) -> np.ndarray:
        coded = check_unsigned_words(coded, self.width_out)
        width = self.width_in
        mask = (1 << width) - 1
        flags = coded >> width
        return (coded & mask) ^ (flags * mask)

    def spec(self) -> Dict[str, object]:
        return {"kind": self.kind}

    def state_dict(self) -> Dict[str, object]:
        return {
            "enc_prev": int(self._enc_prev),
            "enc_flag": bool(self._enc_flag),
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        if not isinstance(state, Mapping):
            raise ValueError(
                f"codec state must be a mapping, got {type(state).__name__}"
            )
        top = (1 << self.width_in) - 1
        enc_prev = _state_int(state, "enc_prev", 0, top)
        enc_flag = _state_bool(state, "enc_flag")
        self._enc_prev = enc_prev
        self._enc_flag = enc_flag


def _coupling_cost_table(n_lines: int) -> np.ndarray:
    """All-pairs planar coupling costs for an ``n_lines``-bit bus state.

    ``table[prev, cur]`` equals
    :func:`repro.coding.businvert.coupling_transition_cost` — adjacent
    wires toggling in opposite directions cost 2, a lone toggle next to a
    quiet wire costs 1, everything else is free.
    """
    size = 1 << n_lines
    prev_bits = words_to_bits(np.arange(size), n_lines)
    delta = (
        prev_bits[None, :, :].astype(np.int8)
        - prev_bits[:, None, :].astype(np.int8)
    )
    da, db = delta[:, :, :-1], delta[:, :, 1:]
    opposite = (da.astype(np.int16) * db.astype(np.int16)) == -1
    lone = (da != 0) ^ (db != 0)
    return (2 * opposite + lone).sum(axis=2, dtype=np.int64)


class CouplingInvertCodec(StreamCodec):
    """Coupling-driven invert (the paper's NoC code, ref [24]), flag in band.

    Minimizes the planar crosstalk cost of each bus transition, counting
    the flag wire adjacent to the MSB exactly as
    :func:`repro.coding.businvert.coupling_invert_encode` does. Encoding
    runs as a batch kernel over the one-bit decision chain (see
    :func:`_invert_state_walk`): for buses up to ``_MAX_COST_TABLE_LINES``
    lines the costs come from a precomputed table, wider buses use the
    vectorized :func:`~repro.coding.businvert.coupling_transition_costs`
    bit tricks.
    """

    kind = "couplinginvert"

    def __init__(self, width: int) -> None:
        if width >= MAX_WORD_WIDTH:
            raise ValueError(
                f"coupling-invert adds a flag line; width must be < "
                f"{MAX_WORD_WIDTH}, got {width}"
            )
        super().__init__(width, width + 1)
        self._table: Optional[np.ndarray] = None
        if width + 1 <= _MAX_COST_TABLE_LINES:
            self._table = _coupling_cost_table(width + 1)
        self.reset()

    def reset(self) -> None:
        self._enc_prev = 0  # bus state including the flag as bit `width`

    def encode(self, words: np.ndarray) -> np.ndarray:
        words = check_unsigned_words(words, self.width_in)
        if len(words) == 0:
            return words
        width = self.width_in
        mask = (1 << width) - 1
        flag_bit = 1 << width
        # Word t's predecessor on the bus is one of two known states —
        # word t-1 plain, or complemented with the flag raised — so both
        # branches of every cost comparison price in batch (four table
        # gathers, or four vectorized cost passes on wide buses) and the
        # one-bit decision chain resolves with the state walk. Position 0
        # compares against the carried bus state on both branches, making
        # it a constant of the walk.
        plain = words
        inverted = (words ^ mask) | flag_bit
        prev_plain = np.empty(len(words), dtype=np.int64)
        prev_inverted = np.empty(len(words), dtype=np.int64)
        prev_plain[0] = prev_inverted[0] = self._enc_prev
        prev_plain[1:] = plain[:-1]
        prev_inverted[1:] = inverted[:-1]
        table = self._table
        if table is not None:
            if_plain = table[prev_plain, inverted] < table[prev_plain, plain]
            if_inverted = (
                table[prev_inverted, inverted] < table[prev_inverted, plain]
            )
        else:
            lines = width + 1
            if_plain = (
                coupling_transition_costs(prev_plain, inverted, lines)
                < coupling_transition_costs(prev_plain, plain, lines)
            )
            if_inverted = (
                coupling_transition_costs(prev_inverted, inverted, lines)
                < coupling_transition_costs(prev_inverted, plain, lines)
            )
        invert = _invert_state_walk(if_plain, if_inverted, False)
        out = np.where(invert, inverted, plain)
        self._enc_prev = int(out[-1])
        return out

    def decode(self, coded: np.ndarray) -> np.ndarray:
        coded = check_unsigned_words(coded, self.width_out)
        width = self.width_in
        mask = (1 << width) - 1
        flags = coded >> width
        return (coded & mask) ^ (flags * mask)

    def spec(self) -> Dict[str, object]:
        return {"kind": self.kind}

    def state_dict(self) -> Dict[str, object]:
        return {"enc_prev": int(self._enc_prev)}

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        if not isinstance(state, Mapping):
            raise ValueError(
                f"codec state must be a mapping, got {type(state).__name__}"
            )
        # The carried bus state includes the in-band flag as bit `width`.
        self._enc_prev = _state_int(
            state, "enc_prev", 0, (1 << self.width_out) - 1
        )


class CacCodec(StreamCodec):
    """Crosstalk-avoidance codebook lookup for one TSV array geometry.

    Builds (and caches per geometry) the greedy LAT codebook of
    :func:`repro.coding.cac.build_lat_codebook`; payloads map to codeword
    integers over all ``n_tsvs`` lines. Stateless; decode of a
    non-codeword raises :class:`ValueError`.
    """

    kind = "cac"

    _codebook_cache: Dict[tuple, object] = {}
    _cache_lock = threading.Lock()

    def __init__(
        self, geometry: TSVArrayGeometry, include_diagonal: bool = False
    ) -> None:
        from repro.coding.cac import build_lat_codebook

        key = (geometry.cache_key(), bool(include_diagonal))
        with self._cache_lock:
            codebook = self._codebook_cache.get(key)
        if codebook is None:
            # Build outside the lock: LAT construction is seconds-slow for
            # big arrays and must not serialize unrelated links. Losing a
            # duplicate-build race is fine; setdefault keeps one winner.
            built = build_lat_codebook(
                geometry, include_diagonal=include_diagonal
            )
            with self._cache_lock:
                codebook = self._codebook_cache.setdefault(key, built)
        if codebook.payload_bits < 1:
            raise ValueError("codebook carries no payload bits")
        super().__init__(codebook.payload_bits, codebook.n_lines)
        self.codebook = codebook
        self.include_diagonal = bool(include_diagonal)
        self._table = np.asarray(codebook.codewords, dtype=np.int64)
        self._inverse = np.full(1 << codebook.n_lines, -1, dtype=np.int64)
        self._inverse[self._table] = np.arange(
            len(codebook.codewords), dtype=np.int64
        )

    def encode(self, words: np.ndarray) -> np.ndarray:
        words = check_unsigned_words(words, self.width_in)
        return self._table[words]

    def decode(self, coded: np.ndarray) -> np.ndarray:
        coded = check_unsigned_words(coded, self.width_out)
        payload = self._inverse[coded]
        if (payload < 0).any():
            bad = coded[payload < 0][0]
            raise ValueError(f"not a codeword: {int(bad)}")
        # Table order assigns payloads beyond 2**payload_bits to the
        # greedy surplus codewords; transport never emits them.
        return payload

    def spec(self) -> Dict[str, object]:
        return {"kind": self.kind, "include_diagonal": self.include_diagonal}


#: Codec registry: spec ``kind`` -> constructor wrapper.
CODEC_KINDS = ("gray", "correlator", "businvert", "couplinginvert", "cac")


def build_codec(
    spec: Mapping[str, object],
    width_in: int,
    geometry: Optional[TSVArrayGeometry] = None,
) -> StreamCodec:
    """Build one codec from its JSON-able spec at a given input width."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"codec spec must be a mapping, got {type(spec)}")
    fields = dict(spec)
    kind = fields.pop("kind", None)
    if kind == "gray":
        codec: StreamCodec = GrayCodec(
            width_in, negated=bool(fields.pop("negated", False))
        )
    elif kind == "correlator":
        codec = CorrelatorCodec(
            width_in,
            n_channels=int(fields.pop("n_channels", 1)),
            negated=bool(fields.pop("negated", False)),
        )
    elif kind == "businvert":
        codec = BusInvertCodec(width_in)
    elif kind == "couplinginvert":
        codec = CouplingInvertCodec(width_in)
    elif kind == "cac":
        if geometry is None:
            raise ValueError("cac codec needs the link geometry")
        codec = CacCodec(
            geometry,
            include_diagonal=bool(fields.pop("include_diagonal", False)),
        )
        if codec.width_in != width_in:
            raise ValueError(
                f"cac codebook on this geometry carries {codec.width_in} "
                f"payload bits, but the chain arrives with {width_in}"
            )
    else:
        raise ValueError(
            f"unknown codec kind {kind!r}; known: {CODEC_KINDS}"
        )
    if fields:
        raise ValueError(
            f"unknown {kind} codec options: {sorted(fields)}"
        )
    return codec


class CodecChain:
    """An ordered stack of streaming codecs applied payload -> line side.

    ``encode`` folds the chunk through every codec in order; ``decode``
    unwinds in reverse. Chunk invariance and exact inversion compose.
    """

    def __init__(self, codecs: Sequence[StreamCodec], width_in: int) -> None:
        self.codecs = list(codecs)
        self.width_in = int(width_in)
        width = int(width_in)
        for codec in self.codecs:
            if codec.width_in != width:
                raise ValueError(
                    f"codec {codec.kind} expects width {codec.width_in}, "
                    f"chain arrives with {width}"
                )
            width = codec.width_out
        self.width_out = width

    def encode(self, words: np.ndarray) -> np.ndarray:
        out = check_unsigned_words(words, self.width_in)
        for codec in self.codecs:
            out = codec.encode(out)
        return out

    def decode(self, words: np.ndarray) -> np.ndarray:
        out = check_unsigned_words(words, self.width_out)
        for codec in reversed(self.codecs):
            out = codec.decode(out)
        return out

    def reset(self) -> None:
        for codec in self.codecs:
            codec.reset()

    def specs(self) -> List[Dict[str, object]]:
        return [codec.spec() for codec in self.codecs]

    def state_dict(self) -> List[Dict[str, object]]:
        """Per-codec streaming histories, payload -> line-side order.

        Each entry carries the codec's ``kind`` so a restore onto a
        differently-configured chain fails loudly instead of silently
        misinterpreting another codec's fields.
        """
        return [
            {"kind": codec.kind, "state": codec.state_dict()}
            for codec in self.codecs
        ]

    def load_state_dict(self, state: Sequence[Mapping[str, object]]) -> None:
        """Restore a :meth:`state_dict` snapshot into this chain."""
        if isinstance(state, (str, bytes)) or not isinstance(state, Sequence):
            raise ValueError("chain state must be a list of codec states")
        if len(state) != len(self.codecs):
            raise ValueError(
                f"chain state has {len(state)} codec entries, chain has "
                f"{len(self.codecs)} codecs"
            )
        previous = self.state_dict()
        try:
            for index, (codec, entry) in enumerate(zip(self.codecs, state)):
                if not isinstance(entry, Mapping):
                    raise ValueError(
                        f"chain state entry {index} must be a mapping"
                    )
                kind = entry.get("kind")
                if kind != codec.kind:
                    raise ValueError(
                        f"chain state entry {index} is for codec kind "
                        f"{kind!r}, chain has {codec.kind!r}"
                    )
                codec.load_state_dict(entry.get("state", {}))
        except ValueError:
            # A later entry failing must not leave the chain half-restored;
            # the pre-load state is known-good, so rolling back cannot fail.
            for codec, entry in zip(self.codecs, previous):
                codec.load_state_dict(entry["state"])
            raise


def build_chain(
    specs: Sequence[Mapping[str, object]],
    width_in: int,
    geometry: Optional[TSVArrayGeometry] = None,
) -> CodecChain:
    """Build a :class:`CodecChain` from a list of codec specs."""
    codecs: List[StreamCodec] = []
    width = int(width_in)
    for spec in specs:
        codec = build_codec(spec, width, geometry=geometry)
        codecs.append(codec)
        width = codec.width_out
    return CodecChain(codecs, width_in)


def parse_codec_spec(text: str) -> Dict[str, object]:
    """Parse the CLI shorthand ``kind[:opt[=value],...]`` into a spec dict.

    ``"gray:negated"`` -> ``{"kind": "gray", "negated": True}``;
    ``"correlator:n_channels=4,negated"`` sets integer options by value.
    """
    head, _, rest = text.strip().partition(":")
    if not head:
        raise ValueError("empty codec spec")
    spec: Dict[str, object] = {"kind": head}
    if rest:
        for token in rest.split(","):
            token = token.strip()
            if not token:
                continue
            key, _, value = token.partition("=")
            if not _:
                spec[key] = True
            elif value.lower() in ("true", "false"):
                spec[key] = value.lower() == "true"
            else:
                spec[key] = int(value)
    return spec


#: Concurrency facts for the ``--threads`` pass (see
#: ``docs/static_analysis.md``).
REPRO_SIGNATURES = {
    # The codebook cache is class-level state shared by every link whose
    # session constructs a CacCodec, and sessions are built concurrently
    # on executor threads.
    "@threads": ["CacCodec"],
    "@guards": ["CacCodec._codebook_cache guarded_by _cache_lock"],
    "@blocking": ["build_lat_codebook"],
}
