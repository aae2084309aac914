"""Temporal XOR correlator / decorrelator (paper Sec. 7, RGB experiment).

Multiplexing Bayer colours over one link destroys the pixel-to-pixel
temporal correlation: consecutive words belong to different colour planes.
The correlator of the paper (after [3]) restores exploitable structure: each
new R, G or B value is bitwise XORed with the *previous value of the same
colour* before transmission. Because consecutive same-colour samples are
highly correlated, the XOR results have MSBs nearly stable at 0 — low
switching, and (after the paper's XNOR trick, ``negated=True``) parked at
logical 1 for the MOS benefit.

``n_channels`` selects the mux phase: 1 for a plain stream, 4 for R/G1/G2/B,
3 for x/y/z sensor axes, and so on.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.util import check_unsigned_words


def _check(words: np.ndarray, width: int, n_channels: int) -> np.ndarray:
    words = check_unsigned_words(words, width)
    if n_channels < 1:
        raise ValueError(f"n_channels must be >= 1, got {n_channels}")
    return words


def correlate_words(
    words: np.ndarray,
    width: int,
    n_channels: int = 1,
    negated: bool = False,
) -> np.ndarray:
    """XOR each word with the previous word of the same channel.

    The first sample of each channel passes through unchanged (there is no
    predecessor). ``negated=True`` swaps the XORs for XNORs — same
    switching, complemented polarity (Sec. 6/7).
    """
    words = _check(words, width, n_channels)
    out = words.copy()
    out[n_channels:] = words[n_channels:] ^ words[:-n_channels]
    if negated:
        mask = (1 << width) - 1
        out[n_channels:] ^= mask
    return out


def decorrelate_words(
    coded: np.ndarray,
    width: int,
    n_channels: int = 1,
    negated: bool = False,
) -> np.ndarray:
    """Inverse of :func:`correlate_words` (running same-channel XOR)."""
    coded = _check(coded, width, n_channels)
    out = coded.copy()
    if negated:
        mask = (1 << width) - 1
        out[n_channels:] ^= mask
    for t in range(n_channels, len(out)):
        out[t] ^= out[t - n_channels]
    return out
