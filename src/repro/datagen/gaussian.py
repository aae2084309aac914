"""AR(1) Gaussian word streams — the paper's synthetic DSP workload.

Sec. 4 and Fig. 3 of the paper analyze "Gaussian distributed 16 b pattern
sets" with a given standard deviation and lag-1 temporal correlation
``rho``. An AR(1) process

``x[t] = rho * x[t-1] + sqrt(1 - rho^2) * w[t]``,  ``w ~ N(0, sigma)``

has exactly that marginal distribution and autocorrelation, for positive and
negative ``rho`` alike.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datagen.util import quantize_to_integers, words_to_bits
from repro.rng import ensure_rng


def ar1_gaussian_samples(
    n_samples: int,
    sigma: float,
    rho: float = 0.0,
    mean: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Real-valued AR(1) Gaussian samples with the requested moments.

    The process is started from its stationary distribution, so every sample
    (including the first) is ``N(mean, sigma^2)`` and neighbouring samples
    have correlation coefficient ``rho``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must be in (-1, 1), got {rho}")
    rng = ensure_rng(rng)
    innovations = rng.standard_normal(n_samples)
    x = np.empty(n_samples)
    x[0] = innovations[0]
    scale = np.sqrt(1.0 - rho**2)
    for t in range(1, n_samples):
        x[t] = rho * x[t - 1] + scale * innovations[t]
    return mean + sigma * x


def ar1_gaussian_words(
    n_samples: int,
    width: int,
    sigma: float,
    rho: float = 0.0,
    mean: float = 0.0,
    signed: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Quantized AR(1) Gaussian word stream.

    ``sigma`` and ``mean`` are in LSBs of the target width. Samples are
    rounded and saturated to the (two's complement if ``signed``) word
    range.
    """
    samples = ar1_gaussian_samples(n_samples, sigma=sigma, rho=rho, mean=mean,
                                   rng=rng)
    return quantize_to_integers(samples, width=width, signed=signed)


def gaussian_bit_stream(
    n_samples: int,
    width: int,
    sigma: float,
    rho: float = 0.0,
    mean: float = 0.0,
    signed: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Bit stream of a quantized AR(1) Gaussian word stream (LSB first)."""
    words = ar1_gaussian_words(n_samples, width=width, sigma=sigma, rho=rho,
                               mean=mean, signed=signed, rng=rng)
    return words_to_bits(words, width)
