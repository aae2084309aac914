"""Empirical bit-level switching statistics (the T matrix inputs).

The paper's power model (Eq. 1-3) needs three statistics of the transmitted
bit stream:

* ``E{db_i^2}`` — the *self switching* probability of bit *i* (``db`` is the
  signed transition, -1/0/+1, so its square is simply "did bit i toggle");
* ``E{db_i db_j}`` — the *coupling* statistic of a bit pair: positive when
  the bits tend to toggle in the same direction, negative when they tend to
  toggle in opposite directions;
* ``E{b_i}`` — the 1-bit probability, which sets the depletion widths (MOS
  effect).

:class:`BitStatistics` estimates all three from a sampled bit stream and
assembles the paper's ``T_s``, ``T_c`` and ``T`` matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def validate_bit_stream(stream: np.ndarray) -> np.ndarray:
    """Check and canonicalize a bit stream array.

    A bit stream is a ``(samples, lines)`` array containing only 0 and 1.
    Returns it as ``uint8``.
    """
    arr = np.asarray(stream)
    if arr.ndim != 2:
        raise ValueError(f"bit stream must be 2-D (samples, lines), got {arr.ndim}-D")
    if arr.shape[0] < 2:
        raise ValueError("bit stream needs at least 2 samples to have transitions")
    if arr.dtype.kind == "b":
        valid = True
    elif arr.dtype.kind in "iu":
        # Two linear scans instead of np.unique's sort.
        valid = arr.size == 0 or (arr.min() >= 0 and arr.max() <= 1)
    else:
        valid = bool(np.isin(np.unique(arr), (0, 1)).all())
    if not valid:
        values = np.unique(arr)
        raise ValueError(f"bit stream may contain only 0 and 1, found {values[:10]}")
    return arr.astype(np.uint8)


@dataclass(frozen=True)
class BitStatistics:
    """Second-order bit statistics of a data stream.

    Attributes
    ----------
    self_switching:
        ``E{db_i^2}``, shape ``(n,)``.
    coupling:
        ``E{db_i db_j}``, shape ``(n, n)``; the diagonal holds
        ``E{db_i^2}`` (the i = j case of the same expectation).
    probabilities:
        ``E{b_i}``, shape ``(n,)``.
    n_samples:
        Number of stream samples the statistics were estimated from.
    """

    self_switching: np.ndarray
    coupling: np.ndarray
    probabilities: np.ndarray
    n_samples: int

    def __post_init__(self) -> None:
        n = self.self_switching.shape[0]
        if self.coupling.shape != (n, n):
            raise ValueError("coupling matrix shape mismatch")
        if self.probabilities.shape != (n,):
            raise ValueError("probabilities shape mismatch")

    @property
    def n_lines(self) -> int:
        return self.self_switching.shape[0]

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_stream(cls, stream: np.ndarray) -> "BitStatistics":
        """Estimate the statistics from a ``(samples, lines)`` bit stream."""
        bits = validate_bit_stream(stream)
        deltas = np.diff(bits.astype(np.int8), axis=0).astype(np.float64)
        coupling = deltas.T @ deltas / deltas.shape[0]
        return cls(
            self_switching=np.diag(coupling).copy(),
            coupling=coupling,
            probabilities=bits.mean(axis=0),
            n_samples=bits.shape[0],
        )

    @classmethod
    def from_moments(
        cls,
        self_switching: np.ndarray,
        coupling: np.ndarray,
        probabilities: np.ndarray,
    ) -> "BitStatistics":
        """Build from analytically known moments (e.g. the DBT model).

        The diagonal of ``coupling`` is overwritten with ``self_switching``
        for consistency.
        """
        self_switching = np.asarray(self_switching, dtype=float)
        coupling = np.asarray(coupling, dtype=float).copy()
        probabilities = np.asarray(probabilities, dtype=float)
        np.fill_diagonal(coupling, self_switching)
        return cls(
            self_switching=self_switching,
            coupling=coupling,
            probabilities=probabilities,
            n_samples=0,
        )

    # -- paper matrices -------------------------------------------------------

    @property
    def t_s(self) -> np.ndarray:
        """``T_s``: self-switching probabilities on the diagonal (Eq. 3)."""
        return np.diag(self.self_switching)

    @property
    def t_c(self) -> np.ndarray:
        """``T_c``: coupling statistics, zero diagonal (Eq. 3)."""
        t_c = self.coupling.copy()
        np.fill_diagonal(t_c, 0.0)
        return t_c

    @property
    def t_matrix(self) -> np.ndarray:
        """``T = T_s 1 - T_c`` (Eq. 3), the switching-cost weights."""
        n = self.n_lines
        return self.t_s @ np.ones((n, n)) - self.t_c

    @property
    def epsilon(self) -> np.ndarray:
        """Shifted bit probabilities ``eps_i = E{b_i} - 1/2`` (Eq. 8)."""
        return self.probabilities - 0.5

    # -- sanity ---------------------------------------------------------------

    def check_consistency(self, atol: float = 1e-9) -> None:
        """Raise if the moments violate basic probabilistic constraints.

        ``|E{db_i db_j}|`` can never exceed the geometric mean of the two
        self switching probabilities (Cauchy-Schwarz), and all probabilities
        must be in range.
        """
        if ((self.probabilities < -atol)
                | (self.probabilities > 1.0 + atol)).any():
            raise ValueError("bit probabilities outside [0, 1]")
        if ((self.self_switching < -atol)
                | (self.self_switching > 1.0 + atol)).any():
            raise ValueError("self switching outside [0, 1]")
        bound = np.sqrt(
            np.outer(self.self_switching, self.self_switching)
        )
        if (np.abs(self.t_c) > bound + atol).any():
            raise ValueError("coupling statistic violates Cauchy-Schwarz bound")
