"""The TSV interconnect power model ``P_n = <T, C>`` and its transforms.

Everything here works on the *normalized* mean dynamic power of Eq. 1/2,

``P_n = 2 P / (Vdd^2 f) = <T, C>``  [farad],

with ``T = T_s 1 - T_c`` the switching-cost matrix built from the bit
statistics and ``C`` the SPICE-form capacitance matrix (ground terms on the
diagonal, couplings off it). A bit-to-TSV assignment acts on ``T`` by the
congruence of Eq. 4 and — through the MOS effect — on ``C`` via the linear
capacitance model of Eq. 9.

:class:`PowerModel` packages stream statistics together with either a fixed
capacitance matrix (assignment-independent ``C``, e.g. balanced data) or a
:class:`~repro.tsv.capmodel.LinearCapacitanceModel` (probability-aware
``C``) and evaluates any assignment's power, which is the cost function of
the Eq. 10 search.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.analysis.contracts import (
    check_capacitance_matrix,
    check_enabled,
    check_signed_permutation,
    check_switching_matrix,
)
from repro.core.assignment import SignedPermutation
from repro.stats.switching import BitStatistics
from repro.tsv.capmodel import LinearCapacitanceModel


def normalized_power(stats: BitStatistics, cap_matrix: np.ndarray) -> float:
    """``P_n = <T, C>`` (Eq. 2) for line-domain statistics and capacitances.

    Expanded: ``sum_i E{db_i^2} C_T,i - sum_{i != j} E{db_i db_j} C_ij``
    with ``C_T,i`` the total capacitance on line ``i``. This is exactly the
    Frobenius product of ``T = T_s 1 - T_c`` with ``C``.

    With ``REPRO_CONTRACTS=1`` both inputs are validated: ``C`` must be a
    SPICE-form capacitance matrix and the statistics mutually consistent.
    """
    check_enabled(check_switching_matrix, stats)
    check_enabled(check_capacitance_matrix, cap_matrix)
    cap_matrix = np.asarray(cap_matrix, dtype=float)
    n = stats.n_lines
    if cap_matrix.shape != (n, n):
        raise ValueError(
            f"capacitance matrix shape {cap_matrix.shape} does not match "
            f"{n} lines"
        )
    row_totals = cap_matrix.sum(axis=1)
    self_term = float(stats.self_switching @ row_totals)
    coupling_term = float(np.sum(stats.t_c * cap_matrix))
    return self_term - coupling_term


class PowerModel:
    """Power of any assignment of a given data stream on a given TSV array.

    Parameters
    ----------
    stats:
        Bit statistics of the logical data stream (bit domain).
    capacitance:
        Either a fixed SPICE-form matrix (ignores the MOS probability
        dependence — valid when all bit probabilities are 1/2) or a fitted
        :class:`LinearCapacitanceModel` for the full Eq. 9 treatment.
    """

    def __init__(
        self,
        stats: BitStatistics,
        capacitance: Union[np.ndarray, LinearCapacitanceModel],
    ) -> None:
        self.stats = stats
        if isinstance(capacitance, LinearCapacitanceModel):
            if capacitance.n_lines != stats.n_lines:
                raise ValueError("capacitance model size mismatch")
            self.cap_model: Optional[LinearCapacitanceModel] = capacitance
            self.cap_matrix: Optional[np.ndarray] = None
        else:
            capacitance = np.asarray(capacitance, dtype=float)
            if capacitance.shape != (stats.n_lines, stats.n_lines):
                raise ValueError("capacitance matrix size mismatch")
            check_enabled(check_capacitance_matrix, capacitance)
            self.cap_model = None
            self.cap_matrix = capacitance

    @property
    def n_lines(self) -> int:
        return self.stats.n_lines

    def line_capacitance(self, line_stats: BitStatistics) -> np.ndarray:
        """Capacitance matrix seen by line-domain statistics.

        With a linear capacitance model the per-line 1-probabilities set the
        matrix (Eq. 9); with a fixed matrix they are ignored.
        """
        if self.cap_model is not None:
            return self.cap_model.matrix(line_stats.probabilities)
        assert self.cap_matrix is not None
        return self.cap_matrix

    def power(self, assignment: Optional[SignedPermutation] = None) -> float:
        """Normalized power ``P_n`` [F] of the given assignment.

        ``None`` evaluates the identity assignment (bit *i* on line *i*).
        """
        if assignment is None:
            assignment = SignedPermutation.identity(self.n_lines)
        check_enabled(check_signed_permutation, assignment)
        line_stats = assignment.apply_to_statistics(self.stats)
        cap = self.line_capacitance(line_stats)
        return normalized_power(line_stats, cap)

    def power_watts(
        self,
        assignment: Optional[SignedPermutation] = None,
        vdd: float = 1.0,
        frequency: float = 3.0e9,
    ) -> float:
        """Denormalized mean power ``P = P_n Vdd^2 f / 2`` [W]."""
        return self.power(assignment) * vdd**2 * frequency / 2.0


#: Attribute type for the ``--threads`` pass (see
#: ``docs/static_analysis.md``): lets it follow ``self.cap_model`` calls.
REPRO_SIGNATURES = {"PowerModel.cap_model": "LinearCapacitanceModel"}
