"""Linear capacitance / bit-probability model (paper Eq. 6, 7 and 9).

The exact dependence of the TSV capacitances on the 1-bit probabilities is
"very complex" (it runs through the depletion physics and the field
distribution), so the paper linearizes it:

``C_ij(p) = C0_ij + dC_ij * (p_i + p_j)``                            (Eq. 6)

and, shifted so that a bit inversion becomes a sign flip,

``C_ij(eps) = C_R,ij + dC_ij * (eps_i + eps_j)``,  ``eps_i = p_i - 1/2``  (Eq. 7/8)

The paper reports a normalized RMS error below 2 % for this regression [6].
:class:`LinearCapacitanceModel` fits ``C_R`` and ``dC`` from two extractions
(all probabilities 0 and all 1 — exact for the pairwise-linear form) and
exposes the matrix for arbitrary probability vectors, which is what makes the
optimal-assignment search (Eq. 10) tractable: the effect of an assignment
with inversions on ``C`` reduces to the algebra of Eq. 9.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.analysis.contracts import (
    check_capacitance_matrix,
    check_enabled,
    check_probabilities,
)
from repro.tsv.extractor import CapacitanceExtractor


def epsilon_from_probabilities(probabilities: Sequence[float]) -> np.ndarray:
    """Shifted probabilities ``eps_i = E{b_i} - 1/2`` (Eq. 8)."""
    probs = np.asarray(probabilities, dtype=float)
    if ((probs < 0.0) | (probs > 1.0)).any():
        raise ValueError("probabilities must lie in [0, 1]")
    return probs - 0.5


class LinearCapacitanceModel:
    """Fitted linear model ``C(eps) = C_R + dC o (eps 1^T + 1 eps^T)``.

    Build with :meth:`fit`, or directly from known ``c_r`` / ``delta_c``
    matrices.
    """

    def __init__(self, c_r: np.ndarray, delta_c: np.ndarray) -> None:
        c_r = np.asarray(c_r, dtype=float)
        delta_c = np.asarray(delta_c, dtype=float)
        if c_r.shape != delta_c.shape or c_r.ndim != 2 or c_r.shape[0] != c_r.shape[1]:
            raise ValueError(
                f"c_r and delta_c must be equal square matrices, got "
                f"{c_r.shape} and {delta_c.shape}"
            )
        self.c_r = c_r
        self.delta_c = delta_c

    @property
    def n_lines(self) -> int:
        return self.c_r.shape[0]

    # -- construction ---------------------------------------------------------

    @classmethod
    def fit(
        cls,
        extractor: CapacitanceExtractor,
        n_probes: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> "LinearCapacitanceModel":
        """Fit the linear model from extractions.

        With ``n_probes = 0`` (default) two extractions suffice: with the
        pairwise-linear form of Eq. 6, ``C(all 0) = C0`` and ``C(all 1) =
        C0 + 2 dC``; hence ``dC = (C(1) - C(0)) / 2`` and ``C_R = C0 + dC``
        (the balanced-data matrix of Eq. 7).

        With ``n_probes > 0``, that many extractions at uniform-random
        probability vectors are added and each entry's ``(C_R, dC)`` is the
        least-squares regression against ``eps_i + eps_j`` — this is the
        paper's actual "linear regression" [6] and halves the residual of
        the two-point fit where the true probability dependence is most
        curved (small TSVs). Only worth it with a cheap (compact)
        extractor.
        """
        n = extractor.geometry.n_tsvs
        probability_sets = [np.zeros(n), np.ones(n)]
        if n_probes > 0:
            if rng is None:
                rng = np.random.default_rng(2018)
            probability_sets.extend(
                rng.uniform(0.0, 1.0, n) for _ in range(n_probes)
            )
        matrices = np.stack([extractor.extract(p) for p in probability_sets])
        eps = np.stack(
            [epsilon_from_probabilities(p) for p in probability_sets]
        )
        # Per entry (i, j): C^k = C_R + dC * (eps_i^k + eps_j^k).
        x = eps[:, :, None] + eps[:, None, :]  # (k, n, n)
        x_mean = x.mean(axis=0)
        y_mean = matrices.mean(axis=0)
        x_centered = x - x_mean
        y_centered = matrices - y_mean
        denom = np.sum(x_centered**2, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            delta_c = np.sum(x_centered * y_centered, axis=0) / denom
        delta_c = np.nan_to_num(delta_c, nan=0.0)
        c_r = y_mean - delta_c * x_mean
        return cls(c_r=c_r, delta_c=delta_c)

    # -- evaluation -----------------------------------------------------------

    def matrix(self, probabilities: Optional[Sequence[float]] = None) -> np.ndarray:
        """SPICE-form capacitance matrix [F] for given 1-bit probabilities.

        Defaults to balanced data (all 0.5), i.e. ``C_R`` itself. The
        diagonal (ground) entries receive ``2 * eps_i`` — Eq. 9 applied at
        ``i = j``.
        """
        if probabilities is None:
            return self.c_r.copy()
        check_enabled(check_probabilities, probabilities)
        eps = epsilon_from_probabilities(probabilities)
        if eps.shape != (self.n_lines,):
            raise ValueError(f"need {self.n_lines} probabilities, got {eps.shape}")
        return self.c_r + self.delta_c * (eps[:, None] + eps[None, :])

    # -- persistence ------------------------------------------------------------

    def save(self, path) -> None:
        """Write the fitted model to an ``.npz`` techfile.

        The file carries ``c_r`` and ``delta_c`` plus a format version;
        load with :meth:`load`. This is the artefact a design flow would
        check in next to the floorplan: extraction runs once, every later
        optimization loads the techfile.
        """
        np.savez(
            path,
            c_r=self.c_r,
            delta_c=self.delta_c,
            format_version=np.int64(1),
        )

    @classmethod
    def load(cls, path) -> "LinearCapacitanceModel":
        """Read a techfile written by :meth:`save`."""
        try:
            data = np.load(path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"not a readable techfile: {path}") from exc
        try:
            version = int(data["format_version"])
            c_r = data["c_r"]
            delta_c = data["delta_c"]
        except KeyError as exc:
            raise ValueError(f"techfile {path} misses field {exc}") from exc
        if version != 1:
            raise ValueError(f"unsupported techfile version {version}")
        check_enabled(
            check_capacitance_matrix, c_r, name=f"techfile {path} c_r"
        )
        return cls(c_r=c_r, delta_c=delta_c)

    def nrmse(
        self,
        extractor: CapacitanceExtractor,
        probabilities: Sequence[float],
    ) -> float:
        """Normalized RMS error of the model against a real extraction.

        Normalization is by the RMS of the reference matrix; the paper
        quotes < 2 % for this regression.
        """
        reference = extractor.extract(probabilities)
        predicted = self.matrix(probabilities)
        rms_ref = float(np.sqrt(np.mean(reference**2)))
        if rms_ref == 0.0:
            return 0.0
        return float(np.sqrt(np.mean((predicted - reference) ** 2)) / rms_ref)
