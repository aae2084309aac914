"""Conversions between capacitance-matrix conventions.

Two conventions appear in the extraction flow:

*Maxwell form* — what a field solver produces: ``Q = C_maxwell @ V``. Diagonal
entries are positive (total capacitance of a conductor), off-diagonal entries
are negative (mutual terms).

*SPICE form* — what the power model (and a circuit netlist) consumes:
``C[i, i]`` is the lumped capacitance from conductor *i* to ground and
``C[i, j]`` (i != j) the positive coupling capacitor between conductors *i*
and *j*.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import check_capacitance_matrix, check_enabled


def maxwell_to_spice(c_maxwell: np.ndarray) -> np.ndarray:
    """Convert a Maxwell capacitance matrix to SPICE (ground + coupling) form.

    ``C_spice[i, j] = -C_maxwell[i, j]`` for ``i != j`` and
    ``C_spice[i, i] = sum_j C_maxwell[i, j]`` (the capacitance to ground).
    Tiny negative couplings produced by discretization noise are clipped
    to zero.
    """
    c = np.asarray(c_maxwell, dtype=float)
    _require_square(c)
    ground = c.sum(axis=1)
    spice = -c.copy()
    np.fill_diagonal(spice, ground)
    off = ~np.eye(c.shape[0], dtype=bool)
    spice[off] = np.clip(spice[off], 0.0, None)
    check_enabled(check_capacitance_matrix, spice, name="converted matrix")
    return spice


def spice_to_maxwell(c_spice: np.ndarray) -> np.ndarray:
    """Inverse of :func:`maxwell_to_spice`."""
    c = np.asarray(c_spice, dtype=float)
    _require_square(c)
    maxwell = -c.copy()
    off_diagonal_sum = c.sum(axis=1) - np.diag(c)
    np.fill_diagonal(maxwell, np.diag(c) + off_diagonal_sum)
    return maxwell


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(A + A.T) / 2``.

    Field-solver matrices are symmetric up to discretization error; the power
    model assumes exact symmetry.
    """
    a = np.asarray(matrix, dtype=float)
    _require_square(a)
    return 0.5 * (a + a.T)


def asymmetry(matrix: np.ndarray) -> float:
    """Relative asymmetry ``|A - A.T| / |A|`` (Frobenius norms).

    A quality metric for extraction results; should be well below 1 %.
    """
    a = np.asarray(matrix, dtype=float)
    _require_square(a)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(a - a.T) / norm)


def total_capacitance(c_spice: np.ndarray) -> np.ndarray:
    """Per-line total capacitance ``C_T,i`` (ground plus all couplings).

    This is the quantity the Spiral mapping sorts by (Eq. 12 of the paper).
    """
    c = np.asarray(c_spice, dtype=float)
    _require_square(c)
    check_enabled(check_capacitance_matrix, c)
    return c.sum(axis=1)


def _require_square(matrix: np.ndarray) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
