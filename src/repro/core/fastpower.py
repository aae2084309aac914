"""Compiled fast-path kernels for the Eq. 10 assignment search.

:class:`~repro.core.power.PowerModel` evaluates an assignment by building
line-domain statistics (Eq. 4), materializing the capacitance matrix
(Eq. 9) and taking the Frobenius product — ``O(n^2)`` work plus several
array allocations per candidate. The searches in
:mod:`repro.core.optimize` probe thousands of candidates that differ from
the current assignment by a *single local move* (a bit-pair swap or an
inversion toggle), so almost all of that work is recomputed unchanged.

:class:`CompiledPowerModel` precomputes everything that does not depend on
the assignment — the bit-domain coupling matrix, the self-switching and
probability vectors, and the ``(C_R, dC)`` decomposition of the linear
capacitance model — and exploits the structure of the power functional

``P(o, s) = sum_ij [ sw_i - (1 - d_ij) Tc_ij ] C_ij``

(``o`` the bit-of-line order, ``s`` the per-line inversion signs,
``C_ij = C_R,ij + dC_ij (e_i + e_j)``): a local move perturbs only one or
two rows/columns of the line-domain matrices, so its cost change is a sum
over the touched entries. A fixed capacitance matrix is the special case
``dC = 0``.

Three evaluation tiers are offered:

* :meth:`CompiledPowerModel.power` — one assignment, ``O(n^2)``, same
  operation sequence as :meth:`PowerModel.power` (bit-identical result);
* :meth:`CompiledPowerModel.powers` — a batch of ``k`` assignments in one
  vectorized ``O(k n^2)`` pass (random baselines, exhaustive enumeration);
* :meth:`CompiledPowerModel.start` — a mutable :class:`SearchState` whose
  :meth:`~SearchState.delta_swaps` / :meth:`~SearchState.delta_toggles`
  price whole batches of candidate moves against the current state in one
  set of vectorized operations.

:class:`SearchState` maintains per-line aggregate sums (refreshed in
``O(n^2)`` whenever a move is *applied* — applications are rare next to
pricings) that collapse the cost change of an inversion toggle to ``O(1)``
and of a bit-pair swap to ``O(n)`` per candidate. The toggle/swap kernels
assume the capacitance matrices are symmetric (SPICE-form matrices always
are; :attr:`CompiledPowerModel.symmetric` records the check, and
:func:`as_compiled` falls back to the generic path otherwise). The delta
updates are algebraically exact; the cached state power is re-derived from
scratch on every applied move, so it never drifts. See
``docs/performance.md`` for the derivation and measured speedups.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.analysis.contracts import check_enabled, check_signed_permutation
from repro.core.assignment import SignedPermutation
from repro.core.power import PowerModel
from repro.stats.switching import BitStatistics
from repro.tsv.capmodel import LinearCapacitanceModel


class CompiledPowerModel:
    """Assignment-evaluation kernels compiled from a :class:`PowerModel`.

    Immutable once built; many :class:`SearchState` instances (e.g. one per
    annealing chain) may share one compiled model concurrently.
    """

    def __init__(
        self,
        stats: BitStatistics,
        capacitance: Union[np.ndarray, LinearCapacitanceModel],
    ) -> None:
        n = stats.n_lines
        self.stats = stats
        self.n_lines = n
        #: Bit-domain self switching ``E{db_i^2}``.
        self.self_switching = np.asarray(stats.self_switching, dtype=float)
        #: Bit-domain coupling with a zeroed diagonal (``T_c`` of Eq. 3).
        self.t_c = np.asarray(stats.t_c, dtype=float)
        #: Bit-domain 1-probabilities ``E{b_i}``.
        self.probabilities = np.asarray(stats.probabilities, dtype=float)
        if isinstance(capacitance, LinearCapacitanceModel):
            if capacitance.n_lines != n:
                raise ValueError("capacitance model size mismatch")
            self.c_r = np.asarray(capacitance.c_r, dtype=float)
            self.delta_c = np.asarray(capacitance.delta_c, dtype=float)
            self.mos_aware = True
        else:
            capacitance = np.asarray(capacitance, dtype=float)
            if capacitance.shape != (n, n):
                raise ValueError("capacitance matrix size mismatch")
            self.c_r = capacitance
            self.delta_c = np.zeros((n, n))
            self.mos_aware = False
        #: Whether the capacitance decomposition is symmetric (physically
        #: always true for SPICE-form matrices; the delta kernels rely on
        #: it, checked up to float-fit noise).
        self.symmetric = bool(
            np.allclose(self.c_r, self.c_r.T, rtol=1e-6, atol=0.0)
            and np.allclose(self.delta_c, self.delta_c.T, rtol=1e-6, atol=0.0)
        )
        #: Row sums of ``C_R`` and ``dC`` (line-constant aggregates).
        self.crs = self.c_r.sum(axis=1)
        self.dsum = self.delta_c.sum(axis=1)
        #: Diagonals, contiguous for cheap fancy-index gathers.
        self.crdiag = np.ascontiguousarray(np.diagonal(self.c_r))
        self.ddiag = np.ascontiguousarray(np.diagonal(self.delta_c))
        #: ``[diag C_R, diag dC]`` stacked for the swap-kernel corrections.
        self.diag_stack = np.stack((self.crdiag, self.ddiag))

    @classmethod
    def compile(cls, model: PowerModel) -> "CompiledPowerModel":
        """Compile the kernels for an existing :class:`PowerModel`."""
        if model.cap_model is not None:
            return cls(model.stats, model.cap_model)
        assert model.cap_matrix is not None
        return cls(model.stats, model.cap_matrix)

    # -- single evaluation (reference-exact) -----------------------------------

    def power(self, assignment: Optional[SignedPermutation] = None) -> float:
        """Normalized power ``P_n`` [F]; bit-identical to ``PowerModel.power``.

        The gathers below replay the exact floating-point operation
        sequence of :meth:`SignedPermutation.apply_to_statistics` +
        :meth:`LinearCapacitanceModel.matrix` + :func:`normalized_power`,
        so this agrees with the naive path to the last ulp — which is what
        lets the benchmark gate on strict equality of best powers.
        """
        n = self.n_lines
        if assignment is None:
            assignment = SignedPermutation.identity(n)
        check_enabled(check_signed_permutation, assignment)
        if assignment.n_bits != n:
            raise ValueError("assignment size mismatch")
        order = np.asarray(assignment.bit_of_line)
        inverted = np.asarray(assignment.inverted)[order]
        signs = np.where(inverted, -1.0, 1.0)
        t_c = self.t_c[np.ix_(order, order)] * np.outer(signs, signs)
        probabilities = self.probabilities[order].copy()
        probabilities[inverted] = 1.0 - probabilities[inverted]
        eps = probabilities - 0.5
        cap = self.c_r + self.delta_c * (eps[:, None] + eps[None, :])
        self_switching = self.self_switching[order]
        self_term = float(self_switching @ cap.sum(axis=1))
        coupling_term = float(np.sum(t_c * cap))
        return self_term - coupling_term

    # -- batched evaluation ----------------------------------------------------

    def powers(
        self, assignments: Sequence[SignedPermutation]
    ) -> np.ndarray:
        """Normalized powers of ``k`` assignments in one vectorized pass.

        Returns a ``(k,)`` float array; ``O(k n^2)`` time and memory but a
        single set of NumPy dispatches, which is what makes sampled random
        baselines and chunked exhaustive enumeration cheap.
        """
        k = len(assignments)
        n = self.n_lines
        if k == 0:
            return np.empty(0)
        order = np.empty((k, n), dtype=np.intp)
        inverted = np.empty((k, n), dtype=bool)
        for idx, assignment in enumerate(assignments):
            check_enabled(check_signed_permutation, assignment)
            if assignment.n_bits != n:
                raise ValueError("assignment size mismatch")
            row = np.asarray(assignment.bit_of_line)
            order[idx] = row
            inverted[idx] = np.asarray(assignment.inverted)[row]
        signs = np.where(inverted, -1.0, 1.0)
        t_c = (
            self.t_c[order[:, :, None], order[:, None, :]]
            * signs[:, :, None] * signs[:, None, :]
        )
        probabilities = self.probabilities[order].copy()
        probabilities[inverted] = 1.0 - probabilities[inverted]
        eps = probabilities - 0.5
        cap = self.c_r[None] + self.delta_c[None] * (
            eps[:, :, None] + eps[:, None, :]
        )
        self_switching = self.self_switching[order]
        self_term = np.einsum("ki,kij->k", self_switching, cap)
        coupling_term = np.einsum("kij,kij->k", t_c, cap)
        return self_term - coupling_term

    # -- search state ----------------------------------------------------------

    def start(self, assignment: SignedPermutation) -> "SearchState":
        """Begin a delta-evaluated search at ``assignment``."""
        return SearchState(self, assignment)


class SearchState:
    """Mutable line-domain state of one delta-cost search chain.

    Holds the line-indexed self-switching vector, signed epsilon vector and
    signed coupling matrix of the current assignment, its exact power, and
    per-line aggregate sums that make candidate moves cheap to price:

    * ``delta_toggles`` — an inversion toggle of line ``l`` only rescales
      row/column ``l`` of the coupling matrix and shifts ``e_l``, so with
      the row/column sums of ``t*C`` and ``t*dC`` and the ``s``-weighted
      column sums of ``dC`` kept up to date, its cost change is a couple of
      per-line lookups: **O(1)** per candidate.
    * ``delta_swaps`` — a bit-pair swap conjugates the coupling matrix by a
      transposition and exchanges two line payloads; re-indexing the swapped
      sum against the original shows the change is a handful of length-``n``
      inner products against the capacitance *row differences*: **O(n)** per
      candidate.

    Both kernels are batched (``(B,)``/``(B, 2)`` candidate arrays in,
    ``(B,)`` deltas out) so a whole proposal batch costs one set of NumPy
    dispatches. The aggregates are rebuilt in ``O(n^2)`` whenever a move is
    *applied* — applications are rare next to pricings in annealing and
    greedy descent. Not thread-safe — use one state per chain.
    """

    __slots__ = (
        "compiled", "line_of_bit", "bit_of_line", "inverted",
        "sw", "p", "eps", "power",
        "_all", "_tt", "_capdc", "_agg", "_tog_lin", "_tc_sum",
    )

    def __init__(
        self, compiled: CompiledPowerModel, assignment: SignedPermutation
    ) -> None:
        n = compiled.n_lines
        check_enabled(check_signed_permutation, assignment)
        if assignment.n_bits != n:
            raise ValueError("assignment size mismatch")
        if not compiled.symmetric:
            raise ValueError(
                "delta-cost search requires a symmetric capacitance model"
            )
        self.compiled = compiled
        self.line_of_bit = np.asarray(assignment.line_of_bit, dtype=np.intp)
        self.bit_of_line = np.asarray(assignment.bit_of_line, dtype=np.intp)
        self.inverted = np.asarray(assignment.inverted, dtype=bool)
        order = self.bit_of_line
        flipped = self.inverted[order]
        signs = np.where(flipped, -1.0, 1.0)
        self.sw = compiled.self_switching[order].copy()
        self.p = compiled.probabilities[order].copy()
        self.p[flipped] = 1.0 - self.p[flipped]
        self.eps = self.p - 0.5
        t_c = compiled.t_c[np.ix_(order, order)] * np.outer(signs, signs)
        # [C_R, dC, t, t^T] stacked: one fancy-index gather yields the
        # capacitance rows plus the rows *and* columns of ``t`` at a set
        # of lines, which is most of what the swap kernel reads. ``_tt``
        # is the mutable [t, t^T] view the moves update in place.
        self._all = np.empty((4, n, n))
        self._all[0] = compiled.c_r
        self._all[1] = compiled.delta_c
        self._all[2] = t_c
        self._all[3] = t_c.T
        self._tt = self._all[2:]
        # Reused [C, dC] buffer: slot 1 is the constant dC, slot 0 is
        # rebuilt from the current eps on every refresh; one multiply with
        # t then yields both t*C and t*dC.
        self._capdc = np.empty((2, n, n))
        self._capdc[1] = compiled.delta_c
        # Per-line aggregates for the swap kernel: [crs, dsum, w, sd] with
        # the first two rows constant.
        self._agg = np.empty((4, n))
        self._agg[0] = compiled.crs
        self._agg[1] = compiled.dsum
        self._refresh()

    @property
    def t_c(self) -> np.ndarray:
        """Line-domain signed coupling matrix of the current assignment."""
        return self._tt[0]

    # -- views -----------------------------------------------------------------

    def assignment(self) -> SignedPermutation:
        """The current assignment as an immutable :class:`SignedPermutation`."""
        return SignedPermutation(
            tuple(int(x) for x in self.line_of_bit),
            tuple(bool(x) for x in self.inverted),
        )

    # -- aggregate maintenance -------------------------------------------------

    def _refresh(self) -> None:
        """Rebuild the per-line aggregates and the exact power, ``O(n^2)``."""
        comp = self.compiled
        eps = self.eps
        cap = self._capdc[0]
        np.multiply(comp.delta_c, eps[:, None] + eps[None, :], out=cap)
        cap += comp.c_r
        # One broadcast multiply yields [t*C, t*dC].
        tcd = self._tt[0] * self._capdc
        rows = tcd.sum(axis=2)
        cols = tcd.sum(axis=1)
        # ``w_l = (dC @ e)_l`` and ``sd_l = (s @ dC)_l`` feed the
        # self-switching term of the swap kernel; the constant row sums
        # occupy rows 0/1 of the aggregate table.
        self._agg[2] = comp.delta_c @ eps
        self._agg[3] = self.sw @ comp.delta_c
        self._tog_lin = self._agg[3] + rows[1] + cols[1]
        self._tc_sum = rows[0] + cols[0]
        self.power = float(self.sw @ cap.sum(axis=1)) - float(tcd[0].sum())

    def resync(self) -> None:
        """Recompute the cached power and aggregates from scratch."""
        self._refresh()

    # -- move pricing (state unchanged) ----------------------------------------

    def delta_toggles(self, bits: np.ndarray) -> np.ndarray:
        """Power changes of toggling each bit's inversion (Eq. 9 sign flip).

        ``bits`` is a ``(B,)`` int array of candidate bits; returns the
        ``(B,)`` array of power deltas, all priced against the current
        state. ``O(1)`` per candidate: toggling line ``l`` negates row and
        column ``l`` of ``t`` and moves ``e_l`` to ``e'_l``, so

        ``delta = (e' - e)(s_l D_l + sd_l + tdr_l + tdc_l) + 2(tcr_l + tcc_l)``

        with ``D`` the ``dC`` row sums and ``tdr/tdc/tcr/tcc`` the
        maintained row/column sums of ``t*dC`` and ``t*C``.
        """
        bits = np.asarray(bits, dtype=np.intp)
        lines = self.line_of_bit[bits]
        eps_new = (1.0 - self.p[lines]) - 0.5
        de = eps_new - self.eps[lines]
        comp = self.compiled
        return (
            de * (self.sw[lines] * comp.dsum[lines] + self._tog_lin[lines])
            + 2.0 * self._tc_sum[lines]
        )

    def delta_swaps(self, pairs: np.ndarray) -> np.ndarray:
        """Power changes of swapping each bit pair's lines.

        ``pairs`` is a ``(B, 2)`` int array of candidate bit pairs; returns
        the ``(B,)`` array of power deltas, all priced against the current
        state. ``O(n)`` per candidate: substituting the transposition into
        the swapped power sum and re-indexing leaves inner products of the
        ``t`` rows/columns at the two lines against the capacitance row
        differences ``C_R[lb]-C_R[la]`` and ``dC[lb]-dC[la]`` (symmetry
        makes the column differences the same vectors), plus closed-form
        corrections at the four entries the transposition maps onto
        themselves.
        """
        comp = self.compiled
        eps = self.eps
        pairs = np.asarray(pairs, dtype=np.intp)
        ll = self.line_of_bit[pairs.T]           # (2, B): [la, lb]
        la, lb = ll[0], ll[1]
        e_ab = eps[ll]                           # (2, B)
        e_a, e_b = e_ab[0], e_ab[1]
        s_ab = self.sw[ll]
        # One gather of [C_R, dC, t, t^T] rows at both lines.
        gathered = self._all[:, ll, :]           # (4, 2, B, n)
        rows = gathered[:2]                      # [cr/dc, a/b]
        # Row differences of [C_R, dC]; symmetry makes them the column
        # differences too.
        diff = rows[:, 1]
        diff -= rows[:, 0]                       # (2, B, n): [crd, dd]
        # Turn crd into x = crd + dd * e in place: diff becomes [x, dd].
        diff[0] += diff[1] * eps[None, :]
        x_dd = diff
        # Rows and columns of t at both lines against x and dd: all eight
        # inner products in one contraction. tt_ab[r, p] is row (r=0) or
        # column (r=1) of t at line a (p=0) / b (p=1).
        tt_ab = gathered[2:]                     # (2, 2, B, n)
        prods = np.einsum("rpbn,ybn->pyb", tt_ab, x_dd)      # (2, 2, B)
        # The four (i, j) entries with both indices in {la, lb} contribute
        # exactly zero (symmetry cancels them); remove what the row/column
        # inner products counted for them.
        cross = self._all[:, la, lb]             # (4, B): C_R/dC/t/t^T at
        cd_g = cross[:2]                         # (la, lb)
        diag_g = comp.diag_stack[:, ll]          # (2, 2, B)
        diag_sum = diag_g.sum(axis=1) - 2.0 * cd_g           # (2, B)
        t_cross = cross[2] + cross[3]                        # t_ab + t_ba
        eps_sum = e_a + e_b
        # Change of the coupling term sum(t * C).
        coupling = (
            prods[0, 0] + e_a * prods[0, 1]
            - prods[1, 0] - e_b * prods[1, 1]
            - t_cross * (diag_sum[0] + diag_sum[1] * eps_sum)
        )
        # Change of the self term s . R with R the capacitance row totals:
        # only the la/lb payload exchange and the e-shift of w matter.
        agg_g = self._agg[:, ll]                 # (4, 2, B)
        aggd = agg_g[:, 0] - agg_g[:, 1]
        ds = s_ab[1] - s_ab[0]
        de = e_b - e_a
        self_term = (
            ds * (aggd[0] + aggd[2])
            + aggd[1] * (s_ab[1] * e_b - s_ab[0] * e_a)
            + de * (aggd[3] + ds * diag_sum[1])
        )
        return self_term - coupling

    def delta_toggle(self, bit: int) -> float:
        """Power change of a single inversion toggle (batch-of-one)."""
        return float(self.delta_toggles(np.array([bit]))[0])

    def delta_swap(self, bit_a: int, bit_b: int) -> float:
        """Power change of a single bit-pair swap (batch-of-one)."""
        if self.line_of_bit[bit_a] == self.line_of_bit[bit_b]:
            return 0.0
        return float(self.delta_swaps(np.array([[bit_a, bit_b]]))[0])

    # -- move application ------------------------------------------------------

    def toggle(self, bit: int, delta: Optional[float] = None) -> float:
        """Commit an inversion toggle; returns its delta."""
        if delta is None:
            delta = self.delta_toggle(bit)
        line = int(self.line_of_bit[bit])
        self.inverted[bit] = not self.inverted[bit]
        self.p[line] = 1.0 - self.p[line]
        self.eps[line] = self.p[line] - 0.5
        # Negate row and column `line` of both t and its transpose (the
        # doubly-negated diagonal entry is zero anyway).
        self._tt[:, line, :] *= -1.0
        self._tt[:, :, line] *= -1.0
        self._refresh()
        return delta

    def swap(
        self, bit_a: int, bit_b: int, delta: Optional[float] = None
    ) -> float:
        """Commit a bit-pair swap; returns its delta."""
        if delta is None:
            delta = self.delta_swap(bit_a, bit_b)
        la = int(self.line_of_bit[bit_a])
        lb = int(self.line_of_bit[bit_b])
        if la == lb:
            return 0.0
        self.line_of_bit[bit_a], self.line_of_bit[bit_b] = lb, la
        self.bit_of_line[la], self.bit_of_line[lb] = bit_b, bit_a
        for arr in (self.sw, self.p, self.eps):
            arr[la], arr[lb] = arr[lb], arr[la]
        self._tt[:, [la, lb], :] = self._tt[:, [lb, la], :]
        self._tt[:, :, [la, lb]] = self._tt[:, :, [lb, la]]
        self._refresh()
        return delta


def as_compiled(
    cost: Union[PowerModel, CompiledPowerModel, object],
) -> Optional[CompiledPowerModel]:
    """Compiled kernels for a search cost, or ``None`` for generic callables.

    Also returns ``None`` for a (physically impossible) asymmetric
    capacitance decomposition, which the delta kernels do not support —
    the searches then silently take the generic path.
    """
    if isinstance(cost, CompiledPowerModel):
        return cost if cost.symmetric else None
    if isinstance(cost, PowerModel):
        compiled = CompiledPowerModel.compile(cost)
        return compiled if compiled.symmetric else None
    return None


def random_assignments(
    n: int,
    k: int,
    rng: np.random.Generator,
    with_inversions: bool = False,
) -> List[SignedPermutation]:
    """``k`` uniformly random assignments (batched-baseline helper)."""
    return [
        SignedPermutation.random(n, rng, with_inversions=with_inversions)
        for _ in range(k)
    ]
