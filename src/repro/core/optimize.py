"""Search for the power-optimal assignment ``A_pi`` (paper Eq. 10).

The search space is the signed symmetric group: all ``n!`` bit orderings
combined with all ``2^n`` inversion patterns, restricted by
:class:`~repro.core.assignment.AssignmentConstraints`. The paper uses
simulated annealing and notes the cost is negligible because each TSV
bundle is small; we provide:

* :func:`simulated_annealing` — the production search (swap and inversion
  moves, geometric cooling, optional multi-chain restarts);
* :func:`greedy_descent` — cheap deterministic polish: best-improvement
  hill climbing over all pair swaps and inversion toggles;
* :func:`exhaustive_search` — exact oracle for small ``n`` (tests, and the
  3x3 arrays of the paper's Sec. 7 are within reach without inversions).

Every search accepts its objective in two forms. A plain callable
``SignedPermutation -> float`` is the fully generic path. Passing a
:class:`~repro.core.power.PowerModel` (or a pre-built
:class:`~repro.core.fastpower.CompiledPowerModel`) instead enables the
fast path: ``O(n)`` delta-cost evaluation of the two local move types and
batched enumeration, typically an order of magnitude faster (see
``docs/performance.md`` and ``benchmarks/bench_optimize.py``).

Both annealing paths run *the same* batched-rejection Metropolis chain:
proposals are drawn in windows of ``_PROPOSAL_BATCH``, acceptance is the
threshold test ``delta <= -T log(u)``, moves whose ``|delta|`` is within
``_PLATEAU_REL_TOL`` of floating-point noise are rejected as plateau
shuffles, and the best accepted proposal of each window is committed.
The naive path prices each proposal with a scalar objective call; the
fast path prices whole windows with one vectorized kernel call. Given
the same seed the two paths take identical decisions and return
bit-identical best powers (``SearchResult.evaluations`` counts consumed
proposals and also matches), which is what CI's benchmark smoke gate
asserts.

:func:`_anneal_chain` is the one chain driver. Multi-restart runs hand
one chain per spawned generator to a
:class:`~repro.runtime.supervision.ChainSupervisor`, which runs them one
after another with bounded retries, degradation, a shared deadline and
per-chain checkpoints. Each TSV bundle is small, so neither lockstep
batching across chains nor a thread pool pays for itself (see
``docs/performance.md``).
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.assignment import AssignmentConstraints, SignedPermutation
from repro.core.fastpower import CompiledPowerModel, SearchState, as_compiled
from repro.core.power import PowerModel
from repro.rng import ensure_rng
from repro.runtime.artifacts import (
    CheckpointError,
    CheckpointStore,
    encode_rng_state,
    restore_rng_state,
)
from repro.runtime.faults import fault_point
from repro.runtime.supervision import ChainSupervisor, Deadline, RunControl

logger = logging.getLogger("repro.core.optimize")

CostFunction = Callable[[SignedPermutation], float]

#: What the searches accept as an objective: the generic callable, or a
#: power model (compiled on the fly) for the delta-cost fast path.
SearchCost = Union[CostFunction, PowerModel, CompiledPowerModel]

#: Relative improvement below which greedy descent treats a move as noise.
#: Relative (not absolute) so convergence does not depend on the unit
#: scale of the capacitance matrix (farads vs femtofarads).
RELATIVE_IMPROVEMENT_TOL = 1e-12

#: Chunk size for batched exhaustive enumeration on the fast path.
_ENUMERATION_CHUNK = 512

#: Proposals priced per batch in the annealer's inner loop. Rejected
#: proposals cost one vectorized kernel call per batch instead of one per
#: proposal, which is where the fast path's speed-up comes from; at most
#: one move (the best accepted one) is committed per batch, so larger
#: batches are faster but coarser-grained chains.
_PROPOSAL_BATCH = 32

#: Probability that a proposal is an inversion toggle when both move types
#: are available.
_TOGGLE_FRACTION = 0.3

#: Moves whose |delta| is below this (relative to the current power) are
#: treated as plateau moves and never committed: symmetric arrays carry
#: large move-degeneracy, and shuffling between exactly-equivalent states
#: costs apply work without changing the chain's power. Far above the
#: ~1e-16 relative noise of delta evaluation, so the naive and fast paths
#: classify moves identically.
_PLATEAU_REL_TOL = 1e-12


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an assignment search.

    ``completed`` is False when the search returned early with its
    best-so-far (wall-clock deadline expired, or a SIGINT/Ctrl-C was
    converted into a clean return); ``n_failed_chains`` counts annealing
    chains that produced no result even after their bounded retries (the
    run *degraded* to the surviving chains instead of raising).
    """

    assignment: SignedPermutation
    power: float
    evaluations: int
    completed: bool = True
    n_failed_chains: int = 0


def _assignment_payload(assignment: SignedPermutation) -> Dict[str, Any]:
    """Checkpoint-friendly description of an assignment."""
    return {
        "line_of_bit": list(assignment.line_of_bit),
        "inverted": [bool(flag) for flag in assignment.inverted],
    }


def _assignment_from_payload(data: Dict[str, Any]) -> SignedPermutation:
    return SignedPermutation.from_sequence(
        data["line_of_bit"], data["inverted"]
    )


def _cost_callable(cost: SearchCost) -> CostFunction:
    """The scalar objective behind any accepted cost form."""
    if isinstance(cost, (PowerModel, CompiledPowerModel)):
        return cost.power
    return cost


def _constrained_identity(
    n: int, constraints: AssignmentConstraints
) -> SignedPermutation:
    """A valid starting assignment honouring pinned lines."""
    constraints.validate_for(n)
    line_of_bit = [-1] * n
    used = set()
    for bit, line in constraints.pinned.items():
        line_of_bit[bit] = line
        used.add(line)
    free_lines = iter(line for line in range(n) if line not in used)
    for bit in range(n):
        if line_of_bit[bit] < 0:
            line_of_bit[bit] = next(free_lines)
    return SignedPermutation.from_sequence(line_of_bit)


def _enumerate_assignments(
    n_bits: int,
    with_inversions: bool,
    constraints: AssignmentConstraints,
):
    """Yield every assignment of the constrained signed symmetric group."""
    free = constraints.free_bits(n_bits)
    invertible = constraints.invertible_bits(n_bits) if with_inversions else ()
    pinned_lines = set(constraints.pinned.values())
    free_lines = [line for line in range(n_bits) if line not in pinned_lines]
    for perm in itertools.permutations(free_lines):
        line_of_bit = [0] * n_bits
        for bit, line in constraints.pinned.items():
            line_of_bit[bit] = line
        for bit, line in zip(free, perm):
            line_of_bit[bit] = line
        for pattern in itertools.product((False, True), repeat=len(invertible)):
            inverted = [False] * n_bits
            for bit, flag in zip(invertible, pattern):
                inverted[bit] = flag
            yield SignedPermutation.from_sequence(line_of_bit, inverted)


def exhaustive_search(
    cost: SearchCost,
    n_bits: int,
    with_inversions: bool = True,
    constraints: AssignmentConstraints = AssignmentConstraints(),
) -> SearchResult:
    """Exact minimum by enumeration — exponential, for small ``n`` only.

    Raises when the space exceeds ~2 million assignments; use simulated
    annealing beyond that. With a power model the candidates are evaluated
    in vectorized batches instead of one congruence per candidate.
    """
    constraints.validate_for(n_bits)
    free = constraints.free_bits(n_bits)
    invertible = constraints.invertible_bits(n_bits) if with_inversions else ()
    space = math.factorial(len(free)) * (2 ** len(invertible))
    if space > 2_000_000:
        raise ValueError(
            f"exhaustive search space too large ({space} assignments)"
        )

    candidates = _enumerate_assignments(n_bits, with_inversions, constraints)
    compiled = as_compiled(cost)
    best_assignment: Optional[SignedPermutation] = None
    best_power = math.inf
    evaluations = 0
    if compiled is not None:
        while True:
            chunk = list(itertools.islice(candidates, _ENUMERATION_CHUNK))
            if not chunk:
                break
            values = compiled.powers(chunk)
            evaluations += len(chunk)
            # Stable key: argmin keeps the first index among equal
            # powers, and _enumerate_assignments yields candidates in a
            # fixed lexicographic order, so ties always resolve to the
            # lexicographically-smallest assignment.
            at = int(np.argmin(values))  # repro: noqa[REP306]
            if values[at] < best_power:
                best_power = float(values[at])
                best_assignment = chunk[at]
        assert best_assignment is not None
        # Report with the reference operation sequence (bit-identical to
        # PowerModel.power) rather than the batched einsum value.
        return SearchResult(
            best_assignment, compiled.power(best_assignment), evaluations
        )

    for candidate in candidates:
        value = cost(candidate)
        evaluations += 1
        if value < best_power:
            best_power = value
            best_assignment = candidate
    assert best_assignment is not None
    return SearchResult(best_assignment, best_power, evaluations)


def greedy_descent(
    cost: SearchCost,
    start: SignedPermutation,
    with_inversions: bool = True,
    constraints: AssignmentConstraints = AssignmentConstraints(),
    max_rounds: int = 1000,
) -> SearchResult:
    """Best-improvement hill climbing over swaps and inversion toggles.

    A move must beat the current power by more than
    :data:`RELATIVE_IMPROVEMENT_TOL` (relative) to be taken, so termination
    is unit-scale independent.
    """
    n = start.n_bits
    constraints.validate_for(n)
    if not constraints.allows(start):
        raise ValueError("start assignment violates the constraints")
    free = constraints.free_bits(n)
    invertible = constraints.invertible_bits(n) if with_inversions else ()
    compiled = as_compiled(cost)
    if compiled is not None:
        return _greedy_descent_fast(
            compiled, start, free, invertible, max_rounds
        )

    scalar_cost = _cost_callable(cost)
    current = start
    current_power = scalar_cost(current)
    evaluations = 1
    for _ in range(max_rounds):
        threshold = RELATIVE_IMPROVEMENT_TOL * abs(current_power)
        best_move: Optional[SignedPermutation] = None
        best_power = current_power
        for a_idx in range(len(free)):
            for b_idx in range(a_idx + 1, len(free)):
                candidate = current.with_swapped_bits(free[a_idx], free[b_idx])
                value = scalar_cost(candidate)
                evaluations += 1
                if value < best_power - threshold:
                    best_power = value
                    best_move = candidate
        for bit in invertible:
            candidate = current.with_toggled_inversion(bit)
            value = scalar_cost(candidate)
            evaluations += 1
            if value < best_power - threshold:
                best_power = value
                best_move = candidate
        if best_move is None:
            break
        current, current_power = best_move, best_power
    return SearchResult(current, current_power, evaluations)


def _greedy_descent_fast(
    compiled: CompiledPowerModel,
    start: SignedPermutation,
    free: Sequence[int],
    invertible: Sequence[int],
    max_rounds: int,
) -> SearchResult:
    """Delta-cost best-improvement descent, one batched pricing per round."""
    state = compiled.start(start)
    evaluations = 1
    pairs = np.array(
        [
            (free[a_idx], free[b_idx])
            for a_idx in range(len(free))
            for b_idx in range(a_idx + 1, len(free))
        ],
        dtype=np.intp,
    ).reshape(-1, 2)
    toggles = np.asarray(invertible, dtype=np.intp)
    for _ in range(max_rounds):
        threshold = RELATIVE_IMPROVEMENT_TOL * abs(state.power)
        chunks = []
        if len(pairs):
            chunks.append(state.delta_swaps(pairs))
        if len(toggles):
            chunks.append(state.delta_toggles(toggles))
        if not chunks:
            break
        evaluations += len(pairs) + len(toggles)
        deltas = np.concatenate(chunks)
        at = int(np.argmin(deltas))
        best_delta = float(deltas[at])
        if best_delta >= -threshold:
            break
        if at < len(pairs):
            state.swap(int(pairs[at, 0]), int(pairs[at, 1]), best_delta)
        else:
            state.toggle(int(toggles[at - len(pairs)]), best_delta)
    assignment = state.assignment()
    return SearchResult(assignment, compiled.power(assignment), evaluations)


def _propose_move(
    rng: np.random.Generator,
    free: Sequence[int],
    invertible: Sequence[int],
) -> Tuple[str, int, int]:
    """One uniform random local move (shared by the naive and fast paths).

    The draw sequence (one uniform for the move-type choice when both move
    types are available, then the index draws) is part of the reproducible
    behaviour of the annealer: both evaluation paths consume the generator
    identically.
    """
    use_inversion = (
        len(invertible) > 0
        and (len(free) < 2 or rng.random() < _TOGGLE_FRACTION)
    )
    if use_inversion:
        bit = invertible[rng.integers(len(invertible))]
        return ("toggle", int(bit), 0)
    a, b = rng.choice(len(free), size=2, replace=False)
    return ("swap", int(free[a]), int(free[b]))


def _draw_proposals(
    rng: np.random.Generator,
    batch: int,
    free: np.ndarray,
    invertible: np.ndarray,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray],
           Optional[np.ndarray], np.ndarray]:
    """Pre-draw a batch of annealing proposals and acceptance uniforms.

    Returns ``(use_toggle, toggle_bits, swap_a, swap_b, accept_u)``, each of
    length ``batch`` (the move arrays are ``None`` when that move type is
    unavailable). Both evaluation paths consume the generator through this
    one function, in a fixed draw order that does not depend on which
    proposals end up being used, so the naive and fast paths see identical
    proposal sequences for the same generator state.
    """
    can_swap = len(free) >= 2
    can_toggle = len(invertible) > 0
    if can_toggle and can_swap:
        use_toggle = rng.random(batch) < _TOGGLE_FRACTION
    elif can_toggle:
        use_toggle = np.ones(batch, dtype=bool)
    else:
        use_toggle = np.zeros(batch, dtype=bool)
    toggle_bits = (
        invertible[rng.integers(0, len(invertible), batch)]
        if can_toggle else None
    )
    if can_swap:
        first = rng.integers(0, len(free), batch)
        second = rng.integers(0, len(free) - 1, batch)
        # Uniform ordered pair without replacement: shift the second draw
        # past the first index.
        second = second + (second >= first)
        swap_a, swap_b = free[first], free[second]
    else:
        swap_a = swap_b = None
    accept_u = rng.random(batch)
    return use_toggle, toggle_bits, swap_a, swap_b, accept_u


def _apply_move(
    assignment: SignedPermutation, move: Tuple[str, int, int]
) -> SignedPermutation:
    if move[0] == "toggle":
        return assignment.with_toggled_inversion(move[1])
    return assignment.with_swapped_bits(move[1], move[2])


def simulated_annealing(
    cost: SearchCost,
    n_bits: int,
    with_inversions: bool = True,
    constraints: AssignmentConstraints = AssignmentConstraints(),
    start: Optional[SignedPermutation] = None,
    rng: Optional[np.random.Generator] = None,
    initial_temperature: Optional[float] = None,
    cooling: float = 0.93,
    steps_per_temperature: Optional[int] = None,
    min_temperature_ratio: float = 1e-4,
    polish: bool = True,
    n_restarts: int = 1,
    deadline_s: Optional[float] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 4,
    resume_from: Optional[Union[str, Path]] = None,
    max_chain_retries: int = 2,
) -> SearchResult:
    """Simulated annealing over signed permutations (the paper's choice).

    Moves are uniform random bit-pair swaps and (when allowed) inversion
    toggles. The initial temperature defaults to the standard deviation of
    the cost over a random-walk warm-up, the schedule is geometric, and the
    best-seen assignment is optionally polished with :func:`greedy_descent`.

    Proposals are consumed in windows (see the module docstring): the best
    accepted move per window is committed, plateau moves — ``|delta|``
    indistinguishable from floating-point noise — are rejected, and
    ``SearchResult.evaluations`` counts consumed proposals. The chain is
    identical whether the objective is a scalar callable or a power model;
    only the pricing differs (per proposal vs per window), so a fixed seed
    yields bit-identical best powers on both paths.

    ``n_restarts > 1`` runs that many independent chains, one after
    another, each seeded from one of the parent generator's spawned seed
    sequences (deterministic for a fixed generator state), and returns the
    best result.

    Fault tolerance (see ``docs/robustness.md``):

    * ``deadline_s`` — wall-clock budget; on expiry the search returns its
      best-so-far with ``completed=False`` instead of raising.
    * ``checkpoint_dir`` — each chain writes a versioned, checksummed
      checkpoint every ``checkpoint_every`` temperature levels through
      :class:`repro.runtime.CheckpointStore`; when the directory already
      holds valid checkpoints of the same run configuration, the search
      *resumes* from them, and the resumed run is bit-identical to an
      uninterrupted one. ``resume_from`` is an alias that also sets the
      checkpoint directory.
    * crashed chains (``n_restarts > 1``) are retried up to
      ``max_chain_retries`` times from a freshly rebuilt chain generator
      (or their last checkpoint), so retries do not change the result;
      chains that still fail are dropped with a warning and counted in
      ``SearchResult.n_failed_chains``.
    * a ``KeyboardInterrupt``/SIGINT is converted into a clean best-so-far
      return (``completed=False``) with a final resumable checkpoint.
    """
    constraints.validate_for(n_bits)
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
    if deadline_s is not None and deadline_s < 0:
        raise ValueError(f"deadline_s must be >= 0, got {deadline_s}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if max_chain_retries < 0:
        raise ValueError(f"max_chain_retries must be >= 0, got {max_chain_retries}")
    rng = ensure_rng(rng)
    if start is None:
        start = _constrained_identity(n_bits, constraints)
    elif not constraints.allows(start):
        raise ValueError("start assignment violates the constraints")
    free = constraints.free_bits(n_bits)
    invertible = constraints.invertible_bits(n_bits) if with_inversions else ()
    if len(free) < 2 and not invertible:
        return SearchResult(start, _cost_callable(cost)(start), 1)
    if steps_per_temperature is None:
        steps_per_temperature = 25 * n_bits

    if resume_from is not None and checkpoint_dir is None:
        checkpoint_dir = resume_from
    store: Optional[CheckpointStore] = None
    if checkpoint_dir is not None:
        store = CheckpointStore(
            Path(checkpoint_dir),
            kind="simulated-annealing",
            fingerprint={
                "n_bits": n_bits,
                "with_inversions": with_inversions,
                "pinned": constraints.pinned,
                "no_invert": constraints.no_invert,
                "start": _assignment_payload(start),
                "initial_temperature": initial_temperature,
                "cooling": cooling,
                "steps_per_temperature": steps_per_temperature,
                "min_temperature_ratio": min_temperature_ratio,
                "n_restarts": n_restarts,
            },
        )
    control = RunControl(
        deadline=Deadline(deadline_s) if deadline_s is not None else None
    )

    compiled = as_compiled(cost)
    if n_restarts == 1:
        # The single chain consumes the caller's generator directly (so
        # generator state keeps flowing); retries are a multi-chain
        # feature — an injected crash propagates here.
        return _anneal_chain(
            cost, compiled, start, free, invertible, rng,
            initial_temperature, cooling, steps_per_temperature,
            min_temperature_ratio, polish, n_bits, with_inversions,
            constraints, control=control, store=store,
            checkpoint_every=checkpoint_every,
        )

    supervisor = ChainSupervisor(
        rng, n_restarts, max_retries=max_chain_retries,
        control=control, name="annealing chain",
    )

    def run_chain(
        index: int,
        chain_rng: np.random.Generator,
        chain_control: RunControl,
        attempt: int,
    ) -> SearchResult:
        # Chains are polished once at the end, on the winner only.
        return _anneal_chain(
            cost, compiled, start, free, invertible, chain_rng,
            initial_temperature, cooling, steps_per_temperature,
            min_temperature_ratio, False, n_bits, with_inversions,
            constraints, control=chain_control, chain_id=index,
            attempt=attempt, store=store, checkpoint_every=checkpoint_every,
        )

    report = supervisor.run(run_chain)
    results = report.results()
    if not results:
        raise RuntimeError(
            f"all {n_restarts} annealing chains failed "
            f"(last error: {report.outcomes[-1].error})"
        )
    best = min(results, key=lambda result: result.power)
    evaluations = sum(result.evaluations for result in results)
    completed = (
        all(result.completed for result in results)
        and not report.interrupted
        and not control.should_stop()
    )
    best_assignment, best_power = best.assignment, best.power
    if polish and completed:
        polished = greedy_descent(
            compiled if compiled is not None else cost,
            best_assignment,
            with_inversions=with_inversions,
            constraints=constraints,
        )
        evaluations += polished.evaluations
        if polished.power < best_power:
            best_assignment, best_power = polished.assignment, polished.power
    return SearchResult(
        best_assignment, best_power, evaluations,
        completed=completed, n_failed_chains=report.n_failed,
    )


def _anneal_chain(
    cost: SearchCost,
    compiled: Optional[CompiledPowerModel],
    start: SignedPermutation,
    free: Sequence[int],
    invertible: Sequence[int],
    rng: np.random.Generator,
    initial_temperature: Optional[float],
    cooling: float,
    steps_per_temperature: Optional[int],
    min_temperature_ratio: float,
    polish: bool,
    n_bits: int,
    with_inversions: bool,
    constraints: AssignmentConstraints,
    control: Optional[RunControl] = None,
    chain_id: int = 0,
    attempt: int = 0,
    store: Optional[CheckpointStore] = None,
    checkpoint_every: int = 4,
) -> SearchResult:
    """One annealing chain; delta-evaluated when ``compiled`` is given.

    When ``store`` is given the chain snapshots itself at temperature-level
    boundaries *before* consuming that level's draws, so a resumed chain
    restores the snapshot's RNG state and replays the exact draw sequence
    of an uninterrupted run — the resume is bit-identical.
    """
    if steps_per_temperature is None:
        steps_per_temperature = 25 * n_bits
    chain_name = f"chain_{chain_id:02d}"
    fault_point("chain_crash", chain=chain_id, attempt=attempt)

    resumed: Optional[Dict[str, Any]] = None
    if store is not None:
        checkpoint = store.load(chain_name)
        if checkpoint is not None:
            if checkpoint.payload.get("phase") == "done":
                payload = checkpoint.payload
                logger.info("%s already finished; reusing result", chain_name)
                return SearchResult(
                    _assignment_from_payload(payload["best"]),
                    float(payload["best_power"]),
                    int(payload["evaluations"]),
                    completed=True,
                )
            resumed = checkpoint.payload

    level = 0
    temperature = initial_temperature
    if resumed is not None:
        try:
            current = _assignment_from_payload(resumed["current"])
            best = _assignment_from_payload(resumed["best"])
            best_power = float(resumed["best_power"])
            current_power = float(resumed["current_power"])
            evaluations = int(resumed["evaluations"])
            initial_temperature = float(resumed["initial_temperature"])
            temperature = float(resumed["temperature"])
            level = int(resumed["level"])
            restore_rng_state(rng, resumed["rng"])
        except (CheckpointError, KeyError, TypeError, ValueError) as exc:
            logger.warning(
                "cannot resume %s from its checkpoint (%s); starting fresh",
                chain_name, exc,
            )
            resumed = None

    state: Optional[SearchState] = None
    scalar_cost: Optional[CostFunction] = None
    if resumed is not None:
        logger.info("resuming %s at temperature level %d", chain_name, level)
        if compiled is not None:
            state = compiled.start(current)
            # The fast path re-derives the state power from scratch after
            # every applied move, so this matches the interrupted chain's
            # running current_power bit for bit.
            current_power = state.power
        else:
            scalar_cost = _cost_callable(cost)
    else:
        if compiled is not None:
            state = compiled.start(start)
            current_power = state.power
            current = start
        else:
            scalar_cost = _cost_callable(cost)
            current = start
            current_power = scalar_cost(current)
        evaluations = 1
        best = current
        best_power = current_power

    interrupted = False
    stopped = False
    boundary: Optional[Dict[str, Any]] = None
    free_arr = np.asarray(free, dtype=np.intp)
    inv_arr = np.asarray(invertible, dtype=np.intp)
    try:
        if resumed is None:
            if initial_temperature is None:
                # Warm-up random walk to scale the temperature to the
                # cost surface.
                samples = []
                probe = current
                for _ in range(max(20, 2 * n_bits)):
                    move = _propose_move(rng, free, invertible)
                    if state is not None:
                        if move[0] == "toggle":
                            state.toggle(move[1])
                        else:
                            state.swap(move[1], move[2])
                        value = state.power
                        probe = state.assignment()
                    else:
                        probe = _apply_move(probe, move)
                        value = scalar_cost(probe)
                    evaluations += 1
                    samples.append(value)
                    if value < best_power:
                        best, best_power = probe, value
                spread = float(np.std(samples))
                initial_temperature = (
                    spread if spread > 0.0 else abs(best_power) * 0.01
                )
                current, current_power = best, best_power
                if state is not None:
                    # Restart the chain from the best warm-up sample.
                    state = compiled.start(best)
                    current_power = state.power
                    best_power = current_power
            temperature = initial_temperature

        floor = initial_temperature * min_temperature_ratio
        while temperature > floor and temperature > 0.0:
            if state is not None:
                current = state.assignment()
            # Boundary snapshot BEFORE this level's draws: a resume
            # restores the generator here and replays the level whole.
            boundary = {
                "phase": "annealing",
                "level": level,
                "temperature": temperature,
                "initial_temperature": initial_temperature,
                "current": _assignment_payload(current),
                "current_power": current_power,
                "best": _assignment_payload(best),
                "best_power": best_power,
                "evaluations": evaluations,
                "rng": encode_rng_state(rng),
            }
            if store is not None and level % checkpoint_every == 0:
                store.save(chain_name, boundary, step=level)
            fault_point("interrupt_at", chain=chain_id, level=level)
            if control is not None and control.should_stop():
                stopped = True
                break
            accepted = 0
            # One draw call covers the whole temperature level; the inner
            # loop slices it into pricing batches. Proposals are priced in
            # batches against the *current* state: each batch runs one
            # Metropolis accept test per proposal and commits the best
            # accepted move (the batched-rejection chain). Both paths run
            # this same chain — the fast path prices a batch in one
            # vectorized kernel call, the naive path with one full
            # evaluation per proposal — so for a fixed generator state
            # they visit identical assignments.
            use_toggle, toggle_bits, swap_a, swap_b, accept_u = (
                _draw_proposals(rng, steps_per_temperature, free_arr, inv_arr)
            )
            # Metropolis acceptance u < exp(-delta/T) recast as
            # delta <= -T*log(u): one comparison per proposal instead of
            # an exp per batch (identical decisions; u is never exactly 1).
            thresholds = -temperature * np.log(accept_u)
            if state is not None:
                # Partition the level's proposals by move type once;
                # pricing rounds then address the partitions through
                # sorted index ranges. The whole remaining level is priced
                # in one kernel call per round — valid for every batch
                # until a move commits (the state is unchanged up to that
                # point), after which only the suffix is re-priced. Levels
                # with few acceptances (the regime the cooled-down chain
                # spends most of its time in) cost one or two kernel calls
                # instead of one per batch.
                tog_idx = np.flatnonzero(use_toggle)
                sw_idx = np.flatnonzero(~use_toggle)
                tog_bits_lvl = toggle_bits[tog_idx] if len(tog_idx) else None
                sw_pairs_lvl = (
                    np.column_stack((swap_a[sw_idx], swap_b[sw_idx]))
                    if len(sw_idx) else None
                )
                offset = 0
                # Pricing horizon in batches: when commits are frequent
                # most of a long horizon would be re-priced anyway, so
                # start at one batch and double while nothing commits
                # (cold levels then need O(log) kernel calls), resetting
                # after each commit.
                horizon = 1
                while offset < steps_per_temperature:
                    span = min(
                        horizon * _PROPOSAL_BATCH,
                        steps_per_temperature - offset,
                    )
                    end = offset + span
                    t_lo, t_hi = np.searchsorted(tog_idx, (offset, end))
                    s_lo, s_hi = np.searchsorted(sw_idx, (offset, end))
                    deltas = np.empty(span)
                    if t_hi > t_lo:
                        deltas[tog_idx[t_lo:t_hi] - offset] = (
                            state.delta_toggles(tog_bits_lvl[t_lo:t_hi])
                        )
                    if s_hi > s_lo:
                        deltas[sw_idx[s_lo:s_hi] - offset] = (
                            state.delta_swaps(sw_pairs_lvl[s_lo:s_hi])
                        )
                    plateau = _PLATEAU_REL_TOL * abs(current_power)
                    accept = (
                        deltas <= thresholds[offset:end]
                    ) & (np.abs(deltas) > plateau)
                    committed = False
                    for woff in range(0, span, _PROPOSAL_BATCH):
                        wlen = min(_PROPOSAL_BATCH, span - woff)
                        wacc = accept[woff:woff + wlen]
                        if not wacc.any():
                            continue
                        wdel = deltas[woff:woff + wlen]
                        hit = int(np.argmin(np.where(wacc, wdel, np.inf)))
                        idx = offset + woff + hit
                        if use_toggle[idx]:
                            state.toggle(
                                int(toggle_bits[idx]), float(wdel[hit])
                            )
                        else:
                            state.swap(
                                int(swap_a[idx]), int(swap_b[idx]),
                                float(wdel[hit]),
                            )
                        current_power = state.power
                        if current_power < best_power:
                            best, best_power = (
                                state.assignment(), current_power
                            )
                        accepted += 1
                        evaluations += woff + wlen
                        offset += woff + wlen
                        horizon = 1
                        committed = True
                        break
                    if not committed:
                        evaluations += span
                        offset = end
                        horizon *= 2
                temperature *= cooling
                level += 1
                if accepted == 0 and temperature < initial_temperature * 1e-2:
                    break
                continue
            for offset in range(0, steps_per_temperature, _PROPOSAL_BATCH):
                batch = min(_PROPOSAL_BATCH, steps_per_temperature - offset)
                best_i = -1
                best_delta = math.inf
                best_candidate = None
                best_value = math.inf
                plateau = _PLATEAU_REL_TOL * abs(current_power)
                for i in range(offset, offset + batch):
                    if use_toggle[i]:
                        candidate = current.with_toggled_inversion(
                            int(toggle_bits[i])
                        )
                    else:
                        candidate = current.with_swapped_bits(
                            int(swap_a[i]), int(swap_b[i])
                        )
                    value = scalar_cost(candidate)
                    evaluations += 1
                    delta = value - current_power
                    if (
                        delta <= thresholds[i]
                        and abs(delta) > plateau
                        and delta < best_delta
                    ):
                        best_i = i
                        best_delta = delta
                        best_candidate, best_value = candidate, value
                if best_i < 0:
                    continue
                current, current_power = best_candidate, best_value
                if best_value < best_power:
                    best, best_power = best_candidate, best_value
                accepted += 1
            temperature *= cooling
            level += 1
            if accepted == 0 and temperature < initial_temperature * 1e-2:
                break
    except KeyboardInterrupt:
        # Clean best-so-far return; the final checkpoint below keeps the
        # run resumable.
        interrupted = True
        logger.warning(
            "%s interrupted at level %d; returning best-so-far",
            chain_name, level,
        )
        if control is not None:
            control.request_stop(interrupted=True)

    completed = not interrupted and not stopped
    if polish and completed:
        try:
            polished = greedy_descent(
                compiled if compiled is not None else cost,
                best,
                with_inversions=with_inversions,
                constraints=constraints,
            )
            evaluations += polished.evaluations
            if polished.power < best_power:
                best, best_power = polished.assignment, polished.power
        except KeyboardInterrupt:
            completed = False
            if control is not None:
                control.request_stop(interrupted=True)
    if compiled is not None:
        # Drift-free report: re-derive the winner's power with the
        # reference operation sequence.
        best_power = compiled.power(best)
    if store is not None:
        if completed:
            store.save(
                chain_name,
                {
                    "phase": "done",
                    "best": _assignment_payload(best),
                    "best_power": best_power,
                    "evaluations": evaluations,
                },
                step=level,
            )
        elif boundary is not None:
            store.save(chain_name, boundary, step=int(boundary["level"]))
    return SearchResult(best, best_power, evaluations, completed=completed)


def optimize_power_model(
    model: PowerModel,
    method: str = "sa",
    with_inversions: bool = True,
    constraints: AssignmentConstraints = AssignmentConstraints(),
    rng: Optional[np.random.Generator] = None,
    n_restarts: int = 1,
    deadline_s: Optional[float] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume_from: Optional[Union[str, Path]] = None,
) -> SearchResult:
    """Convenience wrapper: minimize a :class:`PowerModel` directly.

    Hands the model itself to the search, so all methods take the compiled
    delta-cost/batched fast path. The fault-tolerance knobs (``deadline_s``,
    ``checkpoint_dir``, ``resume_from``) are forwarded to
    :func:`simulated_annealing`; the other methods run to completion.
    """
    if method == "sa":
        return simulated_annealing(
            model,
            model.n_lines,
            with_inversions=with_inversions,
            constraints=constraints,
            rng=rng,
            n_restarts=n_restarts,
            deadline_s=deadline_s,
            checkpoint_dir=checkpoint_dir,
            resume_from=resume_from,
        )
    if method == "greedy":
        start = _constrained_identity(model.n_lines, constraints)
        return greedy_descent(
            model, start, with_inversions=with_inversions,
            constraints=constraints,
        )
    if method == "exhaustive":
        return exhaustive_search(
            model,
            model.n_lines,
            with_inversions=with_inversions,
            constraints=constraints,
        )
    raise ValueError(f"unknown optimization method {method!r}")


#: Exactness discipline (REP3xx, see ``docs/static_analysis.md``): every
#: search entry point returns the assignment a paper table is built from,
#: so for a fixed model/seed the result must be reproducible — no
#: wall-clock values, unordered iteration, or undocumented float
#: tie-breaks may decide it.
REPRO_SIGNATURES = {
    "@deterministic": [
        "exhaustive_search",
        "greedy_descent",
        "simulated_annealing",
        "optimize_power_model",
    ],
}
