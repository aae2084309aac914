"""Supervised execution of independent chains: retries, deadlines, interrupts.

:class:`ChainSupervisor` owns the fan-out of ``n`` independent chains
(annealing restarts today; shards and remote workers tomorrow) and the
three failure modes every long computation has:

* a **crashed chain** is retried a bounded number of times, each attempt
  with a *freshly rebuilt* generator from the chain's own spawned seed
  sequence — so a chain that crashed and was retried produces bit for bit
  the result it would have produced had it never crashed, and a run with
  ``k`` unlucky chains is indistinguishable from a lucky one;
* an exhausted chain (all retries failed) is **dropped with a warning**
  and the run degrades to the surviving chains instead of dying;
* a **deadline** or **Ctrl-C** flips the shared :class:`RunControl`, which
  chains poll at their checkpoint boundaries to return best-so-far.

The supervisor knows nothing about annealing: chains are arbitrary
callables ``(index, rng, control, attempt) -> result``.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np

logger = logging.getLogger("repro.runtime")

#: What the supervisor runs: ``(chain_index, rng, control, attempt)``.
ChainFunction = Callable[
    [int, np.random.Generator, "RunControl", int], Any
]


class Deadline:
    """A wall-clock budget measured from construction time."""

    def __init__(self, budget_s: float) -> None:
        if budget_s < 0:
            raise ValueError(f"deadline budget must be >= 0, got {budget_s}")
        self.budget_s = float(budget_s)
        self._started = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def remaining(self) -> float:
        return self.budget_s - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0


class RunControl:
    """Shared cancellation state of one supervised run.

    Chains poll :meth:`should_stop` at cheap boundaries (temperature
    levels, sweep points) and return their best-so-far when it flips.
    ``interrupted`` records *why*: a Ctrl-C/SIGINT-style interrupt (so
    callers can distinguish it from a deadline expiry).
    """

    def __init__(self, deadline: Optional[Deadline] = None) -> None:
        self.deadline = deadline
        self._stop = threading.Event()
        self._interrupted = threading.Event()

    @property
    def interrupted(self) -> bool:
        return self._interrupted.is_set()

    def request_stop(self, interrupted: bool = False) -> None:
        if interrupted:
            self._interrupted.set()
        self._stop.set()

    def should_stop(self) -> bool:
        if self._stop.is_set():
            return True
        if self.deadline is not None and self.deadline.expired():
            self._stop.set()
            return True
        return False


@dataclass
class ChainOutcome:
    """What happened to one chain across all its attempts."""

    index: int
    result: Any = None
    attempts: int = 0
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.result is None


@dataclass
class SupervisionReport:
    """Aggregate outcome of a supervised run."""

    outcomes: List[ChainOutcome] = field(default_factory=list)
    interrupted: bool = False

    def results(self) -> List[Any]:
        """Successful chain results, in chain-index order."""
        return [
            outcome.result
            for outcome in sorted(self.outcomes, key=lambda o: o.index)
            if not outcome.failed
        ]

    @property
    def n_failed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.failed)

    @property
    def n_retried(self) -> int:
        return sum(max(0, outcome.attempts - 1) for outcome in self.outcomes)


def spawn_seed_sequences(
    rng: np.random.Generator, n: int
) -> List[np.random.SeedSequence]:
    """The next ``n`` child seed sequences of ``rng``'s bit generator.

    Identical to what ``rng.spawn(n)`` consumes, so supervised multi-chain
    runs draw the same per-chain streams as the plain ``Generator.spawn``
    path — but keeping the *sequences* lets a retry rebuild chain ``i``'s
    generator from scratch instead of resuming a half-consumed one.
    """
    bit_generator = rng.bit_generator
    seed_seq = getattr(bit_generator, "seed_seq", None)
    if not isinstance(seed_seq, np.random.SeedSequence):
        raise ValueError(
            "supervised chains need a Generator carrying a SeedSequence "
            "(anything np.random.default_rng produces); got a bare "
            f"{type(bit_generator).__name__} state"
        )
    return list(seed_seq.spawn(n))


class ChainSupervisor:
    """Run ``n_chains`` chain functions with retries under one control.

    Parameters
    ----------
    rng:
        Parent generator; each chain attempt gets a fresh generator built
        from the chain's spawned :class:`~numpy.random.SeedSequence`.
    n_chains:
        Number of chains, run one after another.
    max_retries:
        Extra attempts per chain after its first failure.
    control:
        Shared :class:`RunControl`; a fresh one is made if not given.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        n_chains: int,
        max_retries: int = 2,
        control: Optional[RunControl] = None,
        name: str = "chain",
    ) -> None:
        if n_chains < 1:
            raise ValueError(f"n_chains must be >= 1, got {n_chains}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.n_chains = n_chains
        self.max_retries = max_retries
        self.control = control if control is not None else RunControl()
        self.name = name
        self._seed_sequences = spawn_seed_sequences(rng, n_chains)
        self._bit_generator_cls = type(rng.bit_generator)

    def generator_for(self, index: int) -> np.random.Generator:
        """A fresh, attempt-independent generator for chain ``index``."""
        return np.random.Generator(
            self._bit_generator_cls(self._seed_sequences[index])
        )

    # -- execution -------------------------------------------------------------

    def _attempt(
        self, chain_fn: ChainFunction, outcome: ChainOutcome
    ) -> Any:
        attempt = outcome.attempts
        outcome.attempts += 1
        return chain_fn(
            outcome.index, self.generator_for(outcome.index),
            self.control, attempt,
        )

    def _note_failure(
        self, outcome: ChainOutcome, error: BaseException
    ) -> bool:
        """Record a failed attempt; True when the chain may retry."""
        outcome.error = f"{type(error).__name__}: {error}"
        retry = (
            outcome.attempts <= self.max_retries
            and not self.control.should_stop()
        )
        logger.warning(
            "%s %d failed (attempt %d/%d): %s%s",
            self.name, outcome.index, outcome.attempts,
            self.max_retries + 1, outcome.error,
            " — retrying" if retry else " — giving up",
        )
        return retry

    def run(self, chain_fn: ChainFunction) -> SupervisionReport:
        """Run every chain to completion, retry budget or stop signal."""
        outcomes = [ChainOutcome(index=i) for i in range(self.n_chains)]
        report = SupervisionReport(outcomes=outcomes)
        for outcome in outcomes:
            while True:
                try:
                    outcome.result = self._attempt(chain_fn, outcome)
                    outcome.error = None
                    break
                except KeyboardInterrupt:
                    # A chain that re-raises the interrupt instead of
                    # returning best-so-far: stop the whole run cleanly.
                    self.control.request_stop(interrupted=True)
                    report.interrupted = True
                    break
                except Exception as error:
                    if not self._note_failure(outcome, error):
                        break
            if report.interrupted:
                break
            # After a stop request the remaining chains still run once
            # each: they observe the flag at their first boundary and
            # return their cheap best-so-far, keeping the result
            # well-formed.
        report.interrupted = report.interrupted or self.control.interrupted
        if report.n_failed:
            logger.warning(
                "degraded run: %d of %d %ss produced no result",
                report.n_failed, self.n_chains, self.name,
            )
        return report
