"""Stateful link sessions: geometry + assignment + codec chain + accounts.

A :class:`LinkSession` is the server-side identity of one coded TSV link.
It binds

* a :class:`~repro.tsv.geometry.TSVArrayGeometry` (the physical array the
  coded words drive),
* a :class:`~repro.serve.codecs.CodecChain` built from JSON-able codec
  specs (each codec carries its own per-link history),
* a bit-to-TSV :class:`~repro.core.assignment.SignedPermutation`
  (typically the Eq. 10 optimum found offline and shipped in the link
  config),
* two :class:`~repro.serve.metrics.EnergyAccount` instances pricing the
  *coded* physical stream and the *uncoded* reference stream with the
  same fitted capacitance model, so the session can report live
  coded-vs-uncoded power savings that match the offline model bit for
  bit.

``decode(encode(x)) == x`` holds for every chain and arbitrary request
chunking (see :mod:`repro.serve.codecs`). Sessions are thread-safe but
serialized: the engine runs all batches of one link on a single worker so
codec history stays a totally ordered stream.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.assignment import SignedPermutation
from repro.datagen.util import words_to_bits
from repro.serve.codecs import (
    MAX_WORD_WIDTH,
    CodecChain,
    build_chain,
    parse_codec_spec,
)
from repro.serve.metrics import EnergyAccount
from repro.tsv.geometry import TSVArrayGeometry


class LinkConfigError(ValueError):
    """A link configuration that cannot be realized."""


#: Geometry fields accepted in a link config (SI units, metres).
_GEOMETRY_FIELDS = ("rows", "cols", "pitch", "radius", "length")


@dataclass
class LinkConfig:
    """JSON-able description of one coded link.

    Parameters
    ----------
    width:
        Payload word width in bits (1..``MAX_WORD_WIDTH``).
    geometry:
        The TSV array carrying the link.
    codecs:
        Codec spec dicts applied payload -> line side (see
        :func:`repro.serve.codecs.build_codec`). May be empty: a raw link
        still gets routing and energy accounting.
    assignment:
        Optional bit-to-TSV signed permutation over all ``n_tsvs`` lines
        (identity when omitted). Found offline, shipped with the config.
    cap_method:
        Capacitance extraction method for the energy accounts (see
        :func:`repro.experiments.common.cap_model_for`).
    """

    width: int
    geometry: TSVArrayGeometry
    codecs: List[Dict[str, object]] = field(default_factory=list)
    assignment: Optional[SignedPermutation] = None
    cap_method: str = "compact3d"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LinkConfig":
        """Parse and validate a config received over the control channel."""
        if not isinstance(data, Mapping):
            raise LinkConfigError(
                f"link config must be a mapping, got {type(data).__name__}"
            )
        fields = dict(data)
        try:
            width = int(fields.pop("width"))
        except KeyError:
            raise LinkConfigError(
                "link config needs a payload 'width'"
            ) from None
        except (TypeError, ValueError):
            raise LinkConfigError(
                "payload 'width' must be an integer"
            ) from None
        if not 1 <= width <= MAX_WORD_WIDTH:
            raise LinkConfigError(
                f"width must be in 1..{MAX_WORD_WIDTH}, got {width}"
            )

        geometry_spec = fields.pop("geometry", None)
        if not isinstance(geometry_spec, Mapping):
            raise LinkConfigError("link config needs a 'geometry' mapping")
        unknown = set(geometry_spec) - set(_GEOMETRY_FIELDS)
        if unknown:
            raise LinkConfigError(
                f"unknown geometry fields: {sorted(unknown)}"
            )
        try:
            kwargs: Dict[str, Any] = {
                "rows": int(geometry_spec["rows"]),
                "cols": int(geometry_spec["cols"]),
                "pitch": float(geometry_spec["pitch"]),
                "radius": float(geometry_spec["radius"]),
            }
            if "length" in geometry_spec:
                kwargs["length"] = float(geometry_spec["length"])
            geometry = TSVArrayGeometry(**kwargs)
        except LinkConfigError:
            raise
        except KeyError as exc:
            raise LinkConfigError(
                f"geometry needs field {exc.args[0]!r}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise LinkConfigError(f"bad geometry: {exc}") from exc

        codecs_spec = fields.pop("codecs", [])
        if isinstance(codecs_spec, str):
            codecs_spec = [codecs_spec]
        if not isinstance(codecs_spec, Sequence):
            raise LinkConfigError("'codecs' must be a list of codec specs")
        codecs: List[Dict[str, object]] = []
        for spec in codecs_spec:
            if isinstance(spec, str):
                codecs.append(parse_codec_spec(spec))
            elif isinstance(spec, Mapping):
                codecs.append(dict(spec))
            else:
                raise LinkConfigError(
                    f"codec spec must be a mapping or string, got {spec!r}"
                )

        assignment_spec = fields.pop("assignment", None)
        assignment: Optional[SignedPermutation] = None
        if assignment_spec is not None:
            if not isinstance(assignment_spec, Mapping):
                raise LinkConfigError(
                    "'assignment' must be a mapping with 'line_of_bit'"
                )
            try:
                assignment = SignedPermutation.from_sequence(
                    assignment_spec["line_of_bit"],
                    assignment_spec.get("inverted"),
                )
            except KeyError:
                raise LinkConfigError(
                    "assignment needs 'line_of_bit'"
                ) from None
            except (TypeError, ValueError) as exc:
                raise LinkConfigError(f"bad assignment: {exc}") from exc

        cap_method = str(fields.pop("cap_method", "compact3d"))
        if fields:
            raise LinkConfigError(
                f"unknown link config fields: {sorted(fields)}"
            )
        return cls(
            width=width,
            geometry=geometry,
            codecs=codecs,
            assignment=assignment,
            cap_method=cap_method,
        )

    def to_dict(self) -> Dict[str, Any]:
        geometry = {
            "rows": self.geometry.rows,
            "cols": self.geometry.cols,
            "pitch": self.geometry.pitch,
            "radius": self.geometry.radius,
            "length": self.geometry.length,
        }
        assignment = None
        if self.assignment is not None:
            assignment = {
                "line_of_bit": list(self.assignment.line_of_bit),
                "inverted": [bool(x) for x in self.assignment.inverted],
            }
        return {
            "width": self.width,
            "geometry": geometry,
            "codecs": [dict(spec) for spec in self.codecs],
            "assignment": assignment,
            "cap_method": self.cap_method,
        }


class LinkSession:
    """One live coded link: codec state, routing, and energy accounts.

    ``encode`` maps payload words to coded transport words, routes the
    coded bits onto the TSV lines through the configured assignment and
    books them (plus the uncoded reference bits) into the energy
    accounts; ``decode`` is the exact inverse of ``encode`` on the word
    level and books nothing (the receive side of a link does not drive
    the bus).
    """

    def __init__(self, config: LinkConfig) -> None:
        from repro.experiments.common import cap_model_for

        self.config = config
        geometry = config.geometry
        self.n_lines = geometry.n_tsvs
        try:
            self.chain: CodecChain = build_chain(
                config.codecs, config.width, geometry=geometry
            )
        except ValueError as exc:
            raise LinkConfigError(str(exc)) from exc
        if self.chain.width_out > self.n_lines:
            raise LinkConfigError(
                f"chain produces {self.chain.width_out}-bit words but the "
                f"{geometry.rows}x{geometry.cols} array has only "
                f"{self.n_lines} TSVs"
            )
        if config.width > self.n_lines:
            raise LinkConfigError(
                f"{config.width}-bit payload does not fit the "
                f"{self.n_lines}-TSV array"
            )
        if config.assignment is None:
            self.assignment = SignedPermutation.identity(self.n_lines)
        elif len(config.assignment.line_of_bit) != self.n_lines:
            raise LinkConfigError(
                f"assignment covers {len(config.assignment.line_of_bit)} "
                f"lines, array has {self.n_lines}"
            )
        else:
            self.assignment = config.assignment
        # Prime the chain once at link creation: the first encode pays
        # one-time kernel warm-up (ufunc dispatch caches, lazy buffers)
        # that would otherwise land inside the first served request's
        # latency. reset() restores pristine codec histories, so served
        # streams are unaffected.
        self.chain.encode(np.zeros(1, dtype=np.int64))
        self.chain.decode(np.zeros(1, dtype=np.int64))
        self.chain.reset()
        capacitance = cap_model_for(geometry, config.cap_method)
        self.coded_energy = EnergyAccount(self.n_lines, capacitance)
        self.uncoded_energy = EnergyAccount(self.n_lines, capacitance)
        #: Highest fleet sequence number whose effect is reflected in the
        #: codec histories and energy accounts. 0 = nothing applied. The
        #: fleet front uses this cut to trim its replay journal: a
        #: snapshot taken under the lock is consistent with exactly the
        #: requests numbered <= applied_seq.
        self.applied_seq = 0
        self._lock = threading.Lock()

    # -- data path ----------------------------------------------------------

    def encode(
        self, words: np.ndarray, seq: Optional[int] = None
    ) -> np.ndarray:
        """Payload words -> coded transport words, booking both accounts.

        ``seq`` (when given) is the fleet sequence number of the last
        request in the batch; it is folded into :attr:`applied_seq` under
        the same lock that mutates the codec chain, so snapshots are
        consistent cuts of the request stream.
        """
        with self._lock:
            coded = self.chain.encode(words)
            if len(coded):
                # Both streams are unsigned words narrower than the
                # array, so expanding them to the full line count leaves
                # the spare lines at zero.
                self.coded_energy.update(
                    self.assignment.apply_to_bits(
                        words_to_bits(coded, self.n_lines)
                    )
                )
                self.uncoded_energy.update(
                    words_to_bits(
                        np.asarray(words, dtype=np.int64), self.n_lines
                    )
                )
            if seq is not None:
                self.applied_seq = max(self.applied_seq, int(seq))
            return coded

    def decode(
        self, coded: np.ndarray, seq: Optional[int] = None
    ) -> np.ndarray:
        """Coded transport words -> payload words (exact inverse)."""
        with self._lock:
            decoded = self.chain.decode(coded)
            if seq is not None:
                self.applied_seq = max(self.applied_seq, int(seq))
            return decoded

    def reset(self, seq: Optional[int] = None) -> None:
        """Restart the stream: codec histories and energy accounts."""
        from repro.experiments.common import cap_model_for

        with self._lock:
            self.chain.reset()
            capacitance = cap_model_for(
                self.config.geometry, self.config.cap_method
            )
            self.coded_energy = EnergyAccount(self.n_lines, capacitance)
            self.uncoded_energy = EnergyAccount(self.n_lines, capacitance)
            if seq is not None:
                self.applied_seq = max(self.applied_seq, int(seq))

    # -- snapshot / restore --------------------------------------------------

    def _snapshot_locked(self) -> Dict[str, Any]:
        return {
            "applied_seq": int(self.applied_seq),
            "chain": self.chain.state_dict(),
            "coded_energy": self.coded_energy.state_dict(),
            "uncoded_energy": self.uncoded_energy.state_dict(),
        }

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able exact state: codec histories, accounts, sequence cut.

        Every leaf is an int or bool, so the snapshot survives JSON (and
        :class:`~repro.runtime.artifacts.CheckpointStore`) losslessly;
        :meth:`restore` followed by replaying the requests numbered after
        ``applied_seq`` reproduces the uninterrupted stream bit for bit.
        """
        with self._lock:
            return self._snapshot_locked()

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Load a :meth:`snapshot`; atomic — a bad snapshot changes nothing.

        Raises :class:`ValueError` when the snapshot does not match this
        session's configuration (codec kinds, line counts) or fails
        validation; the session keeps its pre-call state in that case.
        """
        if not isinstance(snapshot, Mapping):
            raise ValueError(
                f"snapshot must be a mapping, got {type(snapshot).__name__}"
            )
        expected = {"applied_seq", "chain", "coded_energy", "uncoded_energy"}
        unknown = set(snapshot) - expected
        if unknown:
            raise ValueError(f"unknown snapshot fields: {sorted(unknown)}")
        seq = snapshot.get("applied_seq")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            raise ValueError(
                f"snapshot 'applied_seq' must be an int >= 0, got {seq!r}"
            )
        with self._lock:
            previous = self._snapshot_locked()
            try:
                self.chain.load_state_dict(snapshot.get("chain"))
                self.coded_energy.load_state_dict(
                    snapshot.get("coded_energy")
                )
                self.uncoded_energy.load_state_dict(
                    snapshot.get("uncoded_energy")
                )
            except (ValueError, TypeError):
                # TypeError is belt-and-braces: the state_dict loaders
                # validate to ValueError, but a malformed leaf slipping
                # through as TypeError must also leave the session on
                # its pre-call state, not half-restored.
                self.chain.load_state_dict(previous["chain"])
                self.coded_energy.load_state_dict(previous["coded_energy"])
                self.uncoded_energy.load_state_dict(
                    previous["uncoded_energy"]
                )
                raise
            self.applied_seq = seq

    # -- reporting ----------------------------------------------------------

    def energy_report(self) -> Dict[str, Any]:
        """Live coded-vs-uncoded power comparison of everything encoded."""
        with self._lock:
            # reset() rebinds the accounts; snapshot both references under
            # the lock so the comparison prices one consistent stream.
            coded_account = self.coded_energy
            uncoded_account = self.uncoded_energy
        coded = coded_account.report()
        uncoded = uncoded_account.report()
        savings = None
        coded_power = coded["normalized_power_farad"]
        uncoded_power = uncoded["normalized_power_farad"]
        if coded_power is not None and uncoded_power:
            savings = 1.0 - coded_power / uncoded_power
        return {"coded": coded, "uncoded": uncoded, "savings": savings}

    def info(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "config": self.config.to_dict(),
                "width_in": self.chain.width_in,
                "width_out": self.chain.width_out,
                "n_lines": self.n_lines,
                "codecs": self.chain.specs(),
            }


#: Concurrency facts for the ``--threads`` pass (see
#: ``docs/static_analysis.md``): sessions are constructed on executor
#: threads (the server's run_in_executor) and batched on engine workers,
#: so everything reset() rebinds is guarded by the session lock. The two
#: attribute types let the pass follow calls into the energy accounts.
REPRO_SIGNATURES = {
    "LinkSession.coded_energy": "EnergyAccount",
    "LinkSession.uncoded_energy": "EnergyAccount",
    "@threads": ["LinkSession"],
    "@guards": [
        "LinkSession.chain guarded_by _lock",
        "LinkSession.coded_energy guarded_by _lock",
        "LinkSession.uncoded_energy guarded_by _lock",
        "LinkSession.applied_seq guarded_by _lock",
    ],
}
