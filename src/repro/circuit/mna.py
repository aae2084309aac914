"""Modified nodal analysis (MNA) assembly.

Builds the descriptor system

``E dx/dt + A x = s(t)``

for a :class:`~repro.circuit.netlist.Netlist`. The unknown vector ``x``
stacks the non-ground node voltages, then one branch current per voltage
source, then one branch current per inductor. ``A`` carries the resistive
stamps and the source/inductor incidence rows, ``E`` the capacitor and
inductor dynamics, and ``s(t)`` the source excitations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.analysis.contracts import check_enabled, check_mna_system
from repro.circuit.netlist import (
    GROUND,
    Capacitor,
    CurrentSource,
    Inductor,
    Netlist,
    Node,
    Resistor,
    VoltageSource,
    evaluate_waveform,
)


@dataclass
class MNASystem:
    """Assembled descriptor system for one netlist."""

    a_matrix: np.ndarray
    e_matrix: np.ndarray
    source: Callable[[float], np.ndarray]
    node_index: Dict[Node, int]
    vsource_index: Dict[int, int]  # netlist component position -> x index
    n_nodes: int

    @property
    def size(self) -> int:
        return self.a_matrix.shape[0]

    def voltage_index(self, node: Node) -> int:
        """Index of a node voltage in the unknown vector."""
        if node == GROUND:
            raise ValueError("ground voltage is not an unknown (it is 0)")
        return self.node_index[node]


def assemble(netlist: Netlist) -> MNASystem:
    """Build the MNA descriptor system of a validated netlist."""
    netlist.validate()
    nodes = netlist.nodes()
    node_index = {node: k for k, node in enumerate(nodes)}
    n_nodes = len(nodes)

    vsources: List[tuple] = []  # (component position, VoltageSource)
    inductors: List[tuple] = []
    for pos, comp in enumerate(netlist.components):
        if isinstance(comp, VoltageSource):
            vsources.append((pos, comp))
        elif isinstance(comp, Inductor):
            inductors.append((pos, comp))
    n = n_nodes + len(vsources) + len(inductors)

    a = np.zeros((n, n))
    e = np.zeros((n, n))

    def idx(node: Node) -> int:
        return -1 if node == GROUND else node_index[node]

    def stamp_pair(matrix: np.ndarray, na: int, nb: int, value: float) -> None:
        # Stamping writes into A/E by design; the matrices are owned here.
        if na >= 0:
            matrix[na, na] += value  # repro: noqa[REP005] in-place stamp
        if nb >= 0:
            matrix[nb, nb] += value  # repro: noqa[REP005] in-place stamp
        if na >= 0 and nb >= 0:
            matrix[na, nb] -= value  # repro: noqa[REP005] in-place stamp
            matrix[nb, na] -= value  # repro: noqa[REP005] in-place stamp

    for comp in netlist.components:
        if isinstance(comp, Resistor):
            stamp_pair(a, idx(comp.node_a), idx(comp.node_b),
                       1.0 / comp.resistance)
        elif isinstance(comp, Capacitor):
            stamp_pair(e, idx(comp.node_a), idx(comp.node_b), comp.capacitance)

    vsource_index: Dict[int, int] = {}
    for k, (pos, src) in enumerate(vsources):
        row = n_nodes + k
        vsource_index[pos] = row
        plus, minus = idx(src.node_plus), idx(src.node_minus)
        if plus >= 0:
            a[plus, row] += 1.0
            a[row, plus] += 1.0
        if minus >= 0:
            a[minus, row] -= 1.0
            a[row, minus] -= 1.0

    for k, (pos, ind) in enumerate(inductors):
        row = n_nodes + len(vsources) + k
        plus, minus = idx(ind.node_a), idx(ind.node_b)
        if plus >= 0:
            a[plus, row] += 1.0
            a[row, plus] += 1.0
        if minus >= 0:
            a[minus, row] -= 1.0
            a[row, minus] -= 1.0
        e[row, row] -= ind.inductance

    current_sources = [
        c for c in netlist.components if isinstance(c, CurrentSource)
    ]

    def source(t: float) -> np.ndarray:
        s = np.zeros(n)
        for c in current_sources:
            value = evaluate_waveform(c.waveform, t)
            plus, minus = idx(c.node_plus), idx(c.node_minus)
            if plus >= 0:
                s[plus] += value
            if minus >= 0:
                s[minus] -= value
        for k, (pos, src) in enumerate(vsources):
            s[n_nodes + k] = evaluate_waveform(src.waveform, t)
        return s

    system = MNASystem(
        a_matrix=a,
        e_matrix=e,
        source=source,
        node_index=node_index,
        vsource_index=vsource_index,
        n_nodes=n_nodes,
    )
    check_enabled(check_mna_system, system)
    return system
