"""Statevector kernels: gate application, sector Trotter step, the <Z> vector, sampling.

Measured outcomes are basis indices (bit i = site i).  Only the JSON
rendering of a CountsTable uses bit strings, site-0-first: character k of
a key is the state of site k, so |00100> (site 2 occupied, basis index 4)
renders as "00100".
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, KIND_CNOT, circuit_unitary, gate_matrix_1q
from .errors import LoweringRequiredError
from .exact import StateVector, site_bits

RNG_ALGORITHM = "numpy-default-pcg64"
SECTOR_LEAK_TOL = 1e-12


@dataclass
class CountsTable:
    """Measured histogram: sorted unique basis indices and the count of each."""

    shots: int
    indices: np.ndarray
    counts: np.ndarray
    L: int
    seed: int | tuple[int, ...] | None = None

    def to_json(self) -> str:
        keyed = {index_to_bitstring(int(i), self.L): int(c)
                 for i, c in zip(self.indices, self.counts)}
        return json.dumps({"shots": self.shots, "counts": keyed,
                           "seed": self.seed}, sort_keys=True)


def index_to_bitstring(index: int, L: int) -> str:
    return "".join("1" if (index >> i) & 1 else "0" for i in range(L))


def bitstring_to_index(key: str) -> int:
    return sum(1 << i for i, c in enumerate(key) if c == "1")


# The kernels index axis 0, so on a 2-D array they act on every column.
def _apply_1q(amps: np.ndarray, mat: np.ndarray, q: int) -> None:
    idx = np.arange(len(amps))
    lo = idx[(idx >> q) & 1 == 0]
    hi = lo | (1 << q)
    a, b = amps[lo], amps[hi]
    amps[lo] = mat[0, 0] * a + mat[0, 1] * b
    amps[hi] = mat[1, 0] * a + mat[1, 1] * b


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> None:
    idx = np.arange(len(amps))
    src = idx[((idx >> control) & 1 == 1) & ((idx >> target) & 1 == 0)]
    dst = src | (1 << target)
    amps[src], amps[dst] = amps[dst].copy(), amps[src].copy()


def apply_gate(psi: StateVector, gate: Gate) -> None:
    """In-place primitive gate application."""
    if gate.kind == KIND_CNOT:
        _apply_cnot(psi.amplitudes, gate.qubits[0], gate.qubits[1])
    else:
        _apply_1q(psi.amplitudes, gate_matrix_1q(gate), gate.qubits[0])


def apply_circuit(psi: StateVector, circuit: Circuit) -> StateVector:
    """Apply a lowered circuit gate-by-gate to a 2^L state; returns a new StateVector."""
    if not circuit.is_lowered():
        raise LoweringRequiredError("apply_circuit needs a lowered circuit")
    if circuit.L != psi.L:
        raise ValueError("qubit-count mismatch between state and circuit")
    if psi.basis is not None:
        raise ValueError("apply_circuit acts on 2^L states; use apply_sector_step")
    out = psi.copy()
    for g in circuit.gates:
        apply_gate(out, g)
    return out


SectorStep = list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]


def compile_sector_step(circuit: Circuit, basis: np.ndarray) -> SectorStep:
    """Each gate of an unlowered circuit as (diag, off, partner) on the sector
    `basis`: new = diag*old + off*old[partner], or diag*old where partner is
    None (a diagonal gate, such as Rz).  A gate's unitary is circuit_unitary of
    the gate moved to qubits 0..k-1 (the lowered gate run through the engine
    kernels); within one particle number it may only keep a state or flip all
    its qubits (01 <-> 10)."""
    step: SectorStep = []
    for g in circuit.gates:
        k = len(g.qubits)
        u = circuit_unitary(Circuit(k, [Gate(g.kind, tuple(range(k)), g.angles)]))
        weight = np.array([bin(v).count("1") for v in range(2**k)])
        # flipping every qubit of local state l gives 2**k - 1 - l: u's anti-diagonal
        off = np.where(weight == weight[::-1], u[:, ::-1].diagonal(), 0)
        if np.abs(u - np.diag(u.diagonal()) - np.diag(off)[:, ::-1]).max() > SECTOR_LEAK_TOL:
            raise ValueError(f"gate {g.kind} on {g.qubits} leaves the particle-number sector")
        idx = sum(((basis >> q) & 1) << j for j, q in enumerate(g.qubits))
        # where off is 0 the flipped state is outside the sector: any partner will do
        partner = np.searchsorted(basis, basis ^ sum(1 << q for q in g.qubits))
        partner = np.minimum(partner, len(basis) - 1) if off[idx].any() else None
        step.append((u.diagonal()[idx], off[idx], partner))
    return step


def apply_sector_step(step: SectorStep, amps: np.ndarray) -> np.ndarray:
    """Apply a compiled sector step to sector amplitudes; returns a new array."""
    for diag, off, partner in step:
        amps = diag * amps if partner is None else diag * amps + off * amps[partner]
    return amps


def z_vector(state: StateVector | CountsTable) -> np.ndarray:
    """<Z_i> of every site i (+1 for bit 0, -1 for bit 1), weighing each basis index by
    |amplitude|^2, or by its integer count (an exact sum) divided once by the shots."""
    weights, total = ((state.counts, state.shots) if isinstance(state, CountsTable)
                      else (np.abs(state.amplitudes) ** 2, 1))
    return np.sum(weights * (1 - 2 * site_bits(state.indices, state.L)), axis=1) / total


def expectation_z(state: StateVector | CountsTable, site: int) -> float:
    """<Z_site> of a state or a counts table: one entry of z_vector."""
    if not 0 <= site < state.L:
        raise IndexError(f"site {site} out of range [0, {state.L - 1}]")
    return float(z_vector(state)[site])


counts_expectation_z = expectation_z  # the name callers use for a counts table


def sample_counts(psi: StateVector, shots: int, seed) -> CountsTable:
    """Multinomial shot sampling from |amplitudes|^2; deterministic per seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.abs(psi.amplitudes) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    nonzero = np.flatnonzero(draws)
    return CountsTable(shots, psi.indices[nonzero], draws[nonzero], psi.L, seed)
