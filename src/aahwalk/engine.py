"""Statevector kernels: gate application, Z expectations, shot sampling.

Measured outcomes are basis indices (bit i = site i).  Only the JSON
rendering of a CountsTable uses bit strings, site-0-first: character k of
a key is the state of site k, so |00100> (site 2 occupied, basis index 4)
renders as "00100".
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, KIND_CNOT, gate_matrix_1q
from .errors import LoweringRequiredError
from .exact import StateVector

RNG_ALGORITHM = "numpy-default-pcg64"


@dataclass
class CountsTable:
    """Measured histogram: sorted unique basis indices and the count of each."""

    shots: int
    indices: np.ndarray
    counts: np.ndarray
    L: int
    seed: int | None = None

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
    """Apply a lowered circuit gate-by-gate; returns a new StateVector."""
    if not circuit.is_lowered():
        raise LoweringRequiredError("apply_circuit needs a lowered circuit")
    if circuit.L != psi.L:
        raise ValueError("qubit-count mismatch between state and circuit")
    out = psi.copy()
    for g in circuit.gates:
        apply_gate(out, g)
    return out


def expectation_z(psi: StateVector, site: int) -> float:
    """<Z_site> from exact amplitudes; +1 for bit 0, -1 for bit 1."""
    if not 0 <= site < psi.L:
        raise IndexError(f"site {site} out of range [0, {psi.L - 1}]")
    probs = np.abs(psi.amplitudes) ** 2
    bits = (np.arange(probs.size) >> site) & 1
    return float(np.sum(probs * (1.0 - 2.0 * bits)))


def counts_expectation_z(counts: CountsTable, site: int) -> float:
    """<Z_site> estimated from a counts table."""
    if not 0 <= site < counts.L:
        raise IndexError(f"site {site} out of range [0, {counts.L - 1}]")
    bits = (counts.indices >> site) & 1
    return int(np.sum(counts.counts * (1 - 2 * bits))) / counts.shots


def sample_counts(psi: StateVector, shots: int, seed: int) -> CountsTable:
    """Multinomial shot sampling from |amplitudes|^2; deterministic per seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.abs(psi.amplitudes) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    indices = np.flatnonzero(draws)
    return CountsTable(shots, indices, draws[indices], psi.L, seed)
