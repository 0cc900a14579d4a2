"""Statevector kernels: gate application, sector Trotter step, the <Z> vector, sampling.

Measured outcomes are integer basis indices (bit i = site i), with no JSON rendering.
Bit strings appear only in index_to_bitstring and bitstring_to_index, site-0-first:
character k is the state of site k, so |00100> (site 2 occupied, index 4) is "00100".
"""

from __future__ import annotations

import functools
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
    """The gates of an unlowered circuit as (diag, off, partner) entries on the
    sector `basis`: new = diag*old + off*old[partner], or diag*old where partner
    is None.  A diagonal gate D (such as Rz) folds into the entry before it, as
    (D*diag, D*off, partner).  A gate's unitary is circuit_unitary of the gate
    moved to qubits 0..k-1 (the lowered gate run through the engine kernels);
    within one particle number it may only keep a state or flip all its qubits
    (01 <-> 10)."""
    step: SectorStep = []
    for g in circuit.gates:
        k = len(g.qubits)
        u = _local_unitary(g.kind, k, g.angles)
        weight = np.array([bin(v).count("1") for v in range(2**k)])
        # flipping every qubit of local state l gives 2**k - 1 - l: u's anti-diagonal
        off = np.where(weight == weight[::-1], u[:, ::-1].diagonal(), 0)
        if np.abs(u - np.diag(u.diagonal()) - np.diag(off)[:, ::-1]).max() > SECTOR_LEAK_TOL:
            raise ValueError(f"gate {g.kind} on {g.qubits} leaves the particle-number sector")
        idx = sum(((basis >> q) & 1) << j for j, q in enumerate(g.qubits))
        diag, off = u.diagonal()[idx], off[idx]
        if step and not off.any():  # a diagonal gate
            prev_diag, prev_off, partner = step.pop()
            diag, off = diag * prev_diag, diag * prev_off
        else:
            # where off is 0 the flipped state is outside the sector: any partner will do
            partner = np.searchsorted(basis, basis ^ sum(1 << q for q in g.qubits))
            partner = np.minimum(partner, len(basis) - 1) if off.any() else None
        step.append((diag, off, partner))
    return step


@functools.lru_cache
def _local_unitary(kind: str, k: int, angles: tuple[float, ...]) -> np.ndarray:
    """circuit_unitary of one gate on qubits 0..k-1, read-only: compiles share it."""
    u = circuit_unitary(Circuit(k, [Gate(kind, tuple(range(k)), angles)]))
    u.flags.writeable = False
    return u


def apply_sector_step(step: SectorStep, amps: np.ndarray) -> np.ndarray:
    """Apply a compiled sector step to sector amplitudes; returns a new array."""
    for diag, off, partner in step:
        amps = diag * amps if partner is None else diag * amps + off * amps[partner]
    return amps


def z_sum(weights: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """sum_k weights[..., k] * signs[i, k] per site i, for one weight vector or a stack
    of them (each row as alone); signs = 1 - 2 * site_bits (bit 0: +1)."""
    return np.sum(weights[..., None, :] * signs, axis=-1)


def z_vector(state: StateVector | CountsTable) -> np.ndarray:
    """<Z_i> of every site i, weighing each basis index by |amplitude|^2, or by its
    integer count (an exact sum) divided once by the shots."""
    weights, total = ((state.counts, state.shots) if isinstance(state, CountsTable)
                      else (np.abs(state.amplitudes) ** 2, 1))
    return z_sum(weights, 1 - 2 * site_bits(state.indices, state.L)) / total


def expectation_z(state: StateVector | CountsTable, site: int) -> float:
    """<Z_site> of a state or a counts table: one entry of z_vector."""
    if not 0 <= site < state.L:
        raise IndexError(f"site {site} out of range [0, {state.L - 1}]")
    return float(z_vector(state)[site])


counts_expectation_z = expectation_z  # the name callers use for a counts table


def sample_draws(amplitudes: np.ndarray, shots: int, seed) -> np.ndarray:
    """Multinomial shot counts from |amplitudes|^2, in basis order; deterministic per seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.abs(amplitudes) ** 2
    return np.random.default_rng(seed).multinomial(shots, probs / probs.sum())


def sample_counts(psi: StateVector, shots: int, seed) -> CountsTable:
    """The nonzero entries of sample_draws, as a table."""
    draws = sample_draws(psi.amplitudes, shots, seed)
    return CountsTable(shots, psi.indices[draws > 0], draws[draws > 0], psi.L)
