"""What each gate of circuit's IR does: gate matrices, 2^L kernels, circuit_unitary, the
sector Trotter step (each distinct gate's cached action), the <Z> vector, sampling.

Measured outcomes are integer basis indices (bit i = site i), with no JSON rendering.
Bit strings appear only in index_to_bitstring and bitstring_to_index, site-0-first:
character k is the state of site k, so |00100> (site 2 occupied, index 4) is "00100".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, KIND_CNOT, KIND_RY, KIND_RZ, KIND_X, lower
from .errors import LoweringRequiredError, ResourceLimitError
from .exact import StateVector, site_bits

RNG_ALGORITHM = "numpy-default-pcg64"
SECTOR_LEAK_TOL = 1e-12
MAX_UNITARY_SITES = 6


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


_RY = lambda t: np.array([[math.cos(t / 2), -math.sin(t / 2)],
                          [math.sin(t / 2), math.cos(t / 2)]], dtype=complex)
_RZ = lambda t: np.array([[np.exp(-1j * t / 2), 0],
                          [0, np.exp(1j * t / 2)]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def gate_matrix_1q(gate: Gate) -> np.ndarray:
    if gate.kind == KIND_X:
        return _X
    if gate.kind == KIND_RY:
        return _RY(gate.angles[0])
    if gate.kind == KIND_RZ:
        return _RZ(gate.angles[0])
    raise ValueError(f"not a single-qubit primitive: {gate.kind}")


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


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a circuit (application order), L <= 6 only: the kernels above
    applied to every basis column at once."""
    if circuit.L > MAX_UNITARY_SITES:
        raise ResourceLimitError(f"circuit_unitary limited to L <= {MAX_UNITARY_SITES}")
    c = circuit if circuit.is_lowered() else lower(circuit)
    return apply_circuit(StateVector(np.eye(2**c.L, dtype=complex), c.L), c).amplitudes


SectorStep = list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def compile_sector_step(circuit: Circuit, basis: np.ndarray) -> SectorStep:
    """The gates of an unlowered circuit as (diag, off, partner) entries on the
    sector `basis`: new = diag*old + off*old[partner].  A diagonal gate D (such as
    Rz) folds into the entry before it, as (D*diag, D*off, partner), or is an entry
    with an all-zero off if there is none."""
    step: SectorStep = []
    for g in circuit.gates:
        action = _sector_action(g.kind, len(g.qubits), g.angles)
        if action is None:
            raise ValueError(f"gate {g.kind} on {g.qubits} leaves the particle-number sector")
        idx = sum(((basis >> q) & 1) << j for j, q in enumerate(g.qubits))
        diag, off = action[0][idx], action[1][idx]
        if step and not off.any():  # a diagonal gate
            prev_diag, prev_off, partner = step.pop()
            diag, off = diag * prev_diag, diag * prev_off
        else:
            # where off is 0 the flipped state is outside the sector: any partner will do
            partner = np.searchsorted(basis, basis ^ sum(1 << q for q in g.qubits))
            partner = np.minimum(partner, len(basis) - 1)
        step.append((diag, off, partner))
    return step


@functools.lru_cache
def _sector_action(kind: str, k: int, angles: tuple[float, ...]):
    """Read-only local (diag, off) of one gate's circuit_unitary u on qubits 0..k-1,
    shared by compiles.  Within one particle number a gate may only keep a local state
    l or flip all its qubits (01 <-> 10, to 2**k - 1 - l): off is u's anti-diagonal
    where the flip keeps the weight and the entry exceeds SECTOR_LEAK_TOL, so that a cut
    bond's block is diagonal.  None if any other entry exceeds SECTOR_LEAK_TOL."""
    u = circuit_unitary(Circuit(k, [Gate(kind, tuple(range(k)), angles)]))
    weight, anti = np.array([bin(v).count("1") for v in range(2**k)]), u[:, ::-1].diagonal()
    off = np.where((weight == weight[::-1]) & (np.abs(anti) > SECTOR_LEAK_TOL), anti, 0)
    if np.abs(u - np.diag(u.diagonal()) - np.diag(off)[:, ::-1]).max() > SECTOR_LEAK_TOL:
        return None
    off.flags.writeable = False
    return u.diagonal(), off  # a read-only view


def apply_sector_step(step: SectorStep, amps: np.ndarray) -> np.ndarray:
    """Apply a compiled sector step to sector amplitudes; returns a new array."""
    for diag, off, partner in step:
        amps = diag * amps + off * amps[partner]
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
