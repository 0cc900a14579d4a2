"""The gate IR: gates and circuits, two-qubit block lowering, Trotter compilation,
QASM export.

This module says which gates a circuit holds, not what they do: the gate matrices,
circuit_unitary and every kernel live in engine, so nothing here needs numpy.

The two-qubit block TBLOCK(alpha, beta, gamma) stands for
exp[-i(alpha XX + beta YY + gamma ZZ)] on a pair of neighboring sites.
Its lowering uses three CNOTs with the rotation angles
theta = pi/2 - 2*gamma, phi = 2*alpha - pi/2, lam = pi/2 - 2*beta;
the resulting unitary matches the exponential up to a global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import LoweringRequiredError
from .model import FLAVOR_EXACT_JW, ModelParams, bond_coefficient

KIND_X = "X"
KIND_RY = "RY"
KIND_RZ = "RZ"
KIND_CNOT = "CNOT"
KIND_TBLOCK = "TBLOCK"
PRIMITIVE_KINDS = (KIND_X, KIND_RY, KIND_RZ, KIND_CNOT)

SCHEME_SEQUENTIAL = "sequential"
SCHEME_EVEN_ODD = "even-odd-1"
SCHEME_STRANG = "strang-2"
SCHEMES = (SCHEME_SEQUENTIAL, SCHEME_EVEN_ODD, SCHEME_STRANG)


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angles: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in gate {self.kind}")


@dataclass
class Circuit:
    L: int
    gates: list[Gate] = field(default_factory=list)

    def append(self, gate: Gate) -> None:
        for q in gate.qubits:
            if not 0 <= q < self.L:
                raise IndexError(f"qubit {q} out of range [0, {self.L - 1}]")
        self.gates.append(gate)

    def is_lowered(self) -> bool:
        return all(g.kind in PRIMITIVE_KINDS for g in self.gates)


def two_qubit_block(alpha: float, beta: float, gamma: float,
                    qubits: tuple[int, int]) -> list[Gate]:
    """Lowered gate sequence for exp[-i(alpha XX + beta YY + gamma ZZ)].

    Three CNOTs; equality with the exact exponential holds up to a
    global phase.
    """
    i, j = qubits
    theta = math.pi / 2 - 2 * gamma
    phi = 2 * alpha - math.pi / 2
    lam = math.pi / 2 - 2 * beta
    return [
        Gate(KIND_RZ, (i,), (math.pi / 2,)),
        Gate(KIND_CNOT, (i, j)),
        Gate(KIND_RZ, (j,), (-theta,)),
        Gate(KIND_RY, (i,), (phi,)),
        Gate(KIND_CNOT, (j, i)),
        Gate(KIND_RY, (i,), (lam,)),
        Gate(KIND_CNOT, (i, j)),
        Gate(KIND_RZ, (j,), (-math.pi / 2,)),
    ]


def lower(circuit: Circuit) -> Circuit:
    """Replace every TBLOCK by its CNOT + rotation decomposition."""
    out = Circuit(circuit.L)
    for g in circuit.gates:
        if g.kind == KIND_TBLOCK:
            for gg in two_qubit_block(*g.angles, (g.qubits[0], g.qubits[1])):
                out.append(gg)
        else:
            out.append(g)
    return out


def _bond_gates(params: ModelParams, b: int, dt: float) -> list[Gate]:
    """Gates realizing exp(-i H_b dt) for bond b at step size dt."""
    jb = bond_coefficient(params, b)
    alpha = beta = jb * dt / 2.0
    gates: list[Gate] = []
    if params.flavor == FLAVOR_EXACT_JW:
        # V n_b n_{b+1} = (V/4)(ZZ - Z_b - Z_{b+1} + I); the linear Z
        # parts become Rz rotations, the constant is a global phase.
        gamma = params.V * dt / 4.0
        gates.append(Gate(KIND_TBLOCK, (b, b + 1), (alpha, beta, gamma)))
        if params.V != 0.0:
            gates.append(Gate(KIND_RZ, (b,), (-params.V * dt / 2.0,)))
            gates.append(Gate(KIND_RZ, (b + 1,), (-params.V * dt / 2.0,)))
    else:
        gamma = params.V * dt / 2.0
        gates.append(Gate(KIND_TBLOCK, (b, b + 1), (alpha, beta, gamma)))
    return gates


def trotter_circuit(params: ModelParams, t: float, n: int,
                    scheme: str = SCHEME_SEQUENTIAL) -> Circuit:
    """Compile exp(-iHt) into n identical Trotter steps.

    sequential applies bonds 0..L-2 in order within each step;
    even-odd-1 applies all even bonds then all odd bonds; strang-2 is
    the symmetric odd/2, even, odd/2 product.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if n < 1:
        raise ValueError("need at least one Trotter step")
    L = params.L
    dt = t / n
    even = list(range(0, L - 1, 2))
    odd = list(range(1, L - 1, 2))
    c = Circuit(L)
    for _ in range(n):
        if scheme == SCHEME_SEQUENTIAL:
            order = [(b, dt) for b in range(L - 1)]
        elif scheme == SCHEME_EVEN_ODD:
            order = [(b, dt) for b in even] + [(b, dt) for b in odd]
        else:  # strang-2
            order = ([(b, dt / 2) for b in odd] + [(b, dt) for b in even]
                     + [(b, dt / 2) for b in odd])
        for b, step_dt in order:
            for g in _bond_gates(params, b, step_dt):
                c.append(g)
    return c


def export_qasm(circuit: Circuit) -> str:
    """OpenQASM 2.0 text for a lowered circuit, with a trailing measure-all."""
    if not circuit.is_lowered():
        raise LoweringRequiredError("circuit contains TBLOCK gates; lower() it first")
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.L}];",
        f"creg c[{circuit.L}];",
    ]
    for g in circuit.gates:
        if g.kind == KIND_X:
            lines.append(f"x q[{g.qubits[0]}];")
        elif g.kind == KIND_RY:
            lines.append(f"ry({g.angles[0]!r}) q[{g.qubits[0]}];")
        elif g.kind == KIND_RZ:
            lines.append(f"rz({g.angles[0]!r}) q[{g.qubits[0]}];")
        elif g.kind == KIND_CNOT:
            lines.append(f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];")
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"
