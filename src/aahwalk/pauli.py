"""Pauli-string algebra, the fermion-to-qubit mapping and Hamiltonian builders.

Conventions
-----------
* Qubit |1> marks an occupied site, so the number operator maps to
  n_i -> (I - Z_i)/2.
* The creation operator at site i is the Z-string-dressed lowering
  operator:  c_i^dag = Z_0 ... Z_{i-1} sigma^-_i  with
  sigma^- = (X - iY)/2, and c_i uses sigma^+ = (X + iY)/2.
* Site i corresponds to bit i of the basis index (little-endian), so in
  dense matrices the Kronecker factor of the highest site sits leftmost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .model import ModelParams, bond_coefficient

MAX_DENSE_SITES = 12

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# (a, b) -> (phase, c) with  a*b = phase * c  for single-site Paulis.
_MUL_TABLE = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}

COEFF_DROP_TOL = 1e-14


@dataclass(frozen=True)
class PauliString:
    """A weighted tensor product of single-site Paulis, e.g. 0.5 * XXI."""

    ops: str
    coeff: complex = 1.0

    def __post_init__(self) -> None:
        if any(c not in "IXYZ" for c in self.ops):
            raise ValueError(f"invalid Pauli letters in {self.ops!r}")

    @property
    def L(self) -> int:
        return len(self.ops)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if len(self.ops) != len(other.ops):
            raise ValueError("length mismatch in PauliString product")
        phase = 1.0 + 0j
        letters = []
        for a, b in zip(self.ops, other.ops):
            ph, c = _MUL_TABLE[(a, b)]
            phase *= ph
            letters.append(c)
        return PauliString("".join(letters), self.coeff * other.coeff * phase)

    def to_matrix(self) -> np.ndarray:
        m = np.array([[1.0]], dtype=complex)
        # Site 0 is the least significant bit: its factor goes rightmost.
        for i in range(self.L - 1, -1, -1):
            m = np.kron(m, _PAULI_MATS[self.ops[i]])
        return self.coeff * m


class PauliSum:
    """A canonicalized sum of PauliStrings (duplicates merged, zeros dropped)."""

    def __init__(self, terms: list[PauliString] | None = None):
        merged: dict[str, complex] = {}
        for t in terms or []:
            merged[t.ops] = merged.get(t.ops, 0.0) + t.coeff
        self.terms = [
            PauliString(ops, c) for ops, c in sorted(merged.items())
            if abs(c) > COEFF_DROP_TOL
        ]

    @property
    def L(self) -> int:
        return self.terms[0].L if self.terms else 0

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum(self.terms + other.terms)

    def __mul__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum([a * b for a in self.terms for b in other.terms])

    def scaled(self, factor: complex) -> "PauliSum":
        return PauliSum([PauliString(t.ops, t.coeff * factor) for t in self.terms])

    def adjoint(self) -> "PauliSum":
        return PauliSum([PauliString(t.ops, np.conj(t.coeff)) for t in self.terms])

    def __str__(self) -> str:
        return "\n".join(f"{t.coeff!r}  {t.ops}" for t in self.terms)

    def __len__(self) -> int:
        return len(self.terms)


def to_matrix(psum: PauliSum, L: int | None = None) -> np.ndarray:
    """Dense matrix of a PauliSum (Kronecker expansion, little-endian sites)."""
    if L is None:
        L = psum.L
    if L > MAX_DENSE_SITES:
        raise ResourceLimitError(f"dense matrix for L={L} exceeds guard")
    dim = 2**L
    m = np.zeros((dim, dim), dtype=complex)
    for t in psum.terms:
        m += t.to_matrix()
    return m


ROLE_CREATION = "creation"
ROLE_ANNIHILATION = "annihilation"


def jw_ladder(site: int, L: int, role: str) -> PauliSum:
    """Z-string-dressed sigma^± image of c_site / c_site^dag on L qubits."""
    if not 0 <= site < L:
        raise IndexError(f"site {site} out of range [0, {L - 1}]")
    if role not in (ROLE_CREATION, ROLE_ANNIHILATION):
        raise ValueError(f"unknown role {role!r}")
    prefix = "Z" * site
    suffix = "I" * (L - site - 1)
    # creation -> sigma^- = (X - iY)/2; annihilation -> sigma^+ = (X + iY)/2
    sign = -1j if role == ROLE_CREATION else 1j
    terms = [
        PauliString(prefix + "X" + suffix, 0.5),
        PauliString(prefix + "Y" + suffix, 0.5 * sign),
    ]
    return PauliSum(terms)


def number_operator(site: int, L: int) -> PauliSum:
    """n_site = c^dag c = (I - Z_site)/2 as a PauliSum."""
    ident = "I" * L
    zops = "I" * site + "Z" + "I" * (L - site - 1)
    return PauliSum([PauliString(ident, 0.5), PauliString(zops, -0.5)])


def build_spin_hamiltonian(params: ModelParams) -> PauliSum:
    """Spin Hamiltonian: sum_b (J_b/2)(XX + YY) + (V/2) sum_b ZZ."""
    L = params.L
    terms: list[PauliString] = []
    for b in range(L - 1):
        jb = bond_coefficient(params, b)
        pre = "I" * b
        post = "I" * (L - b - 2)
        terms.append(PauliString(pre + "XX" + post, jb / 2.0))
        terms.append(PauliString(pre + "YY" + post, jb / 2.0))
        if params.V != 0.0:
            terms.append(PauliString(pre + "ZZ" + post, params.V / 2.0))
    return PauliSum(terms)


def build_fermionic_hamiltonian(params: ModelParams) -> PauliSum:
    """Faithful qubit image of the fermionic Hamiltonian.

    sum_b J_b (c^dag_{b+1} c_b + h.c.) + V sum_b n_b n_{b+1}, assembled
    from the ladder images above.
    """
    L = params.L
    total = PauliSum([])
    for b in range(L - 1):
        jb = bond_coefficient(params, b)
        cdag_next = jw_ladder(b + 1, L, ROLE_CREATION)
        c_here = jw_ladder(b, L, ROLE_ANNIHILATION)
        hop = cdag_next * c_here
        total = total + hop.scaled(jb) + hop.adjoint().scaled(jb)
        if params.V != 0.0:
            nn = number_operator(b, L) * number_operator(b + 1, L)
            total = total + nn.scaled(params.V)
    return total


def build_fermionic_hamiltonian_matrix(params: ModelParams) -> np.ndarray:
    """Dense matrix of the faithful fermionic Hamiltonian (L <= 12)."""
    return to_matrix(build_fermionic_hamiltonian(params), params.L)
