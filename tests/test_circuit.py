import numpy as np
import pytest
from scipy.linalg import expm

from aahwalk.circuit import (
    Circuit,
    Gate,
    KIND_CNOT,
    KIND_TBLOCK,
    KIND_X,
    export_qasm,
    lower,
    trotter_circuit,
    two_qubit_block,
)
from aahwalk.engine import apply_circuit, circuit_unitary
from aahwalk.errors import LoweringRequiredError, ResourceLimitError
from aahwalk.exact import exact_evolve, prepare_fock_state
from aahwalk.experiment import hamiltonian_matrix
from aahwalk.model import ModelParams
from aahwalk.observables import density_profile

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1, -1]).astype(complex)


def _block_target(a, b, g):
    H = a * np.kron(_X, _X) + b * np.kron(_Y, _Y) + g * np.kron(_Z, _Z)
    return expm(-1j * H)


def _phase_dist(U, V):
    tr = np.trace(U.conj().T @ V)
    assert abs(tr) > 1e-9, "operators are orthogonal; no phase alignment"
    return np.abs(U * (tr / abs(tr)) - V).max()


def _block_unitary(a, b, g):
    c = Circuit(2)
    for gate in two_qubit_block(a, b, g, (0, 1)):
        c.append(gate)
    return circuit_unitary(c)


def test_block_zero_angles_is_identity():
    assert _phase_dist(_block_unitary(0.0, 0.0, 0.0), np.eye(4)) < 1e-10


def test_block_quarter_swap():
    U = _block_unitary(np.pi / 4, np.pi / 4, 0.0)
    T = _block_target(np.pi / 4, np.pi / 4, 0.0)
    # exact exponential exchanges |01> <-> |10> with factor -i
    assert T[2, 1] == pytest.approx(-1j) and T[1, 2] == pytest.approx(-1j)
    assert abs(T[0, 0]) == pytest.approx(1.0) and abs(T[3, 3]) == pytest.approx(1.0)
    assert _phase_dist(U, T) < 1e-10


def test_block_random_angles_match_exponential():
    rng = np.random.default_rng(42)
    for _ in range(25):
        a, b, g = rng.uniform(-np.pi, np.pi, 3)
        assert _phase_dist(_block_unitary(a, b, g), _block_target(a, b, g)) < 1e-10


def test_block_cnot_budget():
    gates = two_qubit_block(0.3, -0.2, 0.7, (0, 1))
    assert sum(1 for g in gates if g.kind == KIND_CNOT) <= 3


def test_trotter_single_bond_is_exact():
    p = ModelParams(J=1.0, lambda_J=0.9, V=2.0, L=2)
    for scheme in ("sequential", "even-odd-1", "strang-2"):
        c = trotter_circuit(p, 1.0, 1, scheme)
        tblocks = [g for g in c.gates if g.kind == KIND_TBLOCK]
        assert len(tblocks) == 1
        assert tblocks[0].angles == pytest.approx((0.05, 0.05, 1.0))
        U = circuit_unitary(c)
        exact = expm(-1j * hamiltonian_matrix(p) * 1.0)
        assert _phase_dist(U, exact) < 1e-9


def test_trotter_block_count_and_dt():
    p = ModelParams(lambda_J=0.5, L=5)
    c = trotter_circuit(p, 2.0, 10, "sequential")
    tblocks = [g for g in c.gates if g.kind == KIND_TBLOCK]
    assert len(tblocks) == 40


def test_trotter_unknown_scheme():
    with pytest.raises(ValueError):
        trotter_circuit(ModelParams(L=3), 1.0, 1, "fourth-order")


def test_trotter_unitarity():
    p = ModelParams(lambda_J=0.7, V=1.0, L=5)
    for scheme in ("sequential", "even-odd-1", "strang-2"):
        U = circuit_unitary(trotter_circuit(p, 1.0, 2, scheme))
        assert np.abs(U.conj().T @ U - np.eye(U.shape[0])).max() < 1e-8


def _trotter_error(p, psi0, t, n, scheme):
    c = lower(trotter_circuit(p, t, n, scheme))
    psi = apply_circuit(psi0, c)
    ref = exact_evolve(hamiltonian_matrix(p), psi0, t)
    # global phase is not tracked through circuits
    ov = np.vdot(ref.amplitudes, psi.amplitudes)
    aligned = psi.amplitudes * np.conj(ov / abs(ov))
    return np.linalg.norm(aligned - ref.amplitudes)


def test_trotter_order_scaling():
    p = ModelParams(lambda_J=0.5, V=1.0, L=4)
    psi0 = prepare_fock_state(4, [0, 2])
    ns = [5, 10, 20, 40]
    for scheme, order in [("sequential", 1.0), ("even-odd-1", 1.0),
                          ("strang-2", 2.0)]:
        errs = [_trotter_error(p, psi0, 1.0, n, scheme) for n in ns]
        slope = np.polyfit(np.log([1.0 / n for n in ns]), np.log(errs), 1)[0]
        assert slope == pytest.approx(order, abs=0.2)


def test_sequential_bias_vs_even_odd_symmetry():
    # uniform chain: sequential ordering injects a directional bias while
    # the even/odd split preserves the reflection symmetry of a
    # mirror-symmetric initial state
    p = ModelParams(J=1.0, lambda_J=0.0, V=0.0, L=4)
    psi_sym = prepare_fock_state(4, [1, 2])
    c_seq = lower(trotter_circuit(p, 2.0, 4, "sequential"))
    c_eo = lower(trotter_circuit(p, 2.0, 4, "even-odd-1"))
    n_seq = density_profile(apply_circuit(psi_sym, c_seq), 2.0, "t").values
    n_eo = density_profile(apply_circuit(psi_sym, c_eo), 2.0, "t").values
    assert np.abs(n_eo - n_eo[::-1]).max() < 1e-10
    assert np.abs(n_seq - n_seq[::-1]).max() > 1e-3
    # bulk walker under sequential ordering: profile is strictly asymmetric
    p10 = ModelParams(J=1.0, lambda_J=0.0, V=0.0, L=6)
    psi3 = prepare_fock_state(6, [3])
    c = lower(trotter_circuit(p10, 2.0, 4, "sequential"))
    n = density_profile(apply_circuit(psi3, c), 2.0, "t").values
    assert np.abs(n - n[::-1]).max() > 1e-3


def test_gate_count_per_step():
    p = ModelParams(lambda_J=0.5, L=6)
    c = lower(trotter_circuit(p, 1.0, 1, "sequential"))
    cnots = sum(1 for g in c.gates if g.kind == KIND_CNOT)
    assert cnots <= 3 * (p.L - 1)


def test_circuit_unitary_basics():
    assert np.allclose(circuit_unitary(Circuit(1)), np.eye(2))
    c = Circuit(1)
    c.append(Gate(KIND_X, (0,)))
    assert np.allclose(circuit_unitary(c), _X)


def test_circuit_unitary_guard():
    with pytest.raises(ResourceLimitError):
        circuit_unitary(Circuit(7))


def test_export_qasm_examples():
    c = Circuit(1)
    c.append(Gate(KIND_X, (0,)))
    text = export_qasm(c)
    assert text.startswith("OPENQASM 2.0;")
    assert text.count("x q[0];") == 1
    assert "qreg q[1];" in text and "creg c[1];" in text
    assert "measure q -> c;" in text

    c = Circuit(2)
    c.append(Gate(KIND_CNOT, (0, 1)))
    assert "cx q[0],q[1];" in export_qasm(c)


def test_export_qasm_requires_lowering():
    c = Circuit(2)
    c.append(Gate(KIND_TBLOCK, (0, 1), (0.1, 0.1, 0.0)))
    with pytest.raises(LoweringRequiredError):
        export_qasm(c)
    assert "cx" in export_qasm(lower(c))
