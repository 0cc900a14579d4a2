import numpy as np
import pytest

from aahwalk.circuit import (
    Circuit,
    Gate,
    KIND_CNOT,
    KIND_RY,
    KIND_TBLOCK,
    KIND_X,
    SCHEMES,
    lower,
    trotter_circuit,
)
from aahwalk.engine import (
    _sector_action,
    apply_circuit,
    apply_gate,
    apply_sector_step,
    bitstring_to_index,
    circuit_unitary,
    compile_sector_step,
    counts_expectation_z,
    expectation_z,
    index_to_bitstring,
    sample_counts,
    z_sum,
    z_vector,
)
from aahwalk.errors import LoweringRequiredError
from aahwalk.exact import (StateVector, exact_evolve, prepare_fock_state, sector_basis,
                           site_bits)
from aahwalk.experiment import hamiltonian_matrix
from aahwalk.model import FLAVORS, ModelParams


def _hist(table):
    """Measured histogram as {basis index: count}."""
    return dict(zip(table.indices.tolist(), table.counts.tolist()))


def test_bitstring_round_trip():
    assert index_to_bitstring(4, 5) == "00100"
    assert bitstring_to_index("00100") == 4
    for idx in range(32):
        assert bitstring_to_index(index_to_bitstring(idx, 5)) == idx


def test_apply_x_gate():
    psi = prepare_fock_state(3, [0])
    apply_gate(psi, Gate(KIND_X, (2,)))
    assert psi.amplitudes[0b101] == pytest.approx(1.0)


def test_apply_cnot():
    psi = prepare_fock_state(2, [0])
    apply_gate(psi, Gate(KIND_CNOT, (0, 1)))
    assert psi.amplitudes[0b11] == pytest.approx(1.0)
    # control clear: no action
    psi = prepare_fock_state(2, [1])
    apply_gate(psi, Gate(KIND_CNOT, (0, 1)))
    assert psi.amplitudes[0b10] == pytest.approx(1.0)


def test_apply_circuit_requires_lowering():
    c = Circuit(2)
    c.append(Gate(KIND_TBLOCK, (0, 1), (0.1, 0.1, 0.0)))
    with pytest.raises(LoweringRequiredError):
        apply_circuit(prepare_fock_state(2, [0]), c)


def test_apply_circuit_size_mismatch():
    with pytest.raises(ValueError):
        apply_circuit(prepare_fock_state(3, [0]), Circuit(2))


def test_apply_circuit_matches_dense_unitary():
    p = ModelParams(lambda_J=0.7, V=1.3, L=4)
    c = lower(trotter_circuit(p, 1.2, 3, "strang-2"))
    rng = np.random.default_rng(5)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    psi = prepare_fock_state(4, [0])
    psi.amplitudes[:] = amps
    got = apply_circuit(psi, c).amplitudes
    want = circuit_unitary(c) @ amps
    assert np.abs(got - want).max() < 1e-10


def test_apply_circuit_tblock_rabi():
    # exp(-i t (XX+YY)/2) on |10>: n_0(t) = cos^2(t)
    p = ModelParams(J=1.0, lambda_J=0.0, L=2)
    psi0 = prepare_fock_state(2, [0])
    for t in (0.4, 1.1):
        c = lower(trotter_circuit(p, t, 1, "sequential"))
        psi = apply_circuit(psi0, c)
        n0 = (1.0 - expectation_z(psi, 0)) / 2.0
        assert n0 == pytest.approx(np.cos(t) ** 2, abs=1e-10)


def test_expectation_z_examples():
    psi = prepare_fock_state(3, [1])
    assert expectation_z(psi, 0) == pytest.approx(1.0)
    assert expectation_z(psi, 1) == pytest.approx(-1.0)
    for site in (3, -1):  # an indexed vector would wrap -1 around to the last site
        with pytest.raises(IndexError):
            expectation_z(psi, site)


def test_expectation_z_preserved_by_circuit_norm():
    p = ModelParams(lambda_J=0.9, V=2.0, L=5)
    c = lower(trotter_circuit(p, 2.0, 5, "even-odd-1"))
    psi = apply_circuit(prepare_fock_state(5, [0, 2]), c)
    assert abs(psi.norm() - 1.0) < 1e-10


def test_sample_counts_deterministic_state():
    psi = prepare_fock_state(4, [1, 3])
    counts = sample_counts(psi, 100, seed=0)
    assert _hist(counts) == {bitstring_to_index("0101"): 100}
    assert counts_expectation_z(counts, 0) == pytest.approx(1.0)
    assert counts_expectation_z(counts, 1) == pytest.approx(-1.0)


def test_sample_counts_seed_reproducible():
    p = ModelParams(lambda_J=0.5, L=4)
    psi = exact_evolve(hamiltonian_matrix(p), prepare_fock_state(4, [0]), 1.0)
    a = sample_counts(psi, 500, seed=11)
    b = sample_counts(psi, 500, seed=11)
    c = sample_counts(psi, 500, seed=12)
    assert _hist(a) == _hist(b)
    assert _hist(a) != _hist(c)
    assert sum(a.counts) == 500


def test_sample_counts_bell_statistics():
    # equal superposition of |10> and |01>: each key within 4 sigma of half
    amps = np.zeros(4, dtype=complex)
    amps[1] = amps[2] = 1 / np.sqrt(2)
    psi = prepare_fock_state(2, [0])
    psi.amplitudes[:] = amps
    shots = 20_000
    counts = sample_counts(psi, shots, seed=3)
    hist = _hist(counts)
    assert set(hist) == {bitstring_to_index("10"), bitstring_to_index("01")}
    sigma = np.sqrt(shots * 0.25)
    for key in ("10", "01"):
        assert abs(hist[bitstring_to_index(key)] - shots / 2) < 4 * sigma


def test_sample_counts_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample_counts(prepare_fock_state(2, [0]), 0, seed=0)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("flavor, lambda_J",  # lambda_J = 1 with phi_J = 0: J_0 = 0 exactly
                         [(f, lam) for lam in (0.9, 1.0) for f in FLAVORS],
                         ids=[*FLAVORS, *(f"{f}-dimerized" for f in FLAVORS)])
def test_sector_step_matches_apply_circuit(flavor, lambda_J, scheme):
    p = ModelParams(lambda_J=lambda_J, phi_J=0.3 if lambda_J < 1 else 0.0, V=2.0, L=8,
                    flavor=flavor)
    basis = sector_basis(p.L, 2)
    circuit = trotter_circuit(p, 0.3, 1, scheme)
    step, lowered = compile_sector_step(circuit, basis), lower(circuit)
    psi = prepare_fock_state(p.L, [3, 4])
    amps = psi.amplitudes[basis]
    for _ in range(5):
        psi = apply_circuit(psi, lowered)
        amps = apply_sector_step(step, amps)
        assert np.abs(amps - psi.amplitudes[basis]).max() < 1e-12  # global phase too


def test_sector_step_shares_read_only_gate_unitaries():
    p = ModelParams(lambda_J=0.9, V=2.0, L=8, flavor="exact-jw")
    circuit = trotter_circuit(p, 0.3, 1, "sequential")  # 7 TBLOCKs, each with 2 RZs
    _sector_action.cache_clear()
    compile_sector_step(circuit, sector_basis(p.L, 2))
    info = _sector_action.cache_info()
    # period 2: the bonds alternate between two TBLOCKs, and every RZ has one angle
    assert (info.misses, info.hits) == (3, len(circuit.gates) - 3)
    g = circuit.gates[0]
    diag, off = _sector_action(g.kind, 2, g.angles)
    assert not diag.flags.writeable and not off.flags.writeable
    u = circuit_unitary(Circuit(2, [Gate(g.kind, (0, 1), g.angles)]))
    # |00> and |11> keep their state; |01> <-> |10> is the anti-diagonal
    assert np.array_equal(diag, u.diagonal())
    assert np.array_equal(off, [0, u[1, 2], u[2, 1], 0])


def test_sector_step_folds_diagonal_gates():
    """A diagonal gate folds into the entry before it: each exact-jw bond (a TBLOCK, then
    an Rz on each of its sites) is one entry, so an L=8 strang-2 step of 30 gates has 10."""
    p = ModelParams(lambda_J=0.9, V=2.0, L=8, flavor="exact-jw")
    basis = sector_basis(p.L, 2)
    circuit = trotter_circuit(p, 0.3, 1, "strang-2")
    step = compile_sector_step(circuit, basis)
    assert (len(circuit.gates), len(step)) == (30, 10)
    assert all(partner is not None for _, _, partner in step)
    amps = unfolded = _random_state(p.L, basis, 0).amplitudes
    for g in circuit.gates:
        unfolded = apply_sector_step(compile_sector_step(Circuit(p.L, [g]), basis), unfolded)
    assert np.allclose(apply_sector_step(step, amps), unfolded, rtol=0, atol=1e-15)
    # a diagonal gate with no entry before it is an entry of its own
    rz, block = circuit.gates[1], circuit.gates[0]
    step = compile_sector_step(Circuit(p.L, [rz, block, rz]), basis)
    assert len(step) == 2 and not step[0][1].any() and step[1][1].any()


def test_sector_step_rejects_number_changing_gate():
    basis = sector_basis(3, 1)
    with pytest.raises(ValueError, match="particle-number sector"):
        compile_sector_step(Circuit(3, [Gate(KIND_RY, (1,), (0.3,))]), basis)
    # the same gate again, now a cached action, on other qubits: the error names them
    with pytest.raises(ValueError, match=r"RY on \(2,\) leaves the particle-number sector"):
        compile_sector_step(Circuit(3, [Gate(KIND_RY, (2,), (0.3,))]), basis)
    with pytest.raises(ValueError):
        apply_circuit(StateVector(np.ones(3, dtype=complex), 3, basis), Circuit(3))


def test_sector_state_observables():
    basis = sector_basis(3, 1)  # indices 1, 2, 4
    psi = StateVector(np.sqrt([0.5, 0.0, 0.5]).astype(complex), 3, basis)
    assert [expectation_z(psi, i) for i in range(3)] == pytest.approx([0.0, 1.0, 0.0])
    counts = sample_counts(psi, 1000, seed=2)
    assert set(_hist(counts)) == {1, 4} and counts.counts.sum() == 1000


def _random_state(L, basis, seed):
    rng = np.random.default_rng(seed)
    n = 2**L if basis is None else len(basis)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(amps / np.linalg.norm(amps), L, basis)


@pytest.mark.parametrize("L, n", [(8, 2), (40, 2), (63, 1), (8, None)])
def test_z_vector_matches_per_site_sum(L, n):
    basis = None if n is None else sector_basis(L, n)
    for seed in range(3):
        psi = _random_state(L, basis, seed)
        probs = np.abs(psi.amplitudes) ** 2
        oracle = [np.sum(probs * (1.0 - 2.0 * ((psi.indices >> i) & 1))) for i in range(L)]
        assert np.array_equal(z_vector(psi), oracle)  # bit for bit, not within a tolerance
        counts = sample_counts(psi, 1000, seed)
        oracle = [int(np.sum(counts.counts * (1 - 2 * ((counts.indices >> i) & 1)))) / 1000
                  for i in range(L)]
        assert np.array_equal(z_vector(counts), oracle)
        assert counts_expectation_z(counts, L - 1) == oracle[-1]
    # a stacked (3, n) block of states, as run() reduces them: each row as the state alone
    states = [_random_state(L, basis, seed) for seed in range(3)]
    rows = z_sum(np.abs([psi.amplitudes for psi in states]) ** 2,
                 1 - 2 * site_bits(states[0].indices, L))
    assert rows.shape == (3, L)
    for row, psi in zip(rows, states):
        assert np.array_equal(row, z_vector(psi))
