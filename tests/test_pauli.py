import itertools

import numpy as np
import pytest

from aahwalk.errors import ResourceLimitError
from aahwalk.model import ModelParams
from aahwalk.pauli import (
    ROLE_ANNIHILATION,
    ROLE_CREATION,
    PauliString,
    PauliSum,
    build_fermionic_hamiltonian_matrix,
    build_spin_hamiltonian,
    jw_ladder,
    number_operator,
    to_matrix,
)

_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def test_multiplication_table_exhaustive():
    for a, b in itertools.product("IXYZ", repeat=2):
        prod = PauliString(a) * PauliString(b)
        expected = _MATS[a] @ _MATS[b]
        assert np.allclose(prod.coeff * _MATS[prod.ops], expected)


def test_xy_equals_iz():
    prod = PauliString("X") * PauliString("Y")
    assert prod.ops == "Z" and prod.coeff == 1j


def test_to_matrix_single_z():
    m = to_matrix(PauliSum([PauliString("Z")]))
    assert np.allclose(m, np.diag([1, -1]))


def test_to_matrix_hopping_exchange():
    # (X0X1 + Y0Y1)/2 exchanges |01> and |10> (indices 1 and 2)
    s = PauliSum([PauliString("XX", 0.5), PauliString("YY", 0.5)])
    m = to_matrix(s)
    expected = np.zeros((4, 4))
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.allclose(m, expected)


def test_to_matrix_empty_sum():
    assert np.allclose(to_matrix(PauliSum([]), L=2), np.zeros((4, 4)))


def test_canonicalization_merges_and_drops():
    s = PauliSum([PauliString("XI", 1.0), PauliString("XI", -1.0),
                  PauliString("ZZ", 2.0)])
    assert len(s) == 1
    assert s.terms[0].ops == "ZZ"


def test_jw_ladder_site0_annihilation():
    img = jw_ladder(0, 3, ROLE_ANNIHILATION)
    # sigma^+ (x) I (x) I = ((X + iY)/2) on site 0
    expected = {("XII", 0.5), ("YII", 0.5j)}
    got = {(t.ops, t.coeff) for t in img.terms}
    assert got == expected


def test_jw_ladder_site2_creation_z_string():
    img = jw_ladder(2, 3, ROLE_CREATION)
    got = {(t.ops, t.coeff) for t in img.terms}
    assert got == {("ZZX", 0.5), ("ZZY", -0.5j)}


def test_jw_ladder_site_out_of_range():
    with pytest.raises(IndexError):
        jw_ladder(3, 3, ROLE_CREATION)


def _anticommutator(a, b, L):
    ma, mb = to_matrix(a, L), to_matrix(b, L)
    return ma @ mb + mb @ ma


def test_car_algebra():
    L = 3
    for i in range(L):
        for j in range(L):
            c_i = jw_ladder(i, L, ROLE_ANNIHILATION)
            cdag_j = jw_ladder(j, L, ROLE_CREATION)
            ac = _anticommutator(c_i, cdag_j, L)
            expected = np.eye(2**L) if i == j else np.zeros((2**L, 2**L))
            assert np.allclose(ac, expected, atol=1e-12)
            # {c_i, c_j} = 0
            c_j = jw_ladder(j, L, ROLE_ANNIHILATION)
            assert np.allclose(_anticommutator(c_i, c_j, L), 0.0, atol=1e-12)


def test_number_operator_projector():
    n1 = to_matrix(number_operator(1, 2))
    assert np.allclose(np.diag(n1), [0, 0, 1, 1])  # bit 1 set at indices 2, 3


def test_spin_hamiltonian_uniform_three_sites():
    p = ModelParams(J=1.0, lambda_J=0.0, V=0.0, L=3)
    h = build_spin_hamiltonian(p)
    got = {(t.ops, complex(t.coeff)) for t in h.terms}
    assert got == {("XXI", 0.5), ("YYI", 0.5), ("IXX", 0.5), ("IYY", 0.5)}


def test_spin_hamiltonian_single_bond_with_interaction():
    p = ModelParams(J=1.0, lambda_J=0.9, T_period=2, phi_J=0.0, V=2.0, L=2)
    h = build_spin_hamiltonian(p)
    got = {t.ops: complex(t.coeff) for t in h.terms}
    assert got["XX"] == pytest.approx(0.05)
    assert got["YY"] == pytest.approx(0.05)
    assert got["ZZ"] == pytest.approx(1.0)


def test_spin_hamiltonian_zero_case():
    p = ModelParams(J=0.0, V=0.0, L=2)
    assert len(build_spin_hamiltonian(p)) == 0


def test_spin_hamiltonian_term_count_and_hermiticity():
    p = ModelParams(lambda_J=0.3, V=1.5, L=5)
    h = build_spin_hamiltonian(p)
    assert len(h) == 3 * (p.L - 1)
    m = to_matrix(h)
    assert np.abs(m - m.conj().T).max() < 1e-12


def test_fermionic_matrix_two_site_hopping():
    p = ModelParams(J=1.0, lambda_J=0.0, V=0.0, L=2)
    m = build_fermionic_hamiltonian_matrix(p)
    expected = np.zeros((4, 4))
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.allclose(m, expected, atol=1e-12)


def test_fermionic_matrix_interaction_projector():
    p = ModelParams(J=0.0, V=3.0, L=2)
    m = build_fermionic_hamiltonian_matrix(p)
    assert np.allclose(m, np.diag([0, 0, 0, 3.0]), atol=1e-12)


def test_flavors_agree_without_interaction():
    p = ModelParams(J=1.0, lambda_J=0.7, T_period=2, phi_J=0.4, V=0.0, L=4)
    spin = to_matrix(build_spin_hamiltonian(p))
    ferm = build_fermionic_hamiltonian_matrix(p)
    assert np.abs(spin - ferm).max() < 1e-12


def test_interaction_identity_between_flavors():
    # exact-jw interaction equals (V/4) sum_b (I - Z_b)(I - Z_{b+1})
    for L in (3, 4, 6):
        V = 1.7
        p0 = ModelParams(lambda_J=0.5, V=0.0, L=L)
        pV = ModelParams(lambda_J=0.5, V=V, L=L)
        interaction = (build_fermionic_hamiltonian_matrix(pV)
                       - build_fermionic_hamiltonian_matrix(p0))
        expected = np.zeros_like(interaction)
        for b in range(L - 1):
            nb = to_matrix(number_operator(b, L))
            nb1 = to_matrix(number_operator(b + 1, L))
            expected += V * nb @ nb1
        assert np.abs(interaction - expected).max() < 1e-12


def test_particle_number_conservation_both_flavors():
    for L in (3, 5):
        p = ModelParams(lambda_J=0.9, V=2.0, L=L)
        ztot = np.zeros((2**L, 2**L), dtype=complex)
        for i in range(L):
            ops = "I" * i + "Z" + "I" * (L - i - 1)
            ztot += to_matrix(PauliSum([PauliString(ops)]))
        for m in (to_matrix(build_spin_hamiltonian(p)),
                  build_fermionic_hamiltonian_matrix(p)):
            assert np.abs(m @ ztot - ztot @ m).max() < 1e-12


def test_dense_guard():
    with pytest.raises(ResourceLimitError):
        to_matrix(PauliSum([PauliString("I" * 13)]))


def test_paulisum_text_rendering():
    s = PauliSum([PauliString("XZ", 0.5)])
    assert "XZ" in str(s)
