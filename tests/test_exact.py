import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import aahwalk
from aahwalk.exact import (
    _openblas_thread_counts,
    exact_evolve,
    prepare_fock_state,
    sector_basis,
    sector_hamiltonian,
    single_particle_hamiltonian,
    spectrum,
    spectrum_csv,
)
from aahwalk.experiment import hamiltonian_matrix
from aahwalk.model import FLAVORS, ModelParams
from aahwalk.observables import density_profile


def test_prepare_fock_state_examples():
    psi = prepare_fock_state(5, [2])
    assert psi.amplitudes[4] == 1.0 and np.abs(psi.amplitudes).sum() == 1.0
    psi = prepare_fock_state(10, [0])
    assert psi.amplitudes[1] == 1.0
    psi = prepare_fock_state(8, [3, 4])
    assert psi.amplitudes[0b00011000] == 1.0


def test_prepare_fock_state_errors():
    with pytest.raises(ValueError):
        prepare_fock_state(4, [1, 1])
    with pytest.raises(IndexError):
        prepare_fock_state(4, [4])


def test_evolve_t0_is_identity():
    p = ModelParams(lambda_J=0.6, V=1.0, L=3)
    H = hamiltonian_matrix(p)
    psi0 = prepare_fock_state(3, [1])
    psi = exact_evolve(H, psi0, 0.0)
    assert np.allclose(psi.amplitudes, psi0.amplitudes, atol=1e-12)


def test_two_site_rabi():
    p = ModelParams(J=1.0, lambda_J=0.0, L=2)
    H = hamiltonian_matrix(p)
    psi0 = prepare_fock_state(2, [0])
    for t in (0.3, 1.0, 2.4):
        psi = exact_evolve(H, psi0, t)
        n0 = density_profile(psi, t, "exact").values[0]
        assert n0 == pytest.approx(np.cos(t) ** 2, abs=1e-10)


def test_norm_and_composition():
    p = ModelParams(lambda_J=0.9, V=2.0, L=4)
    H = hamiltonian_matrix(p)
    psi0 = prepare_fock_state(4, [0, 2])
    a = exact_evolve(H, psi0, 1.7)
    assert abs(a.norm() - 1.0) < 1e-10
    b = exact_evolve(H, exact_evolve(H, psi0, 0.9), 0.8)
    assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-9


def test_particle_number_conserved():
    for flavor in ("paper-literal", "exact-jw"):
        p = ModelParams(lambda_J=0.9, V=2.0, L=5, flavor=flavor)
        H = hamiltonian_matrix(p)
        psi = exact_evolve(H, prepare_fock_state(5, [0, 3]), 2.5)
        total = density_profile(psi, 2.5, "exact").values.sum()
        assert total == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_sector_hamiltonian_is_projection(flavor):
    for L in range(2, 9):
        p = ModelParams(J=1.3, lambda_J=0.7, T_period=3, phi_J=0.4, V=1.7,
                        L=L, flavor=flavor)
        H = hamiltonian_matrix(p)
        n_of = np.array([bin(i).count("1") for i in range(2**L)])
        assert np.all(H[n_of[:, None] != n_of[None, :]] == 0)
        for n in range(L + 1):
            b = sector_basis(L, n)
            assert len(b) == math.comb(L, n)
            assert np.all(np.diff(b) > 0) and np.all(n_of[b] == n)
            assert np.abs(sector_hamiltonian(p, b) - H[np.ix_(b, b)]).max() < 1e-12


def test_non_hermitian_rejected():
    H = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        spectrum(H)


def test_spectrum_zero_matrix():
    d = spectrum(np.zeros((4, 4)))
    assert np.allclose(d.eigenvalues, 0.0)


def test_spectrum_two_site():
    p = ModelParams(J=1.0, lambda_J=0.0, L=2)
    H1 = single_particle_hamiltonian(p)
    d = spectrum(H1)
    assert np.allclose(d.eigenvalues, [-1.0, 1.0])


def test_spectrum_reconstruction():
    p = ModelParams(lambda_J=0.9, V=1.0, L=4)
    H = hamiltonian_matrix(p)
    d = spectrum(H)
    rebuilt = d.eigenvectors @ np.diag(d.eigenvalues) @ d.eigenvectors.conj().T
    assert np.linalg.norm(rebuilt - H) < 1e-9


def test_small_spectrum_runs_on_one_blas_thread(monkeypatch):
    # C(8, 2) = 28 is past n = 26, where OpenBLAS's eigh starts to use a second
    # thread; under the one-thread guard the result is unchanged and the
    # thread count is restored, also when eigh raises
    H = sector_hamiltonian(ModelParams(lambda_J=0.9, V=2.0, L=8, flavor="exact-jw"),
                           sector_basis(8, 2))
    counts = _openblas_thread_counts()
    before = [get() for get, _ in counts]
    d = spectrum(H)
    evals, evecs = np.linalg.eigh(H)
    assert np.array_equal(d.eigenvalues, evals) and np.array_equal(d.eigenvectors, evecs)
    seen = []

    def failing_eigh(a):
        seen.append([get() for get, _ in counts])
        raise np.linalg.LinAlgError("stub")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(np.linalg.LinAlgError):
        spectrum(H)
    assert seen == [[1] * len(counts)]
    assert [get() for get, _ in counts] == before


@pytest.mark.skipif("openblas" not in np.show_config(mode="dicts")["Build Dependencies"]
                    ["blas"]["name"], reason="numpy is not built on OpenBLAS")
def test_one_thread_guard_finds_numpys_openblas():
    """The guard finds the OpenBLAS that numpy runs on and reads its thread count. In a
    fresh process that imports numpy alone (aahwalk.exact imports nothing else), the
    threads are the main thread and OpenBLAS's pool: their number is OpenBLAS's count."""
    assert _openblas_thread_counts()
    code = ("import os; from aahwalk.exact import _openblas_thread_counts; "
            "(get, _), = _openblas_thread_counts(); "
            "print(get(), len(os.listdir('/proc/self/task')))")
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(pathlib.Path(aahwalk.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        get, tasks = map(int, out)
        assert get == tasks <= int(threads)


def test_edge_modes_even_chain():
    # L=8, strong modulation: two near-zero modes whose combined subspace
    # carries > 90% weight on the outermost site pairs.
    p = ModelParams(lambda_J=0.9, phi_J=0.0, L=8)
    d = spectrum(single_particle_hamiltonian(p))
    near = np.abs(d.eigenvalues) < 0.01
    assert near.sum() == 2
    sub = d.eigenvectors[:, near]
    weights = np.sum(np.abs(sub) ** 2, axis=1)  # invariant under degenerate mixing
    assert weights[0] + weights[1] > 0.9
    assert weights[6] + weights[7] > 0.9


def test_chiral_pairing_single_particle():
    # V plays no role in the one-particle sector; at phi=0 eigenvalues pair
    # as +/-E with one unpaired near-zero mode iff L is odd.
    for L in (5, 6, 7, 8):
        p = ModelParams(lambda_J=0.9, phi_J=0.0, L=L)
        e = spectrum(single_particle_hamiltonian(p)).eigenvalues
        assert np.allclose(np.sort(e), np.sort(-e), atol=1e-10)
        # odd chains carry one exactly-zero mode; even chains host a split
        # +/- pair whose magnitude, while tiny, is strictly nonzero
        n_unpaired = int(np.sum(np.abs(e) < 1e-12))
        assert n_unpaired == (1 if L % 2 else 0)


def test_spectrum_csv_format():
    d = spectrum(np.diag([1.0, 2.0]).astype(complex))
    text = spectrum_csv(d.eigenvalues)
    lines = text.strip().split("\n")
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 3
