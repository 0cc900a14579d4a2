"""Exact propagation by eigendecomposition (the oracle for everything).

Basis convention: amplitude index bit i is the state of site/qubit i,
little-endian (site 0 = least significant bit).  |00100> with site 2
occupied therefore lives at index 4.
"""

from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .errors import ResourceLimitError
from .model import FLAVOR_PAPER_LITERAL, ModelParams, bond_coefficient

HERMITICITY_TOL = 1e-9
# The one size guard of the run path: the sector dimension C(L, N).
MAX_SECTOR_STATES = 4096
# Below this dimension eigh runs on one BLAS thread.  From n = 26 on, OpenBLAS's
# divide-and-conquer eigensolver hands work to a second thread, which then spins
# on its core for a while after every call; below ~256 that thread gains nothing.
ONE_THREAD_EIGH_DIM = 256


@dataclass
class StateVector:
    """Complex amplitudes over `basis`, ascending basis indices (None: all 2^L)."""

    amplitudes: np.ndarray
    L: int
    basis: np.ndarray | None = None

    @property
    def indices(self) -> np.ndarray:  # the basis index of each amplitude
        return np.arange(len(self.amplitudes)) if self.basis is None else self.basis

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes.copy(), self.L, self.basis)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def prepare_fock_state(L: int, occupied: list[int]) -> StateVector:
    """Computational basis state with 1-bits exactly at the occupied sites."""
    if len(set(occupied)) != len(occupied):
        raise ValueError(f"duplicate sites in {occupied}")
    for s in occupied:
        if not 0 <= s < L:
            raise IndexError(f"site {s} out of range [0, {L - 1}]")
    amps = np.zeros(2**L, dtype=complex)
    amps[sum(1 << s for s in occupied)] = 1.0
    return StateVector(amps, L)


@dataclass
class SpectralDecomposition:
    """Eigendecomposition H = U diag(E) U^dag with ascending eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def evolve(self, psi: StateVector, t: float) -> StateVector:
        coeffs = self.eigenvectors.conj().T @ psi.amplitudes
        amps = self.eigenvectors @ (np.exp(-1j * self.eigenvalues * t) * coeffs)
        return StateVector(amps, psi.L, psi.basis)


def _check_hermitian(H: np.ndarray) -> None:
    if np.abs(H - H.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian")


@functools.cache
def _openblas_thread_counts() -> tuple[tuple, ...]:
    """(get, set) thread-count functions of each OpenBLAS loaded in this process,
    numpy's among them; none where /proc/self/maps does not exist."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return ()
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # already loaded: the same handle
        except OSError:  # e.g. a mapping of a file deleted since
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


@contextmanager
def _one_blas_thread():
    counts = _openblas_thread_counts()
    before = [get() for get, _ in counts]
    for _, put in counts:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(counts, before):
            put(n)


def spectrum(H: np.ndarray) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix; eigenvalues come back ascending."""
    _check_hermitian(H)
    with _one_blas_thread() if H.shape[0] < ONE_THREAD_EIGH_DIM else nullcontext():
        evals, evecs = np.linalg.eigh(H)
    return SpectralDecomposition(evals, evecs)


def exact_evolve(H: np.ndarray, psi0: StateVector, t: float) -> StateVector:
    """Apply exp(-iHt) to psi0 through the spectral decomposition."""
    if H.shape[0] != psi0.amplitudes.size:
        raise ValueError("dimension mismatch between H and state")
    return spectrum(H).evolve(psi0, t)


def sector_basis(L: int, n: int) -> np.ndarray:
    """Ascending basis indices of the states with exactly n occupied sites."""
    if math.comb(L, n) > MAX_SECTOR_STATES:
        raise ResourceLimitError(f"sector dimension C({L}, {n}) = {math.comb(L, n)}"
                                 f" exceeds {MAX_SECTOR_STATES}")
    return np.array(sorted(sum(1 << s for s in occ)
                           for occ in combinations(range(L), n)), dtype=np.int64)


def site_bits(indices: np.ndarray, L: int) -> np.ndarray:
    """(L, n) occupation matrix: row i holds bit i (site i) of each basis index."""
    return (indices >> np.arange(L)[:, None]) & 1


def sector_hamiltonian(params: ModelParams, basis: np.ndarray) -> np.ndarray:
    """H on the span of `basis` (one particle-number sector), as a real matrix.

    A hop on bond b swaps bits b and b+1 with amplitude J_b; in an open chain
    it carries no Jordan-Wigner sign.  The interaction is diagonal:
    (V/2) sum_b z_b z_{b+1} (paper-literal) or V sum_b n_b n_{b+1} (exact-jw).
    This is the projection of the dense Hamiltonian, constant part included.
    """
    bits = site_bits(basis, params.L).T
    if params.flavor == FLAVOR_PAPER_LITERAL:
        z = 1 - 2 * bits
        diag = params.V / 2 * np.sum(z[:, :-1] * z[:, 1:], axis=1)
    else:
        diag = params.V * np.sum(bits[:, :-1] * bits[:, 1:], axis=1)
    H = np.diag(diag.astype(float))
    for b in range(params.L - 1):
        rows = np.flatnonzero(bits[:, b] != bits[:, b + 1])
        H[rows, np.searchsorted(basis, basis[rows] ^ (3 << b))] = bond_coefficient(params, b)
    return H


def single_particle_hamiltonian(params: ModelParams) -> np.ndarray:
    """L x L hopping matrix of the one-particle sector (V plays no role)."""
    return sector_hamiltonian(replace(params, V=0.0), sector_basis(params.L, 1))


def spectrum_csv(eigenvalues: np.ndarray) -> str:
    """Spectrum dump: CSV with columns index,eigenvalue."""
    lines = ["index,eigenvalue"]
    lines += [f"{i},{float(e)!r}" for i, e in enumerate(eigenvalues)]
    return "\n".join(lines) + "\n"
