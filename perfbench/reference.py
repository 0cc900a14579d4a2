"""Particle-number-sector reference for the modulated hopping chain.

Built apart from the aahwalk package, from the model as PAPER.md states it:

    H = sum_b J_b (c+_b c_{b+1} + h.c.) + interaction,
    J_b = J [1 + lambda_J cos(2 pi (b+1)/T + phi_J)].

The basis is the C(L, N) Fock states with N particles, each an integer whose
bit i is the occupation of site i.  A nearest-neighbour hop in an open chain
passes no other site, so it carries no Jordan-Wigner sign.  The interaction is
diagonal: (V/2) sum_b z_b z_{b+1} with z = 1 - 2n for the paper-literal
flavor, V sum_b n_b n_{b+1} for exact-jw.

Exact propagation diagonalizes the sector Hamiltonian.  The Trotter reference
multiplies exp(-i dt_b h_b) over the bonds in each scheme's order; h_b holds
bond b's hop and interaction, so the exact-jw Rz pair (which commutes with its
bond block) is included in the same factor.

Run this file to execute the self-tests: ``python3 perfbench/reference.py``.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations

import numpy as np

PAPER_LITERAL = "paper-literal"
EXACT_JW = "exact-jw"


def bond_coefficients(model: dict) -> np.ndarray:
    L = model["L"]
    return np.array([
        model["J"] * (1.0 + model["lambda_J"]
                      * math.cos(2.0 * math.pi * (b + 1) / model["T_period"] + model["phi_J"]))
        for b in range(L - 1)
    ])


class Sector:
    """The C(L, N) Fock basis and the bond terms of the Hamiltonian on it."""

    def __init__(self, L: int, N: int):
        self.L = L
        self.states = np.array(sorted(sum(1 << s for s in occ)
                                      for occ in combinations(range(L), N)), dtype=np.int64)
        self.position = {int(s): k for k, s in enumerate(self.states)}
        # occupations[k, i] is the occupation of site i in basis state k
        self.occupations = ((self.states[:, None] >> np.arange(L)) & 1).astype(float)

    @property
    def dim(self) -> int:
        return self.states.size

    def basis_vector(self, occupied: list[int]) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[self.position[sum(1 << s for s in occupied)]] = 1.0
        return psi

    def bond_term(self, model: dict, b: int, jb: float) -> np.ndarray:
        """h_b: the hop across bond b plus its share of the interaction."""
        h = np.zeros((self.dim, self.dim))
        pair = (1 << b) | (1 << (b + 1))
        for k, s in enumerate(self.states):
            if bin(int(s) & pair).count("1") == 1:
                h[self.position[int(s) ^ pair], k] = jb
        n_b, n_c = self.occupations[:, b], self.occupations[:, b + 1]
        if model["flavor"] == PAPER_LITERAL:
            diag = 0.5 * model["V"] * (1 - 2 * n_b) * (1 - 2 * n_c)
        elif model["flavor"] == EXACT_JW:
            diag = model["V"] * n_b * n_c
        else:
            raise ValueError(f"unknown flavor {model['flavor']!r}")
        return h + np.diag(diag)

    def bond_terms(self, model: dict) -> list[np.ndarray]:
        return [self.bond_term(model, b, jb)
                for b, jb in enumerate(bond_coefficients(model))]

    def densities(self, psi: np.ndarray) -> np.ndarray:
        """Site occupations <n_i> of one state, or of each row of a stack."""
        return (np.abs(psi) ** 2) @ self.occupations


def _unitary(h: np.ndarray, t: float) -> np.ndarray:
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def bond_order(L: int, dt: float, scheme: str) -> list[tuple[int, float]]:
    """(bond, step) factors of one Trotter step, in the order they act."""
    even = [(b, dt) for b in range(0, L - 1, 2)]
    odd = [(b, dt) for b in range(1, L - 1, 2)]
    if scheme == "sequential":
        return [(b, dt) for b in range(L - 1)]
    if scheme == "even-odd-1":
        return even + odd
    if scheme == "strang-2":
        half = [(b, dt / 2) for b, _ in odd]
        return half + even + half
    raise ValueError(f"unknown scheme {scheme!r}")


class Reference:
    """Exact and Trotter evolution of one experiment config in its sector."""

    def __init__(self, model: dict, occupied: list[int]):
        self.model = model
        self.sector = Sector(model["L"], len(occupied))
        self.psi0 = self.sector.basis_vector(occupied)
        self.terms = self.sector.bond_terms(model)
        self.evals, self.evecs = np.linalg.eigh(sum(self.terms))
        self._coeffs = self.evecs.conj().T @ self.psi0

    def exact_states(self, times) -> np.ndarray:
        phases = np.exp(-1j * np.outer(times, self.evals))
        return (phases * self._coeffs) @ self.evecs.T

    def trotter_states(self, t_max: float, steps: int, scheme: str) -> np.ndarray:
        dt = t_max / steps
        step = np.eye(self.sector.dim, dtype=complex)
        for b, h_dt in bond_order(self.model["L"], dt, scheme):
            step = _unitary(self.terms[b], h_dt) @ step
        out = np.empty((steps + 1, self.sector.dim), dtype=complex)
        out[0] = self.psi0
        for s in range(steps):
            out[s + 1] = step @ out[s]
        return out


# ---------------------------------------------------------------------------
# Self-tests

def _model(L, lam, phi, V, flavor, T=2):
    return {"J": 1.0, "lambda_J": lam, "T_period": T, "phi_J": phi, "V": V,
            "L": L, "flavor": flavor}


def free_fermion_error() -> float:
    """Largest V=0 deviation from a sum of single-particle propagators.

    A Slater determinant of orbitals started on sites s has
    <n_i(t)> = sum_s |U_is(t)|^2 with U = exp(-i h t) and h the L x L hopping
    matrix.
    """
    worst = 0.0
    for L, occupied, lam, phi in ((7, [0, 3], 0.9, 0.0), (8, [3, 4], 0.5, 1.1)):
        jb = bond_coefficients(_model(L, lam, phi, 0.0, PAPER_LITERAL))
        h = np.diag(jb, 1) + np.diag(jb, -1)
        times = np.linspace(0.0, 6.0, 13)
        single = np.array([(np.abs(_unitary(h, t)[:, occupied]) ** 2).sum(axis=1)
                           for t in times])
        for flavor in (PAPER_LITERAL, EXACT_JW):
            ref = Reference(_model(L, lam, phi, 0.0, flavor), occupied)
            dens = ref.sector.densities(ref.exact_states(times))
            worst = max(worst, float(np.abs(dens - single).max()))
    return worst


def trotter_slopes(flavor: str) -> dict[str, float]:
    """Convergence order of each scheme's product towards exact propagation.

    The slope is log2 of the ratio of the final-state errors at n and 2n
    steps, averaged over n = 8, 16, 32.
    """
    ref = Reference(_model(6, 0.5, 0.3, 1.5, flavor), [1, 4])
    t = 1.0
    exact = ref.exact_states([t])[0]
    slopes = {}
    for scheme in ("sequential", "even-odd-1", "strang-2"):
        errs = [np.linalg.norm(ref.trotter_states(t, n, scheme)[-1] - exact)
                for n in (8, 16, 32, 64)]
        slopes[scheme] = float(np.mean(np.log2(np.array(errs[:-1]) / np.array(errs[1:]))))
    return slopes


EXPECTED_ORDER = {"sequential": 1.0, "even-odd-1": 1.0, "strang-2": 2.0}
FREE_FERMION_TOL = 1e-10
SLOPE_TOL = 0.15


def self_test() -> list[tuple[str, bool]]:
    """Every self-test as (what was measured, whether it passed)."""
    err = free_fermion_error()
    rows = [(f"free-fermion V=0 densities: max deviation {err:.3g}", err <= FREE_FERMION_TOL)]
    for flavor in (PAPER_LITERAL, EXACT_JW):
        for scheme, slope in trotter_slopes(flavor).items():
            rows.append((f"{flavor} {scheme}: Trotter slope {slope:.3f}, "
                         f"expected {EXPECTED_ORDER[scheme]}",
                         abs(slope - EXPECTED_ORDER[scheme]) <= SLOPE_TOL))
    return rows


if __name__ == "__main__":
    rows = self_test()
    for what, ok in rows:
        print("pass" if ok else "FAIL", what)
    sys.exit(0 if all(ok for _, ok in rows) else 1)
