"""Measured quantities: densities, edge/radial diagnostics, correlations,
participation entropy.

Density is the occupation probability (1 - <Z>)/2, consistent with |1>
marking an occupied site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import expectation_z, z_vector
from .engine import counts_expectation_z  # noqa: F401  bound for the benchmark's tracer
from .exact import StateVector, site_bits
from .noise import ReadoutModel, mitigate_z_vector
from .noise import mitigate_expectation_z  # noqa: F401  bound for the benchmark's tracer

SOURCE_EXACT = "exact"
SOURCE_TROTTER_EXACT = "trotter-exact"
SOURCE_TROTTER_SAMPLED = "trotter-sampled"
SOURCE_TROTTER_MITIGATED = "trotter-sampled-mitigated"


@dataclass
class DensityProfile:
    time: float
    values: np.ndarray
    source: str

    @property
    def L(self) -> int:
        return self.values.size


@dataclass
class CorrelationMatrix:
    time: float
    values: np.ndarray
    source: str


def density(state, site: int) -> float:
    """Occupation probability of one site from a state or counts table."""
    return (1.0 - expectation_z(state, site)) / 2.0


def density_profile(state, time: float, source: str,
                    model: ReadoutModel | None = None) -> DensityProfile:
    """Full site-resolved density; pass a ReadoutModel to apply mitigation."""
    z = z_vector(state) if model is None else mitigate_z_vector(state, model)
    return DensityProfile(time, (1.0 - z) / 2.0, source)


def edge_probability_P0(profile: DensityProfile) -> float:
    """Density at the first site."""
    return float(profile.values[0])


def radial_distribution(profile: DensityProfile) -> float:
    """Density-weighted mean site index, sum_i i * n_i (0-based i); the reduction
    run() applies to a whole density table."""
    return float(np.sum(profile.values * np.arange(profile.L), axis=-1))


def edge_density_nE(profile: DensityProfile) -> float:
    """(n_first + n_last)/2."""
    return float((profile.values[0] + profile.values[-1]) / 2.0)


def correlation(state, time: float = 0.0, source: str = SOURCE_EXACT,
                model: ReadoutModel | None = None) -> CorrelationMatrix:
    """C_ij = <Z_i><Z_j>: the literal product of single-site expectations.

    Pass a ReadoutModel to build it from mitigated <Z_i>.
    """
    z = z_vector(state) if model is None else mitigate_z_vector(state, model)
    return CorrelationMatrix(time, np.outer(z, z), source)


def connected_correlation(psi: StateVector, time: float = 0.0,
                          source: str = SOURCE_EXACT) -> CorrelationMatrix:
    """<Z_i Z_j> - <Z_i><Z_j> from exact amplitudes (not the literal form)."""
    probs = np.abs(psi.amplitudes) ** 2
    zbits = 1.0 - 2.0 * site_bits(psi.indices, psi.L)
    z = zbits @ probs
    zz = (zbits * probs) @ zbits.T
    return CorrelationMatrix(time, zz - np.outer(z, z), source)


def participation_entropy(profile: DensityProfile, k: int = 2, N: int = 1) -> float:
    """Renyi-style spread measure over p_i = n_i / N.

    Returns (1/(1-k)) * ln((1/N) * sum_i p_i^k); natural logarithm.
    """
    if k < 2 or int(k) != k:
        raise ValueError("entropy order k must be an integer >= 2")
    if N < 1:
        raise ValueError("particle count N must be >= 1")
    p = profile.values / N
    weight = float(np.sum(p**k))  # a mitigated profile may hold negative densities
    if weight <= 0:
        raise ValueError(f"participation entropy of the {profile.source} profile at"
                         f" t={profile.time} undefined: sum of p_i^{k} is {weight}")
    return float(math.log(weight / N) / (1 - k))
