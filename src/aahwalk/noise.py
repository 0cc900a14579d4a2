"""Synthetic readout errors and their mitigation.

Each qubit flips independently during readout: a true 0 is reported as 1
with probability p01 and a true 1 as 0 with probability p10.  The
per-qubit confusion matrix A = [[1-p01, p10], [p01, 1-p10]] is
column-stochastic and invertible whenever p01 + p10 < 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import CountsTable, z_vector
from .engine import counts_expectation_z  # noqa: F401  bound for the benchmark's tracer
from .exact import site_bits
from .errors import NonInvertibleChannelError, ResourceLimitError

MAX_FULL_MITIGATION_SITES = 12


@dataclass(frozen=True)
class ReadoutModel:
    """Per-qubit flip probabilities; scalars broadcast to every qubit."""

    p01: float | tuple[float, ...]
    p10: float | tuple[float, ...]

    def rates(self, L: int) -> tuple[np.ndarray, np.ndarray]:
        p01 = np.broadcast_to(np.asarray(self.p01, dtype=float), (L,)).copy()
        p10 = np.broadcast_to(np.asarray(self.p10, dtype=float), (L,)).copy()
        if not np.all((p01 >= 0) & (p01 < 0.5) & (p10 >= 0) & (p10 < 0.5)):
            raise ValueError("flip probabilities must lie in [0, 0.5)")
        return p01, p10


def corrupt(counts: CountsTable, model: ReadoutModel, seed) -> CountsTable:
    """Flip each recorded bit independently; shot total is preserved."""
    L = counts.L
    p01, p10 = model.rates(L)
    rng = np.random.default_rng(seed)
    sites = np.arange(L)
    bits = site_bits(counts.indices, L).T.astype(np.uint8)
    # Shots go in order of the site-0-first bit string (site 0 most
    # significant), which fixes which random draw each shot's flips use.
    order = np.argsort(bits @ (1 << sites[::-1]), kind="stable")
    # Expand to a shots x L bit array so flips are independent per shot.
    bits = np.repeat(bits[order], counts.counts[order], axis=0)
    flip_prob = np.where(bits == 0, p01[None, :], p10[None, :])
    bits ^= (rng.random(bits.shape) < flip_prob).astype(np.uint8)
    indices, out = np.unique(bits @ (1 << sites), return_counts=True)
    return CountsTable(counts.shots, indices, out, L, seed)


def mitigate_z_vector(counts: CountsTable, model: ReadoutModel) -> np.ndarray:
    """Invert each qubit's readout channel on the measured <Z_i>, all sites at once."""
    if not isinstance(counts, CountsTable):  # z_vector would take a state's exact <Z_i>
        raise TypeError("mitigated estimates require a CountsTable")
    p01, p10 = model.rates(counts.L)
    scale = 1.0 - p01 - p10
    if np.any(scale <= 0):
        raise NonInvertibleChannelError(f"p01 + p10 >= 1 at qubit {np.argmax(scale <= 0)}")
    return (z_vector(counts) - (p10 - p01)) / scale


def mitigate_expectation_z(counts: CountsTable, model: ReadoutModel, site: int) -> float:
    """Mitigated <Z_site>: one entry of mitigate_z_vector."""
    if not 0 <= site < counts.L:
        raise IndexError(f"site {site} out of range [0, {counts.L - 1}]")
    return float(mitigate_z_vector(counts, model)[site])


def mitigate_counts_full(counts: CountsTable, model: ReadoutModel) -> np.ndarray:
    """Tensor-product inversion of the full confusion matrix.

    Returns a quasi-probability vector over basis indices; entries may be
    slightly negative and are deliberately not clipped.
    """
    L = counts.L
    if L > MAX_FULL_MITIGATION_SITES:
        raise ResourceLimitError(f"full mitigation limited to L <= {MAX_FULL_MITIGATION_SITES}")
    p01, p10 = model.rates(L)
    dist = np.zeros(2**L)
    dist[counts.indices] = counts.counts / counts.shots
    tensor = dist.reshape([2] * L)
    for site in range(L):
        a = np.array([[1 - p01[site], p10[site]], [p01[site], 1 - p10[site]]])
        ainv = np.linalg.inv(a)
        axis = L - 1 - site  # axis 0 holds the highest site (C-order reshape)
        tensor = np.moveaxis(np.tensordot(ainv, tensor, axes=([1], [axis])), 0, axis)
    return tensor.reshape(-1)
