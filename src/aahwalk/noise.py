"""Synthetic readout errors and their mitigation.

Each qubit flips independently during readout: a true 0 is reported as 1
with probability p01 and a true 1 as 0 with probability p10.  The
per-qubit confusion matrix A = [[1-p01, p10], [p01, 1-p10]] is
column-stochastic and invertible whenever p01 + p10 < 1.

One flip finder implements the draw contract: one `np.random.default_rng(seed)`; one
`random()` double per (shot, site), row-major, shots in the stable order of their site-0-first
bit string; a bit flips when its draw is below its recorded value's rate. `corrupt` reduces the
flips to a table and `readout_z` to its <Z> row, so both keep sampled bytes stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import CountsTable, z_sum, z_vector
from .engine import counts_expectation_z  # noqa: F401  bound for the benchmark's tracer
from .exact import site_bits
from .errors import ResourceLimitError

MAX_FULL_MITIGATION_SITES = 12
_CHUNK_DRAWS = 2**16  # the readout draws at most this many doubles at a time


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


def _flips(rows: np.ndarray, kept: np.ndarray, rate: np.ndarray, seed):
    """Each chunk's flips of kept[r] shots of rows[r] in draw order, as (shot, site, row)."""
    L, rng = len(rate) // 2, np.random.default_rng(seed)
    ends, total, per_chunk = np.cumsum(kept), int(kept.sum()), max(1, _CHUNK_DRAWS // L)
    for first in range(0, total, per_chunk):
        draws = rng.random(min(per_chunk, total - first) * L)  # row-major; continues the stream
        pos = np.flatnonzero(draws < rate.max())  # only these draws can flip a bit
        shot, site = pos // L + first, pos % L
        row = np.searchsorted(ends, shot, side="right")
        if rate.min() < rate.max():  # resolve each against its site's and recorded bit's rate
            flip = draws[pos] < rate[site + L * ((rows[row] >> site) & 1)]
            shot, site, row = shot[flip], site[flip], row[flip]
        yield shot, site, row


def corrupt(counts: CountsTable, model: ReadoutModel, seed) -> CountsTable:
    """Flip each recorded bit independently; shot total is preserved."""
    L = counts.L
    order = np.argsort((1 << np.arange(L)[::-1]) @ site_bits(counts.indices, L), kind="stable")
    rows, kept = counts.indices[order].astype(np.int64), counts.counts[order].astype(np.int64)
    tables = [(rows, kept)]  # a shot with no flip keeps its index
    for shot, site, row in _flips(rows, kept.copy(), np.concatenate(model.rates(L)), seed):
        start = np.flatnonzero(np.diff(shot, prepend=-1))  # each flipped shot's first flip
        kept -= np.bincount(row[start], minlength=len(kept))
        moved = rows[row[start]] ^ np.add.reduceat(1 << site, start)
        tables.append(np.unique(moved, return_counts=True))  # reduced before the next chunk
    out, inverse = np.unique(np.concatenate([i for i, _ in tables]), return_inverse=True)
    out_counts = np.bincount(inverse, np.concatenate([c for _, c in tables])).astype(np.int64)
    return CountsTable(counts.shots, out[out_counts > 0], out_counts[out_counts > 0], L)


def readout_z(model: ReadoutModel, basis: np.ndarray, L: int):
    """z(counts, seed) = z_vector(corrupt(counts, model, seed)) for counts over ascending basis."""
    order = np.argsort((1 << np.arange(L)[::-1]) @ site_bits(basis, L), kind="stable")  # as corrupt
    rate, rows = np.concatenate(model.rates(L)), basis[order]
    signs = 1 - 2 * site_bits(rows, L)

    def z(counts: CountsTable, seed) -> np.ndarray:
        kept = np.zeros(len(basis), np.int64)  # a zero-count row draws nothing
        kept[np.searchsorted(basis, counts.indices)] = counts.counts
        n = np.zeros(2 * L, np.int64)  # n[site + L * bit]: flips, each moving a sum by 4 * bit - 2
        for _, site, row in _flips(rows, kept := kept[order], rate, seed):
            n += np.bincount(site + L * ((rows[row] >> site) & 1), minlength=2 * L)
        return (z_sum(kept, signs) - 2 * (n[:L] - n[L:])) / counts.shots
    return z


def mitigate_z_vector(counts: CountsTable, model: ReadoutModel) -> np.ndarray:
    """Invert each qubit's readout channel on the measured <Z_i>, all sites at once."""
    if not isinstance(counts, CountsTable):  # z_vector would take a state's exact <Z_i>
        raise TypeError("mitigated estimates require a CountsTable")
    return mitigate_z(z_vector(counts), model)


def mitigate_z(z: np.ndarray, model: ReadoutModel) -> np.ndarray:
    """Invert each qubit's readout channel on measured <Z_i> (last axis: the site)."""
    p01, p10 = model.rates(z.shape[-1])  # each below 0.5, so every channel inverts
    return (z - (p10 - p01)) / (1.0 - p01 - p10)


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
