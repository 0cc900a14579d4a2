import math

import numpy as np
import pytest

from aahwalk.engine import CountsTable, bitstring_to_index
from aahwalk.exact import exact_evolve, prepare_fock_state
from aahwalk.experiment import hamiltonian_matrix
from aahwalk.model import ModelParams
from aahwalk.noise import ReadoutModel
from aahwalk.observables import (
    DensityProfile,
    connected_correlation,
    correlation,
    density,
    density_profile,
    edge_density_nE,
    edge_probability_P0,
    participation_entropy,
    radial_distribution,
)


def _table(shots, keyed, L):
    """CountsTable from a {site-0-first bit string: count} histogram."""
    pairs = sorted((bitstring_to_index(k), c) for k, c in keyed.items())
    return CountsTable(shots, np.array([i for i, _ in pairs]),
                       np.array([c for _, c in pairs]), L)


def test_density_from_statevector():
    psi = prepare_fock_state(4, [1, 3])
    assert density(psi, 0) == pytest.approx(0.0)
    assert density(psi, 1) == pytest.approx(1.0)


def test_density_from_counts():
    counts = _table(4, {"10": 3, "01": 1}, 2)
    assert density(counts, 0) == pytest.approx(0.75)
    assert density(counts, 1) == pytest.approx(0.25)


def test_density_profile_fields():
    psi = prepare_fock_state(3, [2])
    prof = density_profile(psi, 1.5, "exact")
    assert prof.time == 1.5 and prof.source == "exact" and prof.L == 3
    assert prof.values == pytest.approx([0.0, 0.0, 1.0])


def test_density_profile_mitigated_requires_counts():
    psi = prepare_fock_state(2, [0])
    with pytest.raises(TypeError):
        density_profile(psi, 0.0, "x", model=ReadoutModel(0.01, 0.01))


def test_density_profile_mitigated_zero_noise():
    counts = _table(8, {"10": 8}, 2)
    prof = density_profile(counts, 0.0, "m", model=ReadoutModel(0.0, 0.0))
    assert prof.values == pytest.approx([1.0, 0.0])


def test_scalar_diagnostics():
    prof = DensityProfile(0.0, np.array([0.5, 0.25, 0.0, 0.25]), "exact")
    assert edge_probability_P0(prof) == pytest.approx(0.5)
    assert radial_distribution(prof) == pytest.approx(0.25 + 3 * 0.25)
    assert edge_density_nE(prof) == pytest.approx((0.5 + 0.25) / 2)


def test_density_sums_to_particle_number():
    p = ModelParams(lambda_J=0.9, V=2.0, L=6)
    psi = exact_evolve(hamiltonian_matrix(p), prepare_fock_state(6, [1, 4]), 2.0)
    prof = density_profile(psi, 2.0, "exact")
    assert prof.values.sum() == pytest.approx(2.0, abs=1e-10)


def test_reflection_symmetric_evolution():
    # mirror-symmetric chain and initial state: profile stays symmetric
    p = ModelParams(J=1.0, lambda_J=0.0, V=1.0, L=6)
    psi = exact_evolve(hamiltonian_matrix(p), prepare_fock_state(6, [2, 3]), 1.7)
    v = density_profile(psi, 1.7, "exact").values
    assert np.abs(v - v[::-1]).max() < 1e-10


def test_correlation_product_form():
    # |1100>: z = (-1, -1, +1, +1); C_ij = z_i z_j
    psi = prepare_fock_state(4, [0, 1])
    C = correlation(psi).values
    assert C[0, 1] == pytest.approx(1.0)
    assert C[0, 2] == pytest.approx(-1.0)
    assert C[2, 3] == pytest.approx(1.0)
    assert np.allclose(C, C.T)
    assert np.allclose(np.diag(C), 1.0)


def test_correlation_from_counts():
    counts = _table(2, {"10": 1, "01": 1}, 2)
    C = correlation(counts).values
    assert np.allclose(C, 0.0)  # <Z_i> = 0 on both sites


def test_connected_correlation_product_state_vanishes():
    psi = prepare_fock_state(4, [0, 2])
    C = connected_correlation(psi).values
    assert np.abs(C).max() < 1e-12


def test_connected_correlation_entangled_pair():
    # (|10> + |01>)/sqrt(2): <Z_i> = 0 but <Z_0 Z_1> = -1
    psi = prepare_fock_state(2, [0])
    psi.amplitudes[:] = 0
    psi.amplitudes[1] = psi.amplitudes[2] = 1 / math.sqrt(2)
    C = connected_correlation(psi).values
    assert C[0, 1] == pytest.approx(-1.0)
    assert C[0, 0] == pytest.approx(1.0)


def test_participation_entropy_examples():
    # single particle spread uniformly over 4 sites: S2 = ln 4
    prof = DensityProfile(0.0, np.full(4, 0.25), "exact")
    assert participation_entropy(prof, 2, 1) == pytest.approx(math.log(4))
    # fully localized single particle: S2 = 0
    prof = DensityProfile(0.0, np.array([1.0, 0.0, 0.0]), "exact")
    assert participation_entropy(prof, 2, 1) == pytest.approx(0.0)
    # two particles uniform over 8 sites: p_i = 1/8, S2 = ln 16
    prof = DensityProfile(0.0, np.full(8, 0.25), "exact")
    assert participation_entropy(prof, 2, 2) == pytest.approx(math.log(16))


def test_participation_entropy_order_three():
    prof = DensityProfile(0.0, np.full(4, 0.25), "exact")
    # uniform profile: every Renyi order collapses to ln(number of sites)
    assert participation_entropy(prof, 3, 1) == pytest.approx(math.log(4))


def test_participation_entropy_errors():
    prof = DensityProfile(0.0, np.array([0.5, 0.5]), "exact")
    with pytest.raises(ValueError):
        participation_entropy(prof, 1, 1)
    with pytest.raises(ValueError):
        participation_entropy(prof, 2, 0)
    with pytest.raises(ValueError):
        participation_entropy(DensityProfile(0.0, np.zeros(3), "exact"), 2, 1)


# A (T, L) density table with negative (mitigated) densities, and its times.
TIMES = [s * 0.4 for s in range(5)]
TABLE = np.array([[0.9, 0.05, -0.02, 0.0, 0.03, 0.04],
                  [0.6, 0.3, 0.1, -0.04, 0.02, 0.05],
                  [0.3, 0.35, 0.2, 0.1, -0.03, 0.08],
                  [0.15, 0.25, 0.3, 0.2, 0.12, -0.01],
                  [-0.05, 0.2, 0.25, 0.3, 0.2, 0.1]])
SCALAR_FUNCTIONS = {
    "P0": edge_probability_P0, "R2n": radial_distribution, "nE": edge_density_nE,
    "S2": lambda prof: participation_entropy(prof, 2, 2),
    "S3": lambda prof: participation_entropy(prof, 3, 1)}


@pytest.mark.parametrize("name", SCALAR_FUNCTIONS)
def test_scalar_functions_reduce_a_table_row_by_row(name):
    """On a (steps+1) x L table each function gives a list of Python floats, each bit for
    bit its value on that row alone; on one profile it gives a Python float."""
    fn = SCALAR_FUNCTIONS[name]
    table = DensityProfile(TIMES, TABLE, "trotter-sampled-mitigated")
    assert table.L == TABLE.shape[1]
    rows = [fn(DensityProfile(t, row, table.source)) for t, row in zip(TIMES, TABLE)]
    assert all(type(v) is float for v in rows)  # not np.float64, which prints differently
    series = fn(table)
    assert type(series) is list and all(type(v) is float for v in series)
    assert series == rows and len(series) == len(TIMES)


def test_participation_entropy_names_the_first_undefined_row():
    table = TABLE.copy()
    table[[2, 4]] = 0.0  # sum of p_i^2 is 0 in rows 2 and 4
    with pytest.raises(ValueError, match=rf"^participation entropy of the trotter-sampled"
                       rf" profile at t={TIMES[2]} undefined: sum of p_i\^2 is 0\.0$"):
        participation_entropy(DensityProfile(TIMES, table, "trotter-sampled"), 2, 2)
