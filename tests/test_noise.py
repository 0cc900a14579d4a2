import tracemalloc

import numpy as np
import pytest

from aahwalk.engine import (CountsTable, bitstring_to_index, counts_expectation_z, sample_counts,
                            z_vector)
from aahwalk.errors import NonInvertibleChannelError, ResourceLimitError
from aahwalk.exact import StateVector, exact_evolve, prepare_fock_state, sector_basis, site_bits
from aahwalk.experiment import hamiltonian_matrix
from aahwalk.model import ModelParams
from aahwalk.noise import (
    ReadoutModel,
    corrupt,
    mitigate_counts_full,
    mitigate_expectation_z,
    mitigate_z,
    mitigate_z_vector,
    readout_z,
)


def _table(shots, keyed, L):
    """CountsTable from a {site-0-first bit string: count} histogram."""
    pairs = sorted((bitstring_to_index(k), c) for k, c in keyed.items())
    return CountsTable(shots, np.array([i for i, _ in pairs]),
                       np.array([c for _, c in pairs]), L)


def _hist(table):
    """Measured histogram as {basis index: count}."""
    return dict(zip(table.indices.tolist(), table.counts.tolist()))


def _corrupt_per_shot(counts, model, seed):
    """corrupt as a shots x L bit array: the oracle for its bytes."""
    L = counts.L
    p01, p10 = model.rates(L)
    rng = np.random.default_rng(seed)
    sites = np.arange(L)
    bits = site_bits(counts.indices, L).T.astype(np.uint8)
    # Expand to a shots x L bit array so flips are independent per shot.
    bits = np.repeat(bits, counts.counts, axis=0)
    flip_prob = np.where(bits == 0, p01[None, :], p10[None, :])
    bits ^= (rng.random(bits.shape) < flip_prob).astype(np.uint8)
    indices, out = np.unique(bits @ (1 << sites), return_counts=True)
    return CountsTable(counts.shots, indices, out, L)


def _kept(counts, basis):
    """A table's counts as the basis-order count vector that readout_z's function takes."""
    kept = np.zeros(len(basis), np.int64)
    kept[np.searchsorted(basis, counts.indices)] = counts.counts
    return kept


def _spread(shots, basis, L, seed):
    """A CountsTable of `shots` multinomial draws over `basis`, with uneven weights."""
    rng = np.random.default_rng(seed)
    weights = rng.random(len(basis))
    draws = rng.multinomial(shots, weights / weights.sum())
    return CountsTable(shots, basis[draws > 0], draws[draws > 0], L)


@pytest.mark.parametrize("L", [1, 3, 8, 12, 40, 63])
@pytest.mark.parametrize("rates", ["scalar", "per-qubit", "zero"])
def test_corrupt_matches_per_shot_oracle(L, rates):
    # Same table bit for bit, dtypes included, across chunk edges (2**16 draws).
    model = {"scalar": ReadoutModel(0.05, 0.2), "zero": ReadoutModel(0.0, 0.0),
             "per-qubit": ReadoutModel(tuple(np.linspace(0.0, 0.45, L)),
                                       tuple(np.linspace(0.3, 0.01, L)))}[rates]
    bases = [sector_basis(L, 1)] if L == 63 else [sector_basis(L, 0), sector_basis(L, L)]
    if L <= 12:
        bases.append(np.arange(2**L))
    edge = 2**16 // L
    for basis in bases:
        for shots in sorted({1, edge - 1, edge, edge + 1, 70_000}):
            counts = _spread(shots, basis, L, seed=L + shots)
            got = corrupt(counts, model, (L, shots))
            want = _corrupt_per_shot(counts, model, (L, shots))
            assert got.shots == want.shots and got.L == want.L
            assert got.indices.dtype == want.indices.dtype and got.counts.dtype == want.counts.dtype
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.counts, want.counts)


@pytest.mark.parametrize("p", [0.03, 0.45])
def test_corrupt_memory_bounded_per_draw(p):
    # Draws are held a chunk at a time and each chunk's flips reduced before the next.
    L, shots = 8, 2**19
    counts = _spread(shots, np.arange(2**L), L, seed=3)
    tracemalloc.start()
    try:
        corrupt(counts, ReadoutModel(p, p), seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * shots * L


_GRID_MODELS = {"scalar": lambda L: ReadoutModel(0.05, 0.2),
                "uniform": lambda L: ReadoutModel(0.03, 0.03),  # no draw needs its site's rate
                "zero": lambda L: ReadoutModel(0.0, 0.0),
                "per-qubit": lambda L: ReadoutModel(tuple(np.linspace(0.0, 0.45, L)),
                                                    tuple(np.linspace(0.3, 0.01, L))),
                "none": lambda L: None}  # no readout: the table's own <Z>


@pytest.mark.parametrize("L", [1, 3, 8, 12, 40, 63])
@pytest.mark.parametrize("rates", list(_GRID_MODELS))
def test_readout_z_matches_corrupted_table(L, rates):
    # z_vector of corrupt's table bit for bit, on test_corrupt_matches_per_shot_oracle's grid;
    # one per-run function serves every table over its basis.
    model = _GRID_MODELS[rates](L)
    bases = [sector_basis(L, 1)] if L == 63 else [sector_basis(L, 0), sector_basis(L, L)]
    if L <= 12:
        bases.append(np.arange(2**L))
    edge = 2**16 // L
    for basis in bases:
        z = readout_z(model, basis, L)
        for shots in sorted({1, edge - 1, edge, edge + 1, 70_000}):
            counts = _spread(shots, basis, L, seed=L + shots)
            want = z_vector(counts if model is None else corrupt(counts, model, (L, shots)))
            assert np.array_equal(z(_kept(counts, basis), (L, shots)), want)
            if rates == "uniform" and L <= 12:  # the grid of corrupt's oracle test has no such rate
                got, want = corrupt(counts, model, L), _corrupt_per_shot(counts, model, L)
                assert np.array_equal(got.indices, want.indices)
                assert np.array_equal(got.counts, want.counts)


@pytest.mark.parametrize("p", [0.03, 0.45])
def test_readout_z_memory_bounded_per_draw(p):
    L, shots = 8, 2**19
    basis = np.arange(2**L)
    kept = _kept(_spread(shots, basis, L, seed=3), basis)
    tracemalloc.start()
    try:
        readout_z(ReadoutModel(p, p), basis, L)(kept, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * shots * L


def test_zero_rates_draw_nothing(monkeypatch):
    # No bit can flip, so no generator is made: corrupt returns the table it was given.
    def no_rng(seed):
        raise AssertionError("a generator was made at zero rates")

    L = 8
    counts = _spread(5000, np.arange(2**L), L, seed=1)
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    out = corrupt(counts, ReadoutModel(0.0, 0.0), seed=2)
    assert out.shots == counts.shots and out.L == L
    assert np.array_equal(out.indices, counts.indices)
    assert np.array_equal(out.counts, counts.counts)
    assert np.array_equal(readout_z(ReadoutModel(0.0, 0.0), np.arange(2**L), L)(
        _kept(counts, np.arange(2**L)), 2), z_vector(counts))


def test_rates_broadcast_and_validate():
    m = ReadoutModel(0.02, 0.05)
    p01, p10 = m.rates(3)
    assert np.allclose(p01, 0.02) and np.allclose(p10, 0.05)
    m = ReadoutModel((0.01, 0.02), 0.0)
    p01, _ = m.rates(2)
    assert tuple(p01) == (0.01, 0.02)
    with pytest.raises(ValueError):
        ReadoutModel(0.5, 0.0).rates(2)
    with pytest.raises(ValueError):
        ReadoutModel(-0.1, 0.0).rates(2)


@pytest.mark.parametrize("model", [ReadoutModel("0.1", 0.02), ReadoutModel(False, 0.02),
                                   ReadoutModel(("0.1", "0.2"), 0.0)],
                         ids=["string", "bool", "string-list"])
def test_readers_of_the_rates_refuse_non_numbers(model):
    # The rates' type rule lives in rates(), so every reader refuses what a config refuses.
    L = 2
    counts = _table(10, {"10": 6, "01": 4}, L)
    with pytest.raises(TypeError, match="expected a number or a list of numbers"):
        corrupt(counts, model, seed=1)
    with pytest.raises(TypeError, match="expected a number or a list of numbers"):
        readout_z(model, sector_basis(L, 1), L)
    with pytest.raises(TypeError, match="expected a number or a list of numbers"):
        mitigate_z(np.zeros(L), model)


def test_corrupt_zero_noise_is_identity():
    counts = _table(50, {"0101": 30, "1010": 20}, 4)
    out = corrupt(counts, ReadoutModel(0.0, 0.0), seed=9)
    assert _hist(out) == _hist(counts)
    assert out.shots == 50


def test_corrupt_deterministic_per_seed():
    counts = _table(400, {"0000": 400}, 4)
    m = ReadoutModel(0.1, 0.05)
    a = corrupt(counts, m, seed=1)
    b = corrupt(counts, m, seed=1)
    c = corrupt(counts, m, seed=2)
    assert _hist(a) == _hist(b)
    assert _hist(a) != _hist(c)
    assert sum(a.counts) == 400


def test_corrupt_all_zeros_flip_rate():
    # all-zero register: P(key stays "000") = (1 - p01)^3
    shots, eps, L = 40_000, 0.05, 3
    counts = _table(shots, {"000": shots}, L)
    out = corrupt(counts, ReadoutModel(eps, 0.0), seed=21)
    p = (1 - eps) ** L
    sigma = np.sqrt(shots * p * (1 - p))
    assert abs(_hist(out)[bitstring_to_index("000")] - shots * p) < 4 * sigma


def test_mitigate_expectation_examples():
    # perfectly corrupted analytic case: z_meas = (1-p01-p10) z + (p01-p10)
    m = ReadoutModel(0.1, 0.2)
    counts = _table(10, {"1": 10}, 1)
    assert counts_expectation_z(counts, 0) == -1.0
    assert mitigate_expectation_z(counts, m, 0) == pytest.approx(
        (-1.0 - (0.2 - 0.1)) / 0.7)
    clean = _table(10, {"0": 10}, 1)
    assert mitigate_expectation_z(clean, ReadoutModel(0.0, 0.0), 0) == 1.0


def test_mitigation_recovers_biased_estimate():
    # corrupt then mitigate: estimate lands within 3 sigma of truth while
    # the raw corrupted estimate carries a visible bias
    p = ModelParams(lambda_J=0.9, L=4)
    psi = exact_evolve(hamiltonian_matrix(p), prepare_fock_state(4, [0]), 1.0)
    z_true = np.array([float(1 - 2 * ((np.arange(16) >> i) & 1) @
                             (np.abs(psi.amplitudes) ** 2))
                       for i in range(4)])
    shots, eps = 60_000, 0.08
    counts = corrupt(sample_counts(psi, shots, seed=4),
                     ReadoutModel(eps, eps), seed=5)
    sigma = 1.0 / np.sqrt(shots) / (1 - 2 * eps)
    for site in range(4):
        z_mit = mitigate_expectation_z(counts, ReadoutModel(eps, eps), site)
        assert abs(z_mit - z_true[site]) < 3 * sigma
    # site 0 starts near z = -1; symmetric noise pulls it toward zero
    z_raw = counts_expectation_z(counts, 0)
    assert abs(z_raw - z_true[0]) > 2 * (1.0 / np.sqrt(shots))


def test_mitigate_full_zero_noise_identity():
    counts = _table(8, {"01": 6, "10": 2}, 2)
    dist = mitigate_counts_full(counts, ReadoutModel(0.0, 0.0))
    assert {i: dist[i] for i in np.flatnonzero(dist)} == {
        bitstring_to_index("01"): pytest.approx(0.75),
        bitstring_to_index("10"): pytest.approx(0.25)}


def test_mitigate_full_exact_channel_round_trip():
    # build a counts table that matches the corrupted distribution exactly,
    # then check inversion recovers the clean one
    p01, p10 = 0.1, 0.2
    A = np.array([[1 - p01, p10], [p01, 1 - p10]])
    clean = np.array([0.5, 0.0, 0.25, 0.25])  # over L=2 basis states
    A2 = np.kron(A, A)  # index bit order: site1 then site0, matching C-order
    noisy = A2 @ clean
    shots = 1600
    counts_dict = {}
    for idx, prob in enumerate(noisy):
        n = round(prob * shots)
        if n:
            key = "".join("1" if (idx >> i) & 1 else "0" for i in range(2))
            counts_dict[key] = n
    assert sum(counts_dict.values()) == shots
    counts = _table(shots, counts_dict, 2)
    dist = mitigate_counts_full(counts, ReadoutModel(p01, p10))
    assert np.abs(dist - clean).max() < 1e-12


def test_mitigate_full_can_go_negative():
    # a miscalibrated channel produces quasi-probabilities; they must not
    # be clipped
    counts = _table(100, {"0": 100}, 1)
    dist = mitigate_counts_full(counts, ReadoutModel(0.3, 0.0))
    zero, one = dist[bitstring_to_index("0")], dist[bitstring_to_index("1")]
    assert zero > 1.0 and one < 0.0
    assert zero + one == pytest.approx(1.0)


def test_mitigate_full_size_guard():
    counts = _table(1, {"0" * 13: 1}, 13)
    with pytest.raises(ResourceLimitError):
        mitigate_counts_full(counts, ReadoutModel(0.01, 0.01))


def test_non_invertible_channel_rejected():
    counts = _table(10, {"0": 10}, 1)
    model = ReadoutModel(0.49, 0.49)
    # p01 + p10 = 0.98 < 1 still invertible; push past the limit via rates
    assert mitigate_expectation_z(counts, model, 0) is not None
    with pytest.raises(ValueError):
        ReadoutModel(0.6, 0.6).rates(1)


def test_non_invertible_error_type_exists():
    assert issubclass(NonInvertibleChannelError, Exception)


def test_mitigate_z_vector_matches_per_site():
    L, basis = 8, sector_basis(8, 2)
    rng = np.random.default_rng(4)
    amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    psi = StateVector(amps / np.linalg.norm(amps), L, basis)
    model = ReadoutModel(tuple(rng.uniform(0, 0.3, L)), tuple(rng.uniform(0, 0.3, L)))
    counts = corrupt(sample_counts(psi, 4096, seed=1), model, seed=2)
    p01, p10 = model.rates(L)
    oracle = []
    for i in range(L):
        bits = (counts.indices >> i) & 1
        z = int(np.sum(counts.counts * (1 - 2 * bits))) / counts.shots
        oracle.append((z - (p10[i] - p01[i])) / (1.0 - p01[i] - p10[i]))
    assert np.array_equal(mitigate_z_vector(counts, model), oracle)
    assert mitigate_expectation_z(counts, model, 3) == oracle[3]
    for site in (L, -1):
        with pytest.raises(IndexError):
            mitigate_expectation_z(counts, model, site)
