"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE <n>: PASS|FAIL` line.  Reference numbers
marked FROZEN were produced once by the exact-diagonalization pipeline and
pinned; they guard against silent regressions in any layer underneath.
"""

import itertools
import math
import pathlib

import numpy as np
from scipy.linalg import expm

from aahwalk.circuit import (
    KIND_CNOT,
    lower,
    trotter_circuit,
    two_qubit_block,
)
from aahwalk.engine import apply_circuit, circuit_unitary, counts_expectation_z, sample_counts
from aahwalk.exact import (
    exact_evolve,
    prepare_fock_state,
    single_particle_hamiltonian,
    spectrum,
)
from aahwalk.experiment import ExperimentConfig, emit, hamiltonian_matrix, preset_configs, run
from aahwalk.model import ModelParams
from aahwalk.noise import ReadoutModel, corrupt, mitigate_expectation_z
from aahwalk.observables import density_profile, edge_density_nE, participation_entropy
from aahwalk.pauli import build_fermionic_hamiltonian_matrix, build_spin_hamiltonian, to_matrix

TOL_FROZEN = 1e-9


def _report(n: int, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}")
    assert ok, detail


def _circuit_from_two_qubit_block(a, b, g):
    from aahwalk.circuit import Circuit

    c = Circuit(2)
    for gate in two_qubit_block(a, b, g, (0, 1)):
        c.append(gate)
    return c


def _phase_dist(U, V):
    tr = np.trace(U.conj().T @ V)
    return np.abs(U * (tr / abs(tr)) - V).max() if abs(tr) > 1e-12 else np.inf


def _exact_density_series(params, occ, times):
    decomp = spectrum(hamiltonian_matrix(params))
    psi0 = prepare_fock_state(params.L, occ)
    return np.array([
        density_profile(decomp.evolve(psi0, t), t, "exact").values
        for t in times
    ])


def test_acceptance_01_spin_fermion_equivalence():
    """Spin-chain and fermionic Hamiltonians agree without interaction."""
    grid = list(itertools.product(
        (3, 4, 5, 6),
        ((0.3, 0.0), (0.6, math.pi / 2), (0.9, math.pi)),
    ))
    assert len(grid) == 12
    worst = 0.0
    for L, (lam, phi) in grid:
        p = ModelParams(J=1.0, lambda_J=lam, T_period=2, phi_J=phi, V=0.0, L=L)
        spin = to_matrix(build_spin_hamiltonian(p), L)
        ferm = build_fermionic_hamiltonian_matrix(p)
        worst = max(worst, np.abs(spin - ferm).max())
    _report(1, worst < 1e-12)


def test_acceptance_02_two_qubit_block():
    """3-CNOT block reproduces exp(-i(aXX + bYY + gZZ)) up to global phase."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]])
    Z = np.diag([1, -1]).astype(complex)
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(100):
        a, b, g = rng.uniform(-np.pi, np.pi, 3)
        circ = _circuit_from_two_qubit_block(a, b, g)
        cnots = sum(1 for gate in circ.gates if gate.kind == KIND_CNOT)
        H = a * np.kron(X, X) + b * np.kron(Y, Y) + g * np.kron(Z, Z)
        dist = _phase_dist(circuit_unitary(circ), expm(-1j * H))
        ok = ok and cnots <= 3 and dist < 1e-10
    _report(2, ok)


def test_acceptance_03_trotter_order_scaling():
    """Error slopes: first order for single splittings, second for Strang."""
    p = ModelParams(J=1.0, lambda_J=0.5, T_period=2, phi_J=0.0, V=1.0, L=4)
    psi0 = prepare_fock_state(4, [0, 2])
    ref = exact_evolve(hamiltonian_matrix(p), psi0, 1.0).amplitudes
    ns = [5, 10, 20, 40]
    ok = True
    for scheme, order in [("sequential", 1.0), ("even-odd-1", 1.0),
                          ("strang-2", 2.0)]:
        errs = []
        for n in ns:
            psi = apply_circuit(psi0, lower(trotter_circuit(p, 1.0, n, scheme)))
            ov = np.vdot(ref, psi.amplitudes)
            errs.append(np.linalg.norm(psi.amplitudes * np.conj(ov / abs(ov)) - ref))
        slope = np.polyfit(np.log([1.0 / n for n in ns]), np.log(errs), 1)[0]
        ok = ok and abs(slope - order) <= 0.2
    _report(3, ok)


def test_acceptance_04_edge_localization_vs_modulation():
    """Left-edge walker retention at t=5 grows monotonically with modulation."""
    frozen = {0.0: 0.0000753703, 0.3: 0.5317773371,
              0.6: 0.8742693544, 0.9: 0.9891345789}
    p0 = {}
    for lam in (0.0, 0.3, 0.6, 0.9):
        p = ModelParams(J=1.0, lambda_J=lam, T_period=2, phi_J=0.0, L=10)
        n = _exact_density_series(p, [0], [5.0])[0]
        p0[lam] = n[0]
    ok = all(abs(p0[k] - v) < TOL_FROZEN for k, v in frozen.items())
    ok = ok and (p0[0.9] - p0[0.0] >= 0.5)
    vals = [p0[k] for k in (0.0, 0.3, 0.6, 0.9)]
    ok = ok and all(b >= a - 0.02 for a, b in zip(vals, vals[1:]))
    _report(4, ok)


def test_acceptance_05_phase_steered_edges():
    """Modulation phase selects which edge localizes the walker."""
    times = np.linspace(0.0, 5.0, 51)

    def avg_site(phi, occ, site):
        p = ModelParams(J=1.0, lambda_J=0.9, T_period=2, phi_J=phi, L=5)
        series = _exact_density_series(p, occ, times)
        return float(series[:, site].mean())

    left0 = avg_site(0.0, [0], 0)
    right_pi = avg_site(math.pi, [4], 4)
    left_half = avg_site(math.pi / 2, [0], 0)
    right_half = avg_site(math.pi / 2, [4], 4)
    ok = abs(left0 - 0.9944373957) < TOL_FROZEN
    ok = ok and abs(right_pi - 0.9944373957) < TOL_FROZEN
    ok = ok and abs(left_half - 0.1889972927) < TOL_FROZEN
    ok = ok and abs(right_half - 0.1889972927) < TOL_FROZEN
    ok = ok and left0 > 0.6 and right_pi > 0.6
    ok = ok and left_half < 0.3 and right_half < 0.3
    _report(5, ok)


def test_acceptance_06_parity_effect():
    """Odd chains host one near-zero mode, even chains two; only the even
    chain keeps a right-edge walker localized."""
    counts = {}
    for L in (7, 8):
        p = ModelParams(J=1.0, lambda_J=0.9, T_period=2, phi_J=0.0, L=L)
        e = spectrum(single_particle_hamiltonian(p)).eigenvalues
        counts[L] = int(np.sum(np.abs(e) < 0.01))
    ok = counts[7] == 1 and counts[8] == 2

    # walkers on both edges, as in the two-particle edge experiment
    times = np.linspace(0.0, 50.0, 201)
    p7 = ModelParams(J=1.0, lambda_J=0.9, T_period=2, phi_J=0.0, L=7)
    avg7 = float(_exact_density_series(p7, [0, 6], times)[:, 6].mean())
    p8 = ModelParams(J=1.0, lambda_J=0.9, T_period=2, phi_J=0.0, L=8)
    avg8 = float(_exact_density_series(p8, [0, 7], times)[:, 7].mean())
    ok = ok and abs(avg7 - 0.1688622372) < TOL_FROZEN
    ok = ok and abs(avg8 - 0.9944877393) < TOL_FROZEN
    ok = ok and avg7 < 0.3 and avg8 > 0.6
    _report(6, ok)


def test_acceptance_07_bulk_edge_repulsion():
    """Bulk walker under strong modulation never reaches the chain ends."""
    times = np.linspace(0.0, 5.0, 51)

    def max_ne(lam, phi):
        p = ModelParams(J=1.0, lambda_J=lam, T_period=2, phi_J=phi, L=10)
        series = _exact_density_series(p, [5], times)
        return float(max((row[0] + row[-1]) / 2 for row in series))

    strong = max_ne(0.9, 0.0)
    uniform = max_ne(0.0, 0.0)
    quarter = max_ne(0.9, math.pi / 2)
    ok = abs(strong - 0.0000440296) < TOL_FROZEN
    ok = ok and abs(uniform - 0.3186117762) < TOL_FROZEN
    ok = ok and abs(quarter - 0.3186117762) < TOL_FROZEN
    ok = ok and strong < 0.05 and uniform > 0.15 and quarter > 0.15
    _report(7, ok)


def test_acceptance_08_interaction_shielding():
    """At lambda_J=0.9, phi_J=0 the first bond is weak (J_0=0.1, J_1=1.9), so a
    walker on site 0 sits in the edge mode.  Next to a bulk walker on site 3
    its density stays above 0.8 with V=2 and with V=0, and the V=0 minimum
    agrees with single-particle propagation of the two free fermions."""
    times = np.linspace(0.0, 5.0, 51)

    def min_n0(V):
        p = ModelParams(J=1.0, lambda_J=0.9, T_period=2, phi_J=0.0, V=V, L=7,
                        flavor="paper-literal")
        return float(_exact_density_series(p, [0, 3], times)[:, 0].min())

    # at V=0 the walkers are free fermions: n_0(t) = |U_00|^2 + |U_03|^2
    h = single_particle_hamiltonian(ModelParams(
        J=1.0, lambda_J=0.9, T_period=2, phi_J=0.0, L=7))
    free = min(float(abs(U[0, 0]) ** 2 + abs(U[0, 3]) ** 2)
               for U in (expm(-1j * h * t) for t in times))

    with_v = min_n0(2.0)
    without_v = min_n0(0.0)
    ok = abs(with_v - 0.9635867151) < TOL_FROZEN
    ok = ok and abs(without_v - 0.9890098076) < TOL_FROZEN
    ok = ok and abs(without_v - free) < TOL_FROZEN
    ok = ok and with_v > 0.8
    ok = ok and without_v > 0.8
    _report(8, ok, f"with_v={with_v!r} without_v={without_v!r} "
                   f"free_fermion={free!r}")


def test_acceptance_09_bound_pair():
    """Adjacent pair with strong interaction stays bound; participation
    entropy is nearly flat."""
    from aahwalk.observables import DensityProfile

    times = np.linspace(0.0, 3.0, 61)

    def pair_metrics(lam, V):
        p = ModelParams(J=1.0, lambda_J=lam, T_period=2, phi_J=0.0, V=V, L=8,
                        flavor="paper-literal")
        series = _exact_density_series(p, [3, 4], times)
        pair = series[:, 3] + series[:, 4]
        s2 = [participation_entropy(DensityProfile(0.0, row, "exact"), 2, 2)
              for row in series]
        return float(pair.min()), float(max(s2) - min(s2))

    bound_min, bound_range = pair_metrics(0.9, 2.0)
    free_min, free_range = pair_metrics(0.0, 0.0)
    ok = abs(bound_min - 1.9934501978) < TOL_FROZEN
    ok = ok and abs(bound_range - 0.0065549766) < TOL_FROZEN
    ok = ok and abs(free_min - 0.2239734284) < TOL_FROZEN
    ok = ok and abs(free_range - 1.3296274669) < TOL_FROZEN
    ok = ok and bound_min >= 1.8 and bound_range <= 0.2 and free_range > 0.8
    _report(9, ok)


def test_acceptance_10_circuit_matches_exact():
    """Ten Trotter steps track the exact walk under strong modulation."""
    cfg = preset_configs("fig3")[2]
    assert cfg.model.lambda_J == 0.9 and cfg.steps == 10 and cfg.shots == 0
    rec = run(cfg)
    worst = 0.0
    for pe, pt in zip(rec.profiles["exact"], rec.profiles["trotter-exact"]):
        worst = max(worst, float(np.abs(pe - pt).max()))
    _report(10, worst < 0.15)


def test_acceptance_11_readout_mitigation():
    """Confusion-matrix mitigation removes the sampling bias that symmetric
    readout flips introduce."""
    eps, shots = 0.03, 8192
    p = ModelParams(J=1.0, lambda_J=0.9, T_period=2, phi_J=0.0, L=5)
    psi = exact_evolve(hamiltonian_matrix(p), prepare_fock_state(5, [0]), 3.0)
    exact = density_profile(psi, 3.0, "exact").values
    model = ReadoutModel(eps, eps)
    noisy_density = (1 - 2 * eps) * exact + eps
    sigma_raw = np.sqrt(noisy_density * (1 - noisy_density) / shots)
    sigma_mit = sigma_raw / (1 - 2 * eps)

    good_seeds = 0
    raw_means = np.zeros(5)
    n_seeds = 20
    for seed in range(n_seeds):
        counts = corrupt(sample_counts(psi, shots, seed=seed), model,
                         seed=seed + 10_000)
        mitigated = np.array([
            (1 - mitigate_expectation_z(counts, model, s)) / 2 for s in range(5)
        ])
        raw = np.array([
            (1 - counts_expectation_z(counts, s)) / 2 for s in range(5)
        ])
        raw_means += raw / n_seeds
        if np.all(np.abs(mitigated - exact) < 3 * sigma_mit):
            good_seeds += 1

    extreme = (exact < 0.05) | (exact > 0.95)
    biased = np.abs(raw_means - exact)[extreme] > 2 * sigma_raw[extreme]
    ok = good_seeds >= 18 and extreme.any() and bool(biased.all())
    _report(11, ok)


def test_acceptance_12_determinism(tmp_path):
    """Re-running a scenario with a fixed seed reproduces every output byte
    (modulo the metadata timestamp)."""
    def emit_all(sub):
        cfgs = preset_configs("fig5")
        paths = []
        for fmt in ("csv", "json"):
            d = tmp_path / sub / fmt
            for i, cfg in enumerate(cfgs):
                paths += emit(run(cfg), fmt, str(d), stem=f"case{i}")
        return paths

    a, b = emit_all("a"), emit_all("b")
    ok = len(a) == len(b) > 0
    for pa, pb in zip(a, b):
        ta = pathlib.Path(pa).read_text()
        tb = pathlib.Path(pb).read_text()
        if pa.endswith(".json"):
            ta = "\n".join(l for l in ta.splitlines() if '"timestamp"' not in l)
            tb = "\n".join(l for l in tb.splitlines() if '"timestamp"' not in l)
        ok = ok and ta == tb
    _report(12, ok)
