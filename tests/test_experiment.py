import csv
import dataclasses
import importlib.util
import json
import math
import os
import pathlib

import numpy as np
import pytest

import aahwalk.cli
from aahwalk import experiment
from aahwalk.circuit import trotter_circuit
from aahwalk.engine import apply_sector_step, compile_sector_step, sample_counts
from aahwalk.errors import ConfigError, ResourceLimitError
from aahwalk.exact import (StateVector, prepare_fock_state, sector_basis, sector_hamiltonian,
                           spectrum)
from aahwalk.experiment import (
    ExperimentConfig,
    OUTPUT_NAMES,
    PRESET_NAMES,
    config_from_dict,
    emit,
    hamiltonian_matrix,
    preset_configs,
    run,
    sweep,
    write_file,
)
from aahwalk.model import FLAVORS, ModelParams
from aahwalk.noise import ReadoutModel, corrupt
from aahwalk.observables import (correlation, density_profile, edge_density_nE,
                                 edge_probability_P0, participation_entropy,
                                 radial_distribution)


def _minimal_dict(**over):
    d = {"model": {"J": 1.0, "lambda_J": 0.0, "L": 2},
         "initial_occupations": [0]}
    d.update(over)
    return d


def test_config_from_dict_defaults():
    cfg = config_from_dict(_minimal_dict())
    assert cfg.t_max == 5.0 and cfg.steps == 10 and cfg.shots == 0
    assert cfg.scheme == "sequential" and cfg.seed == 0
    assert cfg.model.L == 2


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(_minimal_dict(bogus=1))
    with pytest.raises(ConfigError):
        config_from_dict(_minimal_dict(model={"L": 2, "J": 1.0, "hop": 2}))
    with pytest.raises(ConfigError):
        config_from_dict(_minimal_dict(
            readout={"p01": 0.01, "p10": 0.01, "extra": 0}))


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        config_from_dict(_minimal_dict(initial_occupations=[]))
    with pytest.raises(ConfigError):
        config_from_dict(_minimal_dict(initial_occupations=[0, 0]))
    with pytest.raises(ConfigError):
        config_from_dict(_minimal_dict(initial_occupations=[5]))
    with pytest.raises(ConfigError):
        config_from_dict(_minimal_dict(steps=0))
    with pytest.raises(ConfigError):
        config_from_dict(_minimal_dict(scheme="leapfrog"))
    with pytest.raises(ConfigError):
        config_from_dict(_minimal_dict(outputs=["density", "momentum"]))
    # mitigation requires both a readout model and shots
    with pytest.raises(ConfigError):
        config_from_dict(_minimal_dict(mitigation=True))
    with pytest.raises(ConfigError):
        config_from_dict(_minimal_dict(
            mitigation=True, readout={"p01": 0.01, "p10": 0.01}))


def test_config_readout_vector_rates():
    cfg = config_from_dict(_minimal_dict(
        readout={"p01": [0.01, 0.02], "p10": 0.0}, shots=100))
    assert cfg.readout.p01 == (0.01, 0.02)


def test_run_two_site_rabi():
    cfg = ExperimentConfig(
        model=ModelParams(J=1.0, lambda_J=0.0, L=2),
        initial_occupations=[0], t_max=math.pi, steps=8)
    rec = run(cfg)
    assert len(rec.times) == 9
    exact = rec.profiles["exact"]
    for t, prof in zip(rec.times, exact):
        assert prof[0] == pytest.approx(math.cos(t) ** 2, abs=1e-10)
    # halfway through the Rabi period the particle has fully transferred
    assert exact[4] == pytest.approx([0.0, 1.0], abs=1e-10)
    assert rec.series["exact"]["P0"][0] == pytest.approx(1.0)
    assert rec.series["exact"]["R2n"][4] == pytest.approx(1.0, abs=1e-10)


def _forbidden(*args, **kwargs):
    raise AssertionError("run() must not build the 2^L Hamiltonian")


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("occ", [[2], [0, 3], [1, 2, 4]])
def test_run_exact_is_sector_evolution(monkeypatch, flavor, occ):
    p = ModelParams(lambda_J=0.7, T_period=3, phi_J=0.4, V=1.5, L=6, flavor=flavor)
    full = spectrum(hamiltonian_matrix(p))
    psi0 = prepare_fock_state(p.L, occ)
    shapes = []

    def recording_spectrum(H):
        shapes.append(H.shape)
        return spectrum(H)

    monkeypatch.setattr(experiment, "spectrum", recording_spectrum)
    for name in ("to_matrix", "build_spin_hamiltonian", "build_fermionic_hamiltonian_matrix"):
        monkeypatch.setattr(experiment, name, _forbidden)
    rec = run(ExperimentConfig(model=p, initial_occupations=occ, t_max=2.0, steps=4))
    dim = math.comb(p.L, len(occ))
    assert shapes == [(dim, dim)]
    for t, prof in zip(rec.times, rec.profiles["exact"]):
        want = density_profile(full.evolve(psi0, t), t, "exact").values
        assert np.abs(prof - want).max() < 1e-12


# (L, occupied sites, steps); C(5, 3) = 10 < 12 steps: more table rows than sector states
@pytest.mark.parametrize("L, occ, steps", [(6, [0, 3], 4), (5, [0, 2, 3], 12)])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_run_matches_per_step_oracle(flavor, L, occ, steps):
    """run() measures into time tables; the same record follows bit for bit from the
    per-state functions applied one state and one step at a time."""
    p = ModelParams(lambda_J=0.8, phi_J=0.3, V=1.5, L=L, flavor=flavor)
    readout = ReadoutModel(tuple(0.01 * (i + 1) for i in range(L)), 0.04)
    cfg = ExperimentConfig(model=p, initial_occupations=occ, t_max=2.0, steps=steps,
                           scheme="strang-2", shots=300, readout=readout, mitigation=True,
                           seed=12, outputs=list(OUTPUT_NAMES))
    rec = run(cfg)
    d = rec.to_dict()
    basis, N = sector_basis(L, len(occ)), len(occ)
    decomp = spectrum(sector_hamiltonian(p, basis))
    start = np.searchsorted(basis, sum(1 << s for s in occ))
    step = compile_sector_step(trotter_circuit(p, cfg.t_max / steps, 1, cfg.scheme), basis)
    trot = np.zeros(len(basis), dtype=complex)
    trot[start] = 1.0
    assert rec.times == [s * (cfg.t_max / steps) for s in range(steps + 1)]
    for s, t in enumerate(rec.times):
        if s > 0:
            trot = apply_sector_step(step, trot)
        v = np.exp(-1j * decomp.eigenvalues * t) * decomp.eigenvectors[start]
        amps = decomp.eigenvectors @ v.real + 1j * (decomp.eigenvectors @ v.imag)
        counts = sample_counts(StateVector(trot, L, basis), cfg.shots,
                               (experiment._SAMPLE, s, cfg.seed))
        counts = corrupt(counts, readout, (experiment._CORRUPT, s, cfg.seed))
        states = {"exact": (StateVector(amps, L, basis), None),
                  "trotter-exact": (StateVector(trot, L, basis), None),
                  "trotter-sampled": (counts, None),
                  "trotter-sampled-mitigated": (counts, readout)}
        assert set(rec.profiles) == set(rec.correlations) == set(rec.series) == set(states)
        for src, (state, model) in states.items():
            prof = density_profile(state, t, src, model=model)
            assert rec.times[s] == t
            assert np.array_equal(rec.profiles[src][s], prof.values)
            assert d["correlations"][src][s]["time"] == t
            assert np.array_equal(rec.correlations[src][s],
                                  correlation(state, t, src, model=model).values)
            series = rec.series[src]
            assert series["P0"][s] == edge_probability_P0(prof)
            assert series["R2n"][s] == radial_distribution(prof)
            assert series["nE"][s] == edge_density_nE(prof)
            assert series["S2"][s] == participation_entropy(prof, 2, N)


def test_run_blocks_match_per_step_states():
    """run() reduces the states of a block of steps at once; a run over more than one block
    gives each step's <Z> of that state alone, bit for bit."""
    p = ModelParams(lambda_J=0.9, V=2.0, L=12, flavor="exact-jw")
    cfg = ExperimentConfig(model=p, initial_occupations=[0, 5, 11], t_max=20.0, steps=400,
                           scheme="strang-2", outputs=["density"])
    basis = sector_basis(p.L, 3)
    assert 2**20 // (p.L * len(basis)) < cfg.steps + 1  # rows of one block: 397 of 401
    rec = run(cfg)
    decomp = spectrum(sector_hamiltonian(p, basis))
    start = np.searchsorted(basis, 1 | 1 << 5 | 1 << 11)
    step = compile_sector_step(trotter_circuit(p, cfg.t_max / cfg.steps, 1, cfg.scheme), basis)
    trot = (np.arange(len(basis)) == start).astype(complex)
    for s, t in enumerate(rec.times):
        if s > 0:
            trot = apply_sector_step(step, trot)
        v = np.exp(-1j * decomp.eigenvalues * t) * decomp.eigenvectors[start]
        amps = decomp.eigenvectors @ v.real + 1j * (decomp.eigenvectors @ v.imag)
        for src, state in (("exact", amps), ("trotter-exact", trot)):
            want = density_profile(StateVector(state, p.L, basis), t, src).values
            assert np.array_equal(rec.profiles[src][s], want)


def test_run_size_guard_bounds(monkeypatch):
    """Steps and shots are bounded so that no array of a run exceeds
    MAX_SECTOR_STATES**2 entries: the largest admitted values pass the guard
    (and reach sector_basis), one more is refused."""
    class Admitted(Exception):
        pass

    def admitted(L, n):
        raise Admitted

    monkeypatch.setattr(experiment, "sector_basis", admitted)
    # (L, outputs, largest steps, largest shots); correlations add a factor L to the tables
    for L, outputs, steps, shots in ((8, ["density"], 2097151, 2097152),
                                     (63, ["density"], 266304, 266305),
                                     (8, ["correlation"], 262143, 2097152),
                                     (63, ["correlation"], 4226, 266305)):
        def cfg(**over):
            return ExperimentConfig(model=ModelParams(L=L), initial_occupations=[0],
                                    outputs=outputs, **over)
        with pytest.raises(Admitted):
            run(cfg(steps=steps, shots=shots))
        with pytest.raises(ResourceLimitError, match=f"^steps: at most {steps} at L={L} "):
            run(cfg(steps=steps + 1))
        with pytest.raises(ResourceLimitError, match=f"^shots: at most {shots} at L={L} "):
            run(cfg(shots=shots + 1))


def test_benchmark_tracer_names_are_bound():
    """The benchmark's tracer (perfbench/spans.py) wraps each of these names with
    getattr; one that src no longer binds would break a traced benchmark run."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wraps = spans._wraps(aahwalk)
    assert wraps
    for owner, attr, _, _ in wraps:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"


def test_run_sources_present():
    cfg = ExperimentConfig(
        model=ModelParams(lambda_J=0.5, L=3),
        initial_occupations=[0], t_max=1.0, steps=2, shots=200,
        readout=ReadoutModel(0.02, 0.02), mitigation=True, seed=3)
    rec = run(cfg)
    assert set(rec.profiles) == {"exact", "trotter-exact", "trotter-sampled",
                                 "trotter-sampled-mitigated"}
    for profs in rec.profiles.values():
        assert len(profs) == 3


def test_run_correlation_output():
    cfg = ExperimentConfig(
        model=ModelParams(lambda_J=0.9, L=3),
        initial_occupations=[0, 1], t_max=1.0, steps=2,
        outputs=["density", "correlation"])
    rec = run(cfg)
    mats = rec.correlations["exact"]
    assert len(mats) == 3
    assert mats[0][0, 1] == pytest.approx(1.0)  # both occupied at t=0


def test_run_mitigated_correlation_uses_mitigated_z():
    cfg = ExperimentConfig(
        model=ModelParams(lambda_J=0.9, V=2.0, L=4),
        initial_occupations=[1, 2], t_max=1.0, steps=2, shots=2000, seed=3,
        readout=ReadoutModel(0.05, 0.05), mitigation=True,
        outputs=["density", "correlation"])
    rec = run(cfg)
    for prof, mit, raw in zip(rec.profiles["trotter-sampled-mitigated"],
                              rec.correlations["trotter-sampled-mitigated"],
                              rec.correlations["trotter-sampled"]):
        z_mit = 1.0 - 2.0 * prof
        assert np.allclose(mit, np.outer(z_mit, z_mit), rtol=0, atol=1e-12)
        assert not np.allclose(mit, raw)


def test_run_deterministic():
    cfg = ExperimentConfig(
        model=ModelParams(lambda_J=0.9, L=4),
        initial_occupations=[0], t_max=2.0, steps=4, shots=300, seed=5,
        readout=ReadoutModel(0.05, 0.05), mitigation=True)
    a, b = run(cfg), run(cfg)
    for src in a.profiles:
        for pa, pb in zip(a.profiles[src], b.profiles[src]):
            assert np.array_equal(pa, pb)


def test_sweep_matches_single_runs():
    base = ExperimentConfig(
        model=ModelParams(lambda_J=0.0, L=3),
        initial_occupations=[0], t_max=1.0, steps=2, seed=10)
    recs = sweep(base, "lambda_J", [0.4])
    assert len(recs) == 1
    solo = run(ExperimentConfig(
        model=ModelParams(lambda_J=0.4, L=3),
        initial_occupations=[0], t_max=1.0, steps=2, seed=10))
    for src in solo.profiles:
        for pa, pb in zip(recs[0].profiles[src], solo.profiles[src]):
            assert np.array_equal(pa, pb)


def test_sweep_seeds_and_empty():
    base = ExperimentConfig(
        model=ModelParams(lambda_J=0.0, L=2),
        initial_occupations=[0], t_max=0.5, steps=1, seed=4)
    recs = sweep(base, "V", [0.0, 1.0, 2.0])
    assert [r.metadata["seed"] for r in recs] == [4, 5, 6]
    assert [r.config["model"]["V"] for r in recs] == [0.0, 1.0, 2.0]
    assert sweep(base, "V", []) == []
    with pytest.raises(ConfigError):
        sweep(base, "J", [1.0])
    with pytest.raises(ConfigError):
        sweep(base, "V", [float("nan")])


@pytest.mark.parametrize("values", [["a"], [10**400], [True], [0.5, float("nan")]],
                         ids=["str", "huge", "bool", "nan"])
def test_sweep_refuses_bad_values_before_any_run(monkeypatch, values):
    def no_run(cfg):
        raise AssertionError("sweep() ran a point before checking every value")

    monkeypatch.setattr(experiment, "run", no_run)
    base = ExperimentConfig(model=ModelParams(L=3), initial_occupations=[0])
    with pytest.raises(ConfigError, match="^model: V must be a finite number, got "):
        sweep(base, "V", values)


@pytest.mark.parametrize("field, value, prefix",
                         [("model", 5, "model: "), ("model", {"L": 4}, "model: "),
                          ("seed", "1", "seed: ")], ids=["model-int", "model-dict", "seed-str"])
def test_sweep_keeps_the_config_contract(monkeypatch, field, value, prefix):
    """A base config that run() refuses is refused by sweep() with the same ConfigError,
    before it builds the points (with replace() and base.seed + i) or runs any."""
    def no_run(cfg):
        raise AssertionError("sweep() ran a point of an invalid base config")

    monkeypatch.setattr(experiment, "run", no_run)
    base = ExperimentConfig(model=ModelParams(L=3), initial_occupations=[0])
    with pytest.raises(ConfigError, match=f"^{prefix}"):
        sweep(dataclasses.replace(base, **{field: value}), "V", [0.0, 1.0])


def test_validate_refuses_a_sector_over_the_guard(monkeypatch):
    """validate() checks the sector size that run() meets in sector_basis, with its
    message, so sweep() refuses such a base before its first run."""
    def no_run(cfg):
        raise AssertionError("sweep() ran a point of a config over the sector guard")

    cfg = ExperimentConfig(model=ModelParams(L=16), initial_occupations=list(range(8)))
    message = r"^sector dimension C\(16, 8\) = 12870 exceeds 4096$"
    with pytest.raises(ResourceLimitError, match=message):
        cfg.validate()
    with pytest.raises(ResourceLimitError, match=message):
        sector_basis(16, 8)
    monkeypatch.setattr(experiment, "run", no_run)
    with pytest.raises(ResourceLimitError, match=message):
        sweep(cfg, "V", [0.0, 1.0])


def test_sweep_rng_streams_distinct(monkeypatch):
    seeds = []

    def recording(fn):
        def wrapped(*args):
            seeds.append(args[-1])  # the seed comes last
            return fn(*args)
        return wrapped

    per_run = experiment.readout_z  # makes the function that each step's readout calls
    monkeypatch.setattr(experiment, "sample_counts", recording(experiment.sample_counts))
    monkeypatch.setattr(experiment, "readout_z", lambda *args: recording(per_run(*args)))
    base = ExperimentConfig(
        model=ModelParams(lambda_J=0.5, L=3), initial_occupations=[0],
        t_max=1.0, steps=3, shots=100, readout=ReadoutModel(0.02, 0.02), seed=4)
    sweep(base, "V", [0.0, 1.0, 2.0])
    assert len(seeds) == 3 * 4 * 2
    states = {tuple(np.random.SeedSequence(s).generate_state(4)) for s in seeds}
    assert len(states) == len(seeds)


def test_emit_csv_layout(tmp_path):
    cfg = ExperimentConfig(
        model=ModelParams(lambda_J=0.5, L=3),
        initial_occupations=[0], t_max=1.0, steps=2,
        outputs=["density", "P0", "correlation"])
    rec = run(cfg)
    paths = emit(rec, "csv", str(tmp_path), stem="case")
    names = [os.path.basename(p) for p in paths]
    assert names == ["case_000.density.csv", "case_000.scalars.csv",
                     "case_000.correlation.csv"]
    density_lines = pathlib.Path(paths[0]).read_text().strip().split("\n")
    assert density_lines[0] == "step,time,site,density,source"
    # 2 sources x 3 steps x 3 sites rows + header
    assert len(density_lines) == 1 + 2 * 3 * 3
    scalar_lines = pathlib.Path(paths[1]).read_text().strip().split("\n")
    assert scalar_lines[0] == "step,time,name,value,source"
    assert len(scalar_lines) == 1 + 2 * 3  # P0 only, per source per step
    corr_lines = pathlib.Path(paths[2]).read_text().strip().split("\n")
    assert corr_lines[0] == "time,i,j,value,source"
    assert len(corr_lines) == 1 + 2 * 3 * 9


def test_emit_csv_file_set(tmp_path):
    """Every source's densities are written whatever outputs lists; the scalars and
    correlation files only when they have rows."""
    base = ExperimentConfig(model=ModelParams(lambda_J=0.5, L=3), initial_occupations=[0],
                            t_max=1.0, steps=2)
    for outputs, suffixes in ((["P0"], [".density.csv", ".scalars.csv"]),
                              (["density"], [".density.csv"])):
        rec = run(dataclasses.replace(base, outputs=outputs))
        paths = emit(rec, "csv", str(tmp_path / outputs[0]), stem="case")
        assert [os.path.basename(p) for p in paths] == ["case_000" + s for s in suffixes]
        density_lines = pathlib.Path(paths[0]).read_text().splitlines()
        assert len(density_lines) == 1 + 2 * 3 * 3  # 2 sources x 3 steps x 3 sites + header
        (path,) = emit(rec, "json", str(tmp_path / outputs[0]))
        data = json.loads(pathlib.Path(path).read_text())
        assert data["correlations"] == {"exact": [], "trotter-exact": []}


def test_emit_json_round_trip(tmp_path):
    cfg = ExperimentConfig(
        model=ModelParams(lambda_J=0.9, L=3),
        initial_occupations=[0], t_max=1.0, steps=2)
    rec = run(cfg)
    (path,) = emit(rec, "json", str(tmp_path))
    data = json.loads(pathlib.Path(path).read_text())
    assert data["config"]["model"]["lambda_J"] == 0.9
    assert data["times"] == rec.times
    got = np.array(data["profiles"]["exact"])
    want = rec.profiles["exact"]
    assert np.array_equal(got, want)


def test_json_chunks_write_the_json_dumps_layout():
    """emit writes JSON by hand; the text is json.dumps(..., sort_keys=True, indent=1)."""
    edge = {"floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e300],
            "mixed": [1.0, 2, True, None, "x"], "numpy": [np.int64(3), np.float64(2.5),
                                                        np.bool_(False), np.float32(0.5)],
            "scalars": {"i": np.int32(-7), "f": np.float64(-0.0), "b": np.bool_(True)},
            "array": np.arange(6.0).reshape(2, 3), "tuple": (1, 2.5, ("a", [])),
            "empty": [[], {}, [[]], {"k": {}}], "": {}, "text": "h\u00e9llo \u2603 \"q\"\n",
            "z": [[1.0, 2.0], [math.nan], []], "big": 10**30}
    cfg = ExperimentConfig(
        model=ModelParams(lambda_J=0.9, V=2.0, L=4, flavor="exact-jw"),
        initial_occupations=[1, 2], t_max=1.0, steps=3, scheme="strang-2", shots=200,
        readout=ReadoutModel((0.01, 0.02, 0.03, 0.04), 0.05), mitigation=True, seed=4,
        outputs=list(OUTPUT_NAMES))
    record = run(cfg).to_dict()
    assert len(record["profiles"]) == 4
    for obj in (edge, record):
        want = json.dumps(obj, sort_keys=True, indent=1, default=lambda x: x.tolist())
        assert "".join(experiment._json_chunks(obj)) == want


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_emit_csv_parses_back_to_record(tmp_path):
    cfg = ExperimentConfig(
        model=ModelParams(lambda_J=0.9, V=1.0, L=3),
        initial_occupations=[0], t_max=1.0, steps=2, shots=100, seed=1,
        readout=ReadoutModel(0.05, 0.05), mitigation=True,
        outputs=["density", "P0", "S2", "correlation"])
    rec = run(cfg)
    d = rec.to_dict()
    density, scalars, correlation = emit(rec, "csv", str(tmp_path))

    # NaN marks a cell no CSV row filled, so a missing row fails the comparison
    profiles = {src: np.full(np.shape(v), np.nan) for src, v in d["profiles"].items()}
    for step, time, site, value, src in _csv_rows(density):
        assert float(time) == d["times"][int(step)]
        profiles[src][int(step), int(site)] = float(value)
    for src, values in profiles.items():
        assert np.array_equal(values, d["profiles"][src])

    series = {src: {name: [math.nan] * len(v) for name, v in names.items()}
              for src, names in d["series"].items()}
    for step, time, name, value, src in _csv_rows(scalars):
        assert float(time) == d["times"][int(step)]
        series[src][name][int(step)] = float(value)
    assert series == d["series"]

    mats = {src: np.full((len(d["times"]), 3, 3), np.nan) for src in d["correlations"]}
    for time, i, j, value, src in _csv_rows(correlation):
        mats[src][d["times"].index(float(time)), int(i), int(j)] = float(value)
    for src, values in mats.items():
        assert np.array_equal(values, [m["values"] for m in d["correlations"][src]])


def test_numpy_scalars_and_tuples_run_as_ints_and_lists(tmp_path):
    """numpy scalars, a numpy array of readout rates and tuples pass the config
    contract, and emit writes the same bytes as for the plain int, float, bool and
    list config."""
    plain = ExperimentConfig(
        model=ModelParams(lambda_J=0.9, V=1.0, L=5), initial_occupations=[1, 3],
        t_max=1.3, steps=4, shots=200, seed=3, mitigation=True,
        readout=ReadoutModel((0.01, 0.02, 0.0, 0.03, 0.01), 0.02),
        outputs=["density", "P0", "S2", "correlation"])
    numpy = dataclasses.replace(
        plain, initial_occupations=(np.int64(1), 3), t_max=np.float64(1.3), steps=np.int64(4),
        shots=np.int64(200), seed=np.int64(3), mitigation=np.bool_(True),
        readout=ReadoutModel(np.array(plain.readout.p01), np.float64(0.02)),
        outputs=tuple(plain.outputs))
    for fmt in ("json", "csv"):
        a_paths = emit(run(plain), fmt, str(tmp_path / fmt / "plain"))
        b_paths = emit(run(numpy), fmt, str(tmp_path / fmt / "numpy"))
        assert len(a_paths) == len(b_paths) == (1 if fmt == "json" else 3)
        for a, b in zip(a_paths, b_paths):
            a_lines, b_lines = (pathlib.Path(p).read_text().splitlines() for p in (a, b))
            assert ([line for line in a_lines if '"timestamp"' not in line]
                    == [line for line in b_lines if '"timestamp"' not in line])


def test_emit_unknown_format(tmp_path):
    cfg = ExperimentConfig(model=ModelParams(L=2), initial_occupations=[0])
    with pytest.raises(ConfigError):
        emit(run(cfg), "parquet", str(tmp_path))


def test_emit_byte_identical_reruns(tmp_path):
    cfg = ExperimentConfig(
        model=ModelParams(lambda_J=0.9, L=4),
        initial_occupations=[0], t_max=1.0, steps=2, shots=128, seed=2)
    a = emit(run(cfg), "csv", str(tmp_path / "a"))
    b = emit(run(cfg), "csv", str(tmp_path / "b"))
    for pa, pb in zip(a, b):
        assert pathlib.Path(pa).read_bytes() == pathlib.Path(pb).read_bytes()


def test_write_file_keeps_the_old_file_when_the_chunks_fail(tmp_path):
    target = tmp_path / "run_000.density.csv"
    target.write_text("old\n")

    def chunks():
        yield "step,time,site,density,source\n"
        raise RuntimeError("table gone")

    with pytest.raises(RuntimeError, match="table gone"):
        write_file(str(target), chunks())
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == [target.name]  # no temporary file left beside it


def test_preset_integrity():
    for name in PRESET_NAMES:
        configs = preset_configs(name)
        assert configs, name
        for cfg in configs:
            cfg.validate()
            assert cfg.seed == 7
    assert len(preset_configs("fig3")) == 3
    assert [c.model.lambda_J for c in preset_configs("fig3")] == [0.1, 0.5, 0.9]
    sizes = [(c.model.L, tuple(c.initial_occupations))
             for c in preset_configs("fig7")]
    assert sizes == [(7, (0, 6)), (8, (0, 7))]
    assert all("correlation" in c.outputs for c in preset_configs("fig12"))
    assert all("S2" in c.outputs for c in preset_configs("fig13"))
    with pytest.raises(ConfigError):
        preset_configs("fig99")
