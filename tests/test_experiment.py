import csv
import json
import math
import os

import numpy as np
import pytest

from aahwalk import experiment
from aahwalk.errors import ConfigError
from aahwalk.exact import prepare_fock_state, spectrum
from aahwalk.experiment import (
    ExperimentConfig,
    PRESET_NAMES,
    config_from_dict,
    emit,
    hamiltonian_matrix,
    preset_configs,
    run,
    sweep,
)
from aahwalk.model import FLAVORS, ModelParams
from aahwalk.noise import ReadoutModel
from aahwalk.observables import density_profile


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
        assert prof.values[0] == pytest.approx(math.cos(t) ** 2, abs=1e-10)
    # halfway through the Rabi period the particle has fully transferred
    assert exact[4].values == pytest.approx([0.0, 1.0], abs=1e-10)
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
        assert np.abs(prof.values - want).max() < 1e-12


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
    assert mats[0].values[0, 1] == pytest.approx(1.0)  # both occupied at t=0


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
        z_mit = 1.0 - 2.0 * prof.values
        assert np.allclose(mit.values, np.outer(z_mit, z_mit), rtol=0, atol=1e-12)
        assert not np.allclose(mit.values, raw.values)


def test_run_deterministic():
    cfg = ExperimentConfig(
        model=ModelParams(lambda_J=0.9, L=4),
        initial_occupations=[0], t_max=2.0, steps=4, shots=300, seed=5,
        readout=ReadoutModel(0.05, 0.05), mitigation=True)
    a, b = run(cfg), run(cfg)
    for src in a.profiles:
        for pa, pb in zip(a.profiles[src], b.profiles[src]):
            assert np.array_equal(pa.values, pb.values)


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
            assert np.array_equal(pa.values, pb.values)


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


def test_sweep_rng_streams_distinct(monkeypatch):
    seeds = []

    def recording(fn):
        def wrapped(table_or_state, arg, seed):
            seeds.append(seed)
            return fn(table_or_state, arg, seed)
        return wrapped

    monkeypatch.setattr(experiment, "sample_counts", recording(experiment.sample_counts))
    monkeypatch.setattr(experiment, "corrupt", recording(experiment.corrupt))
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
    density_lines = open(paths[0]).read().strip().split("\n")
    assert density_lines[0] == "step,time,site,density,source"
    # 2 sources x 3 steps x 3 sites rows + header
    assert len(density_lines) == 1 + 2 * 3 * 3
    scalar_lines = open(paths[1]).read().strip().split("\n")
    assert scalar_lines[0] == "step,time,name,value,source"
    assert len(scalar_lines) == 1 + 2 * 3  # P0 only, per source per step
    corr_lines = open(paths[2]).read().strip().split("\n")
    assert corr_lines[0] == "time,i,j,value,source"
    assert len(corr_lines) == 1 + 2 * 3 * 9


def test_emit_json_round_trip(tmp_path):
    cfg = ExperimentConfig(
        model=ModelParams(lambda_J=0.9, L=3),
        initial_occupations=[0], t_max=1.0, steps=2)
    rec = run(cfg)
    (path,) = emit(rec, "json", str(tmp_path))
    data = json.loads(open(path).read())
    assert data["config"]["model"]["lambda_J"] == 0.9
    assert data["times"] == rec.times
    got = np.array(data["profiles"]["exact"])
    want = np.array([p.values for p in rec.profiles["exact"]])
    assert np.array_equal(got, want)


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
        assert open(pa, "rb").read() == open(pb, "rb").read()


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
