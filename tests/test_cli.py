import json
import math
import os

import numpy as np
import pytest

from aahwalk.cli import main
from aahwalk.exact import MAX_SECTOR_STATES
from aahwalk.experiment import hamiltonian_matrix
from aahwalk.model import FLAVORS, MAX_INDEX_SITES, ModelParams


_MODEL = {"J": 1.0, "lambda_J": 0.9, "T_period": 2, "phi_J": 0.0, "V": 0.0, "L": 4}


def _write_config(tmp_path, **over):
    data = {"model": dict(_MODEL),
            "initial_occupations": [0], "t_max": 1.0, "steps": 2}
    data.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_run_csv(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    files = sorted(os.listdir(out))
    assert "run_000.density.csv" in files
    header = (out / "run_000.density.csv").read_text().splitlines()[0]
    assert header == "step,time,site,density,source"


def test_run_json_and_seed_override(tmp_path):
    cfg = _write_config(tmp_path, shots=50)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--format", "json",
                 "--seed", "99"]) == 0
    data = json.loads((out / "run_000.json").read_text())
    assert data["metadata"]["seed"] == 99


def test_sweep(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--axis", "lambda_J", "--values", "0,0.9",
                 "--out", str(out)]) == 0
    files = sorted(os.listdir(out))
    assert "sweep_lambda_J_000.density.csv" in files
    assert "sweep_lambda_J_001.density.csv" in files


def test_preset(tmp_path):
    out = tmp_path / "out"
    assert main(["preset", "fig5", "--out", str(out)]) == 0
    assert len([f for f in os.listdir(out) if f.endswith(".density.csv")]) == 3


def test_export_qasm(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["export-qasm", cfg]) == 0
    text = capsys.readouterr().out
    assert text.startswith("OPENQASM 2.0;")
    assert "x q[0];" in text  # initial occupation prep
    assert "cx" in text


def test_spectrum_single_particle(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["spectrum", cfg, "--single-particle"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 5  # header + L rows


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, steps=0)
    assert main(["run", cfg]) == 2


@pytest.mark.parametrize("field, value", [
    ("steps", "2"), ("steps", 2.0), ("steps", True),
    ("shots", "10"), ("shots", 1.5),
    ("seed", "1"), ("seed", False), ("seed", -1),
    ("t_max", "1.0"), ("t_max", float("nan")), ("t_max", float("inf")),
    ("initial_occupations", 3), ("initial_occupations", ["a"]),
    ("initial_occupations", [True]),
])
def test_mistyped_config_exits_2(tmp_path, capsys, field, value):
    cfg = _write_config(tmp_path, **{"shots": 10, field: value})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1


@pytest.mark.parametrize("value, field", [
    *[(v, f) for f in ("J", "phi_J", "V") for v in (float("nan"), float("inf"))],
    (4.0, "L"), (True, "L"), (2.0, "T_period"),
])
def test_nonfinite_model_exits_2(tmp_path, capsys, field, value):
    cfg = _write_config(tmp_path, model={**_MODEL, field: value})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: model: {field} ") and err.count("\n") == 1


@pytest.mark.parametrize("readout", [
    {"p01": 0.02},
    {"p01": 0.7, "p10": 0.02},
    {"p01": [0.01, 0.02, 0.03], "p10": 0.02},
    {"p01": float("nan"), "p10": 0.02},
])
def test_bad_readout_exits_2(tmp_path, capsys, readout):
    cfg = _write_config(tmp_path, shots=10, readout=readout)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: readout: ") and err.count("\n") == 1


def test_run_fourteen_sites_two_particles(tmp_path):
    cfg = _write_config(tmp_path, model={**_MODEL, "L": 14, "V": 2.0},
                        initial_occupations=[6, 7], steps=1)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--format", "json"]) == 0
    data = json.loads((out / "run_000.json").read_text())
    for prof in data["profiles"]["exact"]:
        assert sum(prof) == pytest.approx(2.0, abs=1e-12)


def test_run_forty_sites_two_particles(tmp_path):
    # C(40, 2) = 780 sector states; a 2^40 object could not be allocated
    cfg = _write_config(tmp_path, model={**_MODEL, "L": 40, "V": 2.0, "flavor": "exact-jw"},
                        initial_occupations=[19, 20], steps=2)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--format", "json"]) == 0
    data = json.loads((out / "run_000.json").read_text())
    for src in ("exact", "trotter-exact"):
        for prof in data["profiles"][src]:
            assert sum(prof) == pytest.approx(2.0, abs=1e-12)


def test_run_size_guards(tmp_path, capsys):
    L = 16  # C(16, 8) = 12870 sector states
    assert math.comb(L, L // 2) > MAX_SECTOR_STATES
    cfg = _write_config(tmp_path, model={**_MODEL, "L": L},
                        initial_occupations=list(range(L // 2)))
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    cfg = _write_config(tmp_path, model={**_MODEL, "L": MAX_INDEX_SITES + 1})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: model: L ") and err.count("\n") == 1


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("L", [4, 7])
def test_spectrum_is_union_of_sectors(tmp_path, capsys, flavor, L):
    model = {**_MODEL, "L": L, "V": 1.3, "phi_J": 0.4, "T_period": 3, "flavor": flavor}
    cfg = _write_config(tmp_path, model=model)
    assert main(["spectrum", cfg]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    got = np.array([float(r.split(",")[1]) for r in rows])
    want = np.linalg.eigvalsh(hamiltonian_matrix(ModelParams(**model)))
    assert got.shape == want.shape and np.abs(got - want).max() < 1e-12


def test_spectrum_thirteen_sites(tmp_path, capsys):
    cfg = _write_config(tmp_path, model={**_MODEL, "L": 13})
    assert main(["spectrum", cfg]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 2**13


def test_missing_file_exits_4(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 4


def test_unknown_preset_rejected():
    with pytest.raises(SystemExit):
        main(["preset", "fig99"])
