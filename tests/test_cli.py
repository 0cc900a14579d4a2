import contextlib
import io
import json
import math
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import aahwalk.cli
from aahwalk.circuit import KIND_X, SCHEMES, Gate, export_qasm, lower, trotter_circuit
from aahwalk.cli import main
from aahwalk.errors import ConfigError
from aahwalk.exact import MAX_SECTOR_STATES
from aahwalk.experiment import OUTPUT_NAMES, ExperimentConfig, hamiltonian_matrix, run
from aahwalk.model import FLAVORS, MAX_INDEX_SITES, ModelParams
from aahwalk.noise import ReadoutModel


_HUGE = 10**400  # an integer beyond the float range
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


# Every subcommand that loads a config file, with the options it requires.
CONFIG_COMMANDS = [["run"], ["sweep", "--axis", "V", "--values", "0"], ["export-qasm"],
                   ["spectrum"]]


@pytest.mark.parametrize("text", ["{not json", "[" * 100_000], ids=["not-json", "deep"])
@pytest.mark.parametrize("command", CONFIG_COMMANDS, ids=lambda c: c[0])
def test_invalid_json_exits_2(tmp_path, capsys, command, text):
    """A file that is not JSON, or nests deeper than the decoder's recursion limit, is a
    config error: exit 2 with one stderr line, no traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out"
    assert main([command[0], str(bad), *command[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: invalid JSON: ") and err.count("\n") == 1
    assert not out.exists()


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, steps=0)
    assert main(["run", cfg]) == 2


# One fault each, on a config with shots and a readout (so that a truthy non-bool
# mitigation is the only fault); both the JSON and the Python path must refuse them.
MISTYPED_CASES = [
    ("steps", "2"), ("steps", 2.0), ("steps", True),
    ("shots", "10"), ("shots", 1.5),
    ("seed", "1"), ("seed", False), ("seed", -1),
    ("t_max", "1.0"), ("t_max", float("nan")), ("t_max", float("inf")),
    ("initial_occupations", 3), ("initial_occupations", ["a"]),
    ("initial_occupations", [True]),
    pytest.param("t_max", _HUGE, id="t_max-huge"), ("model", 5), ("outputs", 5), ("mitigation", "no"),
    pytest.param("readout", {"p01": "0.1", "p10": 0.02}, id="readout-string"), pytest.param("readout", {"p01": _HUGE, "p10": 0.02}, id="readout-huge"),
]


@pytest.mark.parametrize("field, value", MISTYPED_CASES)
def test_mistyped_config_exits_2(tmp_path, capsys, field, value):
    readout = {"p01": 0.02, "p10": 0.02}  # so that a truthy non-bool mitigation is the only fault
    cfg = _write_config(tmp_path, **{"shots": 10, "readout": readout, field: value})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1


@pytest.mark.parametrize("field, value", MISTYPED_CASES)
def test_mistyped_config_raises_in_python(field, value):
    """An ExperimentConfig built in Python meets the same contract as a JSON one:
    run() raises ConfigError with the same field prefix, before any work."""
    if field == "readout":
        value = ReadoutModel(**value)
    fields = {"model": ModelParams(**_MODEL), "initial_occupations": [0], "t_max": 1.0,
              "steps": 2, "shots": 10, "readout": ReadoutModel(0.02, 0.02), field: value}
    with pytest.raises(ConfigError, match=f"^{field}: "):
        run(ExperimentConfig(**fields))


@pytest.mark.parametrize("value, field", [
    *[(v, f) for f in ("J", "phi_J", "V") for v in (float("nan"), float("inf"))],
    (4.0, "L"), (True, "L"), (2.0, "T_period"),
    (True, "J"), (True, "lambda_J"), (True, "phi_J"), (False, "V"),
    pytest.param(_HUGE, "J", id="huge-J"), pytest.param(_HUGE, "T_period", id="huge-T_period"),
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


# Values of the wrong type or out of range; no positive integer beyond 5, so
# that L, whose sector size sets the run's cost, never asks for a run that does not finish.
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.floats(),
                  st.just(-_HUGE), st.integers(-2, 0), st.lists(st.integers(-1, 5), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))
# for the other fields; a huge steps or shots meets the run's size guard (exit 3)
_ANY = st.one_of(_JUNK, st.just(_HUGE))
_SIZE_FIELDS = ("L",)


@st.composite
def _fuzz_config(draw):
    """A valid config with up to three faults: a key deleted, added or given a bad
    value; one draw in eight is not an object at all."""
    if draw(st.integers(0, 7)) == 7:
        return draw(_ANY)
    L = draw(st.integers(2, 8))
    model = {"J": draw(st.floats(-2, 2)), "lambda_J": draw(st.floats(-1, 1)),
             "T_period": draw(st.integers(1, 4)), "phi_J": draw(st.floats(-4, 4)),
             "V": draw(st.floats(-3, 3)), "L": L, "flavor": draw(st.sampled_from(FLAVORS))}
    p = st.floats(0, 0.5, exclude_max=True)
    rate = st.one_of(p, st.lists(p, min_size=L, max_size=L))
    readout = draw(st.none() | st.fixed_dictionaries({"p01": rate, "p10": rate}))
    shots = draw(st.integers(0, 256))
    config = {"model": model, "t_max": draw(st.floats(0, 3)), "steps": draw(st.integers(1, 5)),
              "initial_occupations": draw(st.lists(st.integers(0, L - 1), min_size=1,
                                                   max_size=min(L, 4), unique=True)),
              "scheme": draw(st.sampled_from(SCHEMES)), "shots": shots, "readout": readout,
              "mitigation": readout is not None and shots > 0 and draw(st.booleans()),
              "seed": draw(st.integers(0, 2**70)),
              "outputs": draw(st.lists(st.sampled_from(OUTPUT_NAMES), max_size=6, unique=True))}
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from([config, model] + [readout] * (readout is not None)))
        key = draw(st.sampled_from(sorted(target) + ["extra"]))
        if draw(st.booleans()):
            target.pop(key, None)
        elif target is readout:
            target[key] = draw(_ANY | st.lists(st.floats(0, 0.6) | _ANY, max_size=9))
        else:
            target[key] = draw(_JUNK if key in _SIZE_FIELDS else _ANY)
    return config


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(config=_fuzz_config())
@example(config={"model": {**_MODEL, "J": 1e308}, "initial_occupations": [0]})  # NaN densities
@example(config={"model": {**_MODEL, "J": 1e308, "lambda_J": 1e308},  # eigh did not converge
                 "initial_occupations": [0]})
@example(config={"model": _MODEL, "initial_occupations": [0], "shots": 1,  # no shot reads a 1
                 "readout": {"p01": 0.1, "p10": 0.45}, "outputs": ["S2"]})
@example(config={"model": _MODEL, "initial_occupations": [0], "steps": _HUGE})  # size guard
@example(config={"model": _MODEL, "initial_occupations": [0], "shots": _HUGE})
def test_run_fuzzed_config_exit_codes(config):
    """`aahwalk run` on any JSON config exits 0, 2, 3 or 4 and never raises; on
    a non-zero exit it writes exactly one stderr line, on exit 0 no NaN or inf.

    Configs mix valid values with wrong types, NaN/inf, integers beyond the
    float range, missing and extra keys and bad readout shapes.  L stays where
    a run finishes (L <= 8, at most 4 particles); a valid steps is at most 5 and
    a valid shots at most 256, and a fault may set either to 10**400.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", path, "--out", os.path.join(tmp, "out")])
        written = [p.read_text() for p in pathlib.Path(tmp, "out").iterdir()] if code == 0 else []
    assert code in (0, 2, 3, 4)
    assert err.getvalue().count("\n") == (code != 0)
    assert not any("nan" in text or "inf" in text for text in written)


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


def test_run_forty_sites_trotter_norm_over_200_steps():
    """The sector Trotter step keeps the norm within the benchmark's EXACT_TOL (1e-9)
    over a long run; test_run_forty_sites_two_particles makes only 2 steps."""
    cfg = ExperimentConfig(model=ModelParams(**{**_MODEL, "L": 40, "V": 2.0, "flavor": "exact-jw"}),
                           initial_occupations=[19, 20], t_max=10.0, steps=200, scheme="strang-2")
    sums = [prof.sum() for prof in run(cfg).profiles["trotter-exact"]]
    assert len(sums) == 201 and max(abs(s - 2.0) for s in sums) < 1e-9


@pytest.mark.parametrize("value", [_HUGE, 10**12], ids=["huge", "1e12"])
@pytest.mark.parametrize("field", ["steps", "shots"])
def test_run_huge_steps_or_shots_exits_3(tmp_path, capsys, field, value):
    cfg = _write_config(tmp_path, **{field: value})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"resource limit: {field}: at most ") and err.count("\n") == 1


@pytest.mark.parametrize("value", [_HUGE, 10**12], ids=["huge", "1e12"])
def test_export_qasm_huge_steps_exits_3(tmp_path, capsys, value):
    cfg = _write_config(tmp_path, steps=value)
    assert main(["export-qasm", cfg, "--out", str(tmp_path / "c.qasm")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit: steps: at most ") and err.count("\n") == 1
    assert not (tmp_path / "c.qasm").exists()


@pytest.mark.parametrize("model, occ, scheme, most, per_step", [
    ({"flavor": "paper-literal", "V": 0.0}, [0], "sequential", 4681, 56),  # 7 blocks of 8 gates
    ({"flavor": "exact-jw", "V": 2.0}, [3, 4], "strang-2", 2621, 100),  # 10 blocks of 8 + 2 Rz
])
def test_export_qasm_gate_bound(tmp_path, capsys, monkeypatch, model, occ, scheme, most, per_step):
    """At L=8 the largest admitted steps passes the gate bound and one more is refused
    (exit 3) before any circuit is expanded; export_qasm is patched so nothing is written."""
    class Admitted(Exception):
        pass

    def admitted(circuit):
        assert len(circuit.gates) == len(occ) + most * per_step <= aahwalk.cli.MAX_QASM_GATES
        raise Admitted

    monkeypatch.setattr(aahwalk.cli, "export_qasm", admitted)
    over = {"model": {**_MODEL, "L": 8, **model}, "initial_occupations": occ, "scheme": scheme}
    with pytest.raises(Admitted):
        main(["export-qasm", _write_config(tmp_path, **over, steps=most)])
    assert main(["export-qasm", _write_config(tmp_path, **over, steps=most + 1)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"resource limit: steps: at most {most} at L=8 ") and err.count("\n") == 1


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_export_qasm_is_the_full_trotter_circuit(tmp_path, capsys, flavor, scheme):
    """export-qasm repeats one lowered step; its text equals that of the whole
    n-step circuit as trotter_circuit builds it."""
    model = {**_MODEL, "L": 5, "V": 1.5, "phi_J": 0.3, "flavor": flavor}
    assert main(["export-qasm", _write_config(tmp_path, model=model, initial_occupations=[1, 3],
                                              t_max=2.3, steps=7, scheme=scheme)]) == 0
    circ = trotter_circuit(ModelParams(**model), 2.3, 7, scheme)
    circ.gates = [Gate(KIND_X, (1,)), Gate(KIND_X, (3,))] + circ.gates
    assert capsys.readouterr().out == export_qasm(lower(circ))


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


def test_sweep_unparsable_values_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--axis", "V", "--values", "1,abc", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --values: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("values", [",", "", " , ,"])
def test_sweep_without_values_exits_2(tmp_path, capsys, values):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--axis", "V", "--values", values, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: --values: no values\n"
    assert not out.exists()


@pytest.fixture
def umask():
    old = os.umask(0o027)
    try:
        yield 0o027
    finally:
        os.umask(old)


def test_output_files_have_the_umask_mode(tmp_path, umask):
    """Every file the program writes gets the mode a plain open() gives, 0666 & ~umask,
    and a --out FILE in a missing directory creates it, as emit's --out DIR does."""
    cfg = _write_config(tmp_path, outputs=["density", "P0", "correlation"])
    out = tmp_path / "new" / "dir"
    for fmt in ("csv", "json"):
        assert main(["run", cfg, "--format", fmt, "--out", str(out)]) == 0
    assert main(["spectrum", cfg, "--out", str(out / "spectrum.csv")]) == 0
    assert main(["export-qasm", cfg, "--out", str(out / "walk.qasm")]) == 0
    names = sorted(os.listdir(out))
    assert names == ["run_000.correlation.csv", "run_000.density.csv", "run_000.json",
                     "run_000.scalars.csv", "spectrum.csv", "walk.qasm"]
    for name in names:
        assert os.stat(out / name).st_mode & 0o777 == 0o666 & ~umask, name
