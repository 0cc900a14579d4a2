"""Experiment configs, the run/sweep orchestrators, presets and file output."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .circuit import SCHEMES, lower, trotter_circuit
from .engine import RNG_ALGORITHM, apply_circuit, sample_counts
from .errors import ConfigError
from .exact import StateVector, prepare_fock_state, sector_basis, sector_hamiltonian, spectrum
from .model import FLAVOR_PAPER_LITERAL, ModelParams
from .noise import ReadoutModel, corrupt
from .observables import (
    SOURCE_EXACT,
    SOURCE_TROTTER_EXACT,
    SOURCE_TROTTER_MITIGATED,
    SOURCE_TROTTER_SAMPLED,
    CorrelationMatrix,
    DensityProfile,
    correlation,
    density_profile,
    edge_density_nE,
    edge_probability_P0,
    participation_entropy,
    radial_distribution,
)
from .pauli import build_fermionic_hamiltonian_matrix, build_spin_hamiltonian, to_matrix

OUTPUT_NAMES = ("density", "P0", "R2n", "nE", "S2", "correlation")
SCALAR_NAMES = ("P0", "R2n", "nE", "S2")
DEFAULT_OUTPUTS = ["density", "P0", "R2n", "nE", "S2"]

_MODEL_KEYS = {"J", "lambda_J", "T_period", "phi_J", "V", "L", "flavor"}
_CONFIG_KEYS = {"model", "initial_occupations", "t_max", "steps", "scheme",
                "shots", "readout", "mitigation", "seed", "outputs"}


@dataclass
class ExperimentConfig:
    model: ModelParams
    initial_occupations: list[int]
    t_max: float = 5.0
    steps: int = 10
    scheme: str = "sequential"
    shots: int = 0
    readout: ReadoutModel | None = None
    mitigation: bool = False
    seed: int = 0
    outputs: list[str] = field(default_factory=lambda: list(DEFAULT_OUTPUTS))

    def validate(self) -> None:
        occ = self.initial_occupations
        if len(set(occ)) != len(occ):
            raise ConfigError(f"initial_occupations: duplicate sites in {occ}")
        for s in occ:
            if not 0 <= s < self.model.L:
                raise ConfigError(f"initial_occupations: site {s} out of range for L={self.model.L}")
        if not occ:
            raise ConfigError("initial_occupations: need at least one particle")
        if self.steps < 1:
            raise ConfigError(f"steps: must be >= 1, got {self.steps}")
        if not (math.isfinite(self.t_max) and self.t_max >= 0):
            raise ConfigError(f"t_max: must be finite and >= 0, got {self.t_max}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme: unknown {self.scheme!r}, expected one of {SCHEMES}")
        if self.shots < 0:
            raise ConfigError(f"shots: must be >= 0, got {self.shots}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.readout is not None:
            try:
                self.readout.rates(self.model.L)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"readout: {exc}") from exc
        if self.mitigation and (self.readout is None or self.shots == 0):
            raise ConfigError("mitigation: requires readout present and shots > 0")
        for name in self.outputs:
            if name not in OUTPUT_NAMES:
                raise ConfigError(f"outputs: unknown observable {name!r}")

    def to_dict(self) -> dict:
        d = {
            "model": dataclasses.asdict(self.model),
            "initial_occupations": list(self.initial_occupations),
            "t_max": self.t_max,
            "steps": self.steps,
            "scheme": self.scheme,
            "shots": self.shots,
            "readout": None if self.readout is None
            else {"p01": self.readout.p01, "p10": self.readout.p10},
            "mitigation": self.mitigation,
            "seed": self.seed,
            "outputs": list(self.outputs),
        }
        return d


def config_from_dict(d: dict) -> ExperimentConfig:
    """Strict parse: unknown keys are errors."""
    unknown = set(d) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "model" not in d:
        raise ConfigError("model: missing")
    mdict = d["model"]
    bad = set(mdict) - _MODEL_KEYS
    if bad:
        raise ConfigError(f"model: unknown keys {sorted(bad)}")
    try:
        model = ModelParams(**mdict)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from exc
    readout = None
    if d.get("readout") is not None:
        r = d["readout"]
        if not isinstance(r, dict) or set(r) != {"p01", "p10"}:
            raise ConfigError(f"readout: expected exactly the keys p01 and p10, got {r!r}")
        p01 = tuple(r["p01"]) if isinstance(r["p01"], list) else r["p01"]
        p10 = tuple(r["p10"]) if isinstance(r["p10"], list) else r["p10"]
        readout = ReadoutModel(p01, p10)
    if "initial_occupations" not in d:
        raise ConfigError("initial_occupations: missing")
    for key, kinds, what in (("steps", int, "an integer"), ("shots", int, "an integer"),
                             ("seed", int, "an integer"), ("t_max", (int, float), "a number")):
        v = d.get(key, 0)
        if isinstance(v, bool) or not isinstance(v, kinds):
            raise ConfigError(f"{key}: expected {what}, got {v!r}")
    cfg = ExperimentConfig(
        model=model,
        initial_occupations=list(d["initial_occupations"]),
        t_max=d.get("t_max", 5.0),
        steps=d.get("steps", 10),
        scheme=d.get("scheme", "sequential"),
        shots=d.get("shots", 0),
        readout=readout,
        mitigation=d.get("mitigation", False),
        seed=d.get("seed", 0),
        outputs=list(d.get("outputs", DEFAULT_OUTPUTS)),
    )
    cfg.validate()
    return cfg


@dataclass
class RunRecord:
    config: dict
    times: list[float]
    profiles: dict[str, list[DensityProfile]]
    series: dict[str, dict[str, list[float]]]
    correlations: dict[str, list[CorrelationMatrix]]
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "times": self.times,
            "profiles": {src: [p.values.tolist() for p in profs]
                         for src, profs in self.profiles.items()},
            "series": self.series,
            "correlations": {src: [{"time": c.time, "values": c.values.tolist()}
                                   for c in mats]
                             for src, mats in self.correlations.items()},
            "metadata": self.metadata,
        }


def hamiltonian_matrix(params: ModelParams) -> np.ndarray:
    """Dense 2^L Hamiltonian of the selected flavor, from Pauli strings."""
    if params.flavor == FLAVOR_PAPER_LITERAL:
        return to_matrix(build_spin_hamiltonian(params), params.L)
    return build_fermionic_hamiltonian_matrix(params)


def run(config: ExperimentConfig) -> RunRecord:
    """Full pipeline: prepare, evolve (exact in the N sector + circuit), measure, observe."""
    config.validate()
    params = config.model
    n_particles = len(config.initial_occupations)
    basis = sector_basis(params.L, n_particles)
    decomp = spectrum(sector_hamiltonian(params, basis))
    psi0 = prepare_fock_state(params.L, config.initial_occupations)
    c0 = decomp.eigenvectors.conj().T @ psi0.amplitudes[basis]
    dt = config.t_max / config.steps

    step_circuit = lower(trotter_circuit(params, dt, 1, config.scheme)) \
        if config.t_max > 0 else None

    sources = [SOURCE_EXACT, SOURCE_TROTTER_EXACT]
    if config.shots > 0:
        sources.append(SOURCE_TROTTER_SAMPLED)
        if config.mitigation:
            sources.append(SOURCE_TROTTER_MITIGATED)

    times: list[float] = []
    profiles: dict[str, list[DensityProfile]] = {s: [] for s in sources}
    correlations: dict[str, list[CorrelationMatrix]] = {s: [] for s in sources}
    want_corr = "correlation" in config.outputs

    psi_trot = psi0.copy()
    for s in range(config.steps + 1):
        t = s * dt
        times.append(t)
        if s > 0 and step_circuit is not None:
            psi_trot = apply_circuit(psi_trot, step_circuit)
        amps = np.zeros(2**params.L, dtype=complex)
        amps[basis] = decomp.eigenvectors @ (np.exp(-1j * decomp.eigenvalues * t) * c0)
        step_states: dict[str, object] = {
            SOURCE_EXACT: StateVector(amps, params.L),
            SOURCE_TROTTER_EXACT: psi_trot,
        }
        if config.shots > 0:
            counts = sample_counts(psi_trot, config.shots, config.seed + s)
            if config.readout is not None:
                counts = corrupt(counts, config.readout,
                                 config.seed + s + 1_000_000)
            step_states[SOURCE_TROTTER_SAMPLED] = counts
            if config.mitigation:
                step_states[SOURCE_TROTTER_MITIGATED] = counts
        for src in sources:
            state = step_states[src]
            model = config.readout if src == SOURCE_TROTTER_MITIGATED else None
            profiles[src].append(density_profile(state, t, src, model=model))
            if want_corr:
                correlations[src].append(correlation(state, t, src, model=model))

    series: dict[str, dict[str, list[float]]] = {}
    for src in sources:
        series[src] = {}
        for name in SCALAR_NAMES:
            if name not in config.outputs:
                continue
            vals = []
            for p in profiles[src]:
                if name == "P0":
                    vals.append(edge_probability_P0(p))
                elif name == "R2n":
                    vals.append(radial_distribution(p))
                elif name == "nE":
                    vals.append(edge_density_nE(p))
                else:  # S2
                    vals.append(participation_entropy(p, 2, n_particles))
            series[src][name] = vals

    metadata = {
        "seed": config.seed,
        "scheme": config.scheme,
        "flavor": params.flavor,
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "entropy_log_base": "e",
        "timestamp": _time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    return RunRecord(config.to_dict(), times, profiles, series,
                     correlations if want_corr else {s: [] for s in sources},
                     metadata)


SWEEP_AXES = ("lambda_J", "phi_J", "V")


def sweep(base: ExperimentConfig, axis: str, values: list[float]) -> list[RunRecord]:
    """One independent run per value; per-value seed = base seed + index."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    for v in values:
        if not math.isfinite(v):
            raise ConfigError(f"sweep value {v} is not finite")
    return [run(dataclasses.replace(base, seed=base.seed + i,
                                    model=dataclasses.replace(base.model, **{axis: v})))
            for i, v in enumerate(values)]


# ---------------------------------------------------------------------------
# File emission

def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _density_csv(record: RunRecord) -> str:
    lines = ["step,time,site,density,source"]
    for src in sorted(record.profiles):
        for step, prof in enumerate(record.profiles[src]):
            for site, val in enumerate(prof.values):
                lines.append(f"{step},{prof.time!r},{site},{float(val)!r},{src}")
    return "\n".join(lines) + "\n"


def _scalars_csv(record: RunRecord) -> str:
    lines = ["step,time,name,value,source"]
    for src in sorted(record.series):
        for name in SCALAR_NAMES:
            if name not in record.series[src]:
                continue
            for step, val in enumerate(record.series[src][name]):
                t = record.times[step]
                lines.append(f"{step},{t!r},{name},{val!r},{src}")
    return "\n".join(lines) + "\n"


def _correlation_csv(record: RunRecord) -> str:
    lines = ["time,i,j,value,source"]
    for src in sorted(record.correlations):
        for mat in record.correlations[src]:
            L = mat.values.shape[0]
            for i in range(L):
                for j in range(L):
                    lines.append(f"{mat.time!r},{i},{j},{float(mat.values[i, j])!r},{src}")
    return "\n".join(lines) + "\n"


def emit(records, fmt: str, out_dir: str, stem: str = "run") -> list[str]:
    """Write one record (or a list) to out_dir; returns written paths."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {fmt!r}")
    if isinstance(records, RunRecord):
        records = [records]
    written: list[str] = []
    for i, rec in enumerate(records):
        prefix = os.path.join(out_dir, f"{stem}_{i:03d}")
        if fmt == "json":
            path = prefix + ".json"
            _atomic_write(path, json.dumps(rec.to_dict(), sort_keys=True, indent=1) + "\n")
            written.append(path)
        else:
            path = prefix + ".density.csv"
            _atomic_write(path, _density_csv(rec))
            written.append(path)
            if any(rec.series[src] for src in rec.series):
                path = prefix + ".scalars.csv"
                _atomic_write(path, _scalars_csv(rec))
                written.append(path)
            if any(rec.correlations[src] for src in rec.correlations):
                path = prefix + ".correlation.csv"
                _atomic_write(path, _correlation_csv(rec))
                written.append(path)
    return written


# ---------------------------------------------------------------------------
# Scenario presets (desk-scale reproductions of the reported phenomena)

def _cfg(L, occ, lam, phi=0.0, V=0.0, t_max=5.0, steps=10, outputs=None,
         seed=7) -> ExperimentConfig:
    return ExperimentConfig(
        model=ModelParams(J=1.0, lambda_J=lam, T_period=2, phi_J=phi, V=V, L=L),
        initial_occupations=list(occ),
        t_max=t_max, steps=steps, seed=seed,
        outputs=list(outputs) if outputs else list(DEFAULT_OUTPUTS),
    )


_PRESETS = {
    "fig3": lambda: [_cfg(10, [0], lam) for lam in (0.1, 0.5, 0.9)],
    "fig4": lambda: [_cfg(10, [0], round(0.1 * k, 1)) for k in range(10)],
    "fig5": lambda: [_cfg(5, [0], 0.9, phi=p) for p in (0.0, math.pi / 2, math.pi)],
    "fig6": lambda: [_cfg(5, [4], 0.9, phi=p) for p in (0.0, math.pi / 2, math.pi)],
    "fig7": lambda: [_cfg(7, [0, 6], 0.9), _cfg(8, [0, 7], 0.9)],
    "fig8": lambda: [_cfg(10, [5], 0.0), _cfg(10, [5], 0.5),
                     _cfg(10, [5], 0.9), _cfg(10, [5], 0.9, phi=math.pi / 2)],
    "fig9": lambda: [_cfg(7, [0, 3], 0.9, V=v) for v in (0.0, 1.0, 2.0)],
    "fig10": lambda: [_cfg(8, [3, 4], 0.0), _cfg(8, [3, 4], 0.5),
                      _cfg(8, [3, 4], 0.9), _cfg(8, [3, 4], 0.9, V=2.0)],
    "fig12": lambda: [_cfg(8, [3, 4], lam, V=v, t_max=3.0,
                           outputs=["density", "correlation"])
                      for lam, v in ((0.0, 0.0), (0.5, 0.0), (0.9, 0.0), (0.9, 2.0))],
    "fig13": lambda: [_cfg(8, [3, 4], lam, V=v, t_max=3.0,
                           outputs=["density", "S2"])
                      for lam, v in ((0.0, 0.0), (0.5, 0.0), (0.9, 0.0), (0.9, 2.0))],
}
PRESET_NAMES = tuple(_PRESETS)


def preset_configs(name: str) -> list[ExperimentConfig]:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(_PRESETS)}")
    return _PRESETS[name]()
