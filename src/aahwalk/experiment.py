"""Experiment configs, the run/sweep orchestrators, presets and file output."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
import time as _time
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import __version__
from .circuit import SCHEMES, trotter_circuit
from .circuit import lower  # noqa: F401  bound for the benchmark's tracer (perfbench/spans.py)
from .engine import (RNG_ALGORITHM, apply_sector_step, compile_sector_step, sample_counts,
                     z_sum, z_vector)
from .engine import apply_circuit  # noqa: F401  bound for the benchmark's tracer
from .errors import ConfigError, ResourceLimitError
from .exact import (MAX_SECTOR_STATES, StateVector, sector_basis, sector_hamiltonian, site_bits,
                    spectrum)
from .exact import prepare_fock_state  # noqa: F401  bound for the benchmark's tracer
from .model import FLAVOR_PAPER_LITERAL, ModelParams, is_finite, is_number
from .noise import ReadoutModel, corrupt, mitigate_z
from .observables import (SOURCE_EXACT, SOURCE_TROTTER_EXACT, SOURCE_TROTTER_MITIGATED,
                          SOURCE_TROTTER_SAMPLED, DensityProfile, participation_entropy)
from .observables import (  # noqa: F401  bound for the benchmark's tracer
    correlation, density_profile, edge_density_nE, edge_probability_P0, radial_distribution)
from .pauli import build_fermionic_hamiltonian_matrix, build_spin_hamiltonian, to_matrix

OUTPUT_NAMES = ("density", "P0", "R2n", "nE", "S2", "correlation")
SCALAR_NAMES = ("P0", "R2n", "nE", "S2")
_SAMPLE, _CORRUPT = 0, 1  # RNG stream purposes
DEFAULT_OUTPUTS = ["density", "P0", "R2n", "nE", "S2"]


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
        """The whole contract of a config: the type of each field, then its value (ConfigError),
        then the size of the arrays a run of it allocates (ResourceLimitError)."""
        occ, seq = self.initial_occupations, (list, tuple)
        if isinstance(self.readout, ReadoutModel):
            for key, v in (("p01", self.readout.p01), ("p10", self.readout.p10)):
                rates = v.tolist() if isinstance(v, np.ndarray) else v
                if not all(map(is_number, rates if isinstance(rates, seq) else [rates])):
                    raise ConfigError(f"readout: {key}: expected a number or a list of numbers,"
                                      f" got {v!r}")
        for name, ok, what in (
                ("model", isinstance(self.model, ModelParams), "a ModelParams"),
                ("readout", self.readout is None or isinstance(self.readout, ReadoutModel),
                 "a ReadoutModel"),
                ("initial_occupations", isinstance(occ, seq)
                 and all(is_number(s, Integral) for s in occ), "a list of integers"),
                ("steps", is_number(self.steps, Integral), "an integer"),
                ("shots", is_number(self.shots, Integral), "an integer"),
                ("seed", is_number(self.seed, Integral), "an integer"),
                ("t_max", is_number(self.t_max), "a number"),
                ("mitigation", isinstance(self.mitigation, (bool, np.bool_)), "true or false"),
                ("outputs", isinstance(self.outputs, seq), "a list")):
            if not ok:
                raise ConfigError(f"{name}: expected {what}, got {getattr(self, name)!r}")

        L = self.model.L
        if len(set(occ)) != len(occ):
            raise ConfigError(f"initial_occupations: duplicate sites in {occ}")
        for s in occ:
            if not 0 <= s < L:
                raise ConfigError(f"initial_occupations: site {s} out of range for L={L}")
        if not occ:
            raise ConfigError("initial_occupations: need at least one particle")
        if self.steps < 1:
            raise ConfigError(f"steps: must be >= 1, got {self.steps}")
        if not (is_finite(self.t_max) and self.t_max >= 0):
            raise ConfigError(f"t_max: must be finite and >= 0, got {self.t_max}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme: unknown {self.scheme!r}, expected one of {SCHEMES}")
        if self.shots < 0:
            raise ConfigError(f"shots: must be >= 0, got {self.shots}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.readout is not None:
            try:
                self.readout.rates(L)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"readout: {exc}") from exc
        if self.mitigation and (self.readout is None or self.shots == 0):
            raise ConfigError("mitigation: requires readout present and shots > 0")
        for name in self.outputs:
            if name not in OUTPUT_NAMES:
                raise ConfigError(f"outputs: unknown observable {name!r}")

        # A run's largest arrays, the (steps+1) x L <Z> tables (x L for correlations) and
        # corrupt's shots x L bits, stay within the size of the largest U the sector guard admits.
        limit, width = MAX_SECTOR_STATES**2, L * L if "correlation" in self.outputs else L
        if (int(self.steps) + 1) * width > limit:  # int: a numpy integer would wrap
            raise ResourceLimitError(f"steps: at most {limit // width - 1} at L={L} with these"
                                     f" outputs (a time table over {limit} entries)")
        if int(self.shots) * L > limit:
            raise ResourceLimitError(f"shots: at most {limit // L} at L={L}"
                                     f" (a shots x L array over {limit} entries)")


def _from_object(name: str, cls, obj):
    """A dataclass from a JSON object, with lists as tuples; its constructor refuses
    unknown and missing keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: expected an object, got {obj!r}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def config_from_dict(d: dict) -> ExperimentConfig:
    """Strict parse of a JSON object: unknown keys are errors, absent ones take the
    dataclass defaults, and validate() checks the rest."""
    if not isinstance(d, dict):
        raise ConfigError(f"expected a JSON object, got {d!r}")
    unknown = set(d) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    readout = d.get("readout")
    cfg = ExperimentConfig(**{
        **d, "model": _from_object("model", ModelParams, d.get("model")),
        "readout": None if readout is None else _from_object("readout", ReadoutModel, readout),
        "initial_occupations": d.get("initial_occupations")})
    cfg.validate()
    return cfg


@dataclass
class RunRecord:
    config: dict
    times: list[float]
    profiles: dict[str, np.ndarray]  # (steps+1) x L densities; row s at times[s]
    series: dict[str, dict[str, list[float]]]
    correlations: dict[str, np.ndarray]  # (steps+1) x L x L <Z_i><Z_j>; 0 rows if not asked
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "times": self.times,
            "profiles": {src: tab.tolist() for src, tab in self.profiles.items()},
            "series": self.series,
            "correlations": {src: [{"time": t, "values": m}
                                   for t, m in zip(self.times, tab.tolist())]
                             for src, tab in self.correlations.items()},
            "metadata": self.metadata,
        }


def hamiltonian_matrix(params: ModelParams) -> np.ndarray:
    """Dense 2^L Hamiltonian of the selected flavor, from Pauli strings."""
    if params.flavor == FLAVOR_PAPER_LITERAL:
        return to_matrix(build_spin_hamiltonian(params), params.L)
    return build_fermionic_hamiltonian_matrix(params)


def run(config: ExperimentConfig) -> RunRecord:
    """Full pipeline in the initial state's particle-number sector: prepare,
    evolve (exact and Trotter circuit), measure each source into a (steps+1, L)
    <Z> table, then derive every observable from the tables."""
    config.validate()
    params, L = config.model, config.model.L
    n_particles = len(config.initial_occupations)
    basis = sector_basis(L, n_particles)
    with np.errstate(over="ignore", invalid="ignore"):  # Gershgorin: |E| <= max row sum |H|
        H = sector_hamiltonian(params, basis)
        if not np.isfinite(np.abs(H).sum(axis=1).max() * config.t_max):
            raise ConfigError(f"model: energies times t_max={config.t_max} overflow a float")
    decomp = spectrum(H)
    start = np.searchsorted(basis, sum(1 << s for s in config.initial_occupations))
    c0 = decomp.eigenvectors[start]  # U^dag e_start; the sector block is real
    dt = float(config.t_max / config.steps)  # a float also for numpy scalars, as CSV prints it
    step = compile_sector_step(trotter_circuit(params, dt, 1, config.scheme), basis)

    sources = [SOURCE_EXACT, SOURCE_TROTTER_EXACT] + [SOURCE_TROTTER_SAMPLED] * bool(config.shots)
    times = [s * dt for s in range(config.steps + 1)]
    z = {src: np.empty((len(times), L)) for src in sources}  # row s: <Z_i> at times[s]
    signs = 1 - 2 * site_bits(basis, L)

    trot = (np.arange(len(basis)) == start).astype(complex)
    for s, t in enumerate(times):
        if s > 0:
            trot = apply_sector_step(step, trot)
        # two real products: a complex one would copy U to complex every step
        v = np.exp(-1j * decomp.eigenvalues * t) * c0
        amps = decomp.eigenvectors @ v.real + 1j * (decomp.eigenvectors @ v.imag)
        z[SOURCE_EXACT][s] = z_sum(np.abs(amps) ** 2, signs)
        z[SOURCE_TROTTER_EXACT][s] = z_sum(np.abs(trot) ** 2, signs)
        if config.shots > 0:
            # seed last: numpy splits a seed >= 2**32 into words, which could alias s
            counts = sample_counts(StateVector(trot, L, basis), config.shots,
                                   (_SAMPLE, s, config.seed))
            if config.readout is not None:
                counts = corrupt(counts, config.readout, (_CORRUPT, s, config.seed))
            z[SOURCE_TROTTER_SAMPLED][s] = z_vector(counts)
    if config.mitigation:
        sources.append(SOURCE_TROTTER_MITIGATED)
        z[SOURCE_TROTTER_MITIGATED] = mitigate_z(z[SOURCE_TROTTER_SAMPLED], config.readout)

    density = {src: (1.0 - z[src]) / 2.0 for src in sources}
    correlations = {src: z[src][:, :, None] * z[src][:, None, :]  # <Z_i><Z_j> at every time
                    if "correlation" in config.outputs else np.empty((0, L, L)) for src in sources}

    def entropy(src: str) -> list[float]:
        weights = np.sum((density[src] / n_particles) ** 2, axis=1)
        if np.any(weights <= 0):  # a measured profile in which no shot read a particle
            first = int(np.argmax(weights <= 0))  # the first such profile words the error
            try:
                participation_entropy(DensityProfile(times[first], density[src][first], src),
                                      2, n_particles)
            except ValueError as exc:
                raise ConfigError(f"outputs: S2: {exc}") from exc
        return [-math.log(w / n_particles) for w in weights.tolist()]  # k = 2: 1/(1-k) = -1

    sites = np.arange(L)
    scalars = {"P0": lambda src: density[src][:, 0].tolist(),
               "R2n": lambda src: [float(np.dot(sites, row)) for row in density[src]],
               "nE": lambda src: ((density[src][:, 0] + density[src][:, -1]) / 2.0).tolist(),
               "S2": entropy}
    series = {src: {name: scalars[name](src) for name in SCALAR_NAMES if name in config.outputs}
              for src in sources}

    metadata = {"seed": config.seed, "scheme": config.scheme, "flavor": params.flavor,
                "version": __version__, "rng": RNG_ALGORITHM, "entropy_log_base": "e",
                "timestamp": _time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    return RunRecord(dataclasses.asdict(config), times, density, series, correlations, metadata)


SWEEP_AXES = ("lambda_J", "phi_J", "V")


def sweep(base: ExperimentConfig, axis: str, values: list[float]) -> list[RunRecord]:
    """One independent run per value; per-value seed = base seed + index. Every
    point's config is built, so its model checked, before the first run."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    try:
        configs = [dataclasses.replace(base, seed=base.seed + i,
                                       model=dataclasses.replace(base.model, **{axis: v}))
                   for i, v in enumerate(values)]
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    return [run(cfg) for cfg in configs]


# ---------------------------------------------------------------------------
# File emission

def _atomic_write(path: str, lines: list[str]) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")  # apart: appending it to a large text would copy the text
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_files(rec: RunRecord):
    """(suffix, lines) of each CSV file of a record that has content; every source's
    densities are always written. Cells format Python floats from .tolist() rows."""
    lines = ["step,time,site,density,source"]
    for src in sorted(rec.profiles):
        for step, (t, row) in enumerate(zip(rec.times, rec.profiles[src].tolist())):
            lines += [f"{step},{t!r},{site},{v!r},{src}" for site, v in enumerate(row)]
    yield ".density.csv", lines
    if any(rec.series.values()):
        lines = ["step,time,name,value,source"]
        for src in sorted(rec.series):
            for name, values in rec.series[src].items():  # in SCALAR_NAMES order
                lines += [f"{step},{t!r},{name},{v!r},{src}"
                          for step, (t, v) in enumerate(zip(rec.times, values))]
        yield ".scalars.csv", lines
    if any(len(tab) for tab in rec.correlations.values()):
        lines = ["time,i,j,value,source"]
        for src in sorted(rec.correlations):
            for t, mat in zip(rec.times, rec.correlations[src]):
                for i, row in enumerate(mat.tolist()):
                    lines += [f"{t!r},{i},{j},{v!r},{src}" for j, v in enumerate(row)]
        yield ".correlation.csv", lines


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
            files = [(".json", [json.dumps(rec.to_dict(), sort_keys=True, indent=1,
                                           default=lambda x: x.tolist())])]  # numpy values
        else:
            files = _csv_files(rec)
        for suffix, lines in files:
            _atomic_write(prefix + suffix, lines)
            written.append(prefix + suffix)
            del lines  # free this file's lines before the next file's are built
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
