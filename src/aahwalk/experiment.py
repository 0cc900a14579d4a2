"""Experiment configs, the run/sweep orchestrators, presets and file output."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time as _time
from dataclasses import dataclass, field
from itertools import chain
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
from .noise import ReadoutModel, mitigate_z, readout_z
from .noise import corrupt  # noqa: F401  bound for the benchmark's tracer
from .observables import (SOURCE_EXACT, SOURCE_TROTTER_EXACT, SOURCE_TROTTER_MITIGATED,
                          SOURCE_TROTTER_SAMPLED, DensityProfile, edge_density_nE,
                          edge_probability_P0, participation_entropy, radial_distribution)
from .observables import (  # noqa: F401  bound for the benchmark's tracer
    correlation, density_profile)
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

        # The (steps+1) x L <Z> tables (x L for correlations) and the shots x L readout draws of
        # a step, made 2**16 at a time, stay within the largest U the sector guard admits.
        limit, width = MAX_SECTOR_STATES**2, L * L if "correlation" in self.outputs else L
        if (int(self.steps) + 1) * width > limit:  # int: a numpy integer would wrap
            raise ResourceLimitError(f"steps: at most {limit // width - 1} at L={L} with these"
                                     f" outputs (a time table over {limit} entries)")
        if int(self.shots) * L > limit:
            raise ResourceLimitError(f"shots: at most {limit // L} at L={L} (a step's shots x L"
                                     f" draws, made 2**16 at a time, over {limit})")
        if math.comb(L, len(occ)) > MAX_SECTOR_STATES:  # sector_basis's guard, before any run
            raise ResourceLimitError(f"sector dimension C({L}, {len(occ)}) ="
                                     f" {math.comb(L, len(occ))} exceeds {MAX_SECTOR_STATES}")


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
    sampled_z = readout_z(config.readout, basis, L) if config.readout else lambda c, _: z_vector(c)

    trot = (np.arange(len(basis)) == start).astype(complex)
    rows = max(1, 2**20 // (L * len(basis)))  # steps per block: z_sum's (rows, L, C) product
    for first in range(0, len(times), rows):
        block = slice(first, first + rows)
        exact_rows, trot_rows = [], []
        phases = np.exp(-1j * decomp.eigenvalues * np.array(times[block])[:, None]) * c0
        for s, v in enumerate(phases, first):
            if s > 0:
                trot = apply_sector_step(step, trot)
            trot_rows.append(trot)
            # two real products: a complex one would copy U to complex every step
            exact_rows.append(decomp.eigenvectors @ v.real + 1j * (decomp.eigenvectors @ v.imag))
            if config.shots > 0:
                # seed last: numpy splits a seed >= 2**32 into words, which could alias s
                counts = sample_counts(StateVector(trot, L, basis), config.shots,
                                       (_SAMPLE, s, config.seed))
                z[SOURCE_TROTTER_SAMPLED][s] = sampled_z(counts, (_CORRUPT, s, config.seed))
        z[SOURCE_EXACT][block] = z_sum(np.abs(exact_rows) ** 2, signs)
        z[SOURCE_TROTTER_EXACT][block] = z_sum(np.abs(trot_rows) ** 2, signs)
    if config.mitigation:
        sources.append(SOURCE_TROTTER_MITIGATED)
        z[SOURCE_TROTTER_MITIGATED] = mitigate_z(z[SOURCE_TROTTER_SAMPLED], config.readout)

    density = {src: (1.0 - z[src]) / 2.0 for src in sources}
    correlations = {src: z[src][:, :, None] * z[src][:, None, :]  # <Z_i><Z_j> at every time
                    if "correlation" in config.outputs else np.empty((0, L, L)) for src in sources}

    # built per run, from the module's names, so that the benchmark's tracer sees every call
    scalars = {"P0": edge_probability_P0, "R2n": radial_distribution, "nE": edge_density_nE,
               "S2": lambda profile: participation_entropy(profile, 2, n_particles)}
    profiles = [DensityProfile(times, density[src], src) for src in sources]
    try:
        series = {p.source: {name: scalars[name](p) for name in SCALAR_NAMES
                             if name in config.outputs} for p in profiles}
    except ValueError as exc:  # S2 of a measured profile in which no shot read a particle
        raise ConfigError(f"outputs: S2: {exc}") from exc

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
    base.validate()  # the points are built with replace() and base.seed + i
    try:
        configs = [dataclasses.replace(base, seed=base.seed + i,
                                       model=dataclasses.replace(base.model, **{axis: v}))
                   for i, v in enumerate(values)]
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    return [run(cfg) for cfg in configs]


# ---------------------------------------------------------------------------
# File emission

def write_file(path: str, chunks) -> None:
    """Write an iterable of text chunks to a new file beside path, then rename it into
    place, so path holds the old bytes or all the new ones. The new file is opened with
    "x" under a random name, so it gets the mode a plain open() gives (0666 & ~umask)."""
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_files(rec: RunRecord):
    """(suffix, chunks) of each CSV file of a record that has content; every source's
    densities are always written. The chunks are lazy, one per time step of one source
    (one per line of scalars), with cells formatted from Python floats of .tolist() rows."""
    times = [repr(t) for t in rec.times]  # each time formatted once, not once per cell
    yield ".density.csv", chain(["step,time,site,density,source\n"], (
        "".join([f"{step},{t},{site},{v!r},{src}\n" for site, v in enumerate(row)])
        for src in sorted(rec.profiles)
        for step, (t, row) in enumerate(zip(times, rec.profiles[src].tolist()))))
    if any(rec.series.values()):
        yield ".scalars.csv", chain(["step,time,name,value,source\n"], (
            f"{step},{t},{name},{v!r},{src}\n" for src in sorted(rec.series)
            for name, values in rec.series[src].items()  # in SCALAR_NAMES order
            for step, (t, v) in enumerate(zip(times, values))))
    if any(len(tab) for tab in rec.correlations.values()):
        yield ".correlation.csv", chain(["time,i,j,value,source\n"], (
            "".join([f"{t},{i},{j},{v!r},{src}\n"
                     for i, row in enumerate(mat.tolist()) for j, v in enumerate(row)])
            for src in sorted(rec.correlations) for t, mat in zip(times, rec.correlations[src])))


def _json_chunks(obj, indent: str = "\n"):
    """The text of json.dumps(obj, sort_keys=True, indent=1, default=lambda x: x.tolist())
    for string-keyed dicts, in chunks; indent is the newline and indentation of obj's own
    line. A list of finite floats is one chunk: json.dumps writes float.__repr__ of each."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    inner = indent + " "
    if isinstance(obj, dict) and obj:
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield f"{',' if i else ''}{inner}{json.dumps(key)}: "
            yield from _json_chunks(obj[key], inner)
        yield indent + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        try:
            text = ("," + inner).join(map(float.__repr__, obj))
        except TypeError:  # an item that is not a float
            text = "n"
        if "n" in text:  # not all floats, or a nan or inf, which json spells NaN, Infinity
            yield "["
            for i, item in enumerate(obj):
                yield ("," if i else "") + inner
                yield from _json_chunks(item, inner)
            yield indent + "]"
        else:
            yield f"[{inner}{text}{indent}]"
    else:
        yield json.dumps(obj)


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
            files = [(".json", chain(_json_chunks(rec.to_dict()), ["\n"]))]
        else:
            files = _csv_files(rec)
        for suffix, chunks in files:
            write_file(prefix + suffix, chunks)
            written.append(prefix + suffix)
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
