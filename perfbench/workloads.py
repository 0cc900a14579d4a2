"""The benchmark's workloads: inputs made from the seed, one pass, the checks.

Every output is read back from the JSON file the program wrote and checked
against the sector reference in ``reference.py``:

* ``exact`` and ``trotter-exact`` densities (and correlations, when asked
  for) match the reference within EXACT_TOL, and densities sum to N;
* sampled densities lie within SIGMA_K binomial sigma of the reference
  Trotter density after readout flips, p = n(1 - p10) + (1 - n) p01;
* mitigated densities lie within SIGMA_K sigma / (1 - p01 - p10) of the
  reference Trotter density;
* sampled and mitigated correlations <Z_i><Z_j> lie within the shot-noise
  bound that follows from the same sigmas;
* the scalar series (P0, R2n, nE, S2) follow from the record's own densities.

An operation is one experiment config: its run, its output file and its
checks.  It fails when its file is missing or any check fails.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import traceback

import numpy as np

from reference import Reference

EXACT_TOL = 1e-9
SERIES_TOL = 1e-9
# 7 sigma keeps a false alarm below 1e-9 per check even for the skewed
# binomial tail at p = 0.03 with 8192 shots.
SIGMA_K = 7.0

EXACT, TROTTER, SAMPLED, MITIGATED = ("exact", "trotter-exact", "trotter-sampled",
                                      "trotter-sampled-mitigated")
# A fault the program has today; an operation failing only on it still
# leaves the run correct.  experiment.run hands the raw counts, not the
# mitigated ones, to observables.correlation for the mitigated source.
KNOWN_FAULTS = {f"{MITIGATED} correlation"}

DEFAULT_OUTPUTS = ["density", "P0", "R2n", "nE", "S2"]
SCHEMES = ("sequential", "even-odd-1", "strang-2")
# every preset from fig3 to fig13, with the number of configs it runs
PRESETS = {"fig3": 3, "fig4": 10, "fig5": 3, "fig6": 3, "fig7": 2, "fig8": 4,
           "fig9": 3, "fig10": 4, "fig12": 4, "fig13": 4}


def _config(L, occupied, lam, phi, V, t_max, steps, *, flavor="paper-literal",
            scheme="sequential", shots=0, readout=None, seed=0, outputs=DEFAULT_OUTPUTS):
    return {
        "model": {"J": 1.0, "lambda_J": lam, "T_period": 2, "phi_J": phi, "V": V,
                  "L": L, "flavor": flavor},
        "initial_occupations": list(occupied), "t_max": t_max, "steps": steps,
        "scheme": scheme, "shots": shots, "readout": readout,
        "mitigation": readout is not None, "seed": seed, "outputs": list(outputs),
    }


# ---------------------------------------------------------------------------
# Checks

def _rates(readout, L):
    if readout is None:
        return np.zeros(L), np.zeros(L)
    return (np.broadcast_to(np.asarray(readout["p01"], float), (L,)),
            np.broadcast_to(np.asarray(readout["p10"], float), (L,)))


def _correlation_excess(values, z, s):
    """How far |C - z z^T| exceeds the bound SIGMA_K-sigma errors on z allow."""
    k = SIGMA_K
    bound = k * (np.outer(s, np.abs(z)) + np.outer(np.abs(z), s)) + k * k * np.outer(s, s)
    return float((np.abs(values - np.outer(z, z)) - bound).max())


def _series_expected(name, n, N):
    if name == "P0":
        return n[:, 0]
    if name == "R2n":
        return n @ np.arange(n.shape[1])
    if name == "nE":
        return (n[:, 0] + n[:, -1]) / 2
    return -np.log(np.sum((n / N) ** 2, axis=1) / N)  # S2, natural log


def check_record(rec: dict) -> list[str]:
    """Names of the checks this emitted record fails (empty when it passes)."""
    cfg = rec["config"]
    model, occupied = cfg["model"], cfg["initial_occupations"]
    L, N, steps = model["L"], len(occupied), cfg["steps"]
    times = np.asarray(rec["times"], float)
    if times.shape != (steps + 1,) or np.abs(times - cfg["t_max"] / steps * np.arange(steps + 1)).max() > 1e-12:
        return ["times"]
    ref = Reference(model, occupied)
    exact = ref.sector.densities(ref.exact_states(times))
    trotter = ref.sector.densities(ref.trotter_states(cfg["t_max"], steps, cfg["scheme"]))
    sources = [EXACT, TROTTER]
    if cfg["shots"] > 0:
        sources += [SAMPLED, MITIGATED] if cfg["mitigation"] else [SAMPLED]
    if sorted(rec["profiles"]) != sorted(sources):
        return ["sources"]

    p01, p10 = _rates(cfg["readout"], L)
    measured = trotter * (1 - p10) + (1 - trotter) * p01
    sigma = np.sqrt(measured * (1 - measured) / max(cfg["shots"], 1))
    scale = 1 - p01 - p10
    # per source: expected density and its allowed deviation
    expected = {EXACT: (exact, EXACT_TOL), TROTTER: (trotter, EXACT_TOL),
                SAMPLED: (measured, SIGMA_K * sigma + 1e-12),
                MITIGATED: (trotter, SIGMA_K * sigma / scale + 1e-12)}
    want_corr = "correlation" in cfg["outputs"]
    failures = []
    for src in sources:
        dens = np.asarray(rec["profiles"][src], float)
        target, tol = expected[src]
        if dens.shape != (steps + 1, L) or np.any(np.abs(dens - target) > tol):
            failures.append(f"{src} density")
            continue
        if src in (EXACT, TROTTER) and np.abs(dens.sum(axis=1) - N).max() > EXACT_TOL:
            failures.append(f"{src} particle number")
        for name, values in rec["series"].get(src, {}).items():
            if np.abs(np.asarray(values) - _series_expected(name, dens, N)).max() > SERIES_TOL:
                failures.append(f"{src} {name}")
        mats = rec["correlations"].get(src, [])
        if want_corr != bool(mats) or (mats and len(mats) != steps + 1):
            failures.append(f"{src} correlation")
            continue
        for step, mat in enumerate(mats):
            values = np.asarray(mat["values"], float)
            z = 1 - 2 * target[step]
            if src in (EXACT, TROTTER):
                ok = np.abs(values - np.outer(z, z)).max() <= EXACT_TOL
            else:
                s = 2 * sigma[step] / (scale if src == MITIGATED else 1.0)
                ok = _correlation_excess(values, z, s) <= 1e-12
            if not ok:
                failures.append(f"{src} correlation")
                break
    return failures


def read_and_check(path: str | None) -> tuple[list[str], int]:
    """Failed check names and the number of time points of one output file."""
    if path is None or not os.path.isfile(path):
        return ["output file missing"], 0
    with open(path) as fh:
        rec = json.load(fh)
    return check_record(rec), len(rec["times"])


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    """Inputs of one workload, its warm-up, one pass and its output files."""

    def __init__(self, aahwalk, out_dir: str):
        self.cli, self.experiment = aahwalk.cli, aahwalk.experiment
        self.out_dir = os.path.join(out_dir, "pass")
        self.warm_dir = os.path.join(out_dir, "warmup")

    def clear_outputs(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)

    @staticmethod
    def attempt(fn, *args):
        """fn(*args); None, with the traceback on stderr, if the program raises.

        The operation then counts as failed instead of ending the run.
        """
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            return None

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> None:
        raise NotImplementedError

    def outputs(self) -> list[str | None]:
        """The output file of every operation of the last pass."""
        raise NotImplementedError


class ApiWorkload(Workload):
    """Configs that go through experiment.run() then experiment.emit()."""

    configs: list[dict]
    warm_config: dict

    def __init__(self, aahwalk, out_dir):
        super().__init__(aahwalk, out_dir)
        parse = self.experiment.config_from_dict
        self.parsed = [parse(d) for d in self.configs]
        self.warm = parse(self.warm_config)
        self.written: list[list[str] | None] = []

    def warm_up(self):
        self.experiment.emit(self.experiment.run(self.warm), "json", self.warm_dir, stem="warm")

    def _operation(self, k, cfg):
        experiment = self.experiment
        return experiment.emit(experiment.run(cfg), "json", self.out_dir, stem=f"op{k:02d}")

    def run_pass(self):
        self.written = [self.attempt(self._operation, k, cfg) for k, cfg in enumerate(self.parsed)]

    def outputs(self):
        return [paths[0] if paths and len(paths) == 1 else None for paths in self.written]


class SampledMitigated(ApiWorkload):
    """L=8 runs with 8192 shots, 3 % readout flips and mitigation."""

    name = "sampled-mitigated"

    def __init__(self, aahwalk, out_dir, seed):
        rng = random.Random(seed)
        flips = {"p01": 0.03, "p10": 0.03}

        def sampled(occupied, lam, phi, V, t_max, seed, **kw):
            return _config(8, occupied, lam, phi, V, t_max, 24, shots=8192,
                           readout=flips, seed=seed, **kw)

        def draw_seed():
            return rng.randrange(1, 1_000_000)

        self.configs = [
            # edge localization of a walker started on the first site
            sampled([0], rng.uniform(0.6, 0.95), 0.0, 0.0, 5.0, draw_seed()),
            # phase-steered edge: walker started on the last site
            sampled([7], rng.uniform(0.6, 0.95), rng.uniform(0.0, math.pi), 0.0, 5.0,
                    draw_seed()),
            # interacting edge shielding: edge walker beside a bulk walker
            sampled([0, 3], 0.9, 0.0, rng.uniform(1.0, 3.0), 5.0, draw_seed()),
            # interaction-bound pair, faithful interaction
            sampled([3, 4], rng.uniform(0.0, 0.9), 0.0, rng.uniform(1.5, 3.0), 3.0,
                    draw_seed(), flavor="exact-jw"),
            # bound pair with correlations; fixed, so its known fault shows
            # on every seed alike
            sampled([3, 4], 0.9, 0.0, 2.0, 3.0, 7, outputs=["density", "correlation"]),
        ]
        self.warm_config = dict(self.configs[-1], steps=2)
        super().__init__(aahwalk, out_dir)


class TrotterLong(ApiWorkload):
    """Long noiseless Trotter runs of an L=8 exact-jw bound pair."""

    name = "trotter-long"

    def __init__(self, aahwalk, out_dir, seed):
        rng = random.Random(seed)
        interactions = sorted(rng.uniform(1.0, 3.0) for _ in range(3))
        self.configs = [_config(8, [3, 4], 0.9, 0.0, V, 10.0, 200, flavor="exact-jw",
                                scheme=scheme)
                        for V in interactions for scheme in SCHEMES]
        self.warm_config = dict(self.configs[0], steps=2)
        super().__init__(aahwalk, out_dir)


class PresetSuite(Workload):
    """Every preset from fig3 to fig13 through the command line."""

    name = "preset-suite"

    def __init__(self, aahwalk, out_dir, seed):
        super().__init__(aahwalk, out_dir)
        rng = random.Random(seed)
        self.order = list(PRESETS)
        rng.shuffle(self.order)
        self.argv = [["preset", name, "--format", "json", "--out", self.out_dir,
                      "--seed", str(rng.randrange(1, 1_000_000))] for name in self.order]
        self.codes: list[int | None] = []

    def warm_up(self):
        # one L=10 run (dense build and eigh at the largest size) and the
        # command-line path on the smallest preset
        experiment = self.experiment
        experiment.run(experiment.config_from_dict(_config(10, [0], 0.5, 0.0, 0.0, 5.0, 1)))
        self.cli.main(["preset", "fig5", "--format", "json", "--out", self.warm_dir])

    def run_pass(self):
        cli = self.cli
        self.codes = [self.attempt(cli.main, argv) for argv in self.argv]

    def outputs(self):
        paths = []
        for name, code in zip(self.order, self.codes):
            for i in range(PRESETS[name]):
                path = os.path.join(self.out_dir, f"{name}_{i:03d}.json")
                paths.append(path if code == 0 else None)
        return paths


WORKLOADS = {w.name: w for w in (PresetSuite, SampledMitigated, TrotterLong)}
