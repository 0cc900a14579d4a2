"""Command-line interface.

Exit codes: 0 success, 2 config error, 3 resource limit, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .circuit import Circuit, Gate, KIND_X, lower, trotter_circuit, export_qasm
from .errors import ConfigError, ResourceLimitError
from .exact import (MAX_SECTOR_STATES, sector_basis, sector_hamiltonian,
                    single_particle_hamiltonian, spectrum, spectrum_csv)
from .experiment import (PRESET_NAMES, SWEEP_AXES, config_from_dict, emit, preset_configs, run,
                         sweep, write_file)
from .model import FLAVORS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_IO = 4
MAX_QASM_GATES = MAX_SECTOR_STATES**2 // 64  # most gates (one QASM line each) of an export


def _load_config(path: str, args) -> "ExperimentConfig":
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, an int of too many digits
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return _override(config_from_dict(data), args)


def _override(cfg: "ExperimentConfig", args) -> "ExperimentConfig":
    """Apply the --seed and --flavor options."""
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.flavor is not None:
        cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, flavor=args.flavor))
    return cfg


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--flavor", choices=FLAVORS, default=None)


@functools.cache  # built once: main may be called many times in one process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aahwalk",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a single experiment config")
    p.add_argument("config")
    _add_common(p)

    p = sub.add_parser("sweep", help="sweep one model parameter")
    p.add_argument("config")
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated list, e.g. 0,0.5,0.9")
    _add_common(p)

    p = sub.add_parser("preset", help="run a named scenario preset")
    p.add_argument("name", choices=PRESET_NAMES)
    _add_common(p)

    p = sub.add_parser("export-qasm", help="emit the Trotter circuit as OpenQASM 2.0")
    p.add_argument("config")
    p.add_argument("--out", default="-", help="output file ('-' = stdout)")
    p.add_argument("--flavor", choices=FLAVORS, default=None)

    p = sub.add_parser("spectrum", help="dump the Hamiltonian spectrum as CSV")
    p.add_argument("config")
    p.add_argument("--single-particle", action="store_true",
                   help="diagonalize the L x L one-particle sector instead")
    p.add_argument("--out", default="-", help="output file ('-' = stdout)")
    p.add_argument("--flavor", choices=FLAVORS, default=None)
    return parser


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        write_file(path, [text])


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load_config(args.config, args)
            emit(run(cfg), args.format, args.out)
        elif args.command == "sweep":
            cfg = _load_config(args.config, args)
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"--values: {exc}") from exc
            if not values:
                raise ConfigError("--values: no values")
            records = sweep(cfg, args.axis, values)
            emit(records, args.format, args.out, stem=f"sweep_{args.axis}")
        elif args.command == "preset":
            records = [run(_override(c, args)) for c in preset_configs(args.name)]
            emit(records, args.format, args.out, stem=args.name)
        elif args.command == "export-qasm":
            cfg = _load_config(args.config, args)
            # NOT gates on the initially occupied sites, then steps copies of one lowered step
            prep = [Gate(KIND_X, (s,)) for s in cfg.initial_occupations]
            step = lower(trotter_circuit(cfg.model, cfg.t_max / cfg.steps, 1, cfg.scheme)).gates
            if cfg.steps > (most := (MAX_QASM_GATES - len(prep)) // len(step)):
                raise ResourceLimitError(f"steps: at most {most} at L={cfg.model.L}"
                                         f" (a circuit over {MAX_QASM_GATES} gates)")
            _write_text(args.out, export_qasm(Circuit(cfg.model.L, prep + step * cfg.steps)))
        elif args.command == "spectrum":
            cfg = _load_config(args.config, args)
            p = cfg.model  # H conserves N: its spectrum is the union over the sectors,
            # the largest (N = L // 2) first, so that the size guard fires before any eigh
            order = sorted(range(p.L + 1), key=lambda n: abs(2 * n - p.L))
            blocks = ([single_particle_hamiltonian(p)] if args.single_particle else
                      (sector_hamiltonian(p, sector_basis(p.L, n)) for n in order))
            evals = np.sort(np.concatenate([spectrum(H).eigenvalues for H in blocks]))
            _write_text(args.out, spectrum_csv(evals))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
