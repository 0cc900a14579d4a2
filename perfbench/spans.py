"""Spans around the calls into each aahwalk module, and the per-layer metrics.

The tracer replaces a function at the name its caller looks up (callers bind
their callees with ``from ... import``, so the caller's module attribute is
the one to wrap) with a wrapper that records a span: id, name, start, end
and the id of the enclosing span.  Spans stay in memory; ``write`` stores
them as JSON lines when the run ends.

Read a span file with ``python3 perfbench/spans.py FILE``: it prints, per
span name, the call count, the total time and the self time (span time minus
the time its child spans cover), summed over the file's traced passes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# Per-layer metrics in the order BENCHMARK.json lists them, with their units.
LAYER_METRICS = {
    "cli.self_s": "s",
    "experiment.run_self_s": "s",
    "experiment.emit_s": "s",
    "experiment.emit_bytes": "bytes",
    "pauli.build_s": "s",
    "pauli.builds": "count",
    "pauli.dense_bytes": "bytes",
    "exact.eigh_s": "s",
    "exact.eigh_calls": "count",
    "exact.evolve_s": "s",
    "exact.evolve_calls": "count",
    "exact.evolve_bytes": "bytes",
    "circuit.compile_s": "s",
    "circuit.gates": "count",
    "engine.apply_s": "s",
    "engine.gates_applied": "count",
    "engine.sample_s": "s",
    "engine.shots": "count",
    "engine.expectation_s": "s",
    "noise.corrupt_s": "s",
    "noise.shots_corrupted": "count",
    "noise.mitigate_s": "s",
    "observables.self_s": "s",
    "observables.profiles": "count",
    "trace.overhead_s": "s",
}


def _emit_bytes(args, kwargs, result):
    return {"experiment.emit_bytes": sum(os.path.getsize(p) for p in result)}


def _dense(args, kwargs, result):
    # the dense Hamiltonian: 16 * 4**L bytes of complex128
    return {"pauli.builds": 1, "pauli.dense_bytes": result.nbytes}


def _evolve(args, kwargs, result):
    # computed: eigenvectors.conj().T is copied (read + write), then two
    # matrix-vector products each read a dim x dim matrix
    return {"exact.evolve_calls": 1, "exact.evolve_bytes": 4 * args[0].eigenvectors.nbytes}


def _wraps(aahwalk):
    """(owner, attribute, span name, counter) for every traced call site."""
    cli, experiment = aahwalk.cli, aahwalk.experiment
    observables, noise = aahwalk.observables, aahwalk.noise
    return [
        (cli, "main", "cli.main", None),
        (cli, "run", "experiment.run", None),
        (cli, "emit", "experiment.emit", _emit_bytes),
        (cli, "preset_configs", "experiment.preset_configs", None),
        (experiment, "run", "experiment.run", None),
        (experiment, "emit", "experiment.emit", _emit_bytes),
        (experiment, "build_spin_hamiltonian", "pauli.build_spin_hamiltonian", None),
        (experiment, "to_matrix", "pauli.to_matrix", _dense),
        (experiment, "build_fermionic_hamiltonian_matrix",
         "pauli.build_fermionic_hamiltonian_matrix", _dense),
        (experiment, "spectrum", "exact.spectrum", lambda a, k, r: {"exact.eigh_calls": 1}),
        (experiment, "prepare_fock_state", "exact.prepare_fock_state", None),
        (aahwalk.exact.SpectralDecomposition, "evolve", "exact.evolve", _evolve),
        (experiment, "trotter_circuit", "circuit.trotter_circuit", None),
        (experiment, "lower", "circuit.lower", lambda a, k, r: {"circuit.gates": len(r.gates)}),
        (experiment, "apply_circuit", "engine.apply_circuit",
         lambda a, k, r: {"engine.gates_applied": len(a[1].gates)}),
        (experiment, "sample_counts", "engine.sample_counts",
         lambda a, k, r: {"engine.shots": a[1]}),
        (observables, "expectation_z", "engine.expectation_z", None),
        (observables, "counts_expectation_z", "engine.counts_expectation_z", None),
        (noise, "counts_expectation_z", "engine.counts_expectation_z", None),
        (experiment, "corrupt", "noise.corrupt",
         lambda a, k, r: {"noise.shots_corrupted": a[0].shots}),
        (observables, "mitigate_expectation_z", "noise.mitigate_expectation_z", None),
        (experiment, "density_profile", "observables.density_profile",
         lambda a, k, r: {"observables.profiles": 1}),
        (experiment, "correlation", "observables.correlation", None),
        (experiment, "edge_probability_P0", "observables.edge_probability_P0", None),
        (experiment, "radial_distribution", "observables.radial_distribution", None),
        (experiment, "edge_density_nE", "observables.edge_density_nE", None),
        (experiment, "participation_entropy", "observables.participation_entropy", None),
    ]


class Tracer:
    """Records spans while installed; counters are kept per traced pass."""

    def __init__(self, aahwalk):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._wraps = _wraps(aahwalk)
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result
        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span recorded by the benchmark itself."""
        return self._wrap(fn, name, None)(*args)

    def install(self) -> None:
        for owner, attr, name, counter in self._wraps:
            fn = getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def span_times(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Total time, self time and call count per span name."""
    total: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, name, start, end, parent in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for sid, name, start, end, parent in spans:
        self_time[name] += end - start - child[sid]
    return total, self_time, calls


def layer_self_times(spans) -> dict[str, float]:
    """Self time summed per layer (the span name's first part)."""
    out: dict[str, float] = defaultdict(float)
    for name, value in span_times(spans)[1].items():
        out[name.split(".")[0]] += value
    return dict(out)


def pass_metrics(spans, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_s)."""
    total, self_time, _ = span_times(spans)

    def tot(*names):
        return sum(total.get(n, 0.0) for n in names)

    def prefixed(table, layer):
        return sum(v for n, v in table.items() if n.startswith(layer + "."))

    metrics = {
        "cli.self_s": self_time.get("cli.main", 0.0),
        "experiment.run_self_s": self_time.get("experiment.run", 0.0),
        "experiment.emit_s": tot("experiment.emit"),
        "pauli.build_s": prefixed(total, "pauli"),
        "exact.eigh_s": tot("exact.spectrum"),
        "exact.evolve_s": tot("exact.evolve"),
        "circuit.compile_s": tot("circuit.trotter_circuit", "circuit.lower"),
        "engine.apply_s": tot("engine.apply_circuit"),
        "engine.sample_s": tot("engine.sample_counts"),
        "engine.expectation_s": tot("engine.expectation_z", "engine.counts_expectation_z"),
        "noise.corrupt_s": tot("noise.corrupt"),
        "noise.mitigate_s": tot("noise.mitigate_expectation_z"),
        "observables.self_s": prefixed(self_time, "observables"),
    }
    for name in LAYER_METRICS:
        if name not in metrics and name != "trace.overhead_s":
            metrics[name] = float(counts.get(name, 0))
    return metrics


def read(path: str) -> list[tuple[int, str, float, float, int]]:
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return [(r["id"], r["name"], r["start"], r["end"], r["parent"]) for r in rows]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/spans.py SPANS.jsonl")
    spans = read(sys.argv[1])
    total, self_time, calls = span_times(spans)
    print(f"{'span':45s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
    for name in sorted(total, key=lambda n: -self_time[n]):
        print(f"{name:45s} {calls[name]:8d} {total[name]:10.4f} {self_time[name]:10.4f}")
    print()
    for layer, value in sorted(layer_self_times(spans).items(), key=lambda kv: -kv[1]):
        print(f"layer {layer:20s} self {value:10.4f} s")
