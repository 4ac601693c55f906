"""Seeded input generator for the dotmol benchmark.

Every workload is a list of invocations; each invocation is one config
file (plus, for circuits, one circuit file) that the CLI reads. The same
(workload, seed) always writes the same bytes. Gate mixes are exact
counts shuffled by the seed, so every seed asks for the same amount of
kernel work and only placement and angles vary.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

BELL_INPUTS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
BELL_TRIALS = 1000

SIMULATE_GRID = (4, 4)
SIMULATE_GATES = {"h": 120, "z": 45, "xz": 30, "cnot": 60, "cz": 45}
SIMULATE_MEASURES = 4

COMPILE_GRID = (12, 12)
COMPILE_GATES = {"h": 7840, "z": 2940, "xz": 1960, "cnot": 3920, "cz": 2940,
                 "measure": 200, "bell": 200}

WORKLOADS = ("bell", "simulate", "compile")


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its config path and what the checker needs to know."""

    name: str
    config: Path
    kind: str                    # bell | simulate | compile
    work: int                    # trials or gates
    grid: tuple[int, int] | None = None
    circuit: tuple[tuple, ...] = ()
    bell_input: str | None = None


def grid_pairs(rows: int, cols: int) -> list[tuple[int, int]]:
    """Adjacent (i, j), i < j, on a row-major grid with diagonal neighbours."""
    pairs = []
    for i in range(rows * cols):
        r, c = divmod(i, cols)
        for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < rows and 0 <= cc < cols:
                pairs.append((i, rr * cols + cc))
    return pairs


def random_circuit(rng: random.Random, rows: int, cols: int,
                   counts: dict[str, int]) -> list[tuple]:
    """Gates as tuples: (op, qubits...) with angles for z and xz."""
    n = rows * cols
    pairs = grid_pairs(rows, cols)
    kinds = [k for k, c in counts.items() for _ in range(c)]
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        if kind in ("h", "measure"):
            gates.append((kind, rng.randrange(n)))
        elif kind == "z":
            gates.append((kind, rng.randrange(n), rng.uniform(-math.pi, math.pi)))
        elif kind == "xz":
            gates.append((kind, rng.randrange(n), rng.uniform(0.0, math.pi),
                          rng.uniform(-math.pi, math.pi)))
        else:
            i, j = rng.choice(pairs)
            if rng.random() < 0.5:
                i, j = j, i
            gates.append((kind, i, j))
    return gates


def circuit_text(gates) -> str:
    lines = []
    for gate in gates:
        op, args = gate[0].upper(), gate[1:]
        lines.append(" ".join([op, *(repr(a) for a in args)]))
    return "\n".join(lines) + "\n"


def _grid_topology(rows: int, cols: int) -> dict:
    return {"kind": "grid", "rows": rows, "cols": cols, "diagonal": True}


def write_inputs(directory: Path, name: str, config: dict, gates=None) -> Path:
    if gates is not None:
        (directory / f"{name}.txt").write_text(circuit_text(gates))
        config["scenario"]["circuit"] = f"{name}.txt"
    path = directory / f"{name}.json"
    path.write_text(json.dumps(config, indent=1, sort_keys=True))
    return path


def generate(workload: str, seed: int, directory: Path) -> list[Invocation]:
    """Write the workload's inputs under directory; return its invocations."""
    rng = random.Random(f"dotmol-bench/{workload}/{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "bell":
        out = []
        for label in BELL_INPUTS:
            config = {"geometry": {"topology": {"kind": "line", "n": 2}},
                      "seed": rng.randrange(2 ** 31),
                      "scenario": {"kind": "bell", "input": label,
                                   "trials": BELL_TRIALS}}
            out.append(Invocation(f"bell_{label}", write_inputs(directory, f"bell_{label}", config),
                                  "bell", BELL_TRIALS, bell_input=label))
        return out
    if workload == "simulate":
        rows, cols = SIMULATE_GRID
        gates = random_circuit(rng, rows, cols, SIMULATE_GATES)
        measured = rng.sample(range(rows * cols), SIMULATE_MEASURES)
        gates += [("measure", m) for m in measured]
        config = {"geometry": {"topology": _grid_topology(rows, cols)},
                  "seed": rng.randrange(2 ** 31),
                  "scenario": {"kind": "simulate"}}
        return [Invocation("simulate", write_inputs(directory, "simulate", config, gates),
                           "simulate", len(gates), grid=SIMULATE_GRID,
                           circuit=tuple(gates))]
    if workload == "compile":
        rows, cols = COMPILE_GRID
        gates = random_circuit(rng, rows, cols, COMPILE_GATES)
        config = {"geometry": {"topology": _grid_topology(rows, cols)},
                  "scenario": {"kind": "compile"}}
        return [Invocation("compile", write_inputs(directory, "compile", config, gates),
                           "compile", len(gates), grid=COMPILE_GRID,
                           circuit=tuple(gates))]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
