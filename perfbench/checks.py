"""Output checks that do not trust dotmol.

Each checker takes the invocation (what was asked for) and the bytes the
program wrote, and returns a list of problems; an empty list means the
output is correct. None of them imports dotmol: the simulate check carries
its own ideal-gate state vector, the compile check its own lowering and
exclusion rules, the bell check only counts records.
"""
from __future__ import annotations

import json
import math

import numpy as np

from gen import Invocation, grid_pairs

PHI_CLASSES = ("tt_or_phi_sector", "ss_or_phi_sector")
READ_KINDS = ("read_single", "read_pair")
DISPLACING_KINDS = ("init", "sweep_pair", "read_single", "read_pair")
AMPLITUDE_TOL = 1e-9

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def check(inv: Invocation, exit_code: int, output: bytes) -> list[str]:
    """Problems with one invocation's result; [] when it is correct."""
    expected = (0,) if inv.kind == "bell" else (0, 3)
    if exit_code not in expected:
        return [f"{inv.name}: exit code {exit_code}, expected one of {expected}"]
    try:
        if inv.kind == "bell":
            records = [json.loads(line) for line in output.decode().splitlines()]
            return check_bell(inv.bell_input, inv.work, records)
        payload = json.loads(output)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"{inv.name}: output is not JSON: {exc}"]
    if inv.kind == "simulate":
        return check_simulate(inv.grid, inv.circuit, payload)
    return check_compile(inv.grid, inv.circuit, payload)


# --- bell ---

def check_bell(label: str, trials: int, records: list[dict]) -> list[str]:
    """Psi inputs always name themselves; Phi inputs stop after one read
    and split between the two Phi-sector outcomes as a fair coin would."""
    problems = []
    if len(records) != trials:
        problems.append(f"bell {label}: {len(records)} records for {trials} trials")
    tt = 0
    for k, rec in enumerate(records):
        where = f"bell {label} record {k}"
        if rec.get("trial") != k or rec.get("input") != label:
            problems.append(f"{where}: trial/input fields {rec.get('trial')!r}/"
                            f"{rec.get('input')!r}")
        elif label.startswith("psi"):
            if rec.get("round2") is None or rec.get("classification") != label:
                problems.append(f"{where}: psi input classified as "
                                f"{rec.get('classification')!r}")
        elif rec.get("round2") is not None or rec.get("classification") not in PHI_CLASSES:
            problems.append(f"{where}: phi input went past round one or was "
                            f"classified as {rec.get('classification')!r}")
        else:
            tt += rec["classification"] == "tt_or_phi_sector"
        if len(problems) >= 5:
            return problems
    if label.startswith("phi") and records:
        n = len(records)
        if abs(tt - n / 2.0) > 5.0 * math.sqrt(n) / 2.0:
            problems.append(f"bell {label}: {tt} of {n} trials in the tt sector, "
                            "outside 5 sigma of one half")
    return problems


# --- simulate ---

def _rotation(gate: tuple) -> np.ndarray:
    op = gate[0]
    if op == "h":
        return _H
    if op == "z":
        axis, angle = 0.0, gate[2]
    else:
        axis, angle = gate[2], gate[3]
    generator = math.sin(axis) * _X + math.cos(axis) * _Z
    return math.cos(angle / 2.0) * np.eye(2) - 1j * math.sin(angle / 2.0) * generator


def reference_state(n: int, circuit, outcomes: dict[int, str]) -> np.ndarray:
    """Ideal gates on |S...S> (molecule 0 most significant, T=0, S=1);
    MEASURE projects on the recorded outcome of that molecule."""
    psi = np.zeros(2 ** n, dtype=complex)
    psi[-1] = 1.0

    def view(m):
        return psi.reshape(2 ** m, 2, 2 ** (n - m - 1))

    def rotate(m, u):
        v = view(m)
        v[:] = np.einsum("ab,xby->xay", u, v)

    def cz(i, j):
        i, j = min(i, j), max(i, j)
        v = psi.reshape(2 ** i, 2, 2 ** (j - i - 1), 2, 2 ** (n - j - 1))
        v[:, 1, :, 1, :] *= -1.0

    for gate in circuit:
        op = gate[0]
        if op in ("h", "z", "xz"):
            rotate(gate[1], _rotation(gate))
        elif op == "cz":
            cz(gate[1], gate[2])
        elif op == "cnot":
            rotate(gate[2], _H)
            cz(gate[1], gate[2])
            rotate(gate[2], _H)
        elif op == "measure":
            m = gate[1]
            keep = 1 if outcomes[m] == "S" else 0
            view(m)[:, 1 - keep, :] = 0.0
            norm = np.linalg.norm(psi)
            if norm < 1e-6:
                raise ValueError(f"recorded outcome {outcomes[m]} on molecule {m} "
                                 "has zero probability")
            psi /= norm
        else:
            raise ValueError(f"reference has no gate {op!r}")
    return psi


def check_simulate(grid, circuit, payload: dict) -> list[str]:
    n = grid[0] * grid[1]
    measured = [g[1] for g in circuit if g[0] == "measure"]
    reads = [e for e in payload.get("events", []) if e.get("kind") == "read_single"]
    if sorted(e["molecules"][0] for e in reads) != sorted(measured):
        return [f"simulate: read events on {[e['molecules'] for e in reads]}, "
                f"circuit measures {measured}"]
    outcomes = {e["molecules"][0]: e["outcome"] for e in reads}
    try:
        expected = reference_state(n, circuit, outcomes)
    except ValueError as exc:
        return [f"simulate: {exc}"]
    got = np.array([complex(re, im) for re, im in payload.get("final_state", [])])
    if got.shape != expected.shape:
        return [f"simulate: {got.size} amplitudes, expected {expected.size}"]
    overlap = np.vdot(got, expected)
    if abs(overlap) > 0.0:
        got = got * (overlap / abs(overlap))
    err = float(np.max(np.abs(got - expected)))
    if err > AMPLITUDE_TOL:
        return [f"simulate: final state differs from the reference by {err:.3g}"]
    return []


# --- compile ---

def lower(circuit) -> list[tuple]:
    """Circuit gates as the primitive actions the compiler must emit:
    (kind, molecules, rotation) with rotation (kind, angle, axis_angle)."""
    hadamard = ("hadamard", 0.0, 0.0)
    out = []
    for gate in circuit:
        op = gate[0]
        if op == "h":
            out.append(("rotate", (gate[1],), hadamard))
        elif op == "z":
            out.append(("rotate", (gate[1],), ("uz", gate[2], 0.0)))
        elif op == "xz":
            out.append(("rotate", (gate[1],), ("uxz", gate[3], gate[2])))
        elif op == "cz":
            out.append(("sweep_pair", gate[1:], None))
        elif op == "cnot":
            out += [("rotate", (gate[2],), hadamard), ("sweep_pair", gate[1:], None),
                    ("rotate", (gate[2],), hadamard)]
        elif op == "measure":
            out.append(("read_single", gate[1:], None))
        elif op == "bell":
            i, j = gate[1:]
            out += [("read_pair", (i, j), None), ("rotate", (i,), hadamard),
                    ("rotate", (j,), hadamard), ("read_pair", (i, j), None)]
    return out


def _signature(action: dict) -> tuple:
    rot = action.get("rotation")
    if rot is not None:
        rot = (rot["kind"], rot["angle"], rot["axis_angle"])
    return action["kind"], tuple(action["molecules"]), rot


def check_compile(grid, circuit, payload: dict) -> list[str]:
    """Exclusion rules, per-molecule gate order and action count."""
    schedule = payload.get("schedule", {})
    adjacent = set(grid_pairs(*grid))
    problems = []
    per_molecule: dict[int, list[tuple]] = {}
    actions = 0
    for s, step in enumerate(schedule.get("steps", [])):
        acts = step["actions"]
        actions += len(acts)
        used = [m for a in acts for m in a["molecules"]]
        if len(used) != len(set(used)):
            problems.append(f"compile step {s}: a molecule is in two actions")
        if len(acts) > 1 and any(a["kind"] in READ_KINDS for a in acts):
            problems.append(f"compile step {s}: a read shares its step")
        displaced = [a["molecules"] if a["kind"] in DISPLACING_KINDS else []
                     for a in acts]
        for x in range(len(acts)):
            for y in range(x + 1, len(acts)):
                if any((min(p, q), max(p, q)) in adjacent
                       for p in displaced[x] for q in displaced[y]):
                    problems.append(f"compile step {s}: displaced molecules of "
                                    "different actions are adjacent")
        for a in acts:
            for m in a["molecules"]:
                per_molecule.setdefault(m, []).append(_signature(a))
        if len(problems) >= 5:
            return problems
    expected = lower(circuit)
    if actions != len(expected):
        problems.append(f"compile: {actions} actions, circuit lowers to {len(expected)}")
    want: dict[int, list[tuple]] = {}
    for action in expected:
        for m in action[1]:
            want.setdefault(m, []).append(action)
    for m in sorted(set(want) | set(per_molecule)):
        if want.get(m, []) != per_molecule.get(m, []):
            problems.append(f"compile: gate order on molecule {m} is not kept")
            break
    return problems
