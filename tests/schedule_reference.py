"""Pairwise schedule packing and all-pairs validation, as the package ran
them before per-step neighbour sets.

`compile_circuit` rebuilt each step's molecule set on every fit test and
walked every displaced-by-displaced pair against the adjacency set;
`validate_program` walked every pair of actions in a step, rotations
included; `init_schedule` coloured the molecules greedily in index order.
They are copied here so the packing, findings and colours of
dotmol.scheduler can be checked against them on the same inputs.

`reference_simulate_program` is the simulator as it ran before it owned
one buffer with a lazily permuted molecule order: every operation goes
through the public kernels and builds a new state in canonical order.
It skips a heralded action (a BELL's round two) unless the last
unheralded pair read on each of its molecules gave I_mid, as the
package's executor does. The in-place simulator must match its
amplitudes bit for bit.

`reference_to_json` and `reference_from_json` are the schedule encoder and
decoder the package carried as `ScheduleProgram.to_json` and `from_json`
before the CLI wrote schedules straight from the program. The encoder is
the dict tree whose `json.dumps(..., sort_keys=True, indent=2)` the CLI's
writer must match byte for byte. `state_json` is the matching list of
(re, im) amplitude pairs that the package carried as `register.state_json`.

`reference_time_budget` is `time_budget` as it ran on numpy scalars: the
step starts came from `np.concatenate` over `np.cumsum`, so every end
time, elapsed value and read end was a numpy float, and each running
latest end was kept with `max()` over mixed numpy and Python scalars.
The package now walks the same cumulative sums as Python floats and
compares with `>`; its report must match this one value for value, down
to `float.hex`, with the same key order.

`align_global_phase` and `states_equal` compare states up to a global
phase; the package exported them before it kept only the names its own
code calls.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from dotmol.electrostatics import LayoutGeometry, Topology
from dotmol.measurement import QPC_CURRENTS, _measurement_sweep, _sampler, qpc_read
from dotmol.physics import MoleculeParams, full_sweep
from dotmol.register import (EncodedRegisterState, Rotation, apply_rotation,
                             ising_phase, phase_from_waveform, product_state)
from dotmol.scheduler import (ECHO_FACTOR, READ_LIMIT_MESSAGE, Action, BudgetReport,
                              BudgetViolation, CompileError, RuleViolation,
                              ScheduleProgram, ScheduleStep, _gate_pulse, _gate_ramp,
                              _lower, _reset_to_singlet)


def init_schedule(topology: Topology, params: MoleculeParams | None = None) -> ScheduleProgram:
    """Parallel initialization by greedy coloring of the adjacency graph.

    Each molecule loads a doubly occupied singlet and sweeps to (1,1);
    adjacent molecules must not do so in the same step, so the step count
    is the greedy color count: 2 on a line, 4 on a diagonal-adjacency grid
    (2 edge-only), scanning molecules in index order.
    """
    neighbors = topology.neighbor_table()
    colors: dict[int, int] = {}
    for m in range(topology.size):
        taken = {colors[o] for o in neighbors[m] if o in colors}
        color = 0
        while color in taken:
            color += 1
        colors[m] = color
    ramp = 1.0
    if params is not None:
        ramp = _gate_ramp(params)
    steps = []
    for color in range(max(colors.values(), default=-1) + 1):
        members = [m for m in sorted(colors) if colors[m] == color]
        steps.append(ScheduleStep(tuple(
            Action("init", (m,), duration=ramp, ramp=ramp) for m in members)))
    return ScheduleProgram(tuple(steps), topology.size)


def compile_circuit(gates, g: LayoutGeometry, params: MoleculeParams) -> ScheduleProgram:
    """Pack a gate list into a conflict-free schedule.

    Gates keep their data order per molecule; independent actions pack into
    the earliest step that satisfies the exclusion rules. Two-molecule
    gates on non-adjacent molecules are compile errors (no routing). Bell
    measurements schedule both rounds (the static worst case).
    """
    size = g.topology.size
    adjacency = g.topology.adjacency()
    for gate in gates:
        if any(q < 0 or q >= size for q in gate.qubits):
            raise CompileError(f"{gate.kind} on {gate.qubits} is out of range "
                               f"for {size} molecules")
        if len(gate.qubits) == 2:
            pair = (min(gate.qubits), max(gate.qubits))
            if pair not in adjacency:
                raise CompileError(
                    f"{gate.kind} on non-adjacent molecules {gate.qubits}; "
                    "routing is not supported, rewrite the circuit")

    gate_ramp = gate_hold = None
    meas_ramp = None
    actions = []
    for action in _lower(gates, g, params):
        if action.kind == "sweep_pair":
            if gate_ramp is None:
                gate_ramp, gate_hold = _gate_pulse(g, params)
            action = replace(action, ramp=gate_ramp, hold=gate_hold,
                             duration=2.0 * gate_ramp + gate_hold)
        elif action.kind in ("read_single", "read_pair"):
            if meas_ramp is None:
                meas_ramp, _ = _measurement_sweep(g, params)
            action = replace(action, ramp=meas_ramp,
                             duration=2.0 * meas_ramp + action.read_duration)
        actions.append(action)

    steps: list[list[Action]] = []
    frontier = [0] * size
    for action in actions:
        earliest = max((frontier[m] for m in action.molecules), default=0)
        placed = None
        for s in range(earliest, len(steps)):
            if _fits(steps[s], action, adjacency):
                placed = s
                break
        if placed is None:
            steps.append([])
            placed = len(steps) - 1
        steps[placed].append(action)
        for m in action.molecules:
            frontier[m] = placed + 1
    return ScheduleProgram(tuple(ScheduleStep(tuple(s)) for s in steps), size)


def _fits(step: list[Action], action: Action, adjacency) -> bool:
    used = {m for a in step for m in a.molecules}
    if used & set(action.molecules):
        return False
    # Reads are sensitive to any nearby charge motion: they get their own step.
    if action.kind in ("read_single", "read_pair") and step:
        return False
    if any(a.kind in ("read_single", "read_pair") for a in step):
        return False
    for other in step:
        for x in action.displaced:
            for y in other.displaced:
                if (min(x, y), max(x, y)) in adjacency:
                    return False
    return True


def validate_program(program: ScheduleProgram,
                     adjacency: frozenset[tuple[int, int]]) -> list[RuleViolation]:
    """Check the charge exclusion rules; returns findings, never raises."""
    out: list[RuleViolation] = []
    for s, step in enumerate(program.steps):
        seen: dict[int, int] = {}
        for k, action in enumerate(step.actions):
            for m in action.molecules:
                if m < 0 or m >= program.molecule_count:
                    out.append(RuleViolation(s, "molecule-out-of-range", (m,),
                                             f"step {s}: molecule {m} does not exist"))
                if m in seen:
                    out.append(RuleViolation(s, "overlapping-actions", (m,),
                                             f"step {s}: molecule {m} is in two actions"))
                seen[m] = k
        for a_idx in range(len(step.actions)):
            for b_idx in range(a_idx + 1, len(step.actions)):
                a, b = step.actions[a_idx], step.actions[b_idx]
                close = [(x, y) for x in a.displaced for y in b.displaced
                         if (min(x, y), max(x, y)) in adjacency]
                if not close:
                    continue
                if a.kind == "read_single" and b.kind == "read_single":
                    rule, text = "adjacent-read", "simultaneous single-molecule reads"
                elif a.kind == "init" and b.kind == "init":
                    rule, text = "adjacent-init", "simultaneous initializations"
                else:
                    rule, text = "unintended-02-adjacency", \
                        "charge-displaced molecules of different actions"
                pairs = ", ".join(f"{x}-{y}" for x, y in close)
                out.append(RuleViolation(s, rule, tuple(sorted(
                    {m for xy in close for m in xy})),
                    f"step {s}: {text} on adjacent molecules {pairs}"))
    return out


def reference_time_budget(program: ScheduleProgram, params: MoleculeParams,
                          echo: bool = False) -> BudgetReport:
    """Per-molecule wall time from initialization to last action vs T2.

    The coherence limit is coherence_time, times ECHO_FACTOR when the echo
    flag is set. Beyond the elapsed-time check, at most one QPC read fits
    in a coherence window: two reads whose span overruns one window from
    the molecule's start are flagged.
    """
    limit = params.coherence_time * (ECHO_FACTOR if echo else 1.0)
    starts = np.concatenate([[0.0], np.cumsum([s.duration for s in program.steps])])
    window_start: dict[int, float] = {}
    last_end: dict[int, float] = {}
    read_ends: dict[int, list[float]] = {}
    for s, step in enumerate(program.steps):
        for action in step.actions:
            end = starts[s] + action.duration
            for m in action.molecules:
                if action.kind == "init":
                    window_start[m] = max(window_start.get(m, 0.0), end)
                last_end[m] = max(last_end.get(m, 0.0), end)
                if action.kind in ("read_single", "read_pair"):
                    read_ends.setdefault(m, []).append(end)

    elapsed, read_counts = {}, {}
    violations = []
    for m in sorted(last_end):
        t0 = window_start.get(m, 0.0)
        elapsed[m] = last_end[m] - t0
        read_counts[m] = len(read_ends.get(m, []))
        if elapsed[m] > limit:
            violations.append(BudgetViolation(
                m, "coherence-budget",
                f"molecule {m} is busy for {elapsed[m]:.3g} ns, over the "
                f"{limit:.3g} ns coherence window"))
        if read_counts[m] >= 2 and max(read_ends[m]) - t0 > limit:
            violations.append(BudgetViolation(m, "qpc-read-limit",
                                              READ_LIMIT_MESSAGE))
    return BudgetReport(limit, elapsed, read_counts, tuple(violations))


def reference_simulate_program(program: ScheduleProgram, g: LayoutGeometry,
                               params: MoleculeParams,
                               draw=None) -> tuple[EncodedRegisterState, list[dict]]:
    """Execute a schedule against the encoded register model.

    sweep_pair applies its intended Ising phase; reads sample through the
    QPC model, one draw() each (draw required if the program contains
    any). Returns the final state and an event record per measurement.
    """
    state = product_state("S" * program.molecule_count)
    adjacency = g.topology.adjacency()
    events: list[dict] = []
    heard: dict[int, str] = {}
    for s, step in enumerate(program.steps):
        for action in step.actions:
            if action.heralded and any(heard.get(m) != "I_mid" for m in action.molecules):
                continue
            if action.kind == "init":
                state = _reset_to_singlet(state, action.molecules[0])
            elif action.kind == "rotate":
                state = apply_rotation(state, action.molecules[0], action.rotation)
            elif action.kind == "sweep_pair":
                i, j = action.molecules
                state = ising_phase(state, i, j, action.phase, adjacency)
            elif action.kind == "read_single":
                if draw is None:
                    raise ValueError("program contains reads; draw required")
                outcome, state = qpc_read(state, action.molecules, _sampler(draw))
                events.append({"step": s, "kind": "read_single",
                               "molecules": list(action.molecules),
                               "outcome": outcome})
            elif action.kind == "read_pair":
                if draw is None:
                    raise ValueError("program contains reads; draw required")
                i, j = action.molecules
                sweep_phi = 0.0
                if action.ramp > 0.0:
                    sweep_phi = phase_from_waveform(full_sweep(params, action.ramp), g,
                                                    params.tunnel_coupling)
                level, state = qpc_read(ising_phase(state, i, j, sweep_phi, adjacency),
                                        (i, j), _sampler(draw))
                state = ising_phase(state, i, j, sweep_phi, adjacency)
                if not action.heralded:
                    heard[i] = heard[j] = level
                events.append({"step": s, "kind": "read_pair",
                               "molecules": list(action.molecules),
                               "level": level,
                               "current": QPC_CURRENTS[level]})
            else:
                raise ValueError(f"unknown action kind {action.kind!r}")
    return state, events


def reference_to_json(program: ScheduleProgram) -> dict:
    def action_json(a: Action) -> dict:
        out = {"kind": a.kind, "molecules": list(a.molecules),
               "duration_ns": a.duration}
        if a.rotation is not None:
            out["rotation"] = {"kind": a.rotation.kind, "angle": a.rotation.angle,
                               "axis_angle": a.rotation.axis_angle,
                               "duration_ns": a.rotation.duration}
        for key in ("ramp", "hold", "read_duration"):
            if getattr(a, key):
                out[f"{key}_ns"] = getattr(a, key)
        if a.phase is not None:
            out["phase"] = a.phase
        if a.heralded:
            out["heralded"] = True
        return out
    return {"molecule_count": program.molecule_count,
            "steps": [{"duration_ns": s.duration,
                       "actions": [action_json(a) for a in s.actions]}
                      for s in program.steps]}


def reference_from_json(data: dict) -> ScheduleProgram:
    steps = []
    for step in data["steps"]:
        actions = []
        for a in step["actions"]:
            rot = None
            if "rotation" in a:
                r = a["rotation"]
                rot = Rotation(r["kind"], angle=r.get("angle", 0.0),
                               axis_angle=r.get("axis_angle", 0.0),
                               duration=r.get("duration_ns", 0.0))
            actions.append(Action(
                kind=a["kind"], molecules=tuple(a["molecules"]),
                duration=a["duration_ns"], rotation=rot,
                ramp=a.get("ramp_ns", 0.0), hold=a.get("hold_ns", 0.0),
                phase=a.get("phase"), read_duration=a.get("read_duration_ns", 0.0),
                heralded=a.get("heralded", False)))
        steps.append(ScheduleStep(tuple(actions)))
    return ScheduleProgram(tuple(steps), data["molecule_count"])


def state_json(state: EncodedRegisterState) -> list[list[float]]:
    """Amplitudes as (re, im) pairs, basis index in row-major molecule order."""
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]


def align_global_phase(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return b rotated by the global phase that best matches a."""
    overlap = np.vdot(b, a)
    if abs(overlap) == 0.0:
        return b.copy()
    return b * (overlap / abs(overlap))


def states_equal(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Amplitude-wise equality up to a global phase."""
    return bool(np.max(np.abs(np.asarray(a) - align_global_phase(a, np.asarray(b)))) <= tol)
