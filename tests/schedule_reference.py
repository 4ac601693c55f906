"""Pairwise schedule packing and all-pairs validation, as the package ran
them before per-step neighbour sets.

`compile_circuit` rebuilt each step's molecule set on every fit test and
walked every displaced-by-displaced pair against the adjacency set;
`validate_program` walked every pair of actions in a step, rotations
included; `init_schedule` asked the topology for each molecule's
neighbours one call at a time. They are copied here unchanged so the
packing, findings and colours of dotmol.scheduler can be checked against
them on the same inputs.

`reference_to_json` and `reference_from_json` are the schedule encoder and
decoder the package carried as `ScheduleProgram.to_json` and `from_json`
before the CLI wrote schedules straight from the program. The encoder is
the dict tree whose `json.dumps(..., sort_keys=True, indent=2)` the CLI's
writer must match byte for byte.
"""
from __future__ import annotations

from dataclasses import replace

from dotmol.electrostatics import LayoutGeometry, Topology
from dotmol.measurement import DEFAULT_READ_DURATION_NS, _measurement_sweep
from dotmol.physics import MoleculeParams
from dotmol.register import Rotation
from dotmol.scheduler import (Action, CompileError, RuleViolation, ScheduleProgram,
                              ScheduleStep, _gate_pulse, _gate_ramp, _lower)


def init_schedule(topology: Topology, params: MoleculeParams | None = None,
                  safety_factor: float = 10.0) -> ScheduleProgram:
    """Parallel initialization by greedy coloring of the adjacency graph.

    Each molecule loads a doubly occupied singlet and sweeps to (1,1);
    adjacent molecules must not do so in the same step, so the step count
    is the greedy color count: 2 on a line, 4 on a diagonal-adjacency grid
    (2 edge-only), scanning molecules in index order.
    """
    adjacency = topology.adjacency()
    neighbors = {i: topology.neighbors(i) for i in range(topology.size)}
    colors: dict[int, int] = {}
    for m in range(topology.size):
        taken = {colors[o] for o in neighbors[m] if o in colors}
        color = 0
        while color in taken:
            color += 1
        colors[m] = color
    ramp = 1.0
    if params is not None:
        ramp = _gate_ramp(params, safety_factor)
    steps = []
    for color in range(max(colors.values(), default=-1) + 1):
        members = [m for m in sorted(colors) if colors[m] == color]
        steps.append(ScheduleStep(tuple(
            Action("init", (m,), duration=ramp, ramp=ramp) for m in members)))
    return ScheduleProgram(tuple(steps), topology.size)


def compile_circuit(gates, g: LayoutGeometry, params: MoleculeParams,
                    safety_factor: float = 10.0,
                    read_duration: float = DEFAULT_READ_DURATION_NS) -> ScheduleProgram:
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
    for action in _lower(gates, read_duration):
        if action.kind == "sweep_pair":
            if gate_ramp is None:
                gate_ramp, gate_hold = _gate_pulse(g, params, safety_factor)
            action = replace(action, ramp=gate_ramp, hold=gate_hold,
                             duration=2.0 * gate_ramp + gate_hold)
        elif action.kind in ("read_single", "read_pair"):
            if meas_ramp is None:
                meas_ramp, _ = _measurement_sweep(g, params, safety_factor)
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
                phase=a.get("phase"), read_duration=a.get("read_duration_ns", 0.0)))
        steps.append(ScheduleStep(tuple(actions)))
    return ScheduleProgram(tuple(steps), data["molecule_count"])
