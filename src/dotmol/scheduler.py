"""Schedule compilation for molecule registers.

Circuits lower to primitive actions (init, rotate, sweep_pair, read_single,
read_pair) packed greedily into steps under the charge exclusion rules: a
molecule appears in one action per step, measurement actions get a step to
themselves, and no two charge-displaced molecules of different actions may
be adjacent. Two-molecule gates require adjacency outright; there is no
routing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_UEV_NS
from .electrostatics import LayoutGeometry, Topology, pair_coupling
from .measurement import (DEFAULT_READ_DURATION_NS, _measurement_sweep,
                          qpc_read_pair, qpc_read_single)
from .physics import (DetuningWaveform, MoleculeParams, full_sweep,
                      sin_sq_mixing, sweep_rate_window)
from .register import (EncodedRegisterState, Rotation, apply_rotation, ising_phase,
                       molecule_view, phase_from_waveform, product_state)

# Spin-echo extends the usable coherence window a hundredfold.
ECHO_FACTOR = 100.0

READ_LIMIT_MESSAGE = "only one QPC read per coherence window"


class CompileError(ValueError):
    """Raised when a circuit cannot be realized on the given geometry."""


# qubit count of each circuit gate kind
_GATE_ARITY = {"h": 1, "z": 1, "xz": 1, "measure": 1, "cnot": 2, "cz": 2, "bell": 2}


@dataclass(frozen=True)
class Gate:
    """One circuit-level instruction."""

    kind: str                     # h | z | xz | cnot | cz | measure | bell
    qubits: tuple[int, ...]
    angle: float = 0.0
    axis_angle: float = 0.0

    def __post_init__(self):
        arity = _GATE_ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")
        if not (math.isfinite(self.angle) and math.isfinite(self.axis_angle)):
            raise ValueError("gate angles must be finite")


@dataclass(frozen=True)
class Action:
    kind: str                     # init | rotate | sweep_pair | read_single | read_pair
    molecules: tuple[int, ...]
    duration: float
    rotation: Rotation | None = None
    ramp: float = 0.0
    hold: float = 0.0
    phase: float | None = None
    read_duration: float = 0.0

    @property
    def displaced(self) -> tuple[int, ...]:
        """Molecules this action holds (or carries through) charge displacement."""
        if self.kind in ("sweep_pair", "read_pair", "read_single", "init"):
            return self.molecules
        return ()


@dataclass(frozen=True)
class ScheduleStep:
    actions: tuple[Action, ...]

    @property
    def duration(self) -> float:
        return max((a.duration for a in self.actions), default=0.0)

    @property
    def molecules(self) -> frozenset[int]:
        return frozenset(m for a in self.actions for m in a.molecules)


@dataclass(frozen=True)
class ScheduleProgram:
    steps: tuple[ScheduleStep, ...]
    molecule_count: int

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.steps)


@dataclass(frozen=True)
class RuleViolation:
    step: int
    rule: str
    molecules: tuple[int, ...]
    message: str


def init_schedule(topology: Topology, params: MoleculeParams | None = None,
                  safety_factor: float = 10.0) -> ScheduleProgram:
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
        ramp = _gate_ramp(params, safety_factor)
    steps = []
    for color in range(max(colors.values(), default=-1) + 1):
        members = [m for m in sorted(colors) if colors[m] == color]
        steps.append(ScheduleStep(tuple(
            Action("init", (m,), duration=ramp, ramp=ramp) for m in members)))
    return ScheduleProgram(tuple(steps), topology.size)


def _gate_ramp(params: MoleculeParams, safety_factor: float) -> float:
    """Ramp duration: geometric mean of the adiabaticity window, clipped."""
    window = sweep_rate_window(params, safety_factor)
    if window.is_empty:
        raise CompileError(
            f"adiabaticity window ({window.min_duration:.3g}, "
            f"{window.max_duration:.3g}) ns is empty; no valid sweep exists")
    if math.isinf(window.max_duration):
        return window.min_duration
    return min(max(math.sqrt(window.min_duration * window.max_duration),
                   window.min_duration), window.max_duration)


def _gate_pulse(g: LayoutGeometry, params: MoleculeParams,
                safety_factor: float) -> tuple[float, float]:
    """(ramp, hold) of the controlled-phase pulse.

    The linear ramps out to +Ec/2 and back already accumulate Ising phase,
    so the hold at +Ec/2 is sized to land the total integrated phase on
    the smallest odd multiple of pi above the ramp contribution.
    """
    ramp = _gate_ramp(params, safety_factor)
    lo, hi = params.detuning_min, params.detuning_max
    up = DetuningWaveform((0.0, ramp), (lo, hi), measurement_hold=True)
    phi_ramps = 2.0 * phase_from_waveform(up, g, params.tunnel_coupling)
    multiple = math.ceil(phi_ramps / math.pi)
    if multiple % 2 == 0:
        multiple += 1
    coupling_hold = (pair_coupling(g).coupling_max
                     * sin_sq_mixing(hi, params.tunnel_coupling))
    hold = (multiple * math.pi - phi_ramps) * HBAR_UEV_NS / coupling_hold
    if hold < 1e-9:
        hold += 2.0 * math.pi * HBAR_UEV_NS / coupling_hold
    return ramp, hold


def _lower(gates, read_duration: float) -> list[Action]:
    """Expand circuit gates into primitive actions (durations filled later)."""
    hadamard = Rotation.hadamard()
    out: list[Action] = []

    def rotate(m, rot):
        out.append(Action("rotate", (m,), duration=rot.duration, rotation=rot))

    for gate in gates:
        if gate.kind == "h":
            rotate(gate.qubits[0], hadamard)
        elif gate.kind == "z":
            rotate(gate.qubits[0], Rotation.z(gate.angle))
        elif gate.kind == "xz":
            rotate(gate.qubits[0], Rotation.xz(gate.axis_angle, gate.angle))
        elif gate.kind in ("cz", "cnot"):
            control, target = gate.qubits
            if gate.kind == "cnot":
                rotate(target, hadamard)
            out.append(Action("sweep_pair", (control, target), duration=0.0,
                              phase=math.pi))
            if gate.kind == "cnot":
                rotate(target, hadamard)
        elif gate.kind == "measure":
            out.append(Action("read_single", gate.qubits, duration=0.0,
                              read_duration=read_duration))
        elif gate.kind == "bell":
            i, j = gate.qubits
            out.append(Action("read_pair", (i, j), duration=0.0,
                              read_duration=read_duration))
            rotate(i, hadamard)
            rotate(j, hadamard)
            out.append(Action("read_pair", (i, j), duration=0.0,
                              read_duration=read_duration))
    return out


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
    neighbors = g.topology.neighbor_table()
    for gate in gates:
        if any(q < 0 or q >= size for q in gate.qubits):
            raise CompileError(f"{gate.kind} on {gate.qubits} is out of range "
                               f"for {size} molecules")
        if len(gate.qubits) == 2 and gate.qubits[1] not in neighbors[gate.qubits[0]]:
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
            action = Action("sweep_pair", action.molecules,
                            duration=2.0 * gate_ramp + gate_hold,
                            ramp=gate_ramp, hold=gate_hold, phase=action.phase)
        elif action.kind in ("read_single", "read_pair"):
            if meas_ramp is None:
                meas_ramp, _ = _measurement_sweep(g, params, safety_factor)
            action = Action(action.kind, action.molecules,
                            duration=2.0 * meas_ramp + action.read_duration,
                            ramp=meas_ramp, read_duration=action.read_duration)
        actions.append(action)

    # Per step: its actions, the neighbours of its displaced molecules, and
    # whether it holds a read. Reads are sensitive to any nearby charge
    # motion, so a read opens a step of its own and no later action joins
    # it. Two actions' displaced molecules are adjacent exactly when one's
    # displaced set meets the other's neighbour set. A molecule's actions
    # land in increasing steps, so no step from `earliest` on holds one of
    # the action's molecules.
    steps: list[list[Action]] = []
    near: list[set[int]] = []
    holds_read: list[bool] = []
    frontier = [0] * size
    for action in actions:
        read = action.kind in ("read_single", "read_pair")
        displaced = action.displaced
        placed = len(steps)
        if not read:
            earliest = max((frontier[m] for m in action.molecules), default=0)
            for s in range(earliest, len(steps)):
                if not holds_read[s] and near[s].isdisjoint(displaced):
                    placed = s
                    break
        if placed == len(steps):
            steps.append([])
            near.append(set())
            holds_read.append(read)
        steps[placed].append(action)
        for m in displaced:
            near[placed].update(neighbors[m])
        for m in action.molecules:
            frontier[m] = placed + 1
    return ScheduleProgram(tuple(ScheduleStep(tuple(s)) for s in steps), size)


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
        # only charge-displaced actions can be close to one another
        charged = [a for a in step.actions if a.displaced]
        for a_idx, a in enumerate(charged):
            for b in charged[a_idx + 1:]:
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


@dataclass(frozen=True)
class BudgetViolation:
    molecule: int
    rule: str
    message: str


@dataclass(frozen=True)
class BudgetReport:
    limit: float
    elapsed: dict[int, float]
    read_counts: dict[int, int]
    violations: tuple[BudgetViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def time_budget(program: ScheduleProgram, params: MoleculeParams,
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


def _reset_to_singlet(state: EncodedRegisterState, m: int) -> EncodedRegisterState:
    """Replace an unentangled molecule's factor with |S> (fresh pair load)."""
    psi = molecule_view(state.amplitudes, m)
    rho = np.tensordot(psi, psi.conj(), axes=([0, 2], [0, 2]))
    purity = float(np.trace(rho @ rho).real)
    if purity < 1.0 - 1e-9:
        raise ValueError(f"init on molecule {m} while entangled with the register")
    _, vecs = np.linalg.eigh(rho)
    factor = vecs[:, -1]
    rest = np.tensordot(factor.conj(), psi, axes=([0], [1]))
    rest /= math.sqrt(float(np.sum(np.abs(rest) ** 2)))
    out = np.zeros_like(psi)
    out[:, 1] = rest
    return EncodedRegisterState(out.reshape(-1), state.charge_flags)


def simulate_program(program: ScheduleProgram, g: LayoutGeometry,
                     params: MoleculeParams,
                     rng: np.random.Generator | None = None,
                     initial_state: EncodedRegisterState | None = None
                     ) -> tuple[EncodedRegisterState, list[dict]]:
    """Execute a schedule against the encoded register model.

    sweep_pair applies its intended Ising phase; reads sample through the
    QPC model (rng required if the program contains any). Returns the final
    state and an event record per measurement.
    """
    state = initial_state or product_state("S" * program.molecule_count)
    adjacency = g.topology.adjacency()
    events: list[dict] = []
    for s, step in enumerate(program.steps):
        for action in step.actions:
            if action.kind == "init":
                state = _reset_to_singlet(state, action.molecules[0])
            elif action.kind == "rotate":
                state = apply_rotation(state, action.molecules[0], action.rotation)
            elif action.kind == "sweep_pair":
                i, j = action.molecules
                state = ising_phase(state, i, j, action.phase, adjacency)
            elif action.kind == "read_single":
                if rng is None:
                    raise ValueError("program contains reads; rng required")
                outcome, state = qpc_read_single(state, action.molecules[0], rng,
                                                 adjacency)
                events.append({"step": s, "kind": "read_single",
                               "molecules": list(action.molecules),
                               "outcome": outcome})
            elif action.kind == "read_pair":
                if rng is None:
                    raise ValueError("program contains reads; rng required")
                i, j = action.molecules
                sweep_phi = 0.0
                if action.ramp > 0.0:
                    sweep_phi = phase_from_waveform(full_sweep(params, action.ramp), g,
                                                    params.tunnel_coupling)
                state = ising_phase(state, i, j, sweep_phi, adjacency)
                state = state.with_flags({i: "02", j: "02"})
                reading = qpc_read_pair(state, i, j, rng)
                state = reading.post_state.with_flags({i: "11", j: "11"})
                state = ising_phase(state, i, j, sweep_phi, adjacency)
                events.append({"step": s, "kind": "read_pair",
                               "molecules": list(action.molecules),
                               "level": reading.level,
                               "current": reading.current})
            else:
                raise ValueError(f"unknown action kind {action.kind!r}")
    return state, events
