"""Schedule compilation for molecule registers.

Circuits lower to primitive actions (Action) packed greedily into steps
under the charge exclusion rules: a molecule appears in one action per
step, reads get a step to themselves, and no two charge-displaced
molecules of different actions may be adjacent; the packer, the
validator's screen and the time budget look action kinds up in one table.
Two-molecule gates require adjacency outright; there is no routing.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .constants import HBAR_UEV_NS
from .electrostatics import LayoutGeometry, Topology, pair_coupling
from .measurement import (QPC_CURRENTS, READ_DURATION_NS, BellBranches, BellOutcome,
                          _LIVE, Outcomes, _measurement_sweep, _sampler, qpc_read)
from .physics import MoleculeParams, full_sweep, sin_sq_mixing, sweep_rate_window
from .register import (EncodedRegisterState, Rotation, _check_molecule, _check_pair,
                       molecule_view, pair_view, phase_from_waveform, phase_in_place,
                       product_state, rotate_in_place)

# Spin-echo extends the usable coherence window a hundredfold.
ECHO_FACTOR = 100.0

READ_LIMIT_MESSAGE = "only one QPC read per coherence window"

_READ_KINDS = frozenset({"read_single", "read_pair"})
_DISPLACING_KINDS = _READ_KINDS | {"sweep_pair", "init"}


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
    """A primitive action: init, rotate, sweep_pair or a QPC read (read_single,
    read_pair). Reads, init and sweep_pair displace charge; rotate does not.
    A heralded action (a BELL's round two) runs only after an I_mid."""

    kind: str
    molecules: tuple[int, ...]
    duration: float
    rotation: Rotation | None = None
    ramp: float = 0.0
    hold: float = 0.0
    phase: float | None = None
    read_duration: float = 0.0
    heralded: bool = False

    @property
    def displaced(self) -> tuple[int, ...]:
        """Molecules this action holds (or carries through) charge displacement."""
        return self.molecules if self.kind in _DISPLACING_KINDS else ()

    @property
    def reads(self) -> bool:
        """A QPC read: it takes a step of its own and one uniform draw."""
        return self.kind in _READ_KINDS


@dataclass(frozen=True)
class ScheduleStep:
    actions: tuple[Action, ...]

    @cached_property
    def duration(self) -> float:
        # taken once per step: the budget and the render both read it
        return max((a.duration for a in self.actions), default=0.0)


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


def init_schedule(topology: Topology, params: MoleculeParams) -> ScheduleProgram:
    """Parallel initialization, packed like any other charge-displacing action.

    Each molecule loads a doubly occupied singlet and sweeps to (1,1);
    adjacent molecules must not do so in the same step. Packing the init
    actions in index order puts each molecule in the first step that holds
    none of its neighbours: 2 steps on a line, 4 on a diagonal-adjacency
    grid (2 edge-only).
    """
    ramp = _gate_ramp(params)
    return _pack([Action("init", (m,), duration=ramp, ramp=ramp)
                  for m in range(topology.size)], topology.neighbor_table())


def _gate_ramp(params: MoleculeParams) -> float:
    """Ramp duration: geometric mean of the adiabaticity window, clipped."""
    window = sweep_rate_window(params)
    if window.is_empty:
        raise CompileError(
            f"adiabaticity window ({window.min_duration:.3g}, "
            f"{window.max_duration:.3g}) ns is empty; no valid sweep exists")
    if math.isinf(window.max_duration):
        return window.min_duration
    return min(max(math.sqrt(window.min_duration * window.max_duration),
                   window.min_duration), window.max_duration)


def _gate_pulse(g: LayoutGeometry, params: MoleculeParams) -> tuple[float, float]:
    """(ramp, hold) of the controlled-phase pulse.

    The linear ramps out to +Ec/2 and back already accumulate Ising phase,
    so the hold at +Ec/2 is sized to land the total integrated phase on
    the smallest odd multiple of pi above the ramp contribution.
    """
    ramp = _gate_ramp(params)
    phi_ramps = 2.0 * phase_from_waveform(full_sweep(params, ramp), g,
                                          params.tunnel_coupling)
    multiple = math.ceil(phi_ramps / math.pi)
    if multiple % 2 == 0:
        multiple += 1
    coupling_hold = (pair_coupling(g).coupling_max
                     * sin_sq_mixing(params.detuning_max, params.tunnel_coupling))
    hold = (multiple * math.pi - phi_ramps) * HBAR_UEV_NS / coupling_hold
    if hold < 1e-9:
        hold += 2.0 * math.pi * HBAR_UEV_NS / coupling_hold
    # sin_sq_mixing returns a numpy scalar; actions carry plain floats
    return ramp, float(hold)


def _lower(gates, g: LayoutGeometry, params: MoleculeParams) -> list[Action]:
    """Expand circuit gates into primitive actions with their durations.

    The gate pulse and the measurement sweep are sized on first use, so a
    circuit of rotations alone needs no adiabaticity window. Actions
    without an angle (Hadamard, pulse, read) are built once per kind and
    molecules, so the render's memo of action texts writes each once; a
    Z or XZ line makes a fresh action every time, which the memo skips.
    """
    hadamard = Rotation.hadamard()
    out: list[Action] = []

    @cache
    def pulse() -> dict:
        """Timing keywords of every sweep_pair action."""
        ramp, hold = _gate_pulse(g, params)
        return dict(duration=2.0 * ramp + hold, ramp=ramp, hold=hold)

    @cache
    def read() -> dict:
        """Timing keywords of every read action."""
        ramp, _ = _measurement_sweep(g, params)
        return dict(duration=2.0 * ramp + READ_DURATION_NS, ramp=ramp,
                    read_duration=READ_DURATION_NS)

    @lru_cache(maxsize=None, typed=True)
    def shared(kind: str, *molecules, heralded: bool = False) -> Action:
        """The one angle-free action of kind on molecules, heralded or
        not: a Hadamard rotate, a sweep_pair or a read. typed keeps 1
        apart from True and from np.int64(1)."""
        if kind == "rotate":
            return Action(kind, molecules, duration=hadamard.duration,
                          rotation=hadamard, heralded=heralded)
        if kind == "sweep_pair":
            return Action(kind, molecules, phase=math.pi, **pulse())
        return Action(kind, molecules, heralded=heralded, **read())

    for gate in gates:
        if gate.kind == "h":
            out.append(shared("rotate", *gate.qubits))
        elif gate.kind in ("z", "xz"):
            rot = (Rotation.z(gate.angle) if gate.kind == "z"
                   else Rotation.xz(gate.axis_angle, gate.angle))
            out.append(Action("rotate", (gate.qubits[0],), duration=rot.duration,
                              rotation=rot))
        elif gate.kind == "cz":
            out.append(shared("sweep_pair", *gate.qubits))
        elif gate.kind == "cnot":
            target = shared("rotate", gate.qubits[1])
            out += (target, shared("sweep_pair", *gate.qubits), target)
        elif gate.kind == "measure":
            out.append(shared("read_single", *gate.qubits))
        elif gate.kind == "bell":
            i, j = gate.qubits  # round two runs only after a round-one I_mid
            out += (shared("read_pair", i, j), shared("rotate", i, heralded=True),
                    shared("rotate", j, heralded=True), shared("read_pair", i, j, heralded=True))
    return out


def compile_circuit(gates, g: LayoutGeometry, params: MoleculeParams) -> ScheduleProgram:
    """Pack a gate list into a conflict-free schedule.

    Gates keep their data order per molecule; independent actions pack into
    the earliest step that satisfies the exclusion rules. Two-molecule
    gates on non-adjacent molecules are compile errors (no routing). Bell
    measurements schedule both rounds (the static worst case), round two heralded.
    """
    gates = list(gates)  # walked twice: checked, then lowered
    size = g.topology.size
    neighbors = g.topology.neighbor_table()
    # each distinct gate object once, in first-occurrence order
    for gate in {id(gate): gate for gate in gates}.values():
        if min(gate.qubits) < 0 or max(gate.qubits) >= size:
            raise CompileError(f"{gate.kind} on {gate.qubits} is out of range "
                               f"for {size} molecules")
        if len(gate.qubits) == 2 and gate.qubits[1] not in neighbors[gate.qubits[0]]:
            raise CompileError(
                f"{gate.kind} on non-adjacent molecules {gate.qubits}; "
                "routing is not supported, rewrite the circuit")
    return _pack(_lower(gates, g, params), neighbors)


def _pack(actions, neighbors: tuple[frozenset[int], ...]) -> ScheduleProgram:
    """Pack actions, in order, into the earliest steps the exclusion rules
    allow; neighbors[m] holds molecule m's neighbours."""
    # Per step: its actions and the neighbours of its displaced molecules,
    # or None for a read step: reads sense any nearby charge motion, so a
    # read opens a step of its own that no later action joins. Two actions'
    # displaced molecules are adjacent exactly when one's displaced set
    # meets the other's neighbour set, and a rotation displaces none. A
    # molecule's actions land in increasing steps, so no step from
    # `earliest` on holds one of the action's molecules.
    steps: list[list[Action]] = []
    near: list[set[int] | None] = []
    frontier = [0] * len(neighbors)
    for action in actions:
        kind, molecules = action.kind, action.molecules
        placed = len(steps)
        if kind not in _READ_KINDS:
            earliest = 0
            for m in molecules:
                if frontier[m] > earliest:
                    earliest = frontier[m]
            displacing = kind in _DISPLACING_KINDS
            for s in range(earliest, placed):
                if near[s] is not None and (not displacing or near[s].isdisjoint(molecules)):
                    placed = s
                    break
        if placed == len(steps):
            steps.append([])
            near.append(None if kind in _READ_KINDS else set())
        steps[placed].append(action)
        if kind in _DISPLACING_KINDS and near[placed] is not None:
            for m in molecules:
                near[placed].update(neighbors[m])
        for m in molecules:
            frontier[m] = placed + 1
    return ScheduleProgram(tuple(ScheduleStep(tuple(s)) for s in steps), len(neighbors))


def validate_program(program: ScheduleProgram,
                     adjacency: frozenset[tuple[int, int]]) -> list[RuleViolation]:
    """Check the charge exclusion rules; returns findings, never raises.

    Each step is first screened the way _pack builds it: its molecules
    are distinct and in range, and no charge-displaced action meets the
    neighbours of the displaced actions before it. Only a step that fails
    the screen takes the exact pairwise walk that words the findings. The
    neighbour sets are symmetric and the walk looks pairs up as (min, max),
    so the screen may flag a clean step but never passes a flagged one.
    """
    count = program.molecule_count
    valid = set(range(count))
    neighbors: dict[int, set[int]] = {}
    for i, j in adjacency:
        neighbors.setdefault(i, set()).add(j)
        neighbors.setdefault(j, set()).add(i)
    out: list[RuleViolation] = []
    for s, step in enumerate(program.steps):
        molecules = [m for a in step.actions for m in a.molecules]
        clean = len(set(molecules)) == len(molecules) and valid.issuperset(molecules)
        near: set[int] = set()
        charged = (a.molecules for a in step.actions if a.kind in _DISPLACING_KINDS)
        for displaced in charged if clean else ():
            if not near.isdisjoint(displaced):
                clean = False
                break
            for m in displaced:
                near.update(neighbors.get(m, ()))
        if not clean:
            out += _step_violations(s, step, count, adjacency)
    return out


def _step_violations(s: int, step: ScheduleStep, molecule_count: int,
                     adjacency: frozenset[tuple[int, int]]) -> list[RuleViolation]:
    """Every exclusion-rule finding of step s, pair by pair."""
    out: list[RuleViolation] = []
    seen: dict[int, int] = {}
    for k, action in enumerate(step.actions):
        for m in action.molecules:
            if m < 0 or m >= molecule_count:
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
    # Python floats throughout: the step starts summed in order, as cumsum
    # sums them, and `>` where max() would keep its first argument on a tie
    starts = accumulate([s.duration for s in program.steps], initial=0.0)
    window_start: dict[int, float] = {}
    last_end: dict[int, float] = {}
    read_ends: dict[int, list[float]] = {}
    for start, step in zip(starts, program.steps):
        for action in step.actions:
            end = start + action.duration
            init = action.kind == "init"
            read = action.kind in _READ_KINDS
            for m in action.molecules:
                if init:
                    prior = window_start.get(m, 0.0)
                    window_start[m] = end if end > prior else prior
                prior = last_end.get(m, 0.0)
                last_end[m] = end if end > prior else prior
                if read:
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
    return EncodedRegisterState(out.reshape(-1))


class _OwnedRegister:
    """The simulator's private register: one flat amplitude buffer, a spare
    of the same size, and the memory axis each molecule sits on.

    Rotations and phases update the buffer in place. Molecule m lives on
    memory axis pos[m] (axis 0 is the most significant digit). A rotation
    first swaps its molecule with the one on axis 0, where the two halves
    of the buffer are its T and S slices, contiguous whatever the molecule.
    The swap is in place (_exchange), staged through the spare, which
    otherwise serves as the rotation's scratch. Swaps only move data, so
    every amplitude is computed exactly as the public kernels compute it.
    An init on a molecule whose T amplitudes are all exactly zero, such as
    every init of the prologue on the starting |S...S>, leaves the buffer
    untouched: the register is already |S> there. Any other init, and
    every read, sees the buffer as a state in canonical order (state()
    permutes it into the spare, and the two trade places), and the fresh
    state it returns becomes the buffer.
    """

    def __init__(self, state: EncodedRegisterState):
        self.amps = state.amplitudes      # a fresh array, the register's own
        self.spare = np.empty_like(self.amps)
        self.n = state.n
        self.canonical = list(range(self.n))
        self.pos = list(self.canonical)    # memory axis of each molecule
        self.front = 0                     # the molecule on axis 0

    def init(self, m: int):
        """Load |S> on molecule m. The zero test runs on m's current memory
        axis, before any canonicalising copy; when it passes the buffer is
        already |S> on m times the rest, and nothing is copied, reset or
        checked. The buffer itself is never adopted: the spare would then
        alias it, and the next rotation's scratch would overwrite it."""
        _check_molecule(self.n, m)
        if molecule_view(self.amps, self.pos[m])[:, 0].any():
            self.adopt(_reset_to_singlet(self.state(), m))

    def rotate(self, m: int, rotation: Rotation):
        _check_molecule(self.n, m)
        q = self.pos[m]
        if q:
            self._exchange(q)
            self.pos[m], self.pos[self.front] = 0, q
            self.front = m
        rotate_in_place(molecule_view(self.amps, 0), rotation.matrix(),
                        self.spare.reshape(2, 1, -1))

    def _exchange(self, q: int):
        """Exchange memory axes 0 and q in place. Only the amplitudes whose
        two digits differ move: the (0, 1) and (1, 0) blocks trade places
        through a quarter of the spare, and the other half stays put."""
        view = pair_view(self.amps, 0, q)
        low, high = view[:, 0, :, 1], view[:, 1, :, 0]
        held = self.spare[:len(self.amps) // 4].reshape(low.shape)
        np.copyto(held, low)
        np.copyto(low, high)
        np.copyto(high, held)

    def phase(self, i: int, j: int, phi: float, adjacency):
        _check_pair(self.n, i, j, adjacency)
        phase_in_place(self.amps, self.pos[i], self.pos[j], phi)

    def state(self) -> EncodedRegisterState:
        """The register in canonical molecule order. Init and reads sum and
        renormalise in memory order, so they only ever see this order.
        The spare is dropped until adopt(), so an init or a read holds no
        more amplitude arrays than it would on its own."""
        if self.pos != self.canonical:
            # new axis m is the old axis pos[m]
            np.copyto(self.spare.reshape((2,) * self.n),
                      self.amps.reshape((2,) * self.n).transpose(self.pos))
            self.amps, self.spare = self.spare, self.amps
            self.pos = list(self.canonical)
            self.front = 0
        self.spare = None
        return EncodedRegisterState(self.amps)

    def adopt(self, state: EncodedRegisterState):
        """Continue from the state an init or a read returned. Its
        amplitudes are a fresh array, so the old buffer becomes the spare."""
        self.spare, self.amps = self.amps, state.amplitudes


def simulate_program(program: ScheduleProgram, g: LayoutGeometry,
                     params: MoleculeParams,
                     draw: Callable[[], float] | None = None, *,
                     start: EncodedRegisterState | None = None,
                     choose: Callable[[Outcomes], str] | None = None
                     ) -> tuple[EncodedRegisterState, list[dict]]:
    """Execute a schedule against the encoded register model.

    The register starts in start (left unchanged) or in |S...S>. sweep_pair
    applies its intended Ising phase. A read continues from the label that
    choose returns from its (label, p) pairs, or by default samples them on
    one draw(), in program order (draw required if a read runs); a pair read
    is swept out and home, an Ising phase each way, sized once per ramp. A
    heralded action runs only if the last unheralded pair read on each of
    its molecules gave I_mid; a skipped read draws nothing and records no
    event. Returns the final state and an event record per read. Rotations
    and phases run in place on a private buffer (_OwnedRegister). An init
    on a molecule already in |S> changes nothing and is skipped, which
    covers the whole prologue on the starting |S...S>; the buffer returns
    to canonical order before any other init or a read. The norm is
    checked at entry, at every init that resets and every read, and on the
    returned state.
    """
    if choose is None and draw is not None:
        choose = _sampler(draw)
    register = _OwnedRegister(product_state("S" * program.molecule_count) if start is None
                              else EncodedRegisterState(start.amplitudes.copy()))
    adjacency = g.topology.adjacency()
    sweeps: dict[float, float] = {}  # Ising phase of one sweep, out or home, per ramp
    heard: dict[int, str] = {}       # each molecule's last unheralded pair-read level
    events: list[dict] = []
    for s, step in enumerate(program.steps):
        for action in step.actions:
            if action.heralded and any(heard.get(m) != "I_mid" for m in action.molecules):
                continue
            if choose is None and action.reads:
                raise ValueError("program contains reads; draw required")
            if action.kind == "init":
                register.init(action.molecules[0])
            elif action.kind == "rotate":
                register.rotate(action.molecules[0], action.rotation)
            elif action.kind == "sweep_pair":
                i, j = action.molecules
                register.phase(i, j, action.phase, adjacency)
            elif action.kind == "read_single":
                outcome, state = qpc_read(register.state(), action.molecules, choose)
                register.adopt(state)
                events.append({"step": s, "kind": "read_single",
                               "molecules": list(action.molecules),
                               "outcome": outcome})
            elif action.kind == "read_pair":
                i, j = action.molecules
                sweep_phi = sweeps.get(action.ramp)
                if sweep_phi is None:
                    sweep_phi = sweeps[action.ramp] = (
                        phase_from_waveform(full_sweep(params, action.ramp), g,
                                            params.tunnel_coupling)
                        if action.ramp > 0.0 else 0.0)
                # sweep out, read, sweep home: the ramp's phase each way
                register.phase(i, j, sweep_phi, adjacency)
                level, state = qpc_read(register.state(), action.molecules, choose)
                register.adopt(state)
                register.phase(i, j, sweep_phi, adjacency)
                if not action.heralded:
                    heard[i] = heard[j] = level
                events.append({"step": s, "kind": "read_pair",
                               "molecules": list(action.molecules),
                               "level": level,
                               "current": QPC_CURRENTS[level]})
            else:
                raise ValueError(f"unknown action kind {action.kind!r}")
    return register.state(), events


# the classification of each sequence of levels a Bell measurement reads
_BELL_CLASSES = {("I_max",): "tt_or_phi_sector", ("I_min",): "ss_or_phi_sector",
                 ("I_mid", "I_max"): "psi_plus", ("I_mid", "I_min"): "psi_plus",
                 ("I_mid", "I_mid"): "psi_minus"}


def bell_branches(state: EncodedRegisterState, i: int, j: int,
                  g: LayoutGeometry, params: MoleculeParams) -> BellBranches:
    """Branch table of the two-round QPC Bell measurement on adjacent i, j.

    The protocol is the compiled BELL i j, run from state: round one reads
    the swept pair, and only its I_mid (the Psi sector) heralds round two,
    a Hadamard on each molecule and a second read. Psi+ has then been
    rotated into the Phi sector while Psi- is immune, so a second I_mid
    identifies Psi- with certainty. The program runs once per live leaf,
    its reads forced to the leaf's levels; nothing here draws a number.
    """
    program = compile_circuit([Gate("bell", (i, j))], g, params)
    _, sweep_phi = _measurement_sweep(g, params)
    # Ising phase after one round (out and home) and after two, in sweep order
    phi = {1: sweep_phi + sweep_phi}
    phi[2] = phi[1] + sweep_phi + sweep_phi
    runs = {}  # the levels a run read -> its final state and each read's pairs
    pending = [()]
    while pending:
        levels, tables = list(pending.pop()), []

        def choose(outcomes):
            """The run's next forced level; past those, the first live
            level, with a run queued for each other live level."""
            tables.append(outcomes)
            if len(tables) > len(levels):
                first, *others = [label for label, p in outcomes if p > _LIVE]
                pending.extend((*levels, label) for label in others)
                levels.append(first)
            return levels[len(tables) - 1]

        final, _ = simulate_program(program, g, params, start=state, choose=choose)
        runs[tuple(levels)] = final, tables

    # leaves in pair_read_probabilities order, round one before round two
    rank = {level: n for n, level in enumerate(QPC_CURRENTS)}
    round2, outcomes = {}, {}
    for levels in sorted(runs, key=lambda levels: [rank[level] for level in levels]):
        final, (round1, *second) = runs[levels]
        level1, level2 = levels if second else (levels[0], None)
        round2[level1] = second[0] if second else None
        outcomes[level1, level2] = BellOutcome(level1, level2, _BELL_CLASSES[levels],
                                               phi[len(levels)], final)
    return BellBranches(round1, round2, outcomes)
