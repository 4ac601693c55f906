"""QPC charge readout and the two-round Bell-state measurement.

A quantum point contact near a molecule pair resolves how many singlets
were pulled into the doubly occupied charge state at +Ec/2: both still
(1,1) reads I_max, exactly one (0,2) reads I_mid, both (0,2) reads I_min.
Round one separates the Phi sector (never I_mid) from the Psi sector
(always I_mid); after Hadamards on both molecules, Psi+ lands in the Phi
sector while Psi- stays put, so a second read tells them apart exactly.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .electrostatics import LayoutGeometry
from .physics import MoleculeParams, full_sweep, sweep_rate_window
from .register import (EncodedRegisterState, Rotation, _check_distinct, _check_molecule,
                       apply_rotation, ising_phase, molecule_probabilities,
                       molecule_view, pair_view, phase_from_waveform)

READ_DURATION_NS = 1000.0

# detector current at each level (arbitrary units, only the ordering matters)
QPC_CURRENTS = {"I_max": 1.0, "I_mid": 0.5, "I_min": 0.0}

BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


@dataclass(frozen=True)
class QpcReading:
    level: str
    current: float
    post_state: EncodedRegisterState

    def __post_init__(self):
        if self.level not in QPC_CURRENTS:
            raise ValueError(f"unknown current level {self.level!r}")


_SQRT2 = math.sqrt(2.0)

# (bit_i, bit_j) blocks that a pair read at each level rules out
_REJECTED = {"I_max": ((0, 1), (1, 0), (1, 1)),
             "I_mid": ((0, 0), (1, 1)),
             "I_min": ((0, 0), (0, 1), (1, 0))}


def bell_state(label: str) -> EncodedRegisterState:
    """One of the four Bell states over two molecules."""
    tt, ts, st, ss = np.eye(4, dtype=complex)
    vectors = {
        "phi_plus": (tt + ss) / _SQRT2,
        "phi_minus": (tt - ss) / _SQRT2,
        "psi_plus": (ts + st) / _SQRT2,
        "psi_minus": (ts - st) / _SQRT2,
    }
    if label not in vectors:
        raise ValueError(f"unknown Bell label {label!r}; choose from {BELL_LABELS}")
    return EncodedRegisterState(vectors[label])


# outcomes at or below this probability are never drawn
_LIVE = 1e-15


class _Thresholds:
    """The threshold sampler of one (label, p) table, built once: its live
    labels (p above _LIVE), their total and the running sums of their p.
    A uniform u in [0, 1) picks the first live label whose running sum
    exceeds u * total, or the last live label if none does."""

    def __init__(self, outcomes):
        live = [(label, p) for label, p in outcomes if p > _LIVE]
        self.labels = [label for label, _ in live]
        # the builtin sum (compensated from Python 3.12) and running sums
        # added one p at a time, so every pick is reference_sample's
        # (tests/bell_reference.py), bit for bit
        self.total = sum(p for _, p in live)
        acc, bounds = 0.0, []
        for _, p in live:
            acc += p
            bounds.append(acc)
        self.bounds = np.array(bounds)

    def index(self, u):
        """Index into labels of the label each uniform in u picks."""
        picks = np.searchsorted(self.bounds, u * self.total, side="right")
        return np.minimum(picks, len(self.labels) - 1)


def _sample(u: float, outcomes) -> str:
    """The label uniform u in [0, 1) picks; zero-weight branches excluded."""
    table = _Thresholds(outcomes)
    return table.labels[table.index(u)]


def _project(amps: np.ndarray) -> EncodedRegisterState:
    """Renormalized state from amplitudes with the rejected branch zeroed.
    amps is the caller's own copy and is divided in place."""
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return EncodedRegisterState(amps)


def qpc_read_single(state: EncodedRegisterState, molecule: int,
                    draw: Callable[[], float]) -> tuple[str, EncodedRegisterState]:
    """Projective single-molecule read in the {T, S} basis, on one draw().

    The molecule is swept charge-sensitive for the read and back afterwards;
    keeping its neighbours at idle meanwhile is the schedule's rule.
    """
    _check_molecule(state.n, molecule)
    p_t, p_s = molecule_probabilities(state, molecule)
    outcome = _sample(draw(), (("T", p_t), ("S", p_s)))
    amps = state.amplitudes.copy()
    molecule_view(amps, molecule)[:, 0 if outcome == "S" else 1] = 0.0
    return outcome, _project(amps)


def pair_read_probabilities(state: EncodedRegisterState, i: int, j: int) -> dict[str, float]:
    """Born probabilities of the three QPC levels for a pair read."""
    p = pair_view(np.abs(state.amplitudes) ** 2, i, j)
    return {
        "I_max": float(p[:, 0, :, 0].sum()),
        "I_mid": float(p[:, 0, :, 1].sum() + p[:, 1, :, 0].sum()),
        "I_min": float(p[:, 1, :, 1].sum()),
    }


def qpc_read_pair(state: EncodedRegisterState, i: int, j: int,
                  draw: Callable[[], float]) -> QpcReading:
    """Three-level charge read of a swept molecule pair, on one draw().

    The QPC sees the pair's singlet weight in (0,2): the caller sweeps both
    molecules out to +Ec/2 first and back afterwards (ising_phase each way).
    Adjacency is the schedule's rule; the indices must name two molecules.
    """
    _check_distinct(state.n, i, j)
    level = _sample(draw(), tuple(pair_read_probabilities(state, i, j).items()))
    return _pair_reading(state, i, j, level)


def _pair_reading(state: EncodedRegisterState, i: int, j: int,
                  level: str) -> QpcReading:
    """The reading of a swept pair at a given level, with its collapsed state."""
    amps = state.amplitudes.copy()
    view = pair_view(amps, i, j)
    for a, b in _REJECTED[level]:
        view[:, a, :, b] = 0.0
    return QpcReading(level, QPC_CURRENTS[level], _project(amps))


@dataclass(frozen=True)
class BellOutcome:
    """Result of the two-round Bell measurement.

    classification is one of tt_or_phi_sector / ss_or_phi_sector (round one
    already projective, Phi+ and Phi- indistinguishable here), psi_plus or
    psi_minus. phi is the Ising phase accumulated over every measurement
    sweep; it never influences any outcome probability and is recorded
    rather than compensated.
    """

    round1: str
    round2: str | None
    classification: str
    phi: float
    reading1: QpcReading
    reading2: QpcReading | None
    final_state: EncodedRegisterState

    def __post_init__(self):
        if (self.round2 is not None) != (self.round1 == "I_mid"):
            raise ValueError("round2 must be present exactly when round1 is I_mid")


def _measurement_sweep(g: LayoutGeometry, params: MoleculeParams) -> tuple[float, float]:
    """(ramp duration, per-sweep Ising phase) of the minimal valid sweep.

    Not cached: a run sizes it once, for its Bell table or when its
    lowering meets the first read."""
    window = sweep_rate_window(params)
    if window.is_empty:
        raise ValueError("adiabaticity window is empty; no valid measurement sweep")
    ramp = window.min_duration
    phi = phase_from_waveform(full_sweep(params, ramp), g, params.tunnel_coupling)
    return ramp, phi


Outcomes = tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class BellBranches:
    """Every way the two-round Bell measurement of one state can end.

    round1 holds the first read's (level, p) pairs in
    pair_read_probabilities order. round2 maps each live round-one level
    to the second read's pairs, or to None when that level is not I_mid.
    outcomes maps (round1, round2) to the finished BellOutcome, with
    round2 None after a round-one I_max or I_min. Only the draws are left:
    sample(draw) calls draw() for one uniform per read, in protocol order,
    and leaf_indices(draws) looks up a whole array of trials' leaves.
    """

    round1: Outcomes
    round2: dict[str, Outcomes | None]
    outcomes: dict[tuple[str, str | None], BellOutcome]

    def sample(self, draw: Callable[[], float]) -> BellOutcome:
        level1 = _sample(draw(), self.round1)
        second = self.round2[level1]
        level2 = None if second is None else _sample(draw(), second)
        return self.outcomes[level1, level2]

    def leaf_indices(self, draws: np.ndarray) -> np.ndarray:
        """Index into outcomes of the leaf each row of a (T, 2) array of
        uniforms reaches, as sample() reaches it drawing the row's first
        column and, after I_mid, its second."""
        keys = {key: n for n, key in enumerate(self.outcomes)}
        first = _Thresholds(self.round1)
        picks = first.index(draws[:, 0])
        leaves = np.empty(len(draws), dtype=np.intp)
        for n, level1 in enumerate(first.labels):
            rows = picks == n
            second = self.round2[level1]
            if second is None:
                leaves[rows] = keys[level1, None]
                continue
            table = _Thresholds(second)
            leaf = np.array([keys[level1, level2] for level2 in table.labels])
            leaves[rows] = leaf[table.index(draws[rows, 1])]
        return leaves


def bell_branches(state: EncodedRegisterState, i: int, j: int,
                  g: LayoutGeometry, params: MoleculeParams) -> BellBranches:
    """Branch table of the two-round QPC Bell measurement on adjacent i, j.

    Round one sweeps both to +Ec/2 and reads. I_max or I_min means the Phi
    sector (or the matching product state) and the protocol stops. I_mid
    heralds the Psi sector: sweep back, Hadamard each molecule in turn
    (never both charge-displaced at once), sweep out and read again; Psi+
    has been rotated into the Phi sector while Psi- is immune to the
    rotation, so a second I_mid identifies Psi- with certainty. Every live
    branch is followed once; nothing here draws a random number.
    """
    adjacency = g.topology.adjacency()
    _, sweep_phi = _measurement_sweep(g, params)
    # Ising phase after one round (out and home) and after two, summed in
    # sweep order
    phi1 = sweep_phi + sweep_phi
    phi2 = phi1 + sweep_phi + sweep_phi

    def read(s):
        """Sweep out, then the (level, p) pairs and each live level's reading."""
        s = ising_phase(s, i, j, sweep_phi, adjacency)
        probs = tuple(pair_read_probabilities(s, i, j).items())
        return probs, {level: _pair_reading(s, i, j, level)
                       for level, p in probs if p > _LIVE}

    round1, readings1 = read(state)
    round2: dict[str, Outcomes | None] = {}
    outcomes: dict[tuple[str, str | None], BellOutcome] = {}
    for level1, reading1 in readings1.items():
        state = ising_phase(reading1.post_state, i, j, sweep_phi, adjacency)
        if level1 != "I_mid":
            round2[level1] = None
            classification = ("tt_or_phi_sector" if level1 == "I_max"
                              else "ss_or_phi_sector")
            outcomes[level1, None] = BellOutcome(level1, None, classification, phi1,
                                                 reading1, None, state)
            continue
        hadamard = Rotation.hadamard()
        state = apply_rotation(state, i, hadamard)
        state = apply_rotation(state, j, hadamard)
        round2[level1], readings2 = read(state)
        for level2, reading2 in readings2.items():
            final = ising_phase(reading2.post_state, i, j, sweep_phi, adjacency)
            classification = "psi_minus" if level2 == "I_mid" else "psi_plus"
            outcomes[level1, level2] = BellOutcome(level1, level2, classification,
                                                   phi2, reading1, reading2, final)
    return BellBranches(round1, round2, outcomes)
