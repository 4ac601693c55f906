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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .electrostatics import LayoutGeometry
from .physics import MoleculeParams, full_sweep, sweep_rate_window
from .register import (EncodedRegisterState, Rotation, apply_rotation, ising_phase,
                       molecule_probabilities, molecule_view, pair_view,
                       phase_from_waveform)

DEFAULT_READ_DURATION_NS = 1000.0

BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


@dataclass(frozen=True)
class QpcCurrents:
    """Detector current levels (arbitrary units, only ordering matters)."""

    i_max: float = 1.0
    i_mid: float = 0.5
    i_min: float = 0.0

    def __post_init__(self):
        if not (self.i_max > self.i_mid > self.i_min):
            raise ValueError("need i_max > i_mid > i_min")

    def value(self, level: str) -> float:
        return {"I_max": self.i_max, "I_mid": self.i_mid, "I_min": self.i_min}[level]


DEFAULT_CURRENTS = QpcCurrents()


@dataclass(frozen=True)
class QpcReading:
    level: str
    current: float
    post_state: EncodedRegisterState
    accumulated_phase: float = 0.0

    def __post_init__(self):
        if self.level not in ("I_max", "I_mid", "I_min"):
            raise ValueError(f"unknown current level {self.level!r}")


@dataclass(frozen=True)
class BellDecomposition:
    """Amplitudes in the Bell basis (Phi+/-, Psi+/-) of a two-molecule state."""

    phi_plus: complex
    phi_minus: complex
    psi_plus: complex
    psi_minus: complex

    @property
    def probabilities(self) -> dict[str, float]:
        return {label: float(abs(getattr(self, label)) ** 2) for label in BELL_LABELS}


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
    return EncodedRegisterState(vectors[label], ("11", "11"))


def decompose_bell(state: EncodedRegisterState) -> BellDecomposition:
    """Project a two-molecule state onto the Bell basis."""
    if state.n != 2:
        raise ValueError("Bell decomposition needs exactly two molecules")
    a = state.amplitudes
    return BellDecomposition(
        phi_plus=complex((a[0] + a[3]) / _SQRT2),
        phi_minus=complex((a[0] - a[3]) / _SQRT2),
        psi_plus=complex((a[1] + a[2]) / _SQRT2),
        psi_minus=complex((a[1] - a[2]) / _SQRT2),
    )


# outcomes at or below this probability are never drawn
_LIVE = 1e-15


def _sample(rng: np.random.Generator, outcomes) -> str:
    """Draw from (label, probability) pairs; zero-weight branches excluded."""
    live = [(label, p) for label, p in outcomes if p > _LIVE]
    total = sum(p for _, p in live)
    u = rng.random() * total
    acc = 0.0
    for label, p in live:
        acc += p
        if u < acc:
            return label
    return live[-1][0]


def _project(state: EncodedRegisterState, amps: np.ndarray) -> EncodedRegisterState:
    """Renormalized state from amplitudes with the rejected branch zeroed."""
    amps = amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return EncodedRegisterState(amps, state.charge_flags)


def qpc_read_single(state: EncodedRegisterState, molecule: int,
                    rng: np.random.Generator,
                    adjacency: frozenset[tuple[int, int]] | None = None
                    ) -> tuple[str, EncodedRegisterState]:
    """Projective single-molecule read in the {T, S} basis.

    The molecule is swept charge-sensitive for the read and back afterwards,
    so the returned state is flagged (1,1). Neighbours must not be held at
    +Ec/2 while this happens (their charge would confound the QPC).
    """
    if state.charge_flags[molecule] == "02":
        raise ValueError(f"molecule {molecule} is already charge-displaced")
    if adjacency is not None:
        for a, b in adjacency:
            other = b if a == molecule else a if b == molecule else None
            if other is not None and state.charge_flags[other] == "02":
                raise ValueError(f"molecule {other} adjacent to read target "
                                 f"{molecule} is held at +Ec/2")
    p_t, p_s = molecule_probabilities(state, molecule)
    outcome = _sample(rng, (("T", p_t), ("S", p_s)))
    amps = state.amplitudes.copy()
    molecule_view(amps, molecule)[:, 0 if outcome == "S" else 1] = 0.0
    return outcome, _project(state, amps)


def pair_read_probabilities(state: EncodedRegisterState, i: int, j: int) -> dict[str, float]:
    """Born probabilities of the three QPC levels for a pair read."""
    p = pair_view(np.abs(state.amplitudes) ** 2, i, j)
    return {
        "I_max": float(p[:, 0, :, 0].sum()),
        "I_mid": float(p[:, 0, :, 1].sum() + p[:, 1, :, 0].sum()),
        "I_min": float(p[:, 1, :, 1].sum()),
    }


def qpc_read_pair(state: EncodedRegisterState, i: int, j: int,
                  rng: np.random.Generator,
                  currents: QpcCurrents = DEFAULT_CURRENTS,
                  accumulated_phase: float = 0.0) -> QpcReading:
    """Three-level charge read of a swept molecule pair.

    Requires both molecules already held at +Ec/2 (their singlet weight in
    (0,2) is what the QPC sees). The post state stays charge-displaced;
    sweeping back is the caller's move.
    """
    if state.charge_flags[i] != "02" or state.charge_flags[j] != "02":
        raise ValueError("pair read needs both molecules swept to +Ec/2")
    level = _sample(rng, tuple(pair_read_probabilities(state, i, j).items()))
    return _pair_reading(state, i, j, level, currents, accumulated_phase)


def _pair_reading(state: EncodedRegisterState, i: int, j: int, level: str,
                  currents: QpcCurrents, accumulated_phase: float) -> QpcReading:
    """The reading of a swept pair at a given level, with its collapsed state."""
    amps = state.amplitudes.copy()
    view = pair_view(amps, i, j)
    for a, b in _REJECTED[level]:
        view[:, a, :, b] = 0.0
    return QpcReading(level, currents.value(level), _project(state, amps),
                      accumulated_phase)


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


@lru_cache(maxsize=32)
def _measurement_sweep(g: LayoutGeometry, params: MoleculeParams,
                       safety_factor: float) -> tuple[float, float]:
    """(ramp duration, per-sweep Ising phase) of the minimal valid sweep."""
    window = sweep_rate_window(params, safety_factor)
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
    sample() spends one uniform per read, in protocol order.
    """

    round1: Outcomes
    round2: dict[str, Outcomes | None]
    outcomes: dict[tuple[str, str | None], BellOutcome]

    def sample(self, rng: np.random.Generator) -> BellOutcome:
        level1 = _sample(rng, self.round1)
        second = self.round2[level1]
        level2 = None if second is None else _sample(rng, second)
        return self.outcomes[level1, level2]


def bell_branches(state: EncodedRegisterState, i: int, j: int,
                  g: LayoutGeometry, params: MoleculeParams,
                  safety_factor: float = 10.0,
                  currents: QpcCurrents = DEFAULT_CURRENTS) -> BellBranches:
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
    _, sweep_phi = _measurement_sweep(g, params, safety_factor)

    def sweep_out(s, phi):
        s = ising_phase(s, i, j, sweep_phi, adjacency)
        return s.with_flags({i: "02", j: "02"}), phi + sweep_phi

    def sweep_home(s, phi):
        s = s.with_flags({i: "11", j: "11"})
        return ising_phase(s, i, j, sweep_phi, adjacency), phi + sweep_phi

    def read(s, phi):
        """(level, p) pairs of a swept pair and the reading for each live level."""
        probs = tuple(pair_read_probabilities(s, i, j).items())
        return probs, {level: _pair_reading(s, i, j, level, currents, phi)
                       for level, p in probs if p > _LIVE}

    round1, readings1 = read(*sweep_out(state, 0.0))
    round2: dict[str, Outcomes | None] = {}
    outcomes: dict[tuple[str, str | None], BellOutcome] = {}
    for level1, reading1 in readings1.items():
        state, phi = sweep_home(reading1.post_state, reading1.accumulated_phase)
        if level1 != "I_mid":
            round2[level1] = None
            classification = ("tt_or_phi_sector" if level1 == "I_max"
                              else "ss_or_phi_sector")
            outcomes[level1, None] = BellOutcome(level1, None, classification, phi,
                                                 reading1, None, state)
            continue
        hadamard = Rotation.hadamard()
        state = apply_rotation(state, i, hadamard)
        state = apply_rotation(state, j, hadamard)
        round2[level1], readings2 = read(*sweep_out(state, phi))
        for level2, reading2 in readings2.items():
            final, final_phi = sweep_home(reading2.post_state,
                                          reading2.accumulated_phase)
            classification = "psi_minus" if level2 == "I_mid" else "psi_plus"
            outcomes[level1, level2] = BellOutcome(level1, level2, classification,
                                                   final_phi, reading1, reading2, final)
    return BellBranches(round1, round2, outcomes)


def bell_measure(state: EncodedRegisterState, i: int, j: int,
                 g: LayoutGeometry, params: MoleculeParams,
                 rng: np.random.Generator, safety_factor: float = 10.0,
                 currents: QpcCurrents = DEFAULT_CURRENTS) -> BellOutcome:
    """Two-round QPC Bell measurement on adjacent molecules i, j: one draw
    from bell_branches per read."""
    return bell_branches(state, i, j, g, params, safety_factor, currents).sample(rng)
