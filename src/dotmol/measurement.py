"""QPC charge readout and the two-round Bell-state measurement.

A quantum point contact near a molecule pair resolves how many singlets
were pulled into the doubly occupied charge state at +Ec/2: both still
(1,1) reads I_max, exactly one (0,2) reads I_mid, both (0,2) reads I_min.
Round one separates the Phi sector (never I_mid) from the Psi sector
(always I_mid); after Hadamards on both molecules, Psi+ lands in the Phi
sector while Psi- stays put, so a second read tells them apart exactly.
The protocol runs as the compiled BELL on the schedule executor
(scheduler.bell_branches); the branch table it builds is defined here.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .electrostatics import LayoutGeometry
from .physics import MoleculeParams, full_sweep, sweep_rate_window
from .register import (EncodedRegisterState, _check_distinct, _check_molecule,
                       molecule_probabilities, molecule_view, pair_view,
                       phase_from_waveform)

READ_DURATION_NS = 1000.0

# detector current at each level (arbitrary units, only the ordering matters)
QPC_CURRENTS = {"I_max": 1.0, "I_mid": 0.5, "I_min": 0.0}

BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


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

Outcomes = tuple[tuple[str, float], ...]


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


def _sampler(draw: Callable[[], float]) -> Callable[[Outcomes], str]:
    """The read chooser that picks each read's label on one draw()."""
    return lambda outcomes: _sample(draw(), outcomes)


def qpc_read(state: EncodedRegisterState, molecules: tuple[int, ...],
             choose: Callable[[Outcomes], str]) -> tuple[str, EncodedRegisterState]:
    """One QPC read: the label choose picks from the read's (label, p)
    pairs, and the state renormalised onto it.

    One molecule is read in the {T, S} basis, a swept pair on the three
    current levels (QPC_CURRENTS). The sweeps around a read (a pair's
    Ising phase out and home) are the caller's, and so is adjacency.
    """
    if len(molecules) == 1:
        m, = molecules
        _check_molecule(state.n, m)
        p_t, p_s = molecule_probabilities(state, m)
        label = choose((("T", p_t), ("S", p_s)))
        amps = state.amplitudes.copy()
        molecule_view(amps, m)[:, 0 if label == "S" else 1] = 0.0
    else:
        i, j = molecules
        _check_distinct(state.n, i, j)
        label = choose(tuple(pair_read_probabilities(state, i, j).items()))
        amps = state.amplitudes.copy()
        view = pair_view(amps, i, j)
        for a, b in _REJECTED[label]:
            view[:, a, :, b] = 0.0
    # amps is our own copy: renormalise it in place
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return label, EncodedRegisterState(amps)


def pair_read_probabilities(state: EncodedRegisterState, i: int, j: int) -> dict[str, float]:
    """Born probabilities of the three QPC levels for a pair read."""
    p = pair_view(np.abs(state.amplitudes) ** 2, i, j)
    return {
        "I_max": float(p[:, 0, :, 0].sum()),
        "I_mid": float(p[:, 0, :, 1].sum() + p[:, 1, :, 0].sum()),
        "I_min": float(p[:, 1, :, 1].sum()),
    }


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
    final_state: EncodedRegisterState

    def __post_init__(self):
        if (self.round2 is not None) != (self.round1 == "I_mid"):
            raise ValueError("round2 must be present exactly when round1 is I_mid")


def _measurement_sweep(g: LayoutGeometry, params: MoleculeParams) -> tuple[float, float]:
    """(ramp duration, per-sweep Ising phase) of the minimal valid sweep.

    Not cached: a run sizes it when its lowering meets the first read, and
    a Bell table once more for its phase."""
    window = sweep_rate_window(params)
    if window.is_empty:
        raise ValueError("adiabaticity window is empty; no valid measurement sweep")
    ramp = window.min_duration
    phi = phase_from_waveform(full_sweep(params, ramp), g, params.tunnel_coupling)
    return ramp, phi


@dataclass(frozen=True)
class BellBranches:
    """Every way the two-round Bell measurement of one state can end.

    round1 holds the first read's (level, p) pairs in
    pair_read_probabilities order. round2 maps each live round-one level
    to the second read's pairs, or to None when that level is not I_mid.
    outcomes maps (round1, round2) to the finished BellOutcome, with
    round2 None after a round-one I_max or I_min. Only the draws are left:
    leaf_indices(draws) looks up a whole array of trials' leaves.
    """

    round1: Outcomes
    round2: dict[str, Outcomes | None]
    outcomes: dict[tuple[str, str | None], BellOutcome]

    def leaf_indices(self, draws: np.ndarray) -> np.ndarray:
        """Index into outcomes of the leaf each row of a (T, 2) array of
        uniforms reaches: its first column picks the round-one level and,
        after I_mid, its second column the round-two level."""
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
