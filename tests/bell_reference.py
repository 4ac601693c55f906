"""Step-by-step two-round Bell measurement, one trial at a time.

This is the per-trial protocol the package ran before it tabulated the
branches: sweep the pair out, read, sweep home and, after I_mid, Hadamard
both molecules, sweep out, read and sweep home again, drawing each read
with draw() as it happens. It is built from the allocating public kernels
and the package's QPC read, so the branch table that bell_branches builds
on the schedule executor can be checked against it trial by trial.

reference_branches is the branch table as the package built it by hand
before it ran the compiled BELL on the schedule executor: the same
protocol, every live branch followed once with the allocating public
kernels. The executor's table must equal it bit for bit.

reference_sample is the per-draw loop the package's reads ran before its
threshold sampler, and reference_leaf walks a branch table with it, so the
sampler can be checked against it draw by draw. sample_outcome looks one
trial's outcome up in a branch table the way the CLI does, on a one-row
array of draws, drawing the second uniform only after I_mid.
"""
from __future__ import annotations

import math

import numpy as np

from dotmol import (BellBranches, BellOutcome, EncodedRegisterState, Rotation,
                    apply_rotation, ising_phase, pair_read_probabilities, qpc_read)
from dotmol.measurement import _measurement_sweep, _sampler
from dotmol.register import pair_view

# (bit_i, bit_j) blocks that a pair read at each level rules out
_REJECTED = {"I_max": ((0, 1), (1, 0), (1, 1)),
             "I_mid": ((0, 0), (1, 1)),
             "I_min": ((0, 0), (0, 1), (1, 0))}


def reference_bell(state, i, j, g, params, draw):
    """(round1, round2, classification, phi, final_state) of one trial."""
    adjacency = g.topology.adjacency()
    _, sweep_phi = _measurement_sweep(g, params)
    phi = 0.0

    state = ising_phase(state, i, j, sweep_phi, adjacency)
    phi += sweep_phi
    first, state = qpc_read(state, (i, j), _sampler(draw))
    state = ising_phase(state, i, j, sweep_phi, adjacency)
    phi += sweep_phi
    if first == "I_max":
        return first, None, "tt_or_phi_sector", phi, state
    if first == "I_min":
        return first, None, "ss_or_phi_sector", phi, state

    state = apply_rotation(state, i, Rotation.hadamard())
    state = apply_rotation(state, j, Rotation.hadamard())
    state = ising_phase(state, i, j, sweep_phi, adjacency)
    phi += sweep_phi
    second, state = qpc_read(state, (i, j), _sampler(draw))
    state = ising_phase(state, i, j, sweep_phi, adjacency)
    phi += sweep_phi
    classification = "psi_minus" if second == "I_mid" else "psi_plus"
    return first, second, classification, phi, state


def reference_sample(u, outcomes):
    """The label uniform u in [0, 1) picks from (label, p) pairs; branches
    at or below 1e-15 are never picked."""
    live = [(label, p) for label, p in outcomes if p > 1e-15]
    total = sum(p for _, p in live)
    u *= total
    acc = 0.0
    for label, p in live:
        acc += p
        if u < acc:
            return label
    return live[-1][0]


def reference_leaf(branches, u1, u2):
    """The (round1, round2) leaf of a BellBranches table that uniforms u1
    and, after I_mid, u2 reach."""
    level1 = reference_sample(u1, branches.round1)
    second = branches.round2[level1]
    return level1, None if second is None else reference_sample(u2, second)


def _collapse(state, i, j, level):
    """The swept pair's state after a read at level: the rejected blocks
    zeroed on a copy, then renormalised in place."""
    amps = state.amplitudes.copy()
    view = pair_view(amps, i, j)
    for a, b in _REJECTED[level]:
        view[:, a, :, b] = 0.0
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return EncodedRegisterState(amps)


def reference_branches(state, i, j, g, params):
    """BellBranches of the two-round measurement on adjacent i, j, each
    live branch followed once, step by step."""
    adjacency = g.topology.adjacency()
    _, sweep_phi = _measurement_sweep(g, params)
    phi1 = sweep_phi + sweep_phi
    phi2 = phi1 + sweep_phi + sweep_phi

    def read(s):
        """Sweep out, then the (level, p) pairs and each live level's state."""
        s = ising_phase(s, i, j, sweep_phi, adjacency)
        probs = tuple(pair_read_probabilities(s, i, j).items())
        return probs, {level: _collapse(s, i, j, level) for level, p in probs if p > 1e-15}

    round1, collapsed1 = read(state)
    round2, outcomes = {}, {}
    for level1, post1 in collapsed1.items():
        state = ising_phase(post1, i, j, sweep_phi, adjacency)
        if level1 != "I_mid":
            round2[level1] = None
            classification = ("tt_or_phi_sector" if level1 == "I_max"
                              else "ss_or_phi_sector")
            outcomes[level1, None] = BellOutcome(level1, None, classification, phi1, state)
            continue
        hadamard = Rotation.hadamard()
        state = apply_rotation(state, i, hadamard)
        state = apply_rotation(state, j, hadamard)
        round2[level1], collapsed2 = read(state)
        for level2, post2 in collapsed2.items():
            final = ising_phase(post2, i, j, sweep_phi, adjacency)
            classification = "psi_minus" if level2 == "I_mid" else "psi_plus"
            outcomes[level1, level2] = BellOutcome(level1, level2, classification,
                                                   phi2, final)
    return BellBranches(round1, round2, outcomes)


def sample_outcome(branches, draw):
    """The BellOutcome a trial reaches: leaf_indices on a one-row array of
    draws, the second drawn only when the first reaches I_mid."""
    outcomes = list(branches.outcomes.values())
    row = np.array([[draw(), 0.0]])
    outcome = outcomes[branches.leaf_indices(row)[0]]
    if outcome.round2 is not None:
        row[0, 1] = draw()
        outcome = outcomes[branches.leaf_indices(row)[0]]
    return outcome
