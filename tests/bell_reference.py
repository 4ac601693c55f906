"""Step-by-step two-round Bell measurement, one trial at a time.

This is the per-trial protocol the package ran before it tabulated the
branches: sweep the pair out, read, sweep home and, after I_mid, Hadamard
both molecules, sweep out, read and sweep home again, drawing each read
with draw() as it happens. It is built only from public kernels, so the
branch table in dotmol.measurement can be checked against it trial by
trial.

reference_sample is the per-draw loop the package's reads ran before its
threshold sampler, and reference_leaf walks a branch table with it, so the
sampler can be checked against it draw by draw.
"""
from __future__ import annotations

from dotmol import Rotation, apply_rotation, ising_phase, qpc_read_pair
from dotmol.measurement import _measurement_sweep


def reference_bell(state, i, j, g, params, draw):
    """(round1, round2, classification, phi, final_state) of one trial."""
    adjacency = g.topology.adjacency()
    _, sweep_phi = _measurement_sweep(g, params)
    phi = 0.0

    state = ising_phase(state, i, j, sweep_phi, adjacency)
    phi += sweep_phi
    first = qpc_read_pair(state, i, j, draw)
    state = ising_phase(first.post_state, i, j, sweep_phi, adjacency)
    phi += sweep_phi
    if first.level == "I_max":
        return first.level, None, "tt_or_phi_sector", phi, state
    if first.level == "I_min":
        return first.level, None, "ss_or_phi_sector", phi, state

    state = apply_rotation(state, i, Rotation.hadamard())
    state = apply_rotation(state, j, Rotation.hadamard())
    state = ising_phase(state, i, j, sweep_phi, adjacency)
    phi += sweep_phi
    second = qpc_read_pair(state, i, j, draw)
    state = ising_phase(second.post_state, i, j, sweep_phi, adjacency)
    phi += sweep_phi
    classification = "psi_minus" if second.level == "I_mid" else "psi_plus"
    return first.level, second.level, classification, phi, state


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
