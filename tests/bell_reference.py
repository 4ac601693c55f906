"""Step-by-step two-round Bell measurement, one trial at a time.

This is the per-trial protocol the package ran before it tabulated the
branches: sweep the pair out, read, sweep home and, after I_mid, Hadamard
both molecules, sweep out, read and sweep home again, drawing each read
from rng as it happens. It is built only from public kernels, so the
branch table in dotmol.measurement can be checked against it trial by
trial.
"""
from __future__ import annotations

from dotmol import (DEFAULT_CURRENTS, Rotation, apply_rotation, ising_phase,
                    qpc_read_pair)
from dotmol.measurement import _measurement_sweep


def reference_bell(state, i, j, g, params, rng, safety_factor=10.0,
                   currents=DEFAULT_CURRENTS):
    """(round1, round2, classification, phi, final_state) of one trial."""
    adjacency = g.topology.adjacency()
    _, sweep_phi = _measurement_sweep(g, params, safety_factor)
    phi = 0.0

    state = ising_phase(state, i, j, sweep_phi, adjacency)
    phi += sweep_phi
    state = state.with_flags({i: "02", j: "02"})
    first = qpc_read_pair(state, i, j, rng, currents, accumulated_phase=phi)
    state = first.post_state.with_flags({i: "11", j: "11"})
    state = ising_phase(state, i, j, sweep_phi, adjacency)
    phi += sweep_phi
    if first.level == "I_max":
        return first.level, None, "tt_or_phi_sector", phi, state
    if first.level == "I_min":
        return first.level, None, "ss_or_phi_sector", phi, state

    state = apply_rotation(state, i, Rotation.hadamard())
    state = apply_rotation(state, j, Rotation.hadamard())
    state = ising_phase(state, i, j, sweep_phi, adjacency)
    phi += sweep_phi
    state = state.with_flags({i: "02", j: "02"})
    second = qpc_read_pair(state, i, j, rng, currents, accumulated_phase=phi)
    state = second.post_state.with_flags({i: "11", j: "11"})
    state = ising_phase(state, i, j, sweep_phi, adjacency)
    phi += sweep_phi
    classification = "psi_minus" if second.level == "I_mid" else "psi_plus"
    return first.level, second.level, classification, phi, state
