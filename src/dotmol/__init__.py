"""Device-level simulator and schedule compiler for double-dot molecule qubits.

A molecule is two vertically stacked quantum dots sharing two electrons;
the qubit lives in the singlet/triplet pair {|T(1,1)>, |S(1,1)>}. Detuning
pulses hybridize the singlet with the doubly occupied charge state, which
switches on a Coulomb-mediated Ising interaction between neighbours and
shifts the current through a nearby QPC for readout.
"""
from .constants import (COULOMB_UEV_NM, GAAS_RELATIVE_PERMITTIVITY,
                        HBAR_UEV_NS, MU_B_UEV_PER_T)
from .electrostatics import (LayoutGeometry, PairCoupling, Topology,
                             background_interaction, charge_sites,
                             controlled_phase_hold_time, dot_positions,
                             doubly_occupied_interaction, h_cc,
                             inline_crosstalk, inline_interaction,
                             nnn_coupling_ratio, pair_coupling,
                             sites_pair_energy)
from .measurement import (BELL_LABELS, QPC_CURRENTS, BellBranches,
                          BellOutcome, bell_state, pair_read_probabilities,
                          qpc_read)
from .physics import (DetuningWaveform, MoleculeParams, SweepWindow,
                      WaveformViolation, adiabatic_angle,
                      charge_branch_energies, full_sweep, sin_sq_mixing,
                      sweep_rate_window, validate_waveform)
from .register import (EncodedRegisterState, Rotation, apply_rotation,
                       ising_phase, molecule_probabilities,
                       phase_from_waveform, product_state)
from .scheduler import (ECHO_FACTOR, READ_LIMIT_MESSAGE, Action,
                        BudgetReport, BudgetViolation, CompileError, Gate,
                        RuleViolation, ScheduleProgram, ScheduleStep,
                        bell_branches, compile_circuit, init_schedule,
                        simulate_program, time_budget, validate_program)
from .streams import stream_token

__all__ = [
    "COULOMB_UEV_NM", "GAAS_RELATIVE_PERMITTIVITY", "HBAR_UEV_NS",
    "MU_B_UEV_PER_T",
    "LayoutGeometry", "PairCoupling", "Topology", "background_interaction",
    "charge_sites", "controlled_phase_hold_time", "dot_positions",
    "doubly_occupied_interaction", "h_cc", "inline_crosstalk",
    "inline_interaction", "nnn_coupling_ratio", "pair_coupling",
    "sites_pair_energy",
    "BELL_LABELS", "QPC_CURRENTS", "BellBranches", "BellOutcome",
    "bell_state", "pair_read_probabilities", "qpc_read",
    "DetuningWaveform", "MoleculeParams", "SweepWindow", "WaveformViolation",
    "adiabatic_angle", "charge_branch_energies", "full_sweep",
    "sin_sq_mixing", "sweep_rate_window", "validate_waveform",
    "EncodedRegisterState", "Rotation", "apply_rotation", "ising_phase",
    "molecule_probabilities", "phase_from_waveform", "product_state",
    "ECHO_FACTOR", "READ_LIMIT_MESSAGE", "Action", "BudgetReport",
    "BudgetViolation", "CompileError", "Gate", "RuleViolation",
    "ScheduleProgram", "ScheduleStep", "bell_branches", "compile_circuit",
    "init_schedule", "simulate_program", "time_budget", "validate_program",
    "stream_token",
]
