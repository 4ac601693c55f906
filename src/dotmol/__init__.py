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
from .measurement import (BELL_LABELS, DEFAULT_CURRENTS, BellBranches,
                          BellDecomposition, BellOutcome, QpcCurrents,
                          QpcReading, bell_branches, bell_measure, bell_state,
                          decompose_bell, pair_read_probabilities,
                          qpc_read_pair, qpc_read_single)
from .physics import (DetuningWaveform, MoleculeParams, SweepWindow,
                      WaveformViolation, adiabatic_angle,
                      charge_branch_energies, charge_hamiltonian, full_sweep,
                      hold_at, hybridized_states, sin_sq_mixing, square_pulse,
                      sweep_rate_window, validate_waveform)
from .register import (EncodedRegisterState, Rotation, align_global_phase,
                       apply_rotation, cnot, euler_x_sequence, ising_phase,
                       molecule_probabilities, phase_from_waveform,
                       product_state, state_json, states_equal)
from .scheduler import (ECHO_FACTOR, READ_LIMIT_MESSAGE, Action,
                        BudgetReport, BudgetViolation, CompileError, Gate,
                        RuleViolation, ScheduleProgram, ScheduleStep,
                        compile_circuit, init_schedule, simulate_program,
                        time_budget, validate_program)
from .streams import stream_token, substream

__all__ = [
    "COULOMB_UEV_NM", "GAAS_RELATIVE_PERMITTIVITY", "HBAR_UEV_NS",
    "MU_B_UEV_PER_T",
    "LayoutGeometry", "PairCoupling", "Topology", "background_interaction",
    "charge_sites", "controlled_phase_hold_time", "dot_positions",
    "doubly_occupied_interaction", "h_cc", "inline_crosstalk",
    "inline_interaction", "nnn_coupling_ratio", "pair_coupling",
    "sites_pair_energy",
    "BELL_LABELS", "DEFAULT_CURRENTS", "BellBranches", "BellDecomposition",
    "BellOutcome", "QpcCurrents", "QpcReading", "bell_branches",
    "bell_measure", "bell_state",
    "decompose_bell", "pair_read_probabilities", "qpc_read_pair",
    "qpc_read_single",
    "DetuningWaveform", "MoleculeParams", "SweepWindow", "WaveformViolation",
    "adiabatic_angle", "charge_branch_energies", "charge_hamiltonian",
    "full_sweep", "hold_at", "hybridized_states", "sin_sq_mixing",
    "square_pulse", "sweep_rate_window", "validate_waveform",
    "EncodedRegisterState", "Rotation", "align_global_phase",
    "apply_rotation", "cnot", "euler_x_sequence", "ising_phase",
    "molecule_probabilities", "phase_from_waveform", "product_state",
    "state_json", "states_equal",
    "ECHO_FACTOR", "READ_LIMIT_MESSAGE", "Action", "BudgetReport",
    "BudgetViolation", "CompileError", "Gate", "RuleViolation",
    "ScheduleProgram", "ScheduleStep", "compile_circuit", "init_schedule",
    "simulate_program", "time_budget", "validate_program",
    "stream_token", "substream",
]
