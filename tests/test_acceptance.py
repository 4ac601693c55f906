"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Each test prints "criterion N (<label>): PASS|FAIL" before asserting, so a
plain pytest run yields one verdict line per criterion (visible with -s or
in failure output; the -v test line mirrors it).
"""
import json
import math
import time
import warnings

import numpy as np

from bell_reference import sample_outcome
from charge_oracle import (charge_hamiltonian, hold_at, hybridized_states,
                           oracle_evolve, oracle_from_encoded, oracle_to_encoded,
                           square_pulse)
from coulomb_oracle import pairwise_energy, perpendicular_molecule
from schedule_reference import align_global_phase
from stream_reference import substream
from dotmol import (READ_LIMIT_MESSAGE, Action, EncodedRegisterState, Gate,
                    LayoutGeometry, MoleculeParams, ScheduleProgram,
                    ScheduleStep, Topology, adiabatic_angle,
                    background_interaction, bell_branches, bell_state,
                    charge_sites, compile_circuit, controlled_phase_hold_time,
                    doubly_occupied_interaction, init_schedule, ising_phase,
                    pair_coupling, phase_from_waveform, sin_sq_mixing,
                    sites_pair_energy, time_budget,
                    validate_program)
from dotmol.cli import main
from dotmol.register import cnot


def verdict(number: int, label: str, ok: bool):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_hybridization_limits():
    t0 = time.perf_counter()
    tc = 10.0
    ec = 5000.0
    ok = float(sin_sq_mixing(-ec / 2, tc)) < 1e-4
    ok &= float(sin_sq_mixing(+ec / 2, tc)) > 1 - 1e-4

    rng = np.random.default_rng(1)
    for _ in range(100):
        t = rng.uniform(0.5, 40.0)
        e = rng.uniform(-2500.0, 2500.0)
        lower_state, upper_state = hybridized_states(adiabatic_angle(e, t))
        _, vectors = np.linalg.eigh(charge_hamiltonian(e, t))
        for ours, reference in ((lower_state, vectors[:, 0]),
                                (upper_state, vectors[:, 1])):
            if np.vdot(reference, ours).real < 0:
                reference = -reference
            ok &= bool(np.max(np.abs(ours - reference)) < 1e-12)
    ok &= (time.perf_counter() - t0) < 1.0
    verdict(1, "hybridization limits", ok)


def test_criterion_2_electrostatics_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(100):
        a = rng.uniform(5.0, 50.0)
        b = a * rng.uniform(10.0, 40.0)
        eps_r = rng.uniform(2.0, 20.0)
        g = LayoutGeometry(intra_dot_distance=a, inter_molecule_distance=b,
                           relative_permittivity=eps_r,
                           topology=Topology.line(2))
        idle = [perpendicular_molecule(m, a, b) for m in (0, 1)]
        swept = [perpendicular_molecule(m, a, b, doubly_occupied=True)
                 for m in (0, 1)]

        def against(ours, reference):
            return abs(ours - reference) <= 1e-10 * abs(reference)

        e_idle = pairwise_energy(idle[0], idle[1], eps_r)
        e_both = pairwise_energy(swept[0], swept[1], eps_r)
        e_left = pairwise_energy(swept[0], idle[1], eps_r)
        e_right = pairwise_energy(idle[0], swept[1], eps_r)
        ok &= against(background_interaction(g), e_idle)
        ok &= against(doubly_occupied_interaction(g), e_both)
        ok &= against(pair_coupling(g).coupling_max,
                      e_both - e_left - e_right + e_idle)
    ok &= (time.perf_counter() - t0) < 1.0
    verdict(2, "electrostatics oracle equivalence", ok)


def test_criterion_3_gate_time():
    t0 = time.perf_counter()
    g = LayoutGeometry(intra_dot_distance=20.0, inter_molecule_distance=200.0,
                       relative_permittivity=12.9, topology=Topology.line(2))
    h_cc_max = pair_coupling(g).coupling_max
    hold = controlled_phase_hold_time(g)
    ok = 5.4 < h_cc_max < 5.6
    ok &= math.isclose(hold, math.pi * 0.6582119569 / h_cc_max, rel_tol=1e-12)
    ok &= 0.1 <= hold <= 10.0
    ok &= (time.perf_counter() - t0) < 1.0
    verdict(3, "controlled-phase gate time", ok)


def test_criterion_4_cnot():
    adjacency = Topology.line(2).adjacency()
    basis = np.eye(4, dtype=complex)
    composed = np.column_stack([
        cnot(EncodedRegisterState(basis[:, k]), 0, 1,
             adjacency).amplitudes
        for k in range(4)])
    canonical = np.eye(4)[[0, 1, 3, 2]].astype(complex)
    aligned = align_global_phase(canonical.reshape(-1), composed.reshape(-1))
    ok = float(np.linalg.norm(aligned.reshape(4, 4) - canonical)) < 1e-10

    twice = np.column_stack([
        cnot(cnot(EncodedRegisterState(basis[:, k]), 0, 1,
                  adjacency), 0, 1, adjacency).amplitudes
        for k in range(4)])
    aligned = align_global_phase(np.eye(4, dtype=complex).reshape(-1),
                                 twice.reshape(-1))
    ok &= float(np.linalg.norm(aligned.reshape(4, 4) - np.eye(4))) < 1e-10
    verdict(4, "composed CNOT", ok)


def test_criterion_5_encoded_vs_oracle():
    t0 = time.perf_counter()
    params = MoleculeParams(tunnel_coupling=0.5)
    tc = params.tunnel_coupling
    rng = np.random.default_rng(5)
    ok = True

    def random_state(n):
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        amps /= np.linalg.norm(amps)
        return EncodedRegisterState(amps)

    def oracle_gap(g, state, pair, waveforms, displacements=None):
        n = state.n
        pulse = waveforms[pair[0]]
        phi = phase_from_waveform(pulse, g, tc)
        encoded = ising_phase(state, *pair, phi, g.topology.adjacency())
        idle_eps = [params.detuning_min] * n
        oracle = oracle_from_encoded(state, tc, idle_eps)
        evolved = oracle_evolve(oracle, g, tc, waveforms,
                                displacements=displacements)
        back = oracle_to_encoded(evolved, tc, idle_eps)
        aligned = align_global_phase(encoded.amplitudes, back)
        return float(np.max(np.abs(aligned - encoded.amplitudes)))

    # two molecules, perpendicular layout
    g2 = LayoutGeometry(topology=Topology.line(2))
    pulse = square_pulse(params, ramp=1e-4, hold=controlled_phase_hold_time(g2))
    ok &= oracle_gap(g2, random_state(2), (0, 1), [pulse, pulse]) < 1e-6

    # three molecules with an idle bystander
    g3 = LayoutGeometry(topology=Topology.line(3))
    pulse = square_pulse(params, ramp=1e-4, hold=controlled_phase_hold_time(g3))
    idle = hold_at(params.detuning_min, pulse.duration)
    ok &= oracle_gap(g3, random_state(3), (1, 2), [idle, pulse, pulse]) < 1e-6

    # perpendicular layout: a one-sided displacement leaves every
    # neighbouring pair energy exactly unchanged
    both_idle = sites_pair_energy(g3, charge_sites(g3, 0, False),
                                  charge_sites(g3, 1, False))
    one_swept = sites_pair_energy(g3, charge_sites(g3, 0, False),
                                  charge_sites(g3, 1, True))
    ok &= both_idle == one_swept

    # in-line layout: the same displacement leaks a visible phase
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g_in = LayoutGeometry(layout="in_line", topology=Topology.line(3))
    pulse = square_pulse(params, ramp=1e-4, hold=controlled_phase_hold_time(g_in))
    idle = hold_at(params.detuning_min, pulse.duration)
    gap = oracle_gap(g_in, random_state(3), (1, 2), [idle, pulse, pulse],
                     displacements=[+1, +1, -1])
    ok &= gap > 1e-3
    inline_idle = sites_pair_energy(g_in, charge_sites(g_in, 0, False),
                                    charge_sites(g_in, 1, False))
    inline_swept = sites_pair_energy(g_in, charge_sites(g_in, 0, False),
                                     charge_sites(g_in, 1, True, +1))
    ok &= abs(inline_swept - inline_idle) > 0
    ok &= (time.perf_counter() - t0) < 30.0
    verdict(5, "encoded vs oracle", ok)


def test_criterion_6_bell_protocol():
    t0 = time.perf_counter()
    g = LayoutGeometry(topology=Topology.line(2))
    params = MoleculeParams()
    trials = 10_000
    ok = True

    for label in ("phi_plus", "phi_minus", "psi_plus", "psi_minus"):
        rng = substream(20260814, "acceptance-bell", label)
        round1 = {"I_max": 0, "I_mid": 0, "I_min": 0}
        round2 = {"I_max": 0, "I_mid": 0, "I_min": 0, None: 0}
        classifications = set()
        branches = bell_branches(bell_state(label), 0, 1, g, params)
        for _ in range(trials):
            outcome = sample_outcome(branches, rng.random)
            round1[outcome.round1] += 1
            round2[outcome.round2] += 1
            classifications.add(outcome.classification)

        if label.startswith("phi"):
            ok &= round1["I_mid"] == 0
            ok &= abs(round1["I_max"] / trials - 0.5) <= 0.02
            ok &= abs(round1["I_min"] / trials - 0.5) <= 0.02
            ok &= round2[None] == trials
            ok &= classifications <= {"tt_or_phi_sector", "ss_or_phi_sector"}
        elif label == "psi_plus":
            ok &= round1["I_mid"] == trials
            ok &= round2["I_mid"] == 0 and round2[None] == 0
            ok &= round2["I_max"] + round2["I_min"] == trials
            ok &= classifications == {"psi_plus"}  # zero confusion
        else:
            ok &= round1["I_mid"] == trials
            ok &= round2["I_mid"] == trials
            ok &= classifications == {"psi_minus"}  # zero confusion
    ok &= (time.perf_counter() - t0) < 60.0
    verdict(6, "two-round Bell protocol", ok)


def test_criterion_7_coloring_and_validator():
    params = MoleculeParams()
    ok = len(init_schedule(Topology.line(5), params).steps) == 2
    ok &= len(init_schedule(Topology.grid(3, 3), params).steps) == 4

    for topology, gates in (
            (Topology.line(4), [Gate("h", (0,)), Gate("cnot", (0, 1)),
                                Gate("cz", (2, 3)), Gate("measure", (1,))]),
            (Topology.grid(2, 3), [Gate("cz", (0, 1)), Gate("cz", (4, 5)),
                                   Gate("h", (2,)), Gate("bell", (3, 4))])):
        g = LayoutGeometry(topology=topology)
        program = compile_circuit(gates, g, params)
        ok &= validate_program(program, topology.adjacency()) == []

    adjacency = Topology.line(6).adjacency()

    def rules(*actions):
        program = ScheduleProgram((ScheduleStep(tuple(actions)),), 6)
        return [v.rule for v in validate_program(program, adjacency)]

    ok &= rules(Action("read_single", (0,), duration=1.0),
                Action("read_single", (1,), duration=1.0)) == ["adjacent-read"]
    ok &= rules(Action("init", (2,), duration=1.0),
                Action("init", (3,), duration=1.0)) == ["adjacent-init"]
    ok &= rules(Action("sweep_pair", (0, 1), duration=1.0, phase=math.pi),
                Action("sweep_pair", (2, 3), duration=1.0, phase=math.pi)
                ) == ["unintended-02-adjacency"]
    verdict(7, "coloring and validator", ok)


def test_criterion_8_time_budget():
    params = MoleculeParams()
    g = LayoutGeometry(topology=Topology.line(2))

    bell_program = compile_circuit([Gate("bell", (0, 1))], g, params)
    report = time_budget(bell_program, params, echo=True)
    flagged = [v for v in report.violations if v.rule == "qpc-read-limit"]
    ok = bool(flagged)
    ok &= all(v.message == READ_LIMIT_MESSAGE for v in flagged)
    ok &= math.isclose(report.limit, 1000.0)

    cz_program = compile_circuit([Gate("cz", (0, 1))], g, params)
    cz_report = time_budget(cz_program, params)
    ok &= cz_report.ok and math.isclose(cz_report.limit, 10.0)
    verdict(8, "coherence time budget", ok)


def test_criterion_9_determinism(tmp_path):
    circuit = tmp_path / "c.txt"
    circuit.write_text("H 0\nCNOT 0 1\nMEASURE 0\n")
    configs = {
        "simulate": {"geometry": {"topology": {"kind": "line", "n": 2}},
                     "params": {"coherence_time": 5000.0}, "seed": 11,
                     "scenario": {"kind": "simulate", "circuit": "c.txt"}},
        "bell": {"geometry": {"topology": {"kind": "line", "n": 2}},
                 "seed": 11,
                 "scenario": {"kind": "bell", "input": "psi_plus",
                              "trials": 64}},
    }
    ok = True
    for name, config in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        outputs = []
        for run in range(2):
            out = tmp_path / f"{name}-{run}.out"
            assert main(["--config", str(path), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        ok &= outputs[0] == outputs[1]
    verdict(9, "byte-identical determinism", ok)
